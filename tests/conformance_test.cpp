// Differential-conformance tests for the executor zoo.
//
// The oracle sweeps (profile x executor x threads x schedule-seed) cells,
// replaying the same seeded corpus through each engine and the sequential
// baseline in lockstep under a seeded schedule perturber (and, in the
// fault sweeps, a seeded fault injector). Any divergence fails with a
// one-line repro command; replay it with
//   TXCONC_REPRO='...' ./build/tests/conformance_test
//       --gtest_filter='ReproCommand.ReplaysEnvSpec'
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "account/runtime.h"
#include "account/state.h"
#include "common/error.h"
#include "common/rng.h"
#include "conformance/differential.h"
#include "conformance/fault.h"
#include "conformance/perturb.h"
#include "core/speedup_model.h"
#include "exec/executor.h"
#include "exec/replay.h"
#include "exec/schedule_sim.h"
#include "exec/thread_pool.h"
#include "workload/account_workload.h"
#include "workload/profiles.h"
#include "workload/utxo_workload.h"

namespace txconc::conformance {
namespace {

/// TSan multiplies runtimes ~10x; the CI lane sets this to shrink the
/// sweep (fewer schedule seeds) without changing what is asserted.
bool fast_mode() {
  return std::getenv("TXCONC_CONFORMANCE_FAST") != nullptr;
}

void report_divergences(const GridOutcome& outcome) {
  for (const Divergence& d : outcome.divergences) {
    ADD_FAILURE() << d.spec.executor << " x" << d.spec.threads << " on "
                  << d.spec.profile << " diverged at block " << d.block
                  << ": " << d.detail << "\n  repro: " << d.repro;
  }
}

// ------------------------------------------------------- differential oracle

TEST(DifferentialOracle, ExecutorZooMatchesSequentialAcrossGrid) {
  GridOptions options;
  options.profiles = {"ethereum", "ethereum_classic", "zilliqa"};
  options.executors = {"speculative", "oracle-speculative", "group-lpt",
                       "block-stm"};
  options.thread_grid = {1, 2, 4};
  options.num_schedule_seeds = fast_mode() ? 2 : 10;
  options.num_blocks = 3;
  options.tx_scale = 0.5;

  const GridOutcome outcome = run_grid(options);
  if (!fast_mode()) {
    EXPECT_GE(outcome.cells, 4u * 3u * 3u * 10u);
  }
  EXPECT_GT(outcome.blocks_checked, 0u);
  report_divergences(outcome);
}

// The ablation variants ride a smaller sweep: same oracle, fewer cells.
TEST(DifferentialOracle, AblationVariantsMatchSequential) {
  GridOptions options;
  options.profiles = {"ethereum"};
  options.executors = {"speculative-fww"};
  options.thread_grid = {3};
  options.num_schedule_seeds = 2;
  options.num_blocks = 3;
  options.tx_scale = 0.5;
  report_divergences(run_grid(options));
}

TEST(DifferentialOracle, RunPairRejectsUtxoProfilesAndUnknownNames) {
  RunSpec spec;
  spec.profile = "bitcoin";  // UTXO model: no account executors
  EXPECT_THROW(run_pair(spec), UsageError);
  EXPECT_THROW(profile_by_name("no-such-chain"), UsageError);
  EXPECT_EQ(profile_by_name("ethereum_classic").name, "Ethereum Classic");
}

// ----------------------------------------------------------- fault injection

TEST(FaultInjection, ExecutorsAgreeOnTrappedReceiptsAndState) {
  GridOptions options;
  options.profiles = {"ethereum", "zilliqa"};
  options.executors = {"speculative", "speculative-fww", "oracle-speculative",
                       "group-lpt", "block-stm"};
  options.thread_grid = {4};
  options.num_schedule_seeds = fast_mode() ? 2 : 5;
  options.num_blocks = 3;
  options.tx_scale = 0.5;
  options.fault_rate = 0.15;
  report_divergences(run_grid(options));
}

// Negative control for the oracle's signal: run the same corpus twice
// sequentially, injecting faults on one side only. The divergence channels
// the oracle watches (digest, supply, diff_accounts) must all fire —
// otherwise a silently-vacuous comparison would pass every sweep above.
TEST(FaultInjection, InjectedFaultsProduceDetectableStateDivergence) {
  workload::ChainProfile profile = profile_by_name("ethereum");
  profile.default_blocks = 2;

  exec::HistoryReplayer clean(profile, /*seed=*/1);
  exec::HistoryReplayer faulty(profile, /*seed=*/1);
  const SeededFaultInjector faults(3, 0.2);
  faulty.set_fault_injector(&faults);

  const auto sequential = exec::make_executor("sequential", 1);
  std::size_t failed_receipts = 0;
  while (clean.remaining() > 0) {
    const exec::ExecutionReport want = clean.replay_next(*sequential);
    const exec::ExecutionReport got = faulty.replay_next(*sequential);
    ASSERT_EQ(want.receipts.size(), got.receipts.size());
    for (std::size_t i = 0; i < got.receipts.size(); ++i) {
      if (want.receipts[i].success && !got.receipts[i].success) {
        ++failed_receipts;
        EXPECT_NE(got.receipts[i].error.find("injected fault"),
                  std::string::npos);
      }
    }
  }
  ASSERT_GT(failed_receipts, 0u) << "fault rate 0.2 trapped nothing";
  EXPECT_NE(clean.state().digest(), faulty.state().digest());
  EXPECT_FALSE(account::diff_accounts(clean.state(), faulty.state()).empty());
}

TEST(FaultInjection, SelectionIsDeterministicAndRateBounded) {
  const SeededFaultInjector a(7, 0.3);
  const SeededFaultInjector b(7, 0.3);
  const SeededFaultInjector none(7, 0.0);
  const SeededFaultInjector all(7, 1.0);
  std::size_t trapped = 0;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    account::AccountTx tx;
    tx.from = Address::from_seed(i % 50);
    tx.nonce = i / 50;
    EXPECT_EQ(a.should_trap(tx), b.should_trap(tx));
    EXPECT_FALSE(none.should_trap(tx));
    EXPECT_TRUE(all.should_trap(tx));
    if (a.should_trap(tx)) ++trapped;
  }
  // ~600 expected; a loose band catches a broken threshold, not noise.
  EXPECT_GT(trapped, 400u);
  EXPECT_LT(trapped, 800u);
  EXPECT_THROW(SeededFaultInjector(1, -0.1), UsageError);
  EXPECT_THROW(SeededFaultInjector(1, 1.5), UsageError);
}

TEST(FaultInjection, TrapRollsBackExecutionButKeepsNonceAndFee) {
  account::StateDb state;
  const Address sender = Address::from_seed(1);
  const Address receiver = Address::from_seed(2);
  state.set_balance(sender, 1'000'000);
  state.flush_journal();

  account::AccountTx tx;
  tx.from = sender;
  tx.to = receiver;
  tx.value = 500;
  tx.gas_limit = 30000;
  tx.nonce = 0;

  const SeededFaultInjector all(0, 1.0);
  account::RuntimeConfig config;
  config.fault_injector = &all;
  const account::Receipt receipt = account::apply_transaction(state, tx, config);

  EXPECT_FALSE(receipt.success);
  EXPECT_NE(receipt.error.find("injected fault"), std::string::npos);
  EXPECT_EQ(receipt.gas_used, config.gas.tx_base);
  // The transfer rolled back; the nonce bump and burned gas stand.
  EXPECT_EQ(state.balance(receiver), 0u);
  EXPECT_EQ(state.nonce(sender), 1u);
  EXPECT_EQ(state.balance(sender), 1'000'000 - receipt.gas_used * tx.gas_price);
}

// --------------------------------------------------------- schedule perturber

TEST(SchedulePerturber, DelayScheduleIsDeterministicPerSeed) {
  bool differs = false;
  for (std::uint64_t k = 0; k < 512; ++k) {
    const Perturbation p = perturbation_for(42, k);
    const Perturbation q = perturbation_for(42, k);
    EXPECT_EQ(static_cast<unsigned>(p.action), static_cast<unsigned>(q.action));
    EXPECT_EQ(p.micros, q.micros);
    if (p.action != perturbation_for(43, k).action) differs = true;
  }
  EXPECT_TRUE(differs) << "seeds 42 and 43 produced identical schedules";
}

TEST(SchedulePerturber, PoolStaysCorrectUnderPerturbation) {
  exec::ThreadPool pool(4);
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const SchedulePerturber perturber(seed);
    std::vector<std::atomic<int>> hits(501);
    pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; },
                      /*grain=*/16);
    for (const auto& h : hits) {
      ASSERT_EQ(h.load(), 1);
    }
  }
}

// The perturber owns its grain hook through a GrainHookGuard: it must be
// uninstalled on EVERY scope exit — normal, nested, or exceptional. A
// leaked hook would keep perturbing every later test and benchmark in
// the process (and a failing grid aborts mid-sweep, exactly the path a
// manual uninstall-at-the-end misses).
TEST(SchedulePerturber, HookUninstalledOnScopeExit) {
  ASSERT_FALSE(exec::ThreadPool::grain_hook_installed());
  {
    const SchedulePerturber perturber(11);
    EXPECT_TRUE(exec::ThreadPool::grain_hook_installed());
  }
  EXPECT_FALSE(exec::ThreadPool::grain_hook_installed());
}

TEST(SchedulePerturber, HookUninstalledWhenScopeThrows) {
  ASSERT_FALSE(exec::ThreadPool::grain_hook_installed());
  try {
    const SchedulePerturber perturber(12);
    EXPECT_TRUE(exec::ThreadPool::grain_hook_installed());
    throw std::runtime_error("grid cell diverged");
  } catch (const std::runtime_error&) {
  }
  EXPECT_FALSE(exec::ThreadPool::grain_hook_installed());
}

TEST(SchedulePerturber, NestedPerturbersRestoreTheOuterHook) {
  exec::ThreadPool pool(2);
  const SchedulePerturber outer(1);
  {
    const SchedulePerturber inner(2);
    std::atomic<int> sum{0};
    pool.parallel_for(64, [&](std::size_t) { ++sum; }, /*grain=*/4);
    ASSERT_EQ(sum.load(), 64);
    EXPECT_GT(inner.stats().grains_seen, 0u);
    EXPECT_EQ(outer.stats().grains_seen, 0u);  // shadowed, not invoked
  }
  // The inner guard restored the outer perturber rather than removing
  // the hook outright.
  EXPECT_TRUE(exec::ThreadPool::grain_hook_installed());
  std::atomic<int> sum{0};
  pool.parallel_for(64, [&](std::size_t) { ++sum; }, /*grain=*/4);
  ASSERT_EQ(sum.load(), 64);
  EXPECT_GT(outer.stats().grains_seen, 0u);
}

// Negative control at the grid level: a full differential sweep installs
// and removes perturbers for every cell; after it returns (pass or
// fail), no hook may remain installed.
TEST(SchedulePerturber, GridLeavesNoHookInstalled) {
  GridOptions options;
  options.profiles = {"ethereum"};
  options.executors = {"speculative"};
  options.thread_grid = {2};
  options.num_schedule_seeds = 1;
  options.num_blocks = 1;
  options.tx_scale = 0.25;
  (void)run_grid(options);
  EXPECT_FALSE(exec::ThreadPool::grain_hook_installed());
}

// A wired-but-dead hook would silently weaken every conformance sweep, so
// assert the perturber actually sees grains and injects actions.
TEST(SchedulePerturber, StatsShowInjectedActions) {
  exec::ThreadPool pool(4);
  const SchedulePerturber perturber(7);
  std::atomic<int> sum{0};
  pool.parallel_for(512, [&](std::size_t) { ++sum; }, /*grain=*/4);
  ASSERT_EQ(sum.load(), 512);

  const PerturbStats stats = perturber.stats();
  EXPECT_EQ(stats.grains_seen, 128u);  // 512 iterations / grain 4
  // With the 5/8 action probability, 128 grains with zero actions would
  // mean the hook never ran; both counters moving proves injection.
  EXPECT_GT(stats.yields + stats.sleeps, 0u);
}

// --------------------------------------------------------------- repro specs

TEST(ReproCommand, FormatAndParseRoundTrip) {
  RunSpec spec;
  spec.executor = "block-stm";
  spec.threads = 8;
  spec.profile = "zilliqa";
  spec.profile_seed = 123;
  spec.schedule_seed = 456;
  spec.fault_rate = 0.25;
  spec.fault_seed = 456;
  spec.num_blocks = 5;
  spec.tx_scale = 0.5;

  const RunSpec parsed = parse_spec(format_spec(spec));
  EXPECT_EQ(parsed.executor, spec.executor);
  EXPECT_EQ(parsed.threads, spec.threads);
  EXPECT_EQ(parsed.profile, spec.profile);
  EXPECT_EQ(parsed.profile_seed, spec.profile_seed);
  EXPECT_EQ(parsed.schedule_seed, spec.schedule_seed);
  EXPECT_DOUBLE_EQ(parsed.fault_rate, spec.fault_rate);
  EXPECT_EQ(parsed.fault_seed, spec.fault_seed);
  EXPECT_EQ(parsed.num_blocks, spec.num_blocks);
  EXPECT_DOUBLE_EQ(parsed.tx_scale, spec.tx_scale);

  EXPECT_NE(repro_command(spec).find(format_spec(spec)), std::string::npos);
  EXPECT_THROW(parse_spec("bogus_key=1"), UsageError);
  EXPECT_THROW(parse_spec("no-equals-sign"), UsageError);
  EXPECT_THROW(parse_spec("threads=notanumber"), UsageError);
  EXPECT_THROW(parse_spec("threads=-1"), UsageError);
}

// Replays the cell named by TXCONC_REPRO (printed by a failing sweep);
// skips when the variable is unset so the suite stays green in CI.
TEST(ReproCommand, ReplaysEnvSpec) {
  const char* env = std::getenv("TXCONC_REPRO");
  if (env == nullptr) {
    GTEST_SKIP() << "set TXCONC_REPRO='executor=... threads=...' to replay";
  }
  const RunSpec spec = parse_spec(env);
  const std::optional<Divergence> divergence = run_pair(spec);
  EXPECT_FALSE(divergence.has_value())
      << "block " << divergence->block << ": " << divergence->detail;
}

// ------------------------------------------------- Section V closed forms

// Property sweep: the unit-cost simulators agree with the Section V closed
// forms T' = floor(x/n) + 1 + c*x and the K-preprocessing variant over
// randomized (x, c, n, K), including the c*x rounding edge.
TEST(ClosedFormProperty, SimulatorsMatchSectionVFormulas) {
  Rng rng(2026);
  for (int iteration = 0; iteration < 500; ++iteration) {
    const std::size_t x = 1 + static_cast<std::size_t>(rng.uniform(3000));
    const unsigned n = 1 + static_cast<unsigned>(rng.uniform(128));
    const double c = rng.uniform_double();
    const auto conflicted = static_cast<std::size_t>(
        std::min<long long>(static_cast<long long>(x),
                            std::llround(c * static_cast<double>(x))));
    const double c_exact =
        static_cast<double>(conflicted) / static_cast<double>(x);

    // Speculative: the simulator is the exact ceil(x/n) form.
    const exec::SimOutcome sim = exec::simulate_speculative(x, conflicted, n);
    EXPECT_NEAR(sim.time_units,
                core::SpeculativeModel::execution_time_exact(x, c_exact, n),
                1e-9)
        << "x=" << x << " n=" << n << " conflicted=" << conflicted;
    // The paper's floor(x/n)+1 form overshoots exact by at most one unit
    // (exactly one when n | x, zero otherwise).
    const double approx = core::SpeculativeModel::execution_time(x, c_exact, n);
    EXPECT_GE(approx + 1e-9, sim.time_units);
    EXPECT_LE(approx - sim.time_units, 1.0 + 1e-9);

    // K-preprocessing variant, same floor-vs-ceil tolerance.
    const double k_preprocess = rng.uniform_double() * 20.0;
    const exec::SimOutcome oracle_sim =
        exec::simulate_oracle(x, conflicted, n, k_preprocess);
    const double oracle_model = core::SpeculativeModel::oracle_execution_time(
        x, c_exact, n, k_preprocess);
    EXPECT_GE(oracle_model + 1e-9, oracle_sim.time_units)
        << "x=" << x << " n=" << n << " conflicted=" << conflicted;
    EXPECT_LE(oracle_model - oracle_sim.time_units, 1.0 + 1e-9);
  }
}

// The c*x rounding edge PR 1's llround fix targeted: a conflict rate whose
// product lands just below an integer must round up, not truncate. With
// x=10, c just under 0.7, n=4: conflicted=7 leaves 3 concurrent
// transactions (phase 1 = 1 unit after flooring 3/4 to 0, plus 1); the
// old truncation to 6 conflicted would floor(4/4)=1 and report one extra
// unit.
TEST(ClosedFormProperty, ConflictProductJustBelowIntegerRoundsUp) {
  const double c = std::nextafter(0.7, 0.0);
  const double t =
      core::SpeculativeModel::oracle_execution_time(10, c, 4, 0.0);
  EXPECT_NEAR(t, 1.0 + c * 10.0, 1e-9);
}

// ------------------------------------------------------ corpus determinism

std::string encode_account_block(const workload::GeneratedBlock& block) {
  std::ostringstream out;
  out << block.height << '|' << block.gas_used << '|';
  for (const account::AccountTx& tx : block.account_txs) {
    out << tx.from.to_hex() << ','
        << (tx.to.has_value() ? tx.to->to_hex() : std::string("create")) << ','
        << tx.value << ',' << tx.gas_limit << ',' << tx.gas_price << ','
        << tx.nonce << ",args[";
    for (const std::uint64_t a : tx.args) out << a << ' ';
    out << "],addrs[";
    for (const Address& a : tx.address_args) out << a.to_hex() << ' ';
    out << "],code" << tx.init_code.code.size() << ';';
  }
  out << '#';
  for (const account::Receipt& r : block.receipts) {
    out << r.success << ',' << r.gas_used << ',' << r.internal_txs.size()
        << ',' << r.logs.size() << ';';
  }
  return out.str();
}

std::string encode_utxo_block(const workload::GeneratedBlock& block) {
  std::ostringstream out;
  out << block.height << '|' << block.num_input_txos << '|';
  for (const utxo::Transaction& tx : block.utxo_txs) {
    out << tx.txid().to_hex() << ';';
  }
  return out.str();
}

// Guard for the corpus reproducibility the harness depends on: the same
// (profile, seed) pair must yield byte-identical block sequences from two
// fresh generator instances — for every profile, both data models.
TEST(CorpusDeterminism, EveryProfileRegeneratesByteIdenticalBlocks) {
  for (const workload::ChainProfile& profile : workload::all_profiles()) {
    constexpr std::uint64_t kSeed = 97;
    constexpr std::uint64_t kBlocks = 3;
    if (profile.model == workload::DataModel::kAccount) {
      workload::AccountWorkloadGenerator first(profile, kSeed, kBlocks);
      workload::AccountWorkloadGenerator second(profile, kSeed, kBlocks);
      for (std::uint64_t b = 0; b < kBlocks; ++b) {
        ASSERT_EQ(encode_account_block(first.next_block()),
                  encode_account_block(second.next_block()))
            << profile.name << " block " << b;
      }
    } else {
      workload::UtxoWorkloadGenerator first(profile, kSeed, kBlocks);
      workload::UtxoWorkloadGenerator second(profile, kSeed, kBlocks);
      for (std::uint64_t b = 0; b < kBlocks; ++b) {
        ASSERT_EQ(encode_utxo_block(first.next_block()),
                  encode_utxo_block(second.next_block()))
            << profile.name << " block " << b;
      }
    }
  }
}

// ------------------------------------------------------------- usage errors

TEST(UsageErrors, ExecutorConstructorsValidateArguments) {
  for (const exec::ExecutorSpec& spec : exec::executor_registry()) {
    if (!spec.parallel) continue;
    EXPECT_THROW(spec.make(0), UsageError) << spec.name;
  }
  EXPECT_THROW(exec::make_executor("no-such-engine", 2), UsageError);
  EXPECT_THROW(exec::ThreadPool(0), UsageError);
  EXPECT_NO_THROW(exec::make_executor("sequential", 0));
}

TEST(UsageErrors, RegistryCoversTheWholeZoo) {
  const std::vector<exec::ExecutorSpec>& registry = exec::executor_registry();
  // Exact and ordered: a dropped or re-added engine must fail here.
  const std::vector<std::string> expected = {
      "sequential",         "speculative", "speculative-fww",
      "oracle-speculative", "group-lpt",   "block-stm"};
  std::vector<std::string> names;
  for (const exec::ExecutorSpec& spec : registry) names.push_back(spec.name);
  EXPECT_EQ(names, expected);
  ASSERT_FALSE(registry.empty());
  EXPECT_FALSE(registry.front().parallel);
  // Registry names match the executors' self-reported names.
  for (const exec::ExecutorSpec& spec : registry) {
    EXPECT_EQ(spec.make(2)->name(), spec.name);
  }
}

}  // namespace
}  // namespace txconc::conformance
