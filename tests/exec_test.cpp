// Tests for the execution engines: thread pool, simulated-time schedulers
// (validating the Section V closed forms), and the real executors'
// equivalence with sequential execution.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>

#include "account/contracts.h"
#include "core/tdg.h"
#include "common/error.h"
#include "core/speedup_model.h"
#include "exec/executor.h"
#include "exec/predict.h"
#include "exec/replay.h"
#include "exec/schedule_sim.h"
#include "exec/thread_pool.h"
#include "obs/critpath.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/scope.h"
#include "obs/trace.h"
#include "workload/account_workload.h"
#include "workload/profiles.h"

namespace txconc::exec {
namespace {

// When TXCONC_TRACE is set (the tsan CI lane does this), enable the
// global tracer for the whole run and write the Chrome trace on exit, so
// the span-emission paths in the pool and executors run under the
// sanitizers too.
class TraceEnv : public ::testing::Environment {
 public:
  void SetUp() override {
    if (const char* path = std::getenv("TXCONC_TRACE")) {
      path_ = path;
      obs::Tracer::global().enable();
    }
  }
  void TearDown() override {
    if (path_.empty()) return;
    obs::Tracer::global().disable();
    obs::Tracer::global().write_chrome_trace_file(path_);
  }

 private:
  std::string path_;
};
[[maybe_unused]] const auto* const kTraceEnv =
    ::testing::AddGlobalTestEnvironment(new TraceEnv);

Address addr(std::uint64_t seed) { return Address::from_seed(seed); }

// --------------------------------------------------------------- thread pool

// Parks every worker of a pool inside an outer parallel_for, run from a
// std::async thread, whose size()+1 one-index grains each signal entry
// and then wait for release(); any other call must drain its own grains.
struct ParkedPool {
  explicit ParkedPool(ThreadPool& pool)
      : outer(std::async(std::launch::async, [this, &pool] {
          pool.parallel_for(pool.size() + 1, [this](std::size_t) {
            ++entered;
            gate.wait();
          }, /*grain=*/1);
        })) {
    while (entered.load() < pool.size() + 1) std::this_thread::yield();
  }
  ~ParkedPool() { release(); }
  void release() {
    if (!outer.valid()) return;
    open.set_value();
    outer.get();
  }

  std::promise<void> open;
  std::shared_future<void> gate = open.get_future().share();
  std::atomic<unsigned> entered{0};
  std::future<void> outer;  // last: its thread reads the members above
};

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(50);
  pool.parallel_for(50, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ParallelForRethrows) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t i) {
                                   if (i == 7) throw UsageError("bad index");
                                 }),
               UsageError);
}

TEST(ThreadPool, ZeroThreadsRejected) {
  EXPECT_THROW(ThreadPool(0), UsageError);
}

TEST(ThreadPool, ParallelForChunkedCoversAllIndices) {
  // A count far above the worker count with an explicit grain: every
  // index must run exactly once across the chunk boundaries.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10007);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; },
                    /*grain=*/64);
  for (const auto& h : hits) {
    ASSERT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ParallelForEnqueuesPerWorkerNotPerElement) {
  ThreadPool pool(4);
  // Drain start-up noise, then measure one call.
  pool.parallel_for(8, [](std::size_t) {});
  const ThreadPoolStats before = pool.stats();
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(5000, [&](std::size_t i) { sum += i; });
  const ThreadPoolStats after = pool.stats();
  EXPECT_EQ(sum.load(), 5000u * 4999u / 2);
  EXPECT_EQ(after.parallel_for_calls - before.parallel_for_calls, 1u);
  // O(num_workers) wakeups, not O(count): each worker joins the batch at
  // most once, and every worker has left before the call returns.
  EXPECT_LE(after.tasks_run - before.tasks_run, pool.size());
  // All grains are accounted for.
  const std::uint64_t grains = after.grains_total - before.grains_total;
  EXPECT_GE(grains, 1u);
  EXPECT_LE(grains, 4u * pool.size() + 1u);
  // Caller-runs: the calling thread claims grains too. Whether it wins one
  // on a given call is a scheduling race (sanitizer builds slow the caller
  // enough for workers to drain everything first), so retry a few times —
  // if caller-runs were removed, the counter would never move.
  bool caller_helped =
      after.grains_caller_run - before.grains_caller_run >= 1;
  for (int attempt = 0; attempt < 50 && !caller_helped; ++attempt) {
    const std::uint64_t caller_before = pool.stats().grains_caller_run;
    pool.parallel_for(5000, [&](std::size_t i) { sum += i; });
    caller_helped = pool.stats().grains_caller_run > caller_before;
  }
  EXPECT_TRUE(caller_helped) << "caller never claimed a grain in 50 calls";
}

// Regression (deadlock): a pool task that itself calls parallel_for used
// to wait forever once every worker was busy. Caller-runs lets the nested
// caller drain its own grains. Run under a watchdog so a regression fails
// the test instead of hanging the suite.
TEST(ThreadPool, NestedParallelForCompletes) {
  auto* pool = new ThreadPool(2);
  std::atomic<int> inner_total{0};
  auto watchdog = std::async(std::launch::async, [&] {
    pool->parallel_for(4, [&](std::size_t) {
      pool->parallel_for(8, [&](std::size_t) { ++inner_total; });
    });
  });
  if (watchdog.wait_for(std::chrono::seconds(60)) !=
      std::future_status::ready) {
    // Leak the pool: its workers are wedged and joining would hang too.
    GTEST_FAIL() << "nested parallel_for deadlocked";
  }
  watchdog.get();
  EXPECT_EQ(inner_total.load(), 32);
  delete pool;
}

// Deterministic counter audit: park the single worker in another batch
// so the CALLING thread must drain every grain alone, then pin the stats
// deltas exactly. grains_total counts only grains whose body ran —
// grains claimed after a failure are skipped work and must not count
// (they used to, inflating the per-block sched counters after any
// grain threw).
TEST(ThreadPool, GrainsTotalCountsOnlyBodiesThatRan) {
  ThreadPool pool(1);
  ParkedPool parked(pool);

  const ThreadPoolStats before = pool.stats();
  int bodies_run = 0;
  EXPECT_THROW(pool.parallel_for(
                   50,
                   [&](std::size_t i) {
                     ++bodies_run;
                     if (i == 0) throw UsageError("first grain fails");
                   },
                   /*grain=*/1),
               UsageError);
  const ThreadPoolStats after = pool.stats();
  // The caller claims grain 0, runs it (it throws), then skips the
  // remaining 49: exactly one grain ran, entirely caller-run.
  EXPECT_EQ(bodies_run, 1);
  EXPECT_EQ(after.grains_total - before.grains_total, 1u);
  EXPECT_EQ(after.grains_caller_run - before.grains_caller_run, 1u);
}

// Same parked-worker setup, success path: the caller drains all grains,
// so the caller-run share equals the total — no grain is double-counted
// between the caller and the (parked) worker.
TEST(ThreadPool, CallerDrainsEveryGrainWhenWorkerIsBusy) {
  ThreadPool pool(1);
  ParkedPool parked(pool);

  const ThreadPoolStats before = pool.stats();
  std::atomic<int> sum{0};
  pool.parallel_for(40, [&](std::size_t) { ++sum; }, /*grain=*/4);
  const ThreadPoolStats after = pool.stats();
  EXPECT_EQ(sum.load(), 40);
  EXPECT_EQ(after.grains_total - before.grains_total, 10u);
  EXPECT_EQ(after.grains_caller_run - before.grains_caller_run, 10u);
}

// Metric-skew audit for pool.dequeue_gap_us: the histogram measures a
// worker's idle time between leaving one batch and joining the next. A
// parallel_for drained entirely by the (busy, not idle) caller adds no
// sample — a regression that observed the gap per grain would skew the
// scheduling attribution by an order of magnitude.
TEST(ThreadPool, CallerRunGrainsDoNotFeedDequeueGapHistogram) {
  const bool was_enabled = obs::Tracer::global().enabled();
  obs::Tracer::global().enable();  // gap sampling is tracer-gated

  {
    ThreadPool pool(1);
    obs::Histogram& gap =
        obs::Registry::global().histogram("pool.dequeue_gap_us");
    // Park the worker. Its join of the parked batch records no gap: the
    // fresh worker has not left a batch yet.
    ParkedPool parked(pool);
    const std::uint64_t gap_before = gap.count();
    const ThreadPoolStats stats_before = pool.stats();

    std::atomic<int> sum{0};
    pool.parallel_for(32, [&](std::size_t) { ++sum; }, /*grain=*/1);
    ASSERT_EQ(sum.load(), 32);
    ASSERT_EQ(pool.stats().grains_caller_run - stats_before.grains_caller_run,
              32u);

    parked.release();
    // Two joins follow the parked batch (each sentinel parks the worker
    // again): exactly two gap samples despite 32 caller-run grains.
    for (int sentinel = 0; sentinel < 2; ++sentinel) ParkedPool(pool).release();
    EXPECT_EQ(gap.count() - gap_before, 2u);
  }

  if (!was_enabled) obs::Tracer::global().disable();
}

// GrainHookGuard: scoped installation restores the PREVIOUS hook, so
// nested installers compose and an exception cannot leak a hook into
// later tests or benches.
TEST(ThreadPool, GrainHookGuardRestoresPreviousHookOnExit) {
  ASSERT_FALSE(ThreadPool::grain_hook_installed());
  ThreadPool pool(2);
  std::atomic<int> outer_hits{0};
  std::atomic<int> inner_hits{0};
  {
    const ThreadPool::GrainHookGuard outer(
        [&](std::uint64_t) { ++outer_hits; });
    pool.parallel_for(8, [](std::size_t) {}, /*grain=*/1);
    const int outer_after_first = outer_hits.load();
    EXPECT_GT(outer_after_first, 0);
    {
      const ThreadPool::GrainHookGuard inner(
          [&](std::uint64_t) { ++inner_hits; });
      pool.parallel_for(8, [](std::size_t) {}, /*grain=*/1);
      EXPECT_GT(inner_hits.load(), 0);
      EXPECT_EQ(outer_hits.load(), outer_after_first);  // outer dormant
    }
    // Inner scope gone: the outer hook is live again, not removed.
    EXPECT_TRUE(ThreadPool::grain_hook_installed());
    const int inner_final = inner_hits.load();
    pool.parallel_for(8, [](std::size_t) {}, /*grain=*/1);
    EXPECT_GT(outer_hits.load(), outer_after_first);
    EXPECT_EQ(inner_hits.load(), inner_final);
  }
  EXPECT_FALSE(ThreadPool::grain_hook_installed());
}

TEST(ThreadPool, GrainHookGuardUninstallsWhenScopeThrows) {
  ASSERT_FALSE(ThreadPool::grain_hook_installed());
  try {
    const ThreadPool::GrainHookGuard guard([](std::uint64_t) {});
    EXPECT_TRUE(ThreadPool::grain_hook_installed());
    throw UsageError("unwind through the guard");
  } catch (const UsageError&) {
  }
  EXPECT_FALSE(ThreadPool::grain_hook_installed());
}

// Regression (exception aggregation): many grains throw, the caller sees
// the first exception exactly once, and the pool stays usable.
TEST(ThreadPool, ParallelForThrowsExactlyOnce) {
  ThreadPool pool(4);
  int caught = 0;
  try {
    pool.parallel_for(
        100,
        [](std::size_t i) {
          if (i % 10 == 3) throw UsageError("bad index");
        },
        /*grain=*/1);
  } catch (const UsageError&) {
    ++caught;
  }
  EXPECT_EQ(caught, 1);

  std::atomic<int> counter{0};
  pool.parallel_for(50, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 50);
}

// Slot contract: within one call the caller is slot 0 and each worker
// that joins is its own slot, so no two running grains share one.
TEST(ThreadPool, SlotIdsAreExclusiveWithinACall) {
  ThreadPool pool(3);
  std::vector<std::atomic<bool>> in_use(pool.size() + 1);
  const ThreadPool::SlotFn fn = [&](unsigned slot, std::size_t) {
    ASSERT_LE(slot, pool.size());
    EXPECT_FALSE(in_use[slot].exchange(true)) << "slot " << slot << " shared";
    std::this_thread::yield();
    in_use[slot] = false;
  };
  for (int call = 0; call < 200; ++call) {
    pool.parallel_for_slots(pool.size() + 1, fn, /*grain=*/1);
  }
}

// Two threads share one pool: whichever finds the slot busy runs its
// grains alone, and every call still covers its own range exactly once.
TEST(ThreadPool, ConcurrentCallersEachCoverTheirRange) {
  ThreadPool pool(3);
  const auto caller = [&pool] {
    std::vector<std::atomic<int>> hits(64);
    for (int call = 1; call <= 500; ++call) {
      pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; },
                        /*grain=*/1);
      for (const auto& h : hits) ASSERT_EQ(h.load(), call);
    }
  };
  auto other = std::async(std::launch::async, caller);
  caller();
  other.get();
}

// ----------------------------------------------------- simulated-time models

TEST(ScheduleSim, SpeculativeMatchesPaperWorkedExamples) {
  // Figure 1a block: x=5, 2 conflicted, n>=5 -> 3 units, R=5/3.
  const SimOutcome a = simulate_speculative(5, 2, 5);
  EXPECT_DOUBLE_EQ(a.time_units, 3.0);
  EXPECT_NEAR(a.speedup, 5.0 / 3.0, 1e-12);

  // Figure 1b block: x=16, 14 conflicted.
  EXPECT_NEAR(simulate_speculative(16, 14, 16).speedup, 16.0 / 15.0, 1e-12);
  EXPECT_DOUBLE_EQ(simulate_speculative(16, 14, 8).speedup, 1.0);
  EXPECT_LT(simulate_speculative(16, 14, 7).speedup, 1.0);
}

TEST(ScheduleSim, SpeculativeAgreesWithClosedForm) {
  for (std::size_t x : {10u, 100u, 1000u}) {
    for (unsigned n : {1u, 4u, 8u, 64u}) {
      for (double c : {0.0, 0.1, 0.5, 0.9}) {
        const auto conflicted = static_cast<std::size_t>(c * x);
        const SimOutcome sim = simulate_speculative(x, conflicted, n);
        const double model = core::SpeculativeModel::execution_time_exact(
            x, static_cast<double>(conflicted) / x, n);
        EXPECT_NEAR(sim.time_units, model, 1e-9)
            << "x=" << x << " n=" << n << " c=" << c;
      }
    }
  }
}

TEST(ScheduleSim, OracleNeverSlowerThanBlindAtZeroK) {
  for (std::size_t conflicted : {0u, 10u, 50u, 90u}) {
    const double blind = simulate_speculative(100, conflicted, 8).time_units;
    const double oracle = simulate_oracle(100, conflicted, 8, 0.0).time_units;
    EXPECT_LE(oracle, blind) << conflicted;
  }
}

TEST(ScheduleSim, GroupRespectsPaperBound) {
  // Components of sizes {20, 5x1}: l = 20/25, bound = min(n, 25/20).
  const std::vector<double> sizes = {20, 1, 1, 1, 1, 1};
  const SimOutcome sim = simulate_group(sizes, 8);
  EXPECT_DOUBLE_EQ(sim.time_units, 20.0);  // LCC dominates
  EXPECT_LE(sim.speedup, core::GroupModel::speedup_bound(8, 20.0 / 25.0) + 1e-9);
}

TEST(ScheduleSim, GroupAllSingletonsIsCoreBound) {
  const std::vector<double> sizes(64, 1.0);
  const SimOutcome sim = simulate_group(sizes, 8);
  EXPECT_DOUBLE_EQ(sim.time_units, 8.0);
  EXPECT_DOUBLE_EQ(sim.speedup, 8.0);
}

TEST(ScheduleSim, PreprocessingCostReducesSpeedup) {
  const std::vector<double> sizes(64, 1.0);
  EXPECT_LT(simulate_group(sizes, 8, 10.0).speedup,
            simulate_group(sizes, 8, 0.0).speedup);
}

TEST(ScheduleSim, EmptyBlock) {
  EXPECT_DOUBLE_EQ(simulate_speculative(0, 0, 4).speedup, 1.0);
  EXPECT_DOUBLE_EQ(simulate_group({}, 4).speedup, 1.0);
}

TEST(ScheduleSim, RejectsBadArguments) {
  EXPECT_THROW(simulate_speculative(10, 11, 4), UsageError);
  EXPECT_THROW(simulate_speculative(10, 1, 0), UsageError);
  EXPECT_THROW(simulate_oracle(10, 1, 4, -1.0), UsageError);
  EXPECT_THROW(simulate_group({}, 0), UsageError);
}

// ------------------------------------------------------- executor test rig

/// A hand-built block exercising every conflict pattern: same-sender
/// bursts, exchange fan-in, contract calls with internal transactions,
/// independent payments.
class ExecutorRig : public ::testing::Test {
 protected:
  void SetUp() override {
    genesis_deploy_contracts();
    for (std::uint64_t s = 1; s <= 20; ++s) {
      base_.set_balance(addr(s), 1'000'000'000);
    }
    base_.flush_journal();
    build_block();
  }

  void genesis_deploy_contracts() {
    account::genesis_deploy(base_, hot_wallet_,
                            account::contracts::hot_wallet(cold_));
    account::genesis_deploy(base_, relay_,
                            account::contracts::relay(sink_));
  }

  account::AccountTx transfer(std::uint64_t from, std::uint64_t to,
                              std::uint64_t value) {
    account::AccountTx tx;
    tx.from = addr(from);
    tx.to = addr(to);
    tx.value = value;
    tx.gas_limit = 30000;
    tx.nonce = nonce_[from]++;
    return tx;
  }

  void build_block() {
    // Same-sender burst (user 1).
    block_.push_back(transfer(1, 101, 10));
    block_.push_back(transfer(1, 102, 10));
    block_.push_back(transfer(1, 103, 10));
    // Exchange fan-in: users 2-5 all pay user 200.
    for (std::uint64_t u = 2; u <= 5; ++u) {
      block_.push_back(transfer(u, 200, 50));
    }
    // Independent payments (users 6-15 to distinct receivers).
    for (std::uint64_t u = 6; u <= 15; ++u) {
      block_.push_back(transfer(u, 300 + u, 5));
    }
    // Contract calls with internal transactions.
    account::AccountTx hot = transfer(16, 0, 1000);
    hot.to = hot_wallet_;
    hot.gas_limit = 100000;
    block_.push_back(hot);
    account::AccountTx relayed = transfer(17, 0, 77);
    relayed.to = relay_;
    relayed.gas_limit = 100000;
    relayed.args = {5};
    block_.push_back(relayed);
  }

  /// Run an executor on a fresh copy of the genesis state.
  std::pair<account::StateDb, ExecutionReport> run(BlockExecutor& executor) {
    account::StateDb state = base_;
    ExecutionReport report = executor.execute_block(state, block_, config_);
    return {std::move(state), std::move(report)};
  }

  const Address hot_wallet_ = addr(900);
  const Address cold_ = addr(901);
  const Address relay_ = addr(902);
  const Address sink_ = addr(903);

  account::StateDb base_;
  account::RuntimeConfig config_;
  std::vector<account::AccountTx> block_;
  std::unordered_map<std::uint64_t, std::uint64_t> nonce_;
};

TEST_F(ExecutorRig, AllExecutorsMatchSequentialState) {
  const auto sequential = make_sequential_executor();
  const auto [seq_state, seq_report] = run(*sequential);
  const Hash256 expected = seq_state.digest();
  ASSERT_FALSE(expected.is_zero());

  std::vector<std::unique_ptr<BlockExecutor>> others;
  others.push_back(make_speculative_executor(4));
  others.push_back(
      make_speculative_executor(4, AbortPolicy::kFirstWriterWins));
  others.push_back(make_oracle_executor(4));
  others.push_back(make_group_executor(4));
  others.push_back(make_speculative_executor(1));  // degenerate pool
  for (auto& executor : others) {
    const auto [state, report] = run(*executor);
    EXPECT_EQ(state.digest(), expected) << executor->name();
    // Receipts agree transaction-by-transaction.
    ASSERT_EQ(report.receipts.size(), seq_report.receipts.size())
        << executor->name();
    for (std::size_t i = 0; i < report.receipts.size(); ++i) {
      EXPECT_EQ(report.receipts[i].success, seq_report.receipts[i].success)
          << executor->name() << " tx " << i;
      EXPECT_EQ(report.receipts[i].gas_used, seq_report.receipts[i].gas_used)
          << executor->name() << " tx " << i;
      EXPECT_EQ(report.receipts[i].internal_txs.size(),
                seq_report.receipts[i].internal_txs.size())
          << executor->name() << " tx " << i;
    }
  }
}

TEST_F(ExecutorRig, SpeculativeBinsConflictedTransactions) {
  auto executor = make_speculative_executor(4);
  const auto [state, report] = run(*executor);
  // The same-sender burst (3) and the exchange fan-in (4) conflict; the 10
  // independent payments and the 2 contract calls do not.
  EXPECT_GE(report.sequential_txs, 7u);
  EXPECT_LT(report.sequential_txs, report.num_txs);
  // Conflicted transactions execute twice.
  EXPECT_EQ(report.executions, report.num_txs + report.sequential_txs);
}

// conflict_stall_us must time the serial bin's APPLY work only — not the
// span construction, tracer bookkeeping, or commit walking around it. A
// conflict-free block has an empty bin, so the engine must report a
// stall of exactly zero (the pre-fix code timed the whole phase-2 scope
// and reported a nonzero stall even with nothing binned).
TEST(ExecutorStallMetric, ConflictFreeBlockReportsExactlyZeroStall) {
  account::StateDb state;
  std::vector<account::AccountTx> block;
  for (std::uint64_t s = 1; s <= 16; ++s) {
    state.set_balance(addr(s), 1'000'000);
    account::AccountTx tx;
    tx.from = addr(s);
    tx.to = addr(100 + s);  // pairwise-disjoint transfers: no conflicts
    tx.value = 5;
    tx.gas_limit = 30000;
    tx.nonce = 0;
    block.push_back(tx);
  }
  state.flush_journal();

  for (const char* engine : {"speculative", "speculative-fww",
                             "oracle-speculative"}) {
    obs::Registry registry;
    const obs::Scope scope{nullptr, &registry};
    account::RuntimeConfig config;
    config.obs = &scope;
    auto executor = make_executor(engine, 4);
    account::StateDb db = state;
    const ExecutionReport report = executor->execute_block(db, block, config);
    ASSERT_EQ(report.sequential_txs, 0u) << engine;

    const obs::Histogram& stall =
        registry.histogram("exec.conflict_stall_us");
    EXPECT_EQ(stall.count(), 1u) << engine;
    EXPECT_EQ(stall.sum(), 0.0)
        << engine << ": empty bin must observe a stall of exactly 0us, "
        << "not residual span/tracer overhead";
  }
}

// exec.conflict_stall_us is the serial section's work on every parallel
// engine: the bin for the speculative family, the overlay merge for the
// group engines, the commit walk for block-stm. The rig block has real
// conflicts, so each engine observes one positive sample, bounded by the
// block's wall clock, whether or not tracing is on.
TEST_F(ExecutorRig, ConflictStallIsPositiveButWithinWall) {
  for (const ExecutorSpec& spec : executor_registry()) {
    if (!spec.parallel) continue;
    obs::Registry registry;
    const obs::Scope scope{nullptr, &registry};
    config_.obs = &scope;
    const auto executor = spec.make(4);
    const auto [state, report] = run(*executor);

    const obs::Histogram& stall =
        registry.histogram("exec.conflict_stall_us");
    ASSERT_EQ(stall.count(), 1u) << spec.name;
    EXPECT_GT(stall.sum(), 0.0) << spec.name;
    EXPECT_LE(stall.sum(), report.wall_seconds * 1e6) << spec.name;
  }
}

// The block contract every engine's execute_block keeps, pinned over the
// whole registry with a tracer and a registry installed: one
// execute_block span holding one `threads` instant (arg = participants),
// the engine's phase spans under its own process, and the exec.* fold.
// Parallel engines also observe one serial-section stall sample and one
// attempts sample per transaction; sequential observes neither.
TEST_F(ExecutorRig, EveryEngineKeepsTheBlockContract) {
  for (const ExecutorSpec& spec : executor_registry()) {
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(spec.name + " threads=" + std::to_string(threads));
      obs::Tracer tracer;
      tracer.enable();
      obs::Registry registry;
      const obs::Scope scope{&tracer, &registry};
      config_.obs = &scope;
      const auto executor = spec.make(threads);
      const auto [state, report] = run(*executor);
      tracer.disable();

      std::ostringstream json;
      tracer.write_chrome_trace(json);
      const obs::TraceValidation trace = obs::validate_chrome_trace(json.str());
      ASSERT_TRUE(trace.ok) << trace.error;
      EXPECT_EQ(tracer.event_count(obs::names::kSpanExecuteBlock), 2u);
      EXPECT_EQ(tracer.event_count(obs::names::kEvThreads), 1u);
      const obs::ProfileResult profile = obs::profile_chrome_trace(json.str());
      ASSERT_TRUE(profile.ok) << profile.error;
      ASSERT_EQ(profile.blocks.size(), 1u);
      EXPECT_EQ(profile.blocks[0].process, spec.name);
      EXPECT_EQ(profile.blocks[0].threads, spec.parallel ? threads + 1 : 1u);

      std::vector<const char*> phases = {obs::names::kSpanExecute,
                                         obs::names::kSpanCommit};
      if (spec.parallel) {
        phases.push_back(obs::names::kSpanPredict);
        phases.push_back(obs::names::kSpanSchedule);
      }
      const std::set<std::string>& spans = trace.spans_by_process.at(spec.name);
      for (const char* phase : phases) {
        EXPECT_EQ(spans.count(phase), 1u) << phase;
      }

      const std::size_t n = block_.size();
      EXPECT_EQ(registry.counter(obs::names::kMetricExecBlocks).value(), 1u);
      EXPECT_EQ(registry.counter(obs::names::kMetricExecTxs).value(), n);
      EXPECT_EQ(registry.counter(obs::names::kMetricExecExecutions).value(),
                report.executions);
      EXPECT_EQ(
          registry.histogram(obs::names::kMetricExecAttemptsPerTx).count(),
          spec.parallel ? n : 0u);
      EXPECT_EQ(
          registry.histogram(obs::names::kMetricExecConflictStallUs).count(),
          spec.parallel ? 1u : 0u);
      for (std::size_t r = 0; r < obs::kNumAbortReasons; ++r) {
        const auto reason = static_cast<obs::AbortReason>(r);
        EXPECT_EQ(registry.counter(obs::abort_metric_name(reason)).value(),
                  report.abort_reasons[r])
            << obs::abort_reason_name(reason);
      }
    }
  }
}

TEST_F(ExecutorRig, FirstWriterWinsBinsFewer) {
  auto all = make_speculative_executor(4, AbortPolicy::kAllConflicted);
  auto fww = make_speculative_executor(4, AbortPolicy::kFirstWriterWins);
  const auto [s1, all_report] = run(*all);
  const auto [s2, fww_report] = run(*fww);
  EXPECT_LT(fww_report.sequential_txs, all_report.sequential_txs);
}

TEST_F(ExecutorRig, OracleExecutesEachTransactionOnce) {
  auto executor = make_oracle_executor(4);
  const auto [state, report] = run(*executor);
  EXPECT_EQ(report.executions, report.num_txs);
  EXPECT_GT(report.sequential_txs, 0u);
}

TEST_F(ExecutorRig, GroupExecutorBeatsSpeculativeInSimulatedTime) {
  auto speculative = make_speculative_executor(4);
  auto group = make_group_executor(4);
  const auto [s1, spec_report] = run(*speculative);
  const auto [s2, group_report] = run(*group);
  EXPECT_GT(group_report.simulated_speedup, spec_report.simulated_speedup);
}

TEST_F(ExecutorRig, GroupSpeedupRespectsPaperBound) {
  for (unsigned n : {2u, 4u, 8u}) {
    auto group = make_group_executor(n);
    const auto [state, report] = run(*group);
    const double l = static_cast<double>(report.sequential_txs) /
                     static_cast<double>(report.num_txs);
    EXPECT_LE(report.simulated_speedup,
              core::GroupModel::speedup_bound(n, l) + 1e-9)
        << n;
  }
}

TEST_F(ExecutorRig, PredictGroupsIsSoundForTheRig) {
  const PredictedGroups groups = predict_groups(block_, base_);
  ASSERT_EQ(groups.component_of_tx.size(), block_.size());
  // Same-sender burst shares a component.
  EXPECT_EQ(groups.component_of_tx[0], groups.component_of_tx[1]);
  EXPECT_EQ(groups.component_of_tx[1], groups.component_of_tx[2]);
  // Exchange fan-in shares a component.
  EXPECT_EQ(groups.component_of_tx[3], groups.component_of_tx[4]);
  // Independent payments are singletons.
  EXPECT_EQ(groups.component_sizes[groups.component_of_tx[7]], 1u);
}

// Regression: a transaction that fails phase-1 validation (stale nonce)
// leaves no access sets, yet its sequential re-run can interact with a
// later transaction through order-dependent contract logic. Here the
// earlier (invalid-in-phase-1) bid must win the auction exactly as it
// would sequentially; an executor that commits the later bid
// speculatively diverges.
TEST(ExecutorOrdering, InvalidAttemptStillOrdersContractLogic) {
  auto build_state = [](account::StateDb& state, const Address& auction_addr) {
    account::genesis_deploy(state, auction_addr,
                            account::contracts::auction(addr(900)));
    state.set_balance(addr(1), 1'000'000'000);
    state.set_balance(addr(2), 1'000'000'000);
    state.flush_journal();
  };
  const Address auction_addr = addr(901);

  std::vector<account::AccountTx> block;
  {
    account::AccountTx warmup;  // makes the first bid's nonce "future"
    warmup.from = addr(1);
    warmup.to = addr(100);
    warmup.value = 1;
    warmup.gas_limit = 30000;
    warmup.nonce = 0;
    block.push_back(warmup);

    account::AccountTx high_bid;  // invalid in phase 1 (nonce 1 vs base 0)
    high_bid.from = addr(1);
    high_bid.to = auction_addr;
    high_bid.value = 1000;
    high_bid.args = {0};
    high_bid.gas_limit = 120000;
    high_bid.nonce = 1;
    block.push_back(high_bid);

    account::AccountTx low_bid;  // valid in phase 1, must LOSE sequentially
    low_bid.from = addr(2);
    low_bid.to = auction_addr;
    low_bid.value = 500;
    low_bid.args = {0};
    low_bid.gas_limit = 120000;
    low_bid.nonce = 0;
    block.push_back(low_bid);
  }

  account::RuntimeConfig config;
  account::StateDb reference;
  build_state(reference, auction_addr);
  auto sequential = make_sequential_executor();
  sequential->execute_block(reference, block, config);
  // Sequential truth: the 1000 bid leads; the 500 bid reverted.
  ASSERT_EQ(reference.storage(auction_addr, 0), 1000u);
  ASSERT_EQ(reference.storage(auction_addr, addr(2).low64()), 0u);
  const Hash256 expected = reference.digest();

  std::vector<std::unique_ptr<BlockExecutor>> engines;
  engines.push_back(make_speculative_executor(4));
  engines.push_back(
      make_speculative_executor(4, AbortPolicy::kFirstWriterWins));
  engines.push_back(make_oracle_executor(4));
  engines.push_back(make_group_executor(4));
  for (const auto& engine : engines) {
    account::StateDb state;
    build_state(state, auction_addr);
    engine->execute_block(state, block, config);
    EXPECT_EQ(state.digest(), expected) << engine->name();
    EXPECT_EQ(state.storage(auction_addr, 0), 1000u) << engine->name();
  }
}

// ------------------------------------------- conflict-detection regressions

TEST(SlotAccessHash, DistinctSlotsOfOneAddressDoNotAlias) {
  const account::SlotAccessHash h;
  const Address a = addr(7);
  std::unordered_set<std::size_t> seen;
  for (std::uint64_t key = 0; key < 4096; ++key) {
    EXPECT_TRUE(seen.insert(h(account::SlotAccess{a, key})).second)
        << "key " << key << " aliases an earlier slot of the same address";
  }
}

TEST(SlotAccessHash, StructuredAddressKeyGridDoesNotCollide) {
  // The old `hash(address) ^ key*phi` let related (address, key) pairs
  // cancel each other under XOR; the hash_combine mix must keep a dense
  // grid of addresses x keys (including address-derived keys, as token
  // contracts use) fully distinct.
  const account::SlotAccessHash h;
  std::unordered_set<std::size_t> seen;
  std::size_t total = 0;
  for (std::uint64_t s = 1; s <= 64; ++s) {
    for (std::uint64_t key = 0; key < 64; ++key) {
      seen.insert(h(account::SlotAccess{addr(s), key}));
      seen.insert(h(account::SlotAccess{addr(s), addr(key + 1).low64()}));
      total += 2;
    }
  }
  EXPECT_EQ(seen.size(), total);
}

// An attempt that fails phase-1 validation leaves no access sets beyond
// its sender, so it must poison its whole *predicted* component: a valid
// transaction that shares only the predicted component (never an observed
// slot) with the invalid attempt has to be binned too.
TEST(ExecutorConflicts, InvalidAttemptPoisonsPredictedComponent) {
  for (const AbortPolicy policy :
       {AbortPolicy::kAllConflicted, AbortPolicy::kFirstWriterWins}) {
    auto build_state = [](account::StateDb& s) {
      s.set_balance(addr(1), 1'000'000);
      s.set_balance(addr(2), 1'000'000);
      s.flush_journal();
    };
    std::vector<account::AccountTx> block;
    account::AccountTx warmup;  // consumes sender 1's nonce 0
    warmup.from = addr(1);
    warmup.to = addr(50);
    warmup.value = 1;
    warmup.gas_limit = 30000;
    warmup.nonce = 0;
    block.push_back(warmup);

    account::AccountTx invalid;  // stale in phase 1: nonce 1 vs base 0
    invalid.from = addr(1);
    invalid.to = addr(60);
    invalid.value = 1;
    invalid.gas_limit = 30000;
    invalid.nonce = 1;
    block.push_back(invalid);

    account::AccountTx bystander;  // valid; linked only through addr(60)
    bystander.from = addr(2);
    bystander.to = addr(60);
    bystander.value = 1;
    bystander.gas_limit = 30000;
    bystander.nonce = 0;
    block.push_back(bystander);

    account::RuntimeConfig config;
    account::StateDb reference;
    build_state(reference);
    make_sequential_executor()->execute_block(reference, block, config);

    account::StateDb state;
    build_state(state);
    auto engine = make_speculative_executor(2, policy);
    const ExecutionReport report = engine->execute_block(state, block, config);
    EXPECT_EQ(state.digest(), reference.digest());
    // kAllConflicted re-runs the whole poisoned component (all three);
    // first-writer-wins commits the warmup before meeting the invalid
    // attempt, then bins the invalid one and the poisoned bystander.
    const std::size_t expected_bin =
        policy == AbortPolicy::kAllConflicted ? 3u : 2u;
    EXPECT_EQ(report.sequential_txs, expected_bin)
        << (policy == AbortPolicy::kAllConflicted ? "all-conflicted" : "fww");
  }
}

// First-writer-wins: a *valid* transaction that loses and goes to the bin
// re-runs after the speculative commits, out of block order — so every
// slot it touched must block later would-be committers.
TEST(ExecutorConflicts, BinnedValidTransactionSlotsBlockLaterCommitters) {
  auto build_state = [](account::StateDb& s) {
    s.set_balance(addr(1), 1'000'000);
    s.set_balance(addr(2), 1'000'000);
    s.set_balance(addr(3), 1'000'000);
    s.flush_journal();
  };
  std::vector<account::AccountTx> block;
  auto pay = [](std::uint64_t from, std::uint64_t to) {
    account::AccountTx tx;
    tx.from = addr(from);
    tx.to = addr(to);
    tx.value = 10;
    tx.gas_limit = 30000;
    tx.nonce = 0;
    return tx;
  };
  block.push_back(pay(1, 90));  // commits speculatively
  block.push_back(pay(2, 90));  // loses on addr(90)'s balance -> bin
  block.push_back(pay(3, 2));   // touches binned sender 2's balance -> bin

  account::RuntimeConfig config;
  account::StateDb reference;
  build_state(reference);
  make_sequential_executor()->execute_block(reference, block, config);

  account::StateDb state;
  build_state(state);
  auto engine = make_speculative_executor(2, AbortPolicy::kFirstWriterWins);
  const ExecutionReport report = engine->execute_block(state, block, config);
  EXPECT_EQ(state.digest(), reference.digest());
  EXPECT_EQ(report.sequential_txs, 2u);
}

// Property: the paper's BFS (Figure 3) and the union-find agree on the
// a-priori TDGs predict_groups builds from generated account blocks.
class PredictTdgEquivalence
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PredictTdgEquivalence, BfsMatchesDsuOnGeneratedTdgs) {
  workload::ChainProfile profile = workload::ethereum_profile();
  workload::AccountWorkloadGenerator generator(profile, GetParam());
  for (int b = 0; b < 4; ++b) {
    const auto block = generator.next_block().account_txs;
    core::KeyedTdg<Address> tdg;
    for (const auto& tx : block) {
      const Address to = tx.to.has_value()
                             ? *tx.to
                             : Address::derive_contract(tx.from, tx.nonce);
      tdg.add_edge(tx.from, to);
      for (const Address& arg : tx.address_args) {
        tdg.add_edge(tx.from, arg);
      }
    }
    const core::ComponentSet bfs =
        core::connected_components_bfs(tdg.graph());
    const core::ComponentSet dsu =
        core::connected_components_dsu(tdg.graph());
    ASSERT_EQ(bfs.num_components(), dsu.num_components());
    EXPECT_EQ(bfs.lcc_size(), dsu.lcc_size());
    EXPECT_EQ(bfs.num_singletons(), dsu.num_singletons());
    for (core::NodeId n = 0;
         n < static_cast<core::NodeId>(tdg.graph().num_nodes()); ++n) {
      ASSERT_EQ(bfs.component_of(n), dsu.component_of(n)) << "node " << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredictTdgEquivalence,
                         ::testing::Values(5, 17, 29));

TEST(ExecutorEmptyBlock, AllExecutorsHandleEmpty) {
  account::StateDb state;
  account::RuntimeConfig config;
  const std::vector<account::AccountTx> empty;
  std::vector<std::unique_ptr<BlockExecutor>> executors;
  executors.push_back(make_sequential_executor());
  executors.push_back(make_speculative_executor(2));
  executors.push_back(make_oracle_executor(2));
  executors.push_back(make_group_executor(2));
  for (const auto& executor : executors) {
    const ExecutionReport report =
        executor->execute_block(state, empty, config);
    EXPECT_EQ(report.num_txs, 0u);
    EXPECT_TRUE(report.receipts.empty());
  }
}

// Property: on generated Ethereum-like blocks, every executor reproduces
// the sequential state digest.
class GeneratedBlockEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratedBlockEquivalence, ExecutorsAgreeOnGeneratedHistory) {
  // Generate a few blocks, capturing the pre-state before each by
  // re-running the generator; instead we replay on the generator's own
  // evolving state: simpler — extract blocks first against one state, then
  // re-execute from genesis with each executor in lockstep.
  workload::ChainProfile profile = workload::ethereum_classic_profile();
  profile.default_blocks = 6;
  workload::AccountWorkloadGenerator generator(profile, GetParam());

  std::vector<std::vector<account::AccountTx>> blocks;
  for (int b = 0; b < 6; ++b) {
    blocks.push_back(generator.next_block().account_txs);
  }

  // Replaying needs the same genesis the generator used (contracts + rich
  // balances). Rebuild generators with the same seed to clone genesis.
  auto fresh_genesis = [&]() {
    workload::AccountWorkloadGenerator g(profile, GetParam());
    return g.state();  // copy of the genesis state (before next_block)
  };

  account::RuntimeConfig config;
  config.charge_fees = false;  // generator tops balances up out-of-band

  auto run_all = [&](BlockExecutor& executor) {
    account::StateDb state = fresh_genesis();
    // Mirror the generator's out-of-band top-ups.
    for (const auto& block : blocks) {
      for (const auto& tx : block) {
        if (state.balance(tx.from) < 1'000'000'000'000ULL) {
          state.set_balance(tx.from, 1'000'000'000'000'000ULL);
        }
        // Token senders were seeded out-of-band too; replicate.
      }
      for (const auto& tx : block) {
        if (tx.to.has_value() && state.code(*tx.to) != nullptr &&
            !tx.args.empty() && tx.args[0] == 1 && !tx.address_args.empty()) {
          const account::StorageKey key = tx.from.low64();
          if (state.storage(*tx.to, key) < 1'000'000) {
            state.set_storage(*tx.to, key, 1'000'000'000'000'000ULL);
          }
        }
      }
      state.flush_journal();
      executor.execute_block(state, block, config);
    }
    return state.digest();
  };

  const auto sequential = make_sequential_executor();
  const Hash256 expected = run_all(*sequential);

  std::vector<std::unique_ptr<BlockExecutor>> executors;
  executors.push_back(make_speculative_executor(4));
  executors.push_back(make_oracle_executor(4));
  executors.push_back(make_group_executor(4));
  executors.push_back(
      make_speculative_executor(3, AbortPolicy::kFirstWriterWins));
  for (const auto& executor : executors) {
    EXPECT_EQ(run_all(*executor), expected) << executor->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedBlockEquivalence,
                         ::testing::Values(11, 22, 33));

// --------------------------------------------------------- history replayer

TEST(HistoryReplayer, AllEnginesReachTheSameState) {
  workload::ChainProfile profile = workload::ethereum_classic_profile();
  profile.default_blocks = 8;

  auto run_through = [&](BlockExecutor& engine) {
    HistoryReplayer replayer(profile, 99);
    while (replayer.remaining() > 0) {
      replayer.replay_next(engine);
    }
    return replayer.state().digest();
  };

  const auto sequential = make_sequential_executor();
  const Hash256 expected = run_through(*sequential);
  ASSERT_FALSE(expected.is_zero());

  std::vector<std::unique_ptr<BlockExecutor>> engines;
  engines.push_back(make_speculative_executor(4));
  engines.push_back(make_group_executor(4));
  engines.push_back(make_oracle_executor(2));
  for (const auto& engine : engines) {
    EXPECT_EQ(run_through(*engine), expected) << engine->name();
  }
}

TEST(HistoryReplayer, SkipFastForwards) {
  workload::ChainProfile profile = workload::ethereum_classic_profile();
  profile.default_blocks = 10;
  HistoryReplayer replayer(profile, 99, /*skip_blocks=*/7);
  EXPECT_EQ(replayer.remaining(), 3u);
  auto engine = make_sequential_executor();
  replayer.replay_next(*engine);
  replayer.replay_next(*engine);
  replayer.replay_next(*engine);
  EXPECT_EQ(replayer.remaining(), 0u);
  EXPECT_THROW(replayer.replay_next(*engine), UsageError);
}

}  // namespace
}  // namespace txconc::exec
