// Google-benchmark micro-ablations for the design choices DESIGN.md calls
// out: BFS vs union-find components, conflict-detection granularity,
// scheduling policy and substrate throughputs. After the benchmark loop
// the engine ablation writes BENCH_exec.json, BENCH_obs.json,
// BENCH_profile.json and BENCH_contention.json into the CWD: each is a
// grid of cells (cells()) measured by one function and written by
// write_artifact().
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "analysis/block_analyzer.h"
#include "analysis/report.h"
#include "account/contracts.h"
#include "account/runtime.h"
#include "bench_util.h"
#include "common/parse.h"
#include "common/rng.h"
#include "common/sha256.h"
#include "core/components.h"
#include "core/scheduling.h"
#include "exec/contention_probe.h"
#include "exec/executor.h"
#include "obs/contention.h"
#include "obs/critpath.h"
#include "obs/scope.h"
#include "obs/trace.h"
#include "workload/account_workload.h"
#include "workload/profiles.h"
#include "workload/utxo_workload.h"

namespace {

using namespace txconc;

// ------------------------------------------------------------ harness knobs

// Synthetic per-transaction work (account::RuntimeConfig::synthetic_work),
// set by --tx-work=N. The fixture's transactions are light enough that
// thread-pool dispatch costs rival the transactions themselves, which kept
// every parallel engine at wall_speedup <= 1; the default burn makes each
// transaction as heavy as a modest contract call so the engine ablation
// measures scheduling quality, not dispatch floor. (On a multi-core host
// this lets parallel engines clear wall_speedup 1; on a single-core host
// ~1.0 is the physical ceiling and the gate works off ratios against a
// baseline recorded on the same host.)
std::uint32_t g_tx_work = 10000;

bool env_flag(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && std::string(value) != "0";
}

// TXCONC_BENCH_FAST=1: fewer reps for CI lanes. The JSON records the
// actual rep count, and the gate compares hardware-portable ratios, so
// fast runs remain comparable against full-depth baselines.
bool bench_fast() { return env_flag("TXCONC_BENCH_FAST"); }
int bench_reps() { return bench_fast() ? 5 : 9; }
int bench_warmup() { return bench_fast() ? 1 : 2; }

// Block-size grid for the engine ablation. The per-block fixed costs
// (pool dispatch, conflict-table setup, report assembly) amortize with
// block size, so the large cells are where parallel engines must beat
// sequential on wall clock. Fast mode measures {base, 1000};
// TXCONC_BENCH_LARGE adds the 10k cell to fast runs (the ci.sh
// bench-large lane), full mode always includes it, and TXCONC_BENCH_HUGE
// opts into the 100k cell (expensive: ~1M generated transactions).
std::vector<std::size_t> large_block_sizes() {
  std::vector<std::size_t> sizes = {1000};
  if (!bench_fast() || env_flag("TXCONC_BENCH_LARGE")) {
    sizes.push_back(10'000);
  }
  if (env_flag("TXCONC_BENCH_HUGE")) sizes.push_back(100'000);
  return sizes;
}

// ----------------------------------------------------------------- fixtures

struct ExecFixture {
  workload::ChainProfile profile = workload::ethereum_profile();
  std::vector<account::AccountTx> block;
  std::vector<account::Receipt> receipts;  ///< the generator's own
  account::StateDb genesis;

  ExecFixture() {
    workload::AccountWorkloadGenerator gen(profile, 42, 400);
    // Skip to a busy late-era block: the early-era blocks carry a handful
    // of transactions, far too few for engine scheduling costs or
    // speedups to register.
    for (int i = 0; i < 350; ++i) gen.next_block();
    genesis = gen.state();
    auto generated = gen.next_block();
    block = std::move(generated.account_txs);
    receipts = std::move(generated.receipts);
    // Replay needs fee-free config and rich balances.
    for (const auto& tx : block) {
      genesis.set_balance(tx.from, 1'000'000'000'000'000ULL);
    }
    genesis.flush_journal();
  }
};

// The one late-era fixture block, shared by the analysis benches and
// every artifact.
const ExecFixture& exec_fixture() {
  static const ExecFixture fixture;
  return fixture;
}

// Large-block fixture: consecutive late-era generator blocks concatenated
// into one pool, measured via prefixes. The generator's era position is
// height/horizon, so the horizon scales with the pool size to keep every
// measured window in the same busy late-era band (position >= 7/8) as
// ExecFixture's single block; prefixes of the pool are then valid blocks
// under the replay config (enforce_nonce=false keeps per-sender nonce
// sequences from consecutive source blocks composable).
struct PoolFixture {
  std::vector<account::AccountTx> pool;
  account::StateDb genesis;

  explicit PoolFixture(std::size_t min_txs) {
    // Late-era Ethereum blocks carry ~110-130 transactions; headroom on
    // the block count keeps the while-loop from exhausting the horizon.
    const std::uint64_t needed = min_txs / 100 + 16;
    const std::uint64_t horizon = 8 * needed;
    workload::AccountWorkloadGenerator gen(workload::ethereum_profile(), 42,
                                          horizon);
    for (std::uint64_t i = 0; i < 7 * needed; ++i) gen.next_block();
    genesis = gen.state();
    while (pool.size() < min_txs) {
      const auto block = gen.next_block().account_txs;
      pool.insert(pool.end(), block.begin(), block.end());
    }
    for (const auto& tx : pool) {
      genesis.set_balance(tx.from, 1'000'000'000'000'000ULL);
    }
    genesis.flush_journal();
  }

  std::span<const account::AccountTx> prefix(std::size_t n) const {
    return {pool.data(), std::min(n, pool.size())};
  }
};

// The pool a `txs`-transaction prefix is cut from. One pool serves the
// standard grid, so the 1k cell's transactions are byte-identical
// whether or not the 10k cell runs; the 100k pool generates ~1M
// transactions and is only built when the huge cell was requested.
const PoolFixture& pool_for(std::size_t txs) {
  if (txs > 10'000) {
    static const PoolFixture huge(100'000);
    return huge;
  }
  static const PoolFixture standard(10'000);
  return standard;
}

// ---------------------------------------------------------- graph algorithms

core::Tdg random_graph(std::size_t nodes, std::size_t edges,
                       std::uint64_t seed) {
  Rng rng(seed);
  core::Tdg g(nodes);
  for (std::size_t i = 0; i < edges; ++i) {
    g.add_edge(static_cast<core::NodeId>(rng.uniform(nodes)),
               static_cast<core::NodeId>(rng.uniform(nodes)));
  }
  return g;
}

void BM_ComponentsBfs(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const core::Tdg g = random_graph(n, n / 2, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::connected_components_bfs(g));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ComponentsBfs)->Arg(100)->Arg(1000)->Arg(10000);

void BM_ComponentsDsu(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const core::Tdg g = random_graph(n, n / 2, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::connected_components_dsu(g));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ComponentsDsu)->Arg(100)->Arg(1000)->Arg(10000);

// -------------------------------------------------------------- scheduling

void BM_ScheduleLpt(benchmark::State& state) {
  Rng rng(7);
  std::vector<double> jobs(static_cast<std::size_t>(state.range(0)));
  for (double& j : jobs) j = 1.0 + static_cast<double>(rng.uniform(50));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::schedule_lpt(jobs, 8));
  }
}
BENCHMARK(BM_ScheduleLpt)->Arg(100)->Arg(10000);

// -------------------------------------------------------------- substrates

void BM_Sha256(benchmark::State& state) {
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_VmTokenTransfer(benchmark::State& state) {
  account::StateDb db;
  const Address owner = Address::from_seed(1);
  const Address token = Address::from_seed(50);
  const Address sender = Address::from_seed(2);
  const Address recipient = Address::from_seed(3);
  account::genesis_deploy(db, token, account::contracts::token(owner));
  db.set_balance(sender, ~std::uint64_t{0} / 2);
  db.set_storage(token, sender.low64(), ~std::uint64_t{0} / 2);
  db.flush_journal();

  account::RuntimeConfig config;
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    account::AccountTx tx;
    tx.from = sender;
    tx.to = token;
    tx.args = {1, 1};
    tx.address_args = {recipient};
    tx.gas_limit = 80000;
    tx.nonce = nonce++;
    benchmark::DoNotOptimize(account::apply_transaction(db, tx, config));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VmTokenTransfer);

void BM_UtxoBlockGeneration(benchmark::State& state) {
  workload::ChainProfile profile = workload::bitcoin_cash_profile();
  for (auto _ : state) {
    state.PauseTiming();
    workload::UtxoWorkloadGenerator gen(profile, 42, 30);
    state.ResumeTiming();
    std::size_t txs = 0;
    for (int b = 0; b < 30; ++b) txs += gen.next_block().utxo_txs.size();
    benchmark::DoNotOptimize(txs);
  }
}
BENCHMARK(BM_UtxoBlockGeneration)->Unit(benchmark::kMillisecond);

// --------------------------------------------- conflict-analysis granularity

void BM_AnalyzeAddressGranularity(benchmark::State& state) {
  const ExecFixture& fixture = exec_fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::analyze_account_block(fixture.block, fixture.receipts));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fixture.block.size()));
}
BENCHMARK(BM_AnalyzeAddressGranularity);

void BM_AnalyzeSlotGranularity(benchmark::State& state) {
  const ExecFixture& fixture = exec_fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::analyze_account_block_slots(
        fixture.block, fixture.receipts));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fixture.block.size()));
}
BENCHMARK(BM_AnalyzeSlotGranularity);

// ------------------------------------------------------- cells and configs

/// One measured block: a window of generated transactions and the state
/// they replay against.
struct Block {
  std::span<const account::AccountTx> txs;
  const account::StateDb* genesis;
};

/// The fixture block, then a pool prefix of each size.
std::vector<Block> blocks(const std::vector<std::size_t>& pool_sizes) {
  const ExecFixture& fixture = exec_fixture();
  std::vector<Block> out = {{fixture.block, &fixture.genesis}};
  for (const std::size_t size : pool_sizes) {
    out.push_back({pool_for(size).prefix(size), &pool_for(size).genesis});
  }
  return out;
}

/// One (engine, threads, block) cell: one row of an artifact.
struct Cell {
  const exec::ExecutorSpec* spec;
  unsigned threads;
  Block block;
};

/// Every registry engine over `grid_blocks`, in row order: block by
/// block, engines in registry order, each parallel engine at every
/// count in `threads` and each sequential one at 1.
std::vector<Cell> cells(const std::vector<Block>& grid_blocks,
                        const std::vector<unsigned>& threads) {
  std::vector<Cell> out;
  for (const Block& block : grid_blocks) {
    for (const exec::ExecutorSpec& spec : exec::executor_registry()) {
      for (const unsigned n :
           spec.parallel ? threads : std::vector<unsigned>{1}) {
        out.push_back({&spec, n, block});
      }
    }
  }
  return out;
}

/// The replay config every artifact measures under: fee-free and without
/// nonce checks, so the same block replays repeatedly against its rich
/// genesis, with the --tx-work burn per transaction.
account::RuntimeConfig replay_config(const obs::Scope* scope = nullptr) {
  account::RuntimeConfig config;
  config.charge_fees = false;
  config.enforce_nonce = false;
  config.synthetic_work = g_tx_work;
  config.obs = scope;
  return config;
}

// --------------------------------------------------------------- serializer

/// (key, raw JSON value) pairs, in output order.
using Fields = std::vector<std::pair<std::string, std::string>>;

/// `value` as JSON, at the stream's default precision.
template <typename T>
std::string json(const T& value) {
  std::ostringstream out;
  out << value;
  return out.str();
}

std::string quoted(std::string_view text) {
  return "\"" + std::string(text) + "\"";
}

/// `items` (raw JSON) joined between `open` and `close`.
std::string join(const std::vector<std::string>& items, const char* open,
                 const char* close, const char* sep = ", ") {
  std::string out = open;
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i > 0 ? sep : "") + items[i];
  }
  return out + close;
}

std::string object(const Fields& fields, const char* open = "{",
                   const char* close = "}", const char* sep = ", ") {
  std::vector<std::string> members;
  for (const auto& [key, value] : fields) {
    members.push_back(quoted(key) + ": " + value);
  }
  return join(members, open, close, sep);
}

std::string json_sizes(const std::vector<Block>& grid_blocks) {
  std::vector<std::string> sizes;
  for (const Block& block : grid_blocks) {
    sizes.push_back(json(block.txs.size()));
  }
  return join(sizes, "[", "]");
}

/// Write `file` into the CWD: the header pairs, then a "results" array
/// with one row per line. A header-only artifact passes no rows.
void write_artifact(const std::string& file, Fields header,
                    const std::vector<Fields>& rows = {}) {
  if (!rows.empty()) {
    std::vector<std::string> lines;
    for (const Fields& row : rows) lines.push_back(object(row));
    header.emplace_back("results", join(lines, "[\n    ", "\n  ]", ",\n    "));
  }
  std::ofstream(file) << object(header, "{\n  ", "\n}\n", ",\n  ");
  std::cout << "wrote " << file << " (";
  if (!rows.empty()) std::cout << rows.size() << " rows, ";
  std::cout << "tx_work=" << g_tx_work << ")\n";
}

/// A row: the cell's identifying fields, then `measured`.
Fields row(const Cell& cell, Fields measured) {
  measured.insert(measured.begin(),
                  {{"executor", quoted(cell.spec->name)},
                   {"threads", json(cell.threads)},
                   {"block_txs", json(cell.block.txs.size())}});
  return measured;
}

// ------------------------------------------------------- the warm protocol

/// A warm-protocol trace (DESIGN.md §16.2) of some cells: each cell's
/// engine ran its block twice with the tracer live, all into one buffer,
/// so the first run absorbs buffer registration and the last is measured.
struct WarmTrace {
  std::string json;  ///< the Chrome trace
  std::uint64_t dropped = 0;
  obs::ProfileResult profiled;

  /// The profile of `engine`'s last execute_block, or null.
  const obs::BlockProfile* last(const std::string& engine) const {
    for (auto it = profiled.blocks.rbegin(); it != profiled.blocks.rend();
         ++it) {
      if (it->process == engine) return &*it;
    }
    return nullptr;
  }
};

WarmTrace trace_warm(const std::vector<Cell>& traced) {
  const account::RuntimeConfig config = replay_config(&obs::global_scope());
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.enable();
  for (const Cell& cell : traced) {
    const auto executor = cell.spec->make(cell.threads);
    for (int run = 0; run < 2; ++run) {
      account::StateDb db = *cell.block.genesis;
      executor->execute_block(db, cell.block.txs, config);
    }
    // Destroying the executor joins its pool: the workers' final
    // pool_task ends land in the buffers before we serialize.
  }
  tracer.disable();
  WarmTrace trace;
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  trace.json = out.str();
  trace.dropped = tracer.dropped();
  trace.profiled = obs::profile_chrome_trace(trace.json);
  return trace;
}

// ------------------------------------------------- BENCH_exec.json

// Machine-readable engine ablation: every registry executor across a
// (thread x block-size) grid, warmed-up median-of-N wall time (with IQR
// dispersion), wall speedup vs sequential AT THE SAME BLOCK SIZE, and the
// unit-cost simulated speedup next to it (the wall/simulated gap is the
// engine's real-world overhead), plus the pool's dispatch counters per
// block. The header records hw_cores so scripts/bench_gate can decide
// whether wall_speedup > 1 is physically attainable on the recording
// host; scripts/bench_gate compares this file against
// bench/baselines/BENCH_exec.json.
void write_bench_exec_json() {
  const account::RuntimeConfig config = replay_config();
  const std::vector<Block> grid = blocks(large_block_sizes());
  std::vector<Fields> rows;
  double sequential_wall = 0.0;
  for (const Cell& cell : cells(grid, {1, 2, 4, 8})) {
    // The 10k+ cells cost ~100x a base-block rep; 3 reps keep the CI
    // bench-large lane inside its budget while the gate's ratios stay
    // median-based.
    const bool large = cell.block.txs.size() >= 10'000;
    const int reps = large ? std::min(bench_reps(), 3) : bench_reps();
    const int warmup = large ? 1 : bench_warmup();
    const auto executor = cell.spec->make(cell.threads);
    double simulated_speedup = 1.0;
    // Mean execution attempts per transaction (1.0 = no re-execution);
    // the retry-cost axis for engines with targeted re-execution.
    double attempts_per_tx = 1.0;
    // Pool dispatch counters summed over every run of the cell, warmup
    // included (the same names node_bench reports).
    std::uint64_t runs = 0;
    std::uint64_t grains = 0;
    std::uint64_t caller_grains = 0;
    const bench::RepetitionStats wall =
        bench::measure_reps(reps, warmup, [&] {
          account::StateDb db = *cell.block.genesis;
          const exec::ExecutionReport report =
              executor->execute_block(db, cell.block.txs, config);
          simulated_speedup = report.simulated_speedup;
          attempts_per_tx =
              report.num_txs > 0
                  ? static_cast<double>(report.executions) / report.num_txs
                  : 1.0;
          ++runs;
          grains += report.sched.grains;
          caller_grains += report.sched.grains_caller_run;
          return report.wall_seconds;
        });
    if (cell.spec->name == "sequential") {
      sequential_wall = wall.median_seconds;
    }
    rows.push_back(row(
        cell,
        {{"reps", json(reps)},
         {"wall_seconds", json(wall.median_seconds)},
         {"wall_iqr_seconds", json(wall.iqr_seconds)},
         {"wall_speedup", json(wall.median_seconds > 0.0
                                   ? sequential_wall / wall.median_seconds
                                   : 0.0)},
         {"simulated_speedup", json(simulated_speedup)},
         {"attempts_per_tx", json(attempts_per_tx)},
         {"grains_per_block",
          json(static_cast<double>(grains) / static_cast<double>(runs))},
         {"caller_run_share",
          json(grains > 0 ? static_cast<double>(caller_grains) /
                                static_cast<double>(grains)
                          : 0.0)}}));
  }
  write_artifact(
      "BENCH_exec.json",
      {{"profile", quoted(exec_fixture().profile.name)},
       {"block_txs", json(exec_fixture().block.size())},
       {"block_sizes", json_sizes(grid)},
       {"hw_cores", json(std::thread::hardware_concurrency())},
       {"tx_work", json(g_tx_work)},
       {"reps", json(bench_reps())},
       {"warmup", json(bench_warmup())}},
      rows);
}

// -------------------------------------------------- BENCH_contention.json

// Measured-contention artifact: every registry engine over a {1,4}-thread
// x {base,1000}-tx grid, each cell explained by the contention layer
// (obs/contention.h) from the engine's own observed access sets —
// measured c/l at slot and address granularity, prediction quality of the
// a-priori closures, per-reason abort taxonomy and top hot keys — next to
// the sink's wall overhead, `sink_overhead` (instrumented vs
// uninstrumented run, median of the same warm-rep protocol as the exec
// artifact). intent_c/l come from analysis::analyze_account_block over
// the same transactions and sequential's receipts, the same function the
// probe applies to the engine's receipts for measured_c_address: their
// agreement, gated by scripts/bench_gate --contend, checks that the
// engine touched what sequential execution touches.
std::string json_aborts(const obs::BlockContention& c) {
  Fields aborts;
  for (std::size_t r = 0; r < obs::kNumAbortReasons; ++r) {
    if (c.engine_abort_totals[r] == 0) continue;
    aborts.emplace_back(
        obs::abort_reason_name(static_cast<obs::AbortReason>(r)),
        json(c.engine_abort_totals[r]));
  }
  return object(aborts);
}

std::string json_hot_keys(const obs::BlockContention& c) {
  std::vector<std::string> keys;
  for (std::size_t k = 0; k < std::min<std::size_t>(5, c.hot_keys.size());
       ++k) {
    const obs::HotKey& key = c.hot_keys[k];
    keys.push_back(
        object({{"addr", quoted(key.key.addr.short_hex())},
                {"channel", quoted(obs::touch_channel_name(key.key.channel))},
                {"slot", json(key.key.slot)},
                {"count", json(key.count)}}));
  }
  return join(keys, "[", "]");
}

void write_bench_contention_json() {
  const account::RuntimeConfig config = replay_config();
  const std::vector<Block> grid = blocks({1000});
  // Generator intent per block: the analysis pipeline's address-TDG
  // conflict rates over the receipts of one sequential execution.
  std::map<std::size_t, core::ConflictStats> intent;  // by block_txs
  for (const Block& block : grid) {
    account::StateDb db = *block.genesis;
    account::RuntimeConfig tracked = config;
    tracked.track_accesses = true;
    const exec::ExecutionReport report =
        exec::make_executor("sequential", 1)
            ->execute_block(db, block.txs, tracked);
    intent[block.txs.size()] =
        analysis::analyze_account_block(block.txs, report.receipts);
  }
  std::vector<Fields> rows;
  for (const Cell& cell : cells(grid, {1, 4})) {
    const int reps = bench_reps();
    const int warmup = bench_warmup();
    const auto executor = cell.spec->make(cell.threads);
    exec::ContentionProbe probe;
    obs::Scope scope;
    scope.contention = probe.sink();
    account::RuntimeConfig instrumented = config;
    instrumented.recorder = &probe;
    instrumented.obs = &scope;
    const double wall_on =
        bench::measure_reps(reps, warmup, [&] {
          account::StateDb db = *cell.block.genesis;
          probe.before_block(cell.block.txs, db);
          const exec::ExecutionReport report =
              executor->execute_block(db, cell.block.txs, instrumented);
          probe.after_block(report);
          // wall_seconds covers execute_block only: the closure walk
          // and the cold after_block analysis stay untimed, so the
          // on/off delta isolates the in-execution touch counting.
          return report.wall_seconds;
        }).median_seconds;
    const obs::BlockContention& c = probe.blocks().back();
    const double wall_off =
        bench::measure_reps(reps, warmup, [&] {
          account::StateDb db = *cell.block.genesis;
          return executor->execute_block(db, cell.block.txs, config)
              .wall_seconds;
        }).median_seconds;
    std::uint64_t engine_total = 0;
    std::uint64_t sink_total = 0;
    for (std::size_t r = 0; r < obs::kNumAbortReasons; ++r) {
      engine_total += c.engine_abort_totals[r];
      sink_total += c.sink_abort_totals[r];
    }
    const core::ConflictStats& cell_intent =
        intent.at(cell.block.txs.size());
    rows.push_back(row(
        cell, {{"reps", json(reps)},
               {"measured_c", json(c.measured_c)},
               {"measured_l", json(c.measured_l)},
               {"measured_c_address", json(c.measured_c_address)},
               {"measured_l_address", json(c.measured_l_address)},
               {"intent_c", json(cell_intent.single_rate())},
               {"intent_l", json(cell_intent.group_rate())},
               {"precision", json(c.precision)},
               {"recall", json(c.recall)},
               {"over_approx", json(c.over_approx)},
               {"total_touches", json(c.total_touches)},
               {"engine_abort_total", json(engine_total)},
               {"sink_abort_total", json(sink_total)},
               {"aborts", json_aborts(c)},
               {"hot_keys", json_hot_keys(c)},
               {"wall_seconds", json(wall_on)},
               {"wall_seconds_off", json(wall_off)},
               {"sink_overhead",
                json(wall_off > 0.0 ? wall_on / wall_off : 0.0)}}));
  }
  write_artifact("BENCH_contention.json",
                 {{"profile", quoted(exec_fixture().profile.name)},
                  {"block_sizes", json_sizes(grid)},
                  {"hw_cores", json(std::thread::hardware_concurrency())},
                  {"tx_work", json(g_tx_work)},
                  {"warmup", json(bench_warmup())}},
                 rows);
}

// -------------------------------------------------------- BENCH_obs.json

// Tracer overhead harness: the same speculative run with (a) no obs scope
// at all, (b) the scope installed but the tracer disabled (the production
// default — must stay within noise of (a)), and (c) the tracer enabled.
// Each mode is a warmed-up median-of-N (N >= 9 in full mode): medians of
// equal-sized samples are an apples-to-apples comparison, so the overhead
// deltas no longer go negative the way dueling best-of-N minimums did.
void write_bench_obs_json() {
  const ExecFixture& fixture = exec_fixture();
  const unsigned threads = 4;
  const int reps = bench_reps();
  const int warmup = bench_warmup();

  obs::Tracer& tracer = obs::Tracer::global();
  const auto wall_stats = [&](const obs::Scope* scope) {
    const account::RuntimeConfig config = replay_config(scope);
    const auto executor = exec::make_speculative_executor(threads);
    return bench::measure_reps(reps, warmup, [&] {
      account::StateDb db = fixture.genesis;
      return executor->execute_block(db, fixture.block, config).wall_seconds;
    });
  };

  tracer.disable();
  const bench::RepetitionStats off = wall_stats(nullptr);
  const bench::RepetitionStats disabled = wall_stats(&obs::global_scope());
  tracer.enable();
  const bench::RepetitionStats enabled = wall_stats(&obs::global_scope());
  tracer.disable();
  tracer.clear();  // keep the overhead runs out of any exported trace

  const auto overhead_pct = [&](const bench::RepetitionStats& mode) {
    return off.median_seconds > 0.0
               ? (mode.median_seconds / off.median_seconds - 1.0) * 100.0
               : 0.0;
  };
  // Relative dispersion of the noisiest mode: overhead deltas below this
  // are indistinguishable from scheduler noise on this host.
  double noise_floor_pct = 0.0;
  for (const bench::RepetitionStats* s : {&off, &disabled, &enabled}) {
    if (s->median_seconds > 0.0) {
      noise_floor_pct = std::max(
          noise_floor_pct, s->iqr_seconds / s->median_seconds * 100.0);
    }
  }

  write_artifact(
      "BENCH_obs.json",
      {{"executor", quoted("speculative")},
       {"threads", json(threads)},
       {"block_txs", json(fixture.block.size())},
       {"tx_work", json(g_tx_work)},
       {"reps", json(reps)},
       {"warmup", json(warmup)},
       {"tracer_off_seconds", json(off.median_seconds)},
       {"tracer_off_iqr_seconds", json(off.iqr_seconds)},
       {"tracer_disabled_seconds", json(disabled.median_seconds)},
       {"tracer_disabled_iqr_seconds", json(disabled.iqr_seconds)},
       {"tracer_enabled_seconds", json(enabled.median_seconds)},
       {"tracer_enabled_iqr_seconds", json(enabled.iqr_seconds)},
       {"disabled_overhead_pct", json(overhead_pct(disabled))},
       {"enabled_overhead_pct", json(overhead_pct(enabled))},
       {"noise_floor_pct", json(noise_floor_pct)}});
  std::cout << "tracer overhead: disabled "
            << analysis::fmt_double(overhead_pct(disabled), 2)
            << "%, enabled " << analysis::fmt_double(overhead_pct(enabled), 2)
            << "%, noise floor " << analysis::fmt_double(noise_floor_pct, 2)
            << "%\n";
}

// ---------------------------------------------------- BENCH_profile.json

// Wall-clock attribution per (engine, threads, block_txs) cell: every
// registry engine runs traced at 1 and 4 threads over the base block and
// the 1k-tx late-era block, and the critpath profiler's attribution row
// (threads x wall bucketed into graph build / schedule / tx execute /
// rework / dependency wait / commit / pool idle / untracked, plus the
// critical-path chains) is emitted for the measured run of the cell's own
// warm trace. scripts/bench_gate asserts per cell that the buckets sum to
// the budget within 2%, that the untracked share stays under 10%, and
// that speculative at 1 thread names graph build as the dominant
// critical-path segment (the DESIGN.md §13.3 finding).
void write_bench_profile_json() {
  std::vector<Fields> rows;
  std::size_t violations = 0;
  for (const Cell& cell : cells(blocks({1000}), {1, 4})) {
    const WarmTrace trace = trace_warm({cell});
    const obs::BlockProfile* profile = trace.last(cell.spec->name);
    std::string error;
    std::string violation;
    if (trace.dropped > 0) {
      error = "ring wrapped: " + std::to_string(trace.dropped) +
              " events dropped";
    } else if (!trace.profiled.ok) {
      error = trace.profiled.error;
    } else if (profile == nullptr) {
      error = "no execute_block profiled";
    } else {
      // The 2% sum invariant is a large-block contract: per-block fixed
      // costs (report assembly, metric flushes) do not amortize over 124
      // txs (DESIGN.md §13.2), so the small cells get a loosened epsilon.
      // scripts/bench_gate applies the same split.
      const double eps = cell.block.txs.size() >= 1000 ? 0.02 : 0.05;
      violation = obs::check_attribution(*profile, eps);
    }
    if (!error.empty() || !violation.empty()) {
      const std::string tag = cell.spec->name + "_t" +
                              std::to_string(cell.threads) + "_x" +
                              std::to_string(cell.block.txs.size());
      // Leave the evidence behind: the raw trace of a failing cell, ready
      // for `txconc_profile <file>` / Perfetto.
      const std::string dump = "profile_" + tag + ".trace.json";
      std::ofstream(dump) << trace.json;
      std::cout << "profile cell " << tag << ": "
                << (error.empty() ? violation : error) << " (trace dumped to "
                << dump << ")\n";
      ++violations;
    }
    Fields measured = {{"error", quoted(error)}};
    if (error.empty()) {
      std::ostringstream out;
      obs::write_profile_json(out, *profile);
      measured = {{"profile", out.str()}};
    }
    rows.push_back(row(cell, std::move(measured)));
  }
  write_artifact("BENCH_profile.json",
                 {{"profile", quoted(exec_fixture().profile.name)},
                  {"hw_cores", json(std::thread::hardware_concurrency())},
                  {"tx_work", json(g_tx_work)}},
                 rows);
  std::cout << "profile: " << violations << " violation(s)\n";
}

// ------------------------------------------------------ TXCONC_TRACE smoke

// Trace every registered executor over the fixture block (4 threads for
// the parallel ones) with the warm protocol, export the Chrome trace to
// `path`, then validate it: balanced spans, monotone timestamps, the
// four canonical phase spans (predict/schedule/execute/commit) for every
// parallel engine, and every engine's measured block within 5% of its
// attribution budget. Returns false (after printing why) on any failure.
bool run_traced_smoke(const std::string& path) {
  const auto fail = [](const std::string& why) {
    std::cerr << why << "\n";
    return false;
  };
  const WarmTrace trace = trace_warm(cells(blocks({}), {4}));
  std::ofstream file(path);
  if (!(file << trace.json) || !file.flush()) {
    return fail("trace FAILED: cannot write " + path);
  }
  if (trace.dropped > 0) {
    return fail("trace FAILED: " + std::to_string(trace.dropped) +
                " events dropped (ring wrapped)");
  }
  const obs::TraceValidation validation =
      obs::validate_chrome_trace(trace.json);
  if (!validation.ok) return fail("trace FAILED: " + validation.error);
  for (const exec::ExecutorSpec& spec : exec::executor_registry()) {
    if (!spec.parallel) continue;
    const auto it = validation.spans_by_process.find(spec.name);
    if (it == validation.spans_by_process.end()) {
      return fail("trace FAILED: no spans recorded for executor " +
                  spec.name);
    }
    for (const char* phase : {"predict", "schedule", "execute", "commit"}) {
      if (!it->second.contains(phase)) {
        return fail("trace FAILED: executor " + spec.name +
                    " is missing the '" + phase + "' span");
      }
    }
  }
  std::cout << "trace OK (" << validation.events << " events, "
            << validation.complete_spans << " spans) -> " << path << "\n";

  if (!trace.profiled.ok) {
    return fail("profile FAILED: " + trace.profiled.error);
  }
  for (const exec::ExecutorSpec& spec : exec::executor_registry()) {
    const obs::BlockProfile* profile = trace.last(spec.name);
    if (profile == nullptr) {
      return fail("profile FAILED: no execute_block profiled for executor " +
                  spec.name);
    }
    // Small-block epsilon (see write_bench_profile_json): fixed costs
    // do not amortize over the 124-tx fixture block.
    const std::string violation =
        obs::check_attribution(*profile, /*eps_fraction=*/0.05);
    if (!violation.empty()) return fail("profile FAILED: " + violation);
  }
  std::cout << "profile OK (" << exec::executor_registry().size()
            << " engines, attribution sum within 5% of threads x wall)\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // --tx-work=N is stripped before benchmark::Initialize, which rejects
  // unknown args. A value that is not a decimal in the range of
  // RuntimeConfig::synthetic_work is a usage error, not a silent 0 or a
  // wrapped 2^32 - 1.
  constexpr std::string_view kTxWork = "--tx-work=";
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (!arg.starts_with(kTxWork)) {
      argv[kept++] = argv[i];
      continue;
    }
    const auto work = parse_uint(arg.substr(kTxWork.size()),
                                 std::numeric_limits<std::uint32_t>::max());
    if (!work) {
      std::cerr << "ablation_engines: --tx-work takes an integer in [0, "
                << std::numeric_limits<std::uint32_t>::max() << "], got '"
                << arg.substr(kTxWork.size()) << "'\n";
      return 2;
    }
    g_tx_work = static_cast<std::uint32_t>(*work);
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_bench_exec_json();
  write_bench_obs_json();
  write_bench_profile_json();
  write_bench_contention_json();
  // TXCONC_TRACE=<file>: re-run every engine traced and self-validate the
  // exported Chrome trace (the tier-1 obs smoke drives this path).
  if (const char* trace_path = std::getenv("TXCONC_TRACE")) {
    if (!run_traced_smoke(trace_path)) return 1;
  }
  return 0;
}
