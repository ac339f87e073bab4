// Block executor interface: the execution engine the paper's conclusion
// names as future work ("we have not designed and implemented an execution
// engine that can exploit the available concurrency").
//
// Every executor consumes the same block (ordered transaction list) and
// must produce a final state identical to sequential execution — the
// equivalence tests in tests/exec_test.cpp enforce this.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "account/runtime.h"
#include "account/state.h"
#include "account/types.h"
#include "obs/contention.h"

namespace txconc::exec {

/// The pool work one block execution cost, from ThreadPool stats deltas
/// (all zero for the sequential baseline). The serial section's time is
/// the exec.conflict_stall_us histogram; the critical-path buckets
/// (DESIGN.md §16) split the rest of the wall clock when tracing is on.
struct SchedulingBreakdown {
  /// Pool workers that joined one of this block's batches (worker
  /// wakeups); at most num_workers per parallel_for call, not O(num_txs).
  std::uint64_t pool_tasks = 0;
  /// parallel_for grains executed, and how many of them the calling
  /// thread drained itself (caller-runs share).
  std::uint64_t grains = 0;
  std::uint64_t grains_caller_run = 0;
};

/// What one block execution did and cost.
struct ExecutionReport {
  std::string executor;
  std::size_t num_txs = 0;
  /// Transactions that had to be (re-)executed sequentially.
  std::size_t sequential_txs = 0;
  /// Total transaction executions, including speculative re-runs.
  std::size_t executions = 0;
  /// Wall-clock seconds actually spent.
  double wall_seconds = 0.0;
  /// Time in the paper's unit-cost model (1 unit per execution slot).
  double simulated_units = 0.0;
  /// x / simulated_units; the quantity Figure 10 predicts.
  double simulated_speedup = 1.0;
  /// Scheduling-overhead breakdown (pool work).
  SchedulingBreakdown sched;
  /// Receipts in block order (identical across executors by contract).
  std::vector<account::Receipt> receipts;
  /// Per-transaction execution attempts / incarnations reached, in block
  /// order. Filled by engines with targeted re-execution (block-stm);
  /// empty for bin- and group-style engines, whose retries are aggregated
  /// in `executions` / `sequential_txs`.
  std::vector<std::uint32_t> tx_attempts;
  std::vector<std::uint32_t> tx_incarnations;
  /// Discarded-work tally under the uniform abort taxonomy
  /// (obs/contention.h): every engine counts why attempts were thrown
  /// away, whether or not a contention sink is installed. Folded into the
  /// exec.abort.* registry counters by BlockFrame::finish.
  obs::AbortCounts abort_reasons{};
};

/// Abstract block executor over the account model.
class BlockExecutor {
 public:
  virtual ~BlockExecutor() = default;

  /// Execute all transactions against the state (mutating it) and report.
  virtual ExecutionReport execute_block(
      account::StateDb& state,
      std::span<const account::AccountTx> transactions,
      const account::RuntimeConfig& config) = 0;

  virtual std::string name() const = 0;
};

/// Baseline: one transaction at a time, in block order — what "existing
/// client software applications" do (paper Section II-A).
std::unique_ptr<BlockExecutor> make_sequential_executor();

/// How the speculative executor treats conflicting transactions.
enum class AbortPolicy {
  /// Every member of a conflicting set is re-executed sequentially —
  /// the model of Section V-A / Saraph & Herlihy.
  kAllConflicted,
  /// First writer wins: the earliest transaction of each conflict commits
  /// from the speculative phase; only later ones re-run (ablation).
  kFirstWriterWins,
};

/// Two-phase speculative executor: phase 1 runs every transaction
/// concurrently on copy-on-write overlays, conflicts are detected from the
/// recorded read/write sets, and the conflicted "bin" re-runs sequentially.
std::unique_ptr<BlockExecutor> make_speculative_executor(
    unsigned num_threads, AbortPolicy policy = AbortPolicy::kAllConflicted);

/// Perfect-information speculative executor: conflicts are computed first
/// (the oracle preprocessing of Section V-A), so conflicted transactions
/// are executed exactly once, sequentially, and never re-run.
std::unique_ptr<BlockExecutor> make_oracle_executor(unsigned num_threads);

/// Group-concurrency executor (Section V-B): builds the a-priori address
/// TDG (senders, receivers, dynamic address arguments, and statically
/// reachable contract call targets), partitions transactions into
/// connected components, and schedules the components onto worker threads
/// with LPT. Sequential inside a component, parallel across components.
std::unique_ptr<BlockExecutor> make_group_executor(unsigned num_threads);

/// A named executor family: a stable identifier (used in conformance repro
/// commands and BENCH_exec.json) plus a factory over the thread count.
/// Sequential ignores the thread count and is flagged non-parallel.
struct ExecutorSpec {
  std::string name;
  bool parallel = true;
  std::function<std::unique_ptr<BlockExecutor>(unsigned num_threads)> make;
  /// True for engines that commit through a multi-version store rather
  /// than interval-exclusive ownership of slots: concurrent attempts over
  /// the same slots are expected, and the access auditor must check
  /// publication ordering instead of attempt-interval disjointness.
  bool multi_version = false;
};

/// Every registered executor family, sequential first. The conformance
/// oracle differential-tests each parallel entry against the sequential
/// baseline; a new executor joins the whole harness by registering here.
const std::vector<ExecutorSpec>& executor_registry();

/// The registry's names, comma-joined, for usage and error messages.
std::string registry_names();

/// Factory lookup by registry name; throws UsageError on unknown names.
std::unique_ptr<BlockExecutor> make_executor(const std::string& name,
                                             unsigned num_threads);

}  // namespace txconc::exec
