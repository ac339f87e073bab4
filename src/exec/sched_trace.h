// Scheduling-overhead recorder shared by every executor: diffs ThreadPool
// counters around one block execution and reads its wall clock for the
// ExecutionReport. The sequential baseline passes a null pool, so its
// counters stay zero.
#pragma once

#include <chrono>
#include <string>

#include "exec/executor.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace txconc::exec {

/// Steady-clock seconds since `start`.
inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

class SchedTrace {
 public:
  explicit SchedTrace(const ThreadPool& pool) : SchedTrace(&pool) {}

  /// Pool-less executors (sequential) pass nullptr: the task/grain
  /// counters stay zero.
  explicit SchedTrace(const ThreadPool* pool)
      : pool_(pool),
        before_(pool ? pool->stats() : ThreadPoolStats{}),
        start_(std::chrono::steady_clock::now()) {}

  /// Fill the breakdown; returns total wall seconds since construction.
  double finish(SchedulingBreakdown& out) const {
    if (pool_ != nullptr) {
      const ThreadPoolStats after = pool_->stats();
      out.pool_tasks = after.tasks_run - before_.tasks_run;
      out.grains = after.grains_total - before_.grains_total;
      out.grains_caller_run =
          after.grains_caller_run - before_.grains_caller_run;
    }
    return seconds_since(start_);
  }

 private:
  const ThreadPool* pool_;
  ThreadPoolStats before_;
  std::chrono::steady_clock::time_point start_;
};

/// Fold one finished block report into the metrics registry. Every
/// executor calls this with the RuntimeConfig's obs registry (null-safe)
/// so per-block counters and histograms accumulate uniformly.
inline void record_block_metrics(obs::Registry* registry,
                                 const ExecutionReport& report) {
  if (registry == nullptr) return;
  registry->counter(obs::names::kMetricExecBlocks).add(1);
  registry->counter(obs::names::kMetricExecTxs).add(report.num_txs);
  registry->counter(obs::names::kMetricExecExecutions)
      .add(report.executions);
  registry->counter(obs::names::kMetricExecSequentialTxs)
      .add(report.sequential_txs);
  registry->histogram(obs::names::kMetricExecBlockWallUs)
      .observe(report.wall_seconds * 1e6);
  registry->histogram(obs::names::kMetricExecSeqBinTxs)
      .observe(static_cast<double>(report.sequential_txs));
  for (std::size_t r = 0; r < obs::kNumAbortReasons; ++r) {
    if (report.abort_reasons[r] == 0) continue;
    registry
        ->counter(std::string(obs::names::kMetricExecAbortPrefix) +
                  obs::abort_reason_name(static_cast<obs::AbortReason>(r)))
        .add(report.abort_reasons[r]);
  }
}

/// Emit the thread-budget instant the critical-path profiler keys on:
/// arg = participants in this block execution (pool workers + the
/// caller). Every executor calls this right inside its execute_block
/// span so the trace carries the denominator of the threads x wall
/// attribution budget (obs/critpath.h).
inline void emit_thread_budget(obs::Tracer* tracer,
                               std::size_t participants) {
  TXCONC_INSTANT_T(tracer, obs::names::kEvThreads, obs::names::kCatExec,
                   static_cast<std::int64_t>(participants));
}

}  // namespace txconc::exec
