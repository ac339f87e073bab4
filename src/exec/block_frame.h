// The measurement frame every executor runs one block inside.
//
// An engine's execute_block opens a BlockFrame first and closes it with
// finish(); between the two, its body holds only its own phases. The
// frame owns what must mean the same thing for every engine (DESIGN.md
// §7): the trace process, the execute_block span and its `threads`
// instant, the report header, the wall clock, the ThreadPool counter
// deltas, x / simulated_units and the exec.* metric fold. It allocates
// nothing beyond the report's own receipts. The sequential baseline
// passes a null pool: its pool counters stay zero and it observes no
// serial-section or attempt samples.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>

#include "account/runtime.h"
#include "account/types.h"
#include "exec/executor.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/scope.h"
#include "obs/trace.h"

namespace txconc::exec {

/// Steady-clock seconds since `start`.
inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

class BlockFrame {
 public:
  /// Relabel the calling thread as `label` (a string literal), open the
  /// execute_block span under config.trace, emit the `threads` instant
  /// (arg = `participants`, the denominator of the §16 attribution
  /// budget), snapshot `pool`'s counters, start the wall clock, and fill
  /// the report's executor, num_txs and receipts.
  BlockFrame(const char* label, const ThreadPool* pool,
             std::size_t participants,
             std::span<const account::AccountTx> transactions,
             const account::RuntimeConfig& config)
      : tracer_(obs::tracer(config.obs)),
        registry_(obs::metrics(config.obs)),
        process_(label),
        block_span_(tracer_, obs::names::kSpanExecuteBlock,
                    obs::names::kCatExec, config.trace,
                    static_cast<std::int64_t>(transactions.size())),
        pool_(pool) {
    TXCONC_INSTANT_T(tracer_, obs::names::kEvThreads, obs::names::kCatExec,
                     static_cast<std::int64_t>(participants));
    if (pool_ != nullptr) pool_before_ = pool_->stats();
    start_ = std::chrono::steady_clock::now();
    report_.executor = label;
    report_.num_txs = transactions.size();
    report_.receipts.resize(transactions.size());
  }

  obs::Tracer* tracer() const { return tracer_; }
  /// Null when no registry is installed.
  obs::Registry* registry() const { return registry_; }
  ExecutionReport& report() { return report_; }

  /// One phase span (predict, schedule, execute, commit, seq_bin) as a
  /// child of execute_block.
  obs::CausalSpan phase(const char* name, std::int64_t arg = -1) const {
    return obs::CausalSpan(tracer_, name, obs::names::kCatExec,
                           block_span_.context(), arg);
  }

  /// Close the block's measurement: set simulated_units and x / units
  /// (1.0 for zero units), stop the wall clock, diff the pool counters,
  /// then fold the metrics. A parallel engine (non-null pool) also
  /// observes `stall_seconds`, its serial section, as
  /// exec.conflict_stall_us, and each transaction's executions as
  /// exec.attempts_per_tx: report.tx_attempts where the engine fills it,
  /// else one per transaction plus one for each re-run
  /// (executions - num_txs).
  void finish(double simulated_units, double stall_seconds) {
    report_.simulated_units = simulated_units;
    report_.simulated_speedup =
        simulated_units > 0.0
            ? static_cast<double>(report_.num_txs) / simulated_units
            : 1.0;
    if (pool_ != nullptr) {
      const ThreadPoolStats after = pool_->stats();
      report_.sched.pool_tasks = after.tasks_run - pool_before_.tasks_run;
      report_.sched.grains = after.grains_total - pool_before_.grains_total;
      report_.sched.grains_caller_run =
          after.grains_caller_run - pool_before_.grains_caller_run;
    }
    report_.wall_seconds = seconds_since(start_);
    if (registry_ == nullptr) return;
    if (pool_ != nullptr) {
      registry_->histogram(obs::names::kMetricExecConflictStallUs)
          .observe(stall_seconds * 1e6);
      obs::Histogram& attempts =
          registry_->histogram(obs::names::kMetricExecAttemptsPerTx);
      if (!report_.tx_attempts.empty()) {
        for (const std::uint32_t a : report_.tx_attempts) {
          attempts.observe(static_cast<double>(a));
        }
      } else {
        const std::size_t reruns = report_.executions - report_.num_txs;
        for (std::size_t i = 0; i < report_.num_txs; ++i) {
          attempts.observe(i < reruns ? 2.0 : 1.0);
        }
      }
    }
    registry_->counter(obs::names::kMetricExecBlocks).add(1);
    registry_->counter(obs::names::kMetricExecTxs).add(report_.num_txs);
    registry_->counter(obs::names::kMetricExecExecutions)
        .add(report_.executions);
    registry_->counter(obs::names::kMetricExecSequentialTxs)
        .add(report_.sequential_txs);
    registry_->histogram(obs::names::kMetricExecBlockWallUs)
        .observe(report_.wall_seconds * 1e6);
    registry_->histogram(obs::names::kMetricExecSeqBinTxs)
        .observe(static_cast<double>(report_.sequential_txs));
    for (std::size_t r = 0; r < obs::kNumAbortReasons; ++r) {
      if (report_.abort_reasons[r] == 0) continue;
      registry_
          ->counter(obs::abort_metric_name(static_cast<obs::AbortReason>(r)))
          .add(report_.abort_reasons[r]);
    }
  }

 private:
  obs::Tracer* const tracer_;
  obs::Registry* const registry_;
  const obs::ThreadProcessScope process_;
  const obs::CausalSpan block_span_;
  const ThreadPool* const pool_;
  ThreadPoolStats pool_before_{};
  std::chrono::steady_clock::time_point start_;
  ExecutionReport report_;
};

}  // namespace txconc::exec
