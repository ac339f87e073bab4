// Two-phase speculative executors (blind and oracle variants).
//
// Hot-path discipline: an executor instance keeps per-worker scratch
// (overlays, trackers) and per-block flat tables alive across blocks, so
// the steady-state per-transaction path — rebase overlay, execute, export
// a write log, aggregate conflicts, batch-commit — performs no heap
// allocation (asserted by tests/hotpath_test.cpp).
#include <chrono>
#include <memory>

#include "account/state.h"
#include "common/error.h"
#include "core/components.h"
#include "exec/block_frame.h"
#include "exec/executor.h"
#include "exec/predict.h"
#include "exec/scratch.h"
#include "exec/thread_pool.h"
#include "obs/names.h"
#include "obs/scope.h"
#include "obs/trace.h"

namespace txconc::exec {

namespace {

constexpr std::uint32_t kNoTx = 0xffffffffu;

/// Per-slot conflict aggregate: writer count plus distinct-accessor count
/// (deduplicated through last_tx — each transaction's access lists are
/// already sorted-unique, so a tx touches the aggregate at most once per
/// list and the read+write case collapses via the last_tx check).
struct SlotAgg {
  std::uint32_t writers = 0;
  std::uint32_t accessors = 0;
  std::uint32_t last_tx = kNoTx;
};

/// What one sequential bin ran and stalled.
struct BinResult {
  std::size_t txs = 0;
  double stall_seconds = 0.0;
};

/// The sequential bin of the speculative and oracle engines: re-run every
/// transaction flagged in `binned`, in block order, on the committed
/// state, then flush the journal. The stall is the apply work only,
/// summed per transaction and timed only when a registry is installed,
/// so span construction and per-tx tracer overhead stay out of the
/// exec.conflict_stall_us histogram.
BinResult run_sequential_bin(BlockFrame& frame, account::StateDb& state,
                             std::span<const account::AccountTx> txs,
                             const account::RuntimeConfig& config,
                             const std::vector<unsigned char>& binned,
                             account::AccessTracker& tracker) {
  BinResult bin;
  const obs::CausalSpan span = frame.phase(obs::names::kSpanSeqBin);
  obs::Tracer* const tracer = frame.tracer();
  const bool timed = frame.registry() != nullptr;
  for (std::size_t i = 0; i < txs.size(); ++i) {
    if (!binned[i]) continue;
    ++bin.txs;
    const TXCONC_SPAN_T(tracer, obs::names::kSpanTx, obs::names::kCatExec,
                        static_cast<std::int64_t>(i));
    const auto apply_start =
        timed ? std::chrono::steady_clock::now()
              : std::chrono::steady_clock::time_point{};
    account::apply_transaction_into(state, txs[i], config,
                                    frame.report().receipts[i], tracker);
    if (timed) bin.stall_seconds += seconds_since(apply_start);
  }
  state.flush_journal();
  return bin;
}

class SpeculativeExecutor final : public BlockExecutor {
 public:
  SpeculativeExecutor(unsigned num_threads, AbortPolicy policy)
      : label_(policy == AbortPolicy::kAllConflicted ? "speculative"
                                                     : "speculative-fww"),
        pool_(num_threads, label_),
        policy_(policy) {}

  ExecutionReport execute_block(
      account::StateDb& state,
      std::span<const account::AccountTx> transactions,
      const account::RuntimeConfig& config) override {
    BlockFrame frame(label_, &pool_, pool_.size() + 1, transactions, config);
    ExecutionReport& report = frame.report();
    obs::Tracer* const tracer = frame.tracer();

    ensure_worker_scratch(scratch_, pool_.size());
    writes_.resize(std::max(writes_.size(), transactions.size()));
    valid_.assign(transactions.size(), 0);
    conflicted_.assign(transactions.size(), 0);

    // Phase 1 (concurrent, speculative). The a-priori components are only
    // consulted to bound what failed attempts could touch; the happy path
    // stays purely speculative as in [17].
    PredictedGroups groups;
    {
      const obs::CausalSpan span = frame.phase(obs::names::kSpanPredict);
      groups = predict_groups(transactions, state, tracer);
    }
    {
      const obs::CausalSpan span = frame.phase(
          obs::names::kSpanExecute,
          static_cast<std::int64_t>(transactions.size()));
      speculate(state, transactions, config, report, tracer);
    }
    {
      const obs::CausalSpan span = frame.phase(obs::names::kSpanSchedule);
      detect_conflicts(transactions, report, groups,
                       obs::contention(config.obs), tracer);
    }

    // Commit the non-conflicted write logs (their access sets are disjoint
    // from everyone else's, so block order is immaterial). Committed
    // values are final — pause the undo journal instead of filling it
    // only to flush it.
    {
      const obs::CausalSpan span = frame.phase(obs::names::kSpanCommit);
      const account::JournalPause pause(state);
      for (std::size_t i = 0; i < transactions.size(); ++i) {
        if (!conflicted_[i]) writes_[i].apply_to(state);
      }
    }

    // Phase 2: the conflicted transactions re-run in the bin.
    const BinResult bin = run_sequential_bin(frame, state, transactions,
                                             config, conflicted_,
                                             scratch_[0].tracker);

    report.sequential_txs = bin.txs;
    report.executions = transactions.size() + bin.txs;
    const unsigned cores = pool_.size();
    const std::size_t phase1 =
        transactions.empty()
            ? 0
            : (transactions.size() + cores - 1) / cores;
    frame.finish(static_cast<double>(phase1 + bin.txs), bin.stall_seconds);
    return std::move(report);
  }

  std::string name() const override { return label_; }

 private:
  /// Phase 1: run every transaction concurrently, each worker slot
  /// rebasing its private copy-on-write overlay over the frozen base.
  /// Receipts land directly in the report; the overlay's effects are
  /// exported to the per-transaction write log.
  void speculate(const account::StateDb& base,
                 std::span<const account::AccountTx> txs,
                 const account::RuntimeConfig& config,
                 ExecutionReport& report, obs::Tracer* tracer) {
    account::RuntimeConfig tracked = config;
    tracked.track_accesses = true;

    const ThreadPool::SlotFn body = [&](unsigned slot, std::size_t i) {
      const TXCONC_SPAN_T(tracer, obs::names::kSpanAttempt,
                          obs::names::kCatExec,
                          static_cast<std::int64_t>(i));
      WorkerScratch& ws = scratch_[slot];
      // The cheap non-throwing precheck screens out stale-nonce /
      // underfunded attempts (common under speculation: the transaction
      // depends on an earlier in-block transaction) before the throwing
      // path would allocate an exception and error strings.
      if (account::precheck_transaction(base, txs[i], tracked) != nullptr) {
        writes_[i].clear();
        return;
      }
      ws.overlay.reset(base);
      try {
        account::apply_transaction_into(ws.overlay, txs[i], tracked,
                                        report.receipts[i], ws.tracker);
        valid_[i] = 1;
        ws.overlay.export_writes(writes_[i]);
      } catch (const ValidationError&) {
        // Unreachable when the precheck is in lockstep; kept as a belt so
        // a future check added to apply_transaction fails soft here.
        writes_[i].clear();
      }
    };
    pool_.parallel_for_slots(txs.size(), body);
  }

  /// Conflict detection over the recorded access sets: a slot is
  /// contended when it has at least one writer and at least two distinct
  /// accessors.
  ///
  /// Soundness subtlety: an attempt that failed validation (stale nonce)
  /// has no recorded access sets beyond its sender, yet it WILL touch
  /// state when the sequential phase re-runs it. Any transaction that
  /// could overlap with it must therefore also go to the bin; the
  /// a-priori address components bound that overlap, so invalid attempts
  /// poison their whole predicted component.
  void detect_conflicts(std::span<const account::AccountTx> txs,
                        ExecutionReport& report,
                        const PredictedGroups& groups,
                        obs::ContentionSink* sink, obs::Tracer* tracer) {
    // Per-tx abort attribution scratch: which taxonomy reason sent the
    // transaction to the bin, and (when one exists) the specific key.
    abort_reason_.assign(txs.size(), kNoAbort);
    abort_key_.resize(std::max(abort_key_.size(), txs.size()));
    abort_has_key_.assign(txs.size(), 0);
    const auto attribute = [&](std::uint32_t tx, obs::AbortReason reason,
                               const account::SlotAccess* key) {
      abort_reason_[tx] = static_cast<unsigned char>(reason);
      if (key != nullptr) {
        abort_key_[tx] = *key;
        abort_has_key_[tx] = 1;
      }
    };
    if (policy_ == AbortPolicy::kAllConflicted) {
      slot_agg_.clear();
      const auto touch = [&](const account::SlotAccess& slot,
                             std::uint32_t tx, bool write) {
        SlotAgg& agg = slot_agg_[slot];
        if (agg.last_tx != tx) {
          agg.last_tx = tx;
          ++agg.accessors;
        }
        if (write) ++agg.writers;
      };
      for (std::uint32_t i = 0; i < txs.size(); ++i) {
        if (valid_[i]) {
          for (const auto& r : report.receipts[i].reads) touch(r, i, false);
          for (const auto& w : report.receipts[i].writes) touch(w, i, true);
        } else {
          const account::SlotAccess sender{
              txs[i].from, account::AccessTracker::kBalanceKey};
          touch(sender, i, false);
          touch(sender, i, true);
        }
      }
      const auto contended = [&](const account::SlotAccess& slot) {
        const SlotAgg* agg = slot_agg_.find(slot);
        return agg != nullptr && agg->writers >= 1 && agg->accessors >= 2;
      };
      for (std::uint32_t i = 0; i < txs.size(); ++i) {
        if (valid_[i]) {
          const account::SlotAccess* hit = nullptr;
          for (const auto& r : report.receipts[i].reads) {
            if (contended(r)) {
              hit = &r;
              break;
            }
          }
          if (hit == nullptr) {
            for (const auto& w : report.receipts[i].writes) {
              if (contended(w)) {
                hit = &w;
                break;
              }
            }
          }
          conflicted_[i] = hit != nullptr ? 1 : 0;
          if (hit != nullptr) {
            attribute(i, obs::AbortReason::kSpecConflict, hit);
          }
        } else {
          const account::SlotAccess sender{
              txs[i].from, account::AccessTracker::kBalanceKey};
          conflicted_[i] = contended(sender) ? 1 : 0;
        }
      }
      // Invalid attempts poison their predicted component.
      poisoned_components_.assign(groups.num_components(), 0);
      for (std::size_t i = 0; i < txs.size(); ++i) {
        if (!valid_[i]) poisoned_components_[groups.component_of_tx[i]] = 1;
      }
      for (std::uint32_t i = 0; i < txs.size(); ++i) {
        if (poisoned_components_[groups.component_of_tx[i]]) {
          conflicted_[i] = 1;
          // Cause-based attribution: the whole poisoned component rides on
          // the invalid attempt, keyed by the invalid tx's sender balance
          // where that is the tx itself.
          if (!valid_[i]) {
            const account::SlotAccess sender{
                txs[i].from, account::AccessTracker::kBalanceKey};
            attribute(i, obs::AbortReason::kInvalidAttempt, &sender);
          } else if (abort_reason_[i] == kNoAbort) {
            attribute(i, obs::AbortReason::kInvalidAttempt, nullptr);
          }
        }
      }
    } else {
      // First writer wins: walk in block order, committing a transaction
      // only when its accesses avoid (a) every previously committed write,
      // (b) every slot a previously *binned* transaction touched (the bin
      // re-runs after the commits, out of block order), and (c) the
      // predicted component of any earlier invalid attempt.
      committed_writes_.clear();
      poisoned_slots_.clear();
      poisoned_components_.assign(groups.num_components(), 0);
      for (std::uint32_t i = 0; i < txs.size(); ++i) {
        const account::SlotAccess sender{
            txs[i].from, account::AccessTracker::kBalanceKey};
        const std::span<const account::SlotAccess> reads =
            valid_[i] ? std::span<const account::SlotAccess>(
                            report.receipts[i].reads)
                      : std::span<const account::SlotAccess>(&sender, 1);
        const std::span<const account::SlotAccess> writes =
            valid_[i] ? std::span<const account::SlotAccess>(
                            report.receipts[i].writes)
                      : std::span<const account::SlotAccess>(&sender, 1);
        bool clash = !valid_[i] ||
                     poisoned_components_[groups.component_of_tx[i]] != 0;
        if (!valid_[i]) {
          attribute(i, obs::AbortReason::kInvalidAttempt, &sender);
        } else if (clash) {
          attribute(i, obs::AbortReason::kInvalidAttempt, nullptr);
        }
        if (!clash) {
          for (const auto& r : reads) {
            if (committed_writes_.contains(r) ||
                poisoned_slots_.contains(r)) {
              clash = true;
              attribute(i, obs::AbortReason::kFwwPoisoned, &r);
              break;
            }
          }
        }
        if (!clash) {
          for (const auto& w : writes) {
            if (committed_writes_.contains(w) ||
                poisoned_slots_.contains(w)) {
              clash = true;
              attribute(i, obs::AbortReason::kFwwPoisoned, &w);
              break;
            }
          }
        }
        if (clash) {
          conflicted_[i] = 1;
          if (!valid_[i]) {
            poisoned_components_[groups.component_of_tx[i]] = 1;
          } else {
            for (const auto& r : reads) poisoned_slots_.insert(r);
            for (const auto& w : writes) poisoned_slots_.insert(w);
          }
        } else {
          for (const auto& w : writes) committed_writes_.insert(w);
        }
      }
    }
    // Invalid attempts always re-run.
    for (std::size_t i = 0; i < txs.size(); ++i) {
      if (!valid_[i]) conflicted_[i] = 1;
    }
    // Surface the attribution: taxonomy tallies in the report, instants
    // on the trace, key-level counts into the contention sink (when one
    // is installed through the Scope).
    for (std::uint32_t i = 0; i < txs.size(); ++i) {
      if (abort_reason_[i] == kNoAbort) continue;
      const auto reason = static_cast<obs::AbortReason>(abort_reason_[i]);
      ++report.abort_reasons[static_cast<std::size_t>(reason)];
      TXCONC_INSTANT_T(tracer, obs::names::kEvAbort, obs::names::kCatExec,
                       static_cast<std::int64_t>(i));
      if (sink != nullptr) {
        if (abort_has_key_[i]) {
          sink->record_abort(reason, obs::touch_key(abort_key_[i]));
        } else {
          sink->record_abort(reason);
        }
      }
    }
  }

  const char* label_;  // string literal; doubles as the trace process
  ThreadPool pool_;
  AbortPolicy policy_;

  // Cross-block scratch: capacity persists, contents are per-block.
  std::vector<WorkerScratch> scratch_;
  std::vector<account::WriteLog> writes_;    // per tx
  std::vector<unsigned char> valid_;         // per tx
  std::vector<unsigned char> conflicted_;    // per tx
  std::vector<char> poisoned_components_;    // per predicted component
  SlotAccessTable<SlotAgg> slot_agg_;
  SlotAccessSet committed_writes_;
  SlotAccessSet poisoned_slots_;

  // Abort attribution scratch (per tx; capacity persists across blocks).
  static constexpr unsigned char kNoAbort = 0xff;
  std::vector<unsigned char> abort_reason_;
  std::vector<account::SlotAccess> abort_key_;
  std::vector<unsigned char> abort_has_key_;
};

class OracleExecutor final : public BlockExecutor {
 public:
  explicit OracleExecutor(unsigned num_threads)
      : pool_(num_threads, "oracle-speculative") {}

  ExecutionReport execute_block(
      account::StateDb& state,
      std::span<const account::AccountTx> transactions,
      const account::RuntimeConfig& config) override {
    BlockFrame frame("oracle-speculative", &pool_, pool_.size() + 1,
                     transactions, config);
    ExecutionReport& report = frame.report();
    obs::Tracer* const tracer = frame.tracer();

    ensure_worker_scratch(scratch_, pool_.size());
    conflicted_.assign(transactions.size(), 0);

    // Preprocessing: predict the conflict set a priori (cost K in the
    // model). A transaction whose predicted component holds >= 2
    // transactions goes straight to the sequential phase and is executed
    // exactly once.
    PredictedGroups groups;
    {
      const obs::CausalSpan span = frame.phase(obs::names::kSpanPredict);
      groups = predict_groups(transactions, state, tracer);
    }
    {
      // The oracle's schedule is the predicted component partition itself:
      // singleton components run concurrently, the rest go to the bin.
      const obs::CausalSpan span = frame.phase(obs::names::kSpanSchedule);
      for (std::size_t i = 0; i < transactions.size(); ++i) {
        conflicted_[i] =
            groups.component_sizes[groups.component_of_tx[i]] >= 2 ? 1 : 0;
      }
    }

    // Concurrent phase over the predicted-independent transactions. Txs
    // in distinct predicted components touch disjoint addresses, so each
    // worker slot accumulates its share into ONE private overlay and the
    // commit below merges per worker — a handful of batched merges
    // instead of one overlay allocation + merge per transaction.
    account::RuntimeConfig tracked = config;
    tracked.track_accesses = true;
    {
      const obs::CausalSpan span = frame.phase(
          obs::names::kSpanExecute,
          static_cast<std::int64_t>(transactions.size()));
      for (WorkerScratch& ws : scratch_) ws.overlay.reset(state);
      const ThreadPool::SlotFn body = [&](unsigned slot, std::size_t i) {
        if (conflicted_[i]) return;
        const TXCONC_SPAN_T(tracer, obs::names::kSpanAttempt,
                            obs::names::kCatExec,
                            static_cast<std::int64_t>(i));
        WorkerScratch& ws = scratch_[slot];
        account::apply_transaction_into(ws.overlay, transactions[i], tracked,
                                        report.receipts[i], ws.tracker);
      };
      pool_.parallel_for_slots(transactions.size(), body);
    }
    std::size_t concurrent = 0;
    for (std::size_t i = 0; i < transactions.size(); ++i) {
      if (!conflicted_[i]) ++concurrent;
    }
    {
      const obs::CausalSpan span = frame.phase(obs::names::kSpanCommit);
      const account::JournalPause pause(state);
      for (WorkerScratch& ws : scratch_) {
        if (ws.overlay.dirty()) ws.overlay.apply_to(state);
      }
    }

    // Sequential phase: the predicted-conflicted transactions, run once.
    const BinResult bin = run_sequential_bin(frame, state, transactions,
                                             config, conflicted_,
                                             scratch_[0].tracker);

    report.sequential_txs = bin.txs;
    report.executions = transactions.size();
    const unsigned cores = pool_.size();
    const std::size_t phase1 =
        concurrent == 0 ? 0 : (concurrent + cores - 1) / cores;
    // K: one unit per transaction scanned during prediction, amortized to
    // a small constant per block in practice; charge 1 unit.
    const double k_preprocess = transactions.empty() ? 0.0 : 1.0;
    frame.finish(k_preprocess + static_cast<double>(phase1 + bin.txs),
                 bin.stall_seconds);
    return std::move(report);
  }

  std::string name() const override { return "oracle-speculative"; }

 private:
  ThreadPool pool_;
  std::vector<WorkerScratch> scratch_;
  std::vector<unsigned char> conflicted_;  // per tx
};

}  // namespace

std::unique_ptr<BlockExecutor> make_speculative_executor(unsigned num_threads,
                                                         AbortPolicy policy) {
  return std::make_unique<SpeculativeExecutor>(num_threads, policy);
}

std::unique_ptr<BlockExecutor> make_oracle_executor(unsigned num_threads) {
  return std::make_unique<OracleExecutor>(num_threads);
}

}  // namespace txconc::exec
