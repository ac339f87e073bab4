// TDG-aware access auditor: a runtime cross-check of the paper's central
// soundness assumption — that the a-priori conflict prediction (the
// approximate TDG of Section V-C) covers everything the executors actually
// touch, and that conflicting transactions never commit without ordering.
//
// The auditor is an account::AccessRecorder installed through
// RuntimeConfig (the same hook pattern as the fault injector). While a
// block executes it records, per execution attempt, the interval
// [begin_seq, end_seq] on a global monotonic counter plus the attempt's
// slot read/write sets; finish_block() then verifies post-hoc that
//
//  (a) every recorded access address lies inside the transaction's
//      predicted closure (exec::predicted_addresses — the same sets
//      predict_groups feeds the schedulers), and
//  (b) every conflicting pair of committed runs is properly ordered:
//      a true or output dependency (earlier tx's writes intersect the
//      later tx's reads or writes) requires the earlier final run to
//      finish strictly before the later one begins, while a pure
//      anti-dependency (later tx only overwrites what the earlier one
//      read) is violated only when the earlier reader ran strictly after
//      the later writer — speculative-fww legitimately overlaps
//      anti-dependencies: phase 1 reads the pre-block snapshot and
//      commits in block order.
//
// When uninstalled (RuntimeConfig::recorder == nullptr) the executors pay
// nothing: apply_transaction takes one pointer comparison per call.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "account/runtime.h"
#include "account/state.h"
#include "account/types.h"
#include "common/thread_annotations.h"

namespace txconc::audit {

/// One audit failure, pinned to block positions.
struct AuditViolation {
  enum class Kind {
    kUndeclaredAccess,   ///< Recorded address outside the predicted closure.
    kUnorderedConflict,  ///< Conflicting finals without the required order.
    kUnmatchedRecord,    ///< begin/complete pairing broke down.
  };
  Kind kind = Kind::kUnmatchedRecord;
  std::size_t tx_a = 0;  ///< Block position of the (first) transaction.
  std::size_t tx_b = 0;  ///< Second position, for kUnorderedConflict.
  std::string detail;    ///< Human-readable account, incl. the repro hint.
};

const char* to_string(AuditViolation::Kind kind);

/// How the executor under audit orders conflicting commits — selects which
/// check-(b) rules finish_block applies.
enum class CommitDiscipline {
  /// Interval exclusivity (every engine but block-stm): a true or output
  /// dependency requires the earlier final run to end strictly before the
  /// later one begins; anti-dependencies may overlap but the reader must
  /// not run strictly after the writer; abandoned attempts are broken
  /// recorder pairings.
  kInterval,
  /// Multi-version stores (block-stm): concurrent attempts over the same
  /// slots are the design. Reads resolve strictly-lower-index versions, so
  /// anti-dependencies are structurally safe, and write-write pairs
  /// coexist as separate versions. The checkable ordering is publication:
  /// a later transaction whose final run read a slot the earlier one wrote
  /// (with no intermediate same-component writer of that slot) must have
  /// completed after the earlier one did — its validated read saw a value
  /// published only after the writer's completion. Abandoned attempts are
  /// counted, and only the *last* attempt of a transaction being abandoned
  /// is a violation (the committed value must come from the final run).
  kMultiVersion,
};

/// What one audited block looked like.
struct AuditReport {
  std::size_t transactions_declared = 0;
  std::size_t attempts_recorded = 0;     ///< Completed execution attempts.
  /// Attempts begun but never completed. A violation under kInterval;
  /// expected under kMultiVersion (ESTIMATE aborts unwind mid-execution).
  std::size_t attempts_abandoned = 0;
  std::size_t conflict_pairs_checked = 0;
  std::size_t threads_seen = 0;          ///< Distinct executing threads.
  std::vector<AuditViolation> violations;

  bool ok() const { return violations.empty(); }
};

/// Render a report's violations, one "TXCONC_AUDIT ..." line each.
std::string format_violations(const AuditReport& report);

/// The auditor itself. Usage:
///
///   audit::AccessAuditor auditor;
///   config.recorder = &auditor;            // or replayer.set_access_recorder
///   auditor.begin_block(txs, state);       // before execute_block
///   ... executor runs the block ...
///   const audit::AuditReport report = auditor.finish_block();
///
/// Thread-safe: the recorder hooks fire concurrently from every pool
/// worker and serialize on an internal mutex (the audit path is a test
/// harness; simplicity beats scalability here). begin_block/finish_block
/// must be called from the driving thread with no block in flight.
class AccessAuditor final : public account::AccessRecorder {
 public:
  AccessAuditor() = default;
  AccessAuditor(const AccessAuditor&) = delete;
  AccessAuditor& operator=(const AccessAuditor&) = delete;

  /// Replay hint appended to every violation detail as
  /// "TXCONC_REPRO='<hint>'" (via exec::format_repro_env); typically
  /// format_spec of the failing cell.
  void set_repro_hint(std::string hint);

  /// Executor under audit; when set, every violation detail names it
  /// ("executor=<name>") so a violation line is attributable without the
  /// surrounding harness context.
  void set_executor(std::string name);

  /// Select the commit-ordering rules for the engine under audit (see
  /// CommitDiscipline). Defaults to kInterval; harnesses set kMultiVersion
  /// for registry entries flagged ExecutorSpec::multi_version.
  void set_commit_discipline(CommitDiscipline discipline);

  /// Declare the next block: computes each transaction's predicted
  /// address closure and conflict component. Attempts reported through
  /// the recorder hooks are attributed by (from, nonce), which is unique
  /// within a valid block. Throws UsageError when a block is already
  /// open.
  void begin_block(std::span<const account::AccountTx> txs,
                   const account::State& state);

  /// Verify everything recorded since begin_block, reset, and report.
  AuditReport finish_block();

  // account::AccessRecorder:
  void on_begin(const account::AccountTx& tx) const override;
  void on_complete(const account::AccountTx& tx,
                   const account::Receipt& receipt) const override;

 private:
  struct TxKey {
    Address from;
    std::uint64_t nonce = 0;
    bool operator==(const TxKey&) const = default;
  };
  struct TxKeyHash {
    std::size_t operator()(const TxKey& k) const noexcept {
      return std::hash<Address>{}(k.from) ^
             (k.nonce * 0x9e3779b97f4a7c15ULL);
    }
  };

  /// One execution attempt of one transaction.
  struct Attempt {
    std::uint64_t begin_seq = 0;
    std::uint64_t end_seq = 0;
    std::size_t thread = 0;  ///< Dense per-block thread index.
    bool open = true;
    std::vector<account::SlotAccess> reads;
    std::vector<account::SlotAccess> writes;
  };

  /// Declared (predicted) view of one block transaction.
  struct Declared {
    std::size_t index = 0;       ///< Block position.
    std::size_t component = 0;   ///< Predicted conflict component.
    std::unordered_set<Address> predicted;
    std::vector<Attempt> attempts;
  };

  std::size_t thread_index_locked() const REQUIRES(mu_);

  mutable Mutex mu_;
  mutable std::uint64_t clock_ GUARDED_BY(mu_) = 0;
  mutable std::unordered_map<TxKey, Declared, TxKeyHash> txs_
      GUARDED_BY(mu_);
  /// Dense ids for executing threads (diagnostics: threads_seen).
  mutable std::unordered_map<std::size_t, std::size_t> threads_
      GUARDED_BY(mu_);
  /// Hook-side failures (undeclared transaction, complete without begin)
  /// held until finish_block.
  mutable std::vector<AuditViolation> stray_ GUARDED_BY(mu_);
  bool block_open_ GUARDED_BY(mu_) = false;
  std::string repro_hint_ GUARDED_BY(mu_);
  std::string executor_name_ GUARDED_BY(mu_);
  CommitDiscipline discipline_ GUARDED_BY(mu_) = CommitDiscipline::kInterval;
};

}  // namespace txconc::audit
