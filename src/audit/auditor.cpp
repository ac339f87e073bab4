#include "audit/auditor.h"

#include <algorithm>
#include <sstream>
#include <thread>

#include "common/error.h"
#include "exec/predict.h"
#include "exec/replay.h"

namespace txconc::audit {

namespace {

using SlotSet =
    std::unordered_set<account::SlotAccess, account::SlotAccessHash>;

/// Render a slot for violation messages; the balance sentinel reads as
/// "balance" rather than a 64-bit blob.
std::string slot_name(const account::SlotAccess& slot) {
  std::ostringstream out;
  out << slot.address.short_hex();
  if (slot.key == account::AccessTracker::kBalanceKey) {
    out << "/balance";
  } else {
    out << "/slot" << slot.key;
  }
  return out.str();
}

const account::SlotAccess* first_common(const SlotSet& set,
                                        std::span<const account::SlotAccess>
                                            probe) {
  for (const account::SlotAccess& s : probe) {
    const auto it = set.find(s);
    if (it != set.end()) return &*it;
  }
  return nullptr;
}

}  // namespace

const char* to_string(AuditViolation::Kind kind) {
  switch (kind) {
    case AuditViolation::Kind::kUndeclaredAccess:
      return "undeclared-access";
    case AuditViolation::Kind::kUnorderedConflict:
      return "unordered-conflict";
    case AuditViolation::Kind::kUnmatchedRecord:
      return "unmatched-record";
  }
  return "unknown";
}

std::string format_violations(const AuditReport& report) {
  std::ostringstream out;
  for (const AuditViolation& v : report.violations) {
    out << "TXCONC_AUDIT " << to_string(v.kind) << " tx#" << v.tx_a;
    if (v.kind == AuditViolation::Kind::kUnorderedConflict) {
      out << " tx#" << v.tx_b;
    }
    out << ": " << v.detail << "\n";
  }
  return out.str();
}

void AccessAuditor::set_repro_hint(std::string hint) {
  const MutexLock lock(mu_);
  repro_hint_ = std::move(hint);
}

void AccessAuditor::set_executor(std::string name) {
  const MutexLock lock(mu_);
  executor_name_ = std::move(name);
}

void AccessAuditor::set_commit_discipline(CommitDiscipline discipline) {
  const MutexLock lock(mu_);
  discipline_ = discipline;
}

void AccessAuditor::begin_block(std::span<const account::AccountTx> txs,
                                const account::State& state) {
  const MutexLock lock(mu_);
  if (block_open_) {
    throw UsageError("AccessAuditor: begin_block with a block in flight");
  }
  block_open_ = true;
  clock_ = 0;
  txs_.clear();
  threads_.clear();

  for (std::size_t i = 0; i < txs.size(); ++i) {
    const account::AccountTx& tx = txs[i];
    Declared declared;
    declared.index = i;
    const std::vector<Address> closure =
        exec::predicted_addresses(tx, state);
    declared.predicted.insert(closure.begin(), closure.end());
    const auto [it, inserted] =
        txs_.emplace(TxKey{tx.from, tx.nonce}, std::move(declared));
    if (!inserted) {
      AuditViolation v;
      v.kind = AuditViolation::Kind::kUnmatchedRecord;
      v.tx_a = i;
      v.detail = "duplicate (from, nonce) in block: " + tx.from.short_hex() +
                 " nonce " + std::to_string(tx.nonce) +
                 " collides with tx#" + std::to_string(it->second.index);
      stray_.push_back(std::move(v));
    }
  }

  // The conflict components, straight from the scheduler's own predictor:
  // check (b) only needs to compare transactions the prediction says may
  // conflict — txs in different components have disjoint closures, so
  // once check (a) holds their recorded sets cannot overlap either.
  const exec::PredictedGroups groups = exec::predict_groups(txs, state);
  for (std::size_t i = 0; i < txs.size(); ++i) {
    const auto it = txs_.find(TxKey{txs[i].from, txs[i].nonce});
    if (it != txs_.end() && it->second.index == i) {
      it->second.component = groups.component_of_tx[i];
    }
  }
}

void AccessAuditor::on_begin(const account::AccountTx& tx) const {
  const MutexLock lock(mu_);
  const auto it = txs_.find(TxKey{tx.from, tx.nonce});
  if (!block_open_ || it == txs_.end()) {
    AuditViolation v;
    v.kind = AuditViolation::Kind::kUnmatchedRecord;
    v.detail = "execution attempt for undeclared transaction " +
               tx.from.short_hex() + " nonce " + std::to_string(tx.nonce);
    stray_.push_back(std::move(v));
    return;
  }
  Attempt attempt;
  attempt.begin_seq = clock_++;
  attempt.thread = thread_index_locked();
  it->second.attempts.push_back(std::move(attempt));
}

void AccessAuditor::on_complete(const account::AccountTx& tx,
                                const account::Receipt& receipt) const {
  const MutexLock lock(mu_);
  const auto it = txs_.find(TxKey{tx.from, tx.nonce});
  Attempt* open = nullptr;
  if (block_open_ && it != txs_.end()) {
    // Attempts never nest on one thread (apply_transaction does not
    // recurse), so the open attempt of this (tx, thread) is unique.
    const std::size_t thread = thread_index_locked();
    for (Attempt& a : it->second.attempts) {
      if (a.open && a.thread == thread) open = &a;
    }
  }
  if (open == nullptr) {
    AuditViolation v;
    v.kind = AuditViolation::Kind::kUnmatchedRecord;
    if (it != txs_.end()) v.tx_a = it->second.index;
    v.detail = "completion without a matching begin for " +
               tx.from.short_hex() + " nonce " + std::to_string(tx.nonce);
    stray_.push_back(std::move(v));
    return;
  }
  open->end_seq = clock_++;
  open->open = false;
  open->reads = receipt.reads;
  open->writes = receipt.writes;
}

std::size_t AccessAuditor::thread_index_locked() const {
  const std::size_t id =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  const auto [it, inserted] = threads_.emplace(id, threads_.size());
  return it->second;
}

AuditReport AccessAuditor::finish_block() {
  const MutexLock lock(mu_);
  if (!block_open_) {
    throw UsageError("AccessAuditor: finish_block without begin_block");
  }
  block_open_ = false;

  AuditReport report;
  report.transactions_declared = txs_.size();
  report.threads_seen = threads_.size();
  report.violations = std::move(stray_);
  stray_.clear();

  // Deterministic order: walk transactions by block position.
  std::vector<Declared*> by_index(txs_.size(), nullptr);
  for (auto& [key, declared] : txs_) {
    if (declared.index < by_index.size()) by_index[declared.index] = &declared;
  }

  // ---- Check (a): recorded accesses within the predicted closure; also
  // locate each transaction's final (committed) attempt — the completed
  // attempt with the greatest begin sequence, since every executor's last
  // run of a transaction is the one whose effects commit.
  std::vector<const Attempt*> finals(by_index.size(), nullptr);
  for (std::size_t i = 0; i < by_index.size(); ++i) {
    Declared* declared = by_index[i];
    if (declared == nullptr) continue;
    // Under kMultiVersion an abandoned attempt is legitimate (an ESTIMATE
    // read unwound the execution) — unless it is the transaction's LAST
    // attempt, since the committed value must come from the final run.
    const Attempt* latest = nullptr;
    for (const Attempt& attempt : declared->attempts) {
      if (latest == nullptr || attempt.begin_seq > latest->begin_seq) {
        latest = &attempt;
      }
    }
    for (const Attempt& attempt : declared->attempts) {
      if (attempt.open) {
        if (discipline_ == CommitDiscipline::kMultiVersion) {
          ++report.attempts_abandoned;
          if (&attempt != latest) continue;
        }
        AuditViolation v;
        v.kind = AuditViolation::Kind::kUnmatchedRecord;
        v.tx_a = i;
        v.detail =
            (discipline_ == CommitDiscipline::kMultiVersion
                 ? "last execution attempt was abandoned (begin_seq "
                 : "execution attempt never completed (begin_seq ") +
            std::to_string(attempt.begin_seq) + ")";
        report.violations.push_back(std::move(v));
        continue;
      }
      ++report.attempts_recorded;
      for (const auto* accesses : {&attempt.reads, &attempt.writes}) {
        for (const account::SlotAccess& slot : *accesses) {
          if (declared->predicted.count(slot.address) == 0) {
            AuditViolation v;
            v.kind = AuditViolation::Kind::kUndeclaredAccess;
            v.tx_a = i;
            v.detail = std::string(accesses == &attempt.writes ? "write"
                                                               : "read") +
                       " of " + slot_name(slot) +
                       " outside the predicted closure";
            report.violations.push_back(std::move(v));
          }
        }
      }
      if (finals[i] == nullptr || attempt.begin_seq > finals[i]->begin_seq) {
        finals[i] = &attempt;
      }
    }
  }

  // ---- Check (b): ordering of conflicting committed runs, restricted to
  // predicted components (see begin_block).
  std::unordered_map<std::size_t, std::vector<std::size_t>> by_component;
  for (std::size_t i = 0; i < by_index.size(); ++i) {
    if (by_index[i] != nullptr && finals[i] != nullptr) {
      by_component[by_index[i]->component].push_back(i);
    }
  }
  for (auto& [component, members] : by_component) {
    if (members.size() < 2) continue;
    std::sort(members.begin(), members.end());
    // Hash the write/read sets of each member's final once.
    std::unordered_map<std::size_t, SlotSet> write_sets;
    std::unordered_map<std::size_t, SlotSet> read_sets;
    for (const std::size_t i : members) {
      write_sets[i] = SlotSet(finals[i]->writes.begin(),
                              finals[i]->writes.end());
      read_sets[i] = SlotSet(finals[i]->reads.begin(),
                             finals[i]->reads.end());
    }
    for (std::size_t a = 0; a < members.size(); ++a) {
      for (std::size_t b = a + 1; b < members.size(); ++b) {
        const std::size_t i = members[a];  // earlier in block order
        const std::size_t j = members[b];
        const Attempt& fi = *finals[i];
        const Attempt& fj = *finals[j];

        if (discipline_ == CommitDiscipline::kMultiVersion) {
          // Publication ordering: for every slot j's final run read that
          // i's final run wrote — and no intermediate same-component
          // transaction's final wrote (j read *that* version instead) —
          // j's validated read can only have seen a value published after
          // i completed, so i's final must end before j's does. Output and
          // anti-dependencies carry no constraint: versions coexist in the
          // store, and reads resolve strictly-lower indices.
          const account::SlotAccess* dep = nullptr;
          for (const account::SlotAccess& slot : fj.reads) {
            if (write_sets[i].count(slot) == 0) continue;
            bool shadowed = false;
            for (std::size_t m = a + 1; m < b; ++m) {
              if (write_sets[members[m]].count(slot) != 0) {
                shadowed = true;
                break;
              }
            }
            if (!shadowed) {
              dep = &slot;
              break;
            }
          }
          if (dep != nullptr) {
            ++report.conflict_pairs_checked;
            if (fi.end_seq >= fj.end_seq) {
              AuditViolation v;
              v.kind = AuditViolation::Kind::kUnorderedConflict;
              v.tx_a = i;
              v.tx_b = j;
              v.detail = "reader's final run completed before its "
                         "writer's on " +
                         slot_name(*dep) + ": tx#" + std::to_string(i) +
                         " ended at " + std::to_string(fi.end_seq) +
                         ", tx#" + std::to_string(j) + " ended at " +
                         std::to_string(fj.end_seq);
              report.violations.push_back(std::move(v));
            }
          }
          continue;
        }

        // True or output dependency: i's writes feed (or race with) j.
        const account::SlotAccess* true_dep =
            first_common(write_sets[i], fj.reads);
        if (true_dep == nullptr) {
          true_dep = first_common(write_sets[i], fj.writes);
        }
        if (true_dep != nullptr) {
          ++report.conflict_pairs_checked;
          if (fi.end_seq >= fj.begin_seq) {
            AuditViolation v;
            v.kind = AuditViolation::Kind::kUnorderedConflict;
            v.tx_a = i;
            v.tx_b = j;
            v.detail = "dependent runs overlap on " + slot_name(*true_dep) +
                       ": tx#" + std::to_string(i) + " [" +
                       std::to_string(fi.begin_seq) + "," +
                       std::to_string(fi.end_seq) + "] vs tx#" +
                       std::to_string(j) + " [" +
                       std::to_string(fj.begin_seq) + "," +
                       std::to_string(fj.end_seq) + "]";
            report.violations.push_back(std::move(v));
          }
          continue;
        }

        // Pure anti-dependency: j overwrites what i read. Overlap is
        // legitimate (speculative-fww reads the pre-block snapshot and
        // commits in block order), but i running strictly after j would
        // have read j's future.
        const account::SlotAccess* anti_dep =
            first_common(write_sets[j], fi.reads);
        if (anti_dep != nullptr) {
          ++report.conflict_pairs_checked;
          if (fi.begin_seq > fj.end_seq) {
            AuditViolation v;
            v.kind = AuditViolation::Kind::kUnorderedConflict;
            v.tx_a = i;
            v.tx_b = j;
            v.detail = "anti-dependent reader ran after the writer on " +
                       slot_name(*anti_dep) + ": tx#" + std::to_string(i) +
                       " began at " + std::to_string(fi.begin_seq) +
                       ", tx#" + std::to_string(j) + " ended at " +
                       std::to_string(fj.end_seq);
            report.violations.push_back(std::move(v));
          }
        }
      }
    }
  }

  for (AuditViolation& v : report.violations) {
    if (!executor_name_.empty()) {
      v.detail += "; executor=" + executor_name_;
    }
    if (!repro_hint_.empty()) {
      v.detail += "; " + exec::format_repro_env(repro_hint_);
    }
  }

  txs_.clear();
  threads_.clear();
  clock_ = 0;
  return report;
}

}  // namespace txconc::audit
