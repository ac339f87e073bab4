// Tests for the TDG-aware access auditor (src/audit).
//
// Three layers: (1) the positive property — every registered executor
// replays the conformance corpus with zero audit violations; (2) negative
// controls — the auditor must actually fire on an undeclared access and on
// an unordered conflicting commit, each with a TXCONC_REPRO hint in the
// violation; (3) non-interference — installing the auditor never changes
// what an executor computes, and an uninstalled auditor costs nothing.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "account/runtime.h"
#include "account/state.h"
#include "account/types.h"
#include "audit/auditor.h"
#include "conformance/differential.h"
#include "exec/executor.h"
#include "exec/replay.h"
#include "workload/profiles.h"

namespace txconc::audit {
namespace {

using account::AccountTx;
using account::Receipt;
using account::SlotAccess;
using account::StateDb;

bool fast_mode() {
  return std::getenv("TXCONC_CONFORMANCE_FAST") != nullptr;
}

Address addr(std::uint64_t seed) { return Address::from_seed(seed); }

AccountTx transfer_tx(const Address& from, const Address& to,
                      std::uint64_t nonce) {
  AccountTx tx;
  tx.from = from;
  tx.to = to;
  tx.value = 1;
  tx.nonce = nonce;
  return tx;
}

SlotAccess balance_slot(const Address& a) {
  return SlotAccess{a, account::AccessTracker::kBalanceKey};
}

// ------------------------------------------------------------ positive grid

TEST(AuditGrid, AllRegisteredExecutorsPassTheAudit) {
  conformance::GridOptions options;
  options.profiles = {"ethereum", "zilliqa"};
  options.executors = {};  // empty = every registry entry, sequential too
  options.thread_grid = {2, 4};
  options.num_schedule_seeds = fast_mode() ? 1 : 2;
  options.num_blocks = 2;
  options.tx_scale = 0.5;

  const conformance::GridOutcome outcome =
      conformance::run_audit_grid(options);
  EXPECT_GT(outcome.cells, 0u);
  for (const conformance::Divergence& d : outcome.divergences) {
    ADD_FAILURE() << d.spec.executor << " x" << d.spec.threads << " on "
                  << d.spec.profile << " failed the audit at block "
                  << d.block << ": " << d.detail << "\n  repro: " << d.repro;
  }
}

// The audit also holds under injected faults (rolled-back writes are still
// recorded accesses and must still reconcile).
TEST(AuditGrid, AuditHoldsUnderInjectedFaults) {
  conformance::GridOptions options;
  options.profiles = {"ethereum"};
  options.executors = {"speculative", "block-stm"};
  options.thread_grid = {4};
  options.num_schedule_seeds = fast_mode() ? 1 : 2;
  options.num_blocks = 2;
  options.tx_scale = 0.5;
  options.fault_rate = 0.05;

  const conformance::GridOutcome outcome =
      conformance::run_audit_grid(options);
  for (const conformance::Divergence& d : outcome.divergences) {
    ADD_FAILURE() << d.spec.executor << " failed the audit under faults: "
                  << d.detail << "\n  repro: " << d.repro;
  }
}

// -------------------------------------------------------- negative controls

// Control (i): a recorded write outside the predicted closure must fire
// kUndeclaredAccess. The attempt is driven through the recorder interface
// directly so the "executor" can misbehave on purpose.
TEST(AuditNegativeControl, UndeclaredWriteFires) {
  const Address alice = addr(1);
  const Address bob = addr(2);
  const Address outsider = addr(99);

  StateDb state;
  const std::vector<AccountTx> txs = {transfer_tx(alice, bob, 0)};

  AccessAuditor auditor;
  auditor.set_repro_hint("negative-control undeclared-write");
  auditor.begin_block(txs, state);

  const account::AccessRecorder& recorder = auditor;
  recorder.on_begin(txs[0]);
  Receipt receipt;
  receipt.success = true;
  receipt.reads = {balance_slot(alice)};
  // The rogue write: `outsider` is in nobody's predicted closure.
  receipt.writes = {balance_slot(alice), balance_slot(outsider)};
  recorder.on_complete(txs[0], receipt);

  const AuditReport report = auditor.finish_block();
  ASSERT_EQ(report.violations.size(), 1u);
  const AuditViolation& v = report.violations.front();
  EXPECT_EQ(v.kind, AuditViolation::Kind::kUndeclaredAccess);
  EXPECT_EQ(v.tx_a, 0u);
  EXPECT_NE(v.detail.find("TXCONC_REPRO='negative-control undeclared-write'"),
            std::string::npos)
      << v.detail;
  EXPECT_NE(format_violations(report).find("TXCONC_AUDIT undeclared-access"),
            std::string::npos);
}

// Control (ii): two transactions with a true dependency whose final runs
// overlap must fire kUnorderedConflict. Both write bob's balance, so they
// share a predicted component; the interleaved begin/complete calls below
// produce the intervals [0,2] and [1,3].
TEST(AuditNegativeControl, OverlappingDependentCommitsFire) {
  const Address alice = addr(1);
  const Address carol = addr(3);
  const Address bob = addr(2);

  StateDb state;
  const std::vector<AccountTx> txs = {transfer_tx(alice, bob, 0),
                                      transfer_tx(carol, bob, 0)};

  AccessAuditor auditor;
  auditor.set_repro_hint("negative-control unordered-conflict");
  auditor.begin_block(txs, state);

  Receipt first;
  first.success = true;
  first.reads = {balance_slot(alice)};
  first.writes = {balance_slot(alice), balance_slot(bob)};
  Receipt second;
  second.success = true;
  second.reads = {balance_slot(carol)};
  second.writes = {balance_slot(carol), balance_slot(bob)};

  const account::AccessRecorder& recorder = auditor;
  recorder.on_begin(txs[0]);    // seq 0
  recorder.on_begin(txs[1]);    // seq 1 -- overlaps tx#0
  recorder.on_complete(txs[0], first);   // seq 2
  recorder.on_complete(txs[1], second);  // seq 3

  const AuditReport report = auditor.finish_block();
  ASSERT_EQ(report.violations.size(), 1u);
  const AuditViolation& v = report.violations.front();
  EXPECT_EQ(v.kind, AuditViolation::Kind::kUnorderedConflict);
  EXPECT_EQ(v.tx_a, 0u);
  EXPECT_EQ(v.tx_b, 1u);
  EXPECT_NE(v.detail.find("TXCONC_REPRO="), std::string::npos) << v.detail;
  EXPECT_GE(report.conflict_pairs_checked, 1u);
}

// The anti-dependency carve-out: a pure anti-dependency (later tx
// overwrites what the earlier one read) may overlap -- that is how
// speculative-fww executes, reading the pre-block snapshot and committing
// in block order -- but the reader running strictly AFTER the writer is a
// violation.
TEST(AuditNegativeControl, AntiDependencyOverlapIsLegalButInversionFires) {
  const Address alice = addr(1);
  const Address carol = addr(3);
  const Address bob = addr(2);

  StateDb state;
  const std::vector<AccountTx> txs = {transfer_tx(alice, bob, 0),
                                      transfer_tx(carol, bob, 0)};

  Receipt reader;  // tx#0 only reads bob
  reader.success = true;
  reader.reads = {balance_slot(alice), balance_slot(bob)};
  reader.writes = {balance_slot(alice)};
  Receipt writer;  // tx#1 writes bob
  writer.success = true;
  writer.reads = {balance_slot(carol)};
  writer.writes = {balance_slot(carol), balance_slot(bob)};

  {
    // Overlap: legal.
    AccessAuditor auditor;
    auditor.begin_block(txs, state);
    const account::AccessRecorder& recorder = auditor;
    recorder.on_begin(txs[0]);
    recorder.on_begin(txs[1]);
    recorder.on_complete(txs[0], reader);
    recorder.on_complete(txs[1], writer);
    const AuditReport report = auditor.finish_block();
    EXPECT_TRUE(report.ok()) << format_violations(report);
    EXPECT_EQ(report.conflict_pairs_checked, 1u);
  }
  {
    // Inversion: the reader ran strictly after the writer.
    AccessAuditor auditor;
    auditor.begin_block(txs, state);
    const account::AccessRecorder& recorder = auditor;
    recorder.on_begin(txs[1]);              // writer [0,1]
    recorder.on_complete(txs[1], writer);
    recorder.on_begin(txs[0]);              // reader [2,3]
    recorder.on_complete(txs[0], reader);
    const AuditReport report = auditor.finish_block();
    ASSERT_EQ(report.violations.size(), 1u);
    EXPECT_EQ(report.violations.front().kind,
              AuditViolation::Kind::kUnorderedConflict);
  }
}

// ------------------------------------------- multi-version discipline

// Under CommitDiscipline::kMultiVersion (block-stm), dependent runs may
// overlap — the multi-version store serializes them by publication — so
// the interval rule is replaced by end-ordering: the reader's final run
// must COMPLETE after its writer's final run did.
TEST(MultiVersionDiscipline, OverlappingDependentRunsAreLegal) {
  const Address alice = addr(1);
  const Address carol = addr(3);
  const Address bob = addr(2);

  StateDb state;
  const std::vector<AccountTx> txs = {transfer_tx(alice, bob, 0),
                                      transfer_tx(carol, bob, 0)};

  Receipt first;  // tx#0 writes bob
  first.success = true;
  first.reads = {balance_slot(alice)};
  first.writes = {balance_slot(alice), balance_slot(bob)};
  Receipt second;  // tx#1 reads AND writes bob: a true dependency on tx#0
  second.success = true;
  second.reads = {balance_slot(carol), balance_slot(bob)};
  second.writes = {balance_slot(carol), balance_slot(bob)};

  AccessAuditor auditor;
  auditor.set_commit_discipline(CommitDiscipline::kMultiVersion);
  auditor.begin_block(txs, state);
  const account::AccessRecorder& recorder = auditor;
  recorder.on_begin(txs[0]);             // [0,
  recorder.on_begin(txs[1]);             // [1,   -- overlaps tx#0
  recorder.on_complete(txs[0], first);   //    2]
  recorder.on_complete(txs[1], second);  //       3] -- ends after tx#0
  const AuditReport report = auditor.finish_block();
  EXPECT_TRUE(report.ok()) << format_violations(report);
  EXPECT_EQ(report.conflict_pairs_checked, 1u);
}

TEST(MultiVersionDiscipline, EndInversionOnATrueDependencyFires) {
  const Address alice = addr(1);
  const Address carol = addr(3);
  const Address bob = addr(2);

  StateDb state;
  const std::vector<AccountTx> txs = {transfer_tx(alice, bob, 0),
                                      transfer_tx(carol, bob, 0)};

  Receipt writer;  // tx#0 writes bob
  writer.success = true;
  writer.reads = {balance_slot(alice)};
  writer.writes = {balance_slot(alice), balance_slot(bob)};
  Receipt reader;  // tx#1 reads bob
  reader.success = true;
  reader.reads = {balance_slot(carol), balance_slot(bob)};
  reader.writes = {balance_slot(carol)};

  AccessAuditor auditor;
  auditor.set_commit_discipline(CommitDiscipline::kMultiVersion);
  auditor.set_repro_hint("negative-control mv-end-inversion");
  auditor.begin_block(txs, state);
  const account::AccessRecorder& recorder = auditor;
  // The reader's final run completed BEFORE its writer's: whatever it
  // validated against, it cannot have been tx#0's published value.
  recorder.on_begin(txs[1]);             // [0,
  recorder.on_complete(txs[1], reader);  //    1]
  recorder.on_begin(txs[0]);             // [2,
  recorder.on_complete(txs[0], writer);  //    3]
  const AuditReport report = auditor.finish_block();
  ASSERT_EQ(report.violations.size(), 1u);
  const AuditViolation& v = report.violations.front();
  EXPECT_EQ(v.kind, AuditViolation::Kind::kUnorderedConflict);
  EXPECT_EQ(v.tx_a, 0u);
  EXPECT_EQ(v.tx_b, 1u);
  EXPECT_NE(v.detail.find("TXCONC_REPRO="), std::string::npos) << v.detail;
}

TEST(MultiVersionDiscipline, IntermediateWriterShadowsTheDependency) {
  const Address alice = addr(1);
  const Address carol = addr(3);
  const Address dave = addr(4);
  const Address bob = addr(2);

  StateDb state;
  const std::vector<AccountTx> txs = {transfer_tx(alice, bob, 0),
                                      transfer_tx(carol, bob, 0),
                                      transfer_tx(dave, bob, 0)};

  Receipt w0;  // tx#0 writes bob...
  w0.success = true;
  w0.reads = {balance_slot(alice)};
  w0.writes = {balance_slot(alice), balance_slot(bob)};
  Receipt w1;  // ...but tx#1 also writes bob, shadowing tx#0 for tx#2
  w1.success = true;
  w1.reads = {balance_slot(carol)};
  w1.writes = {balance_slot(carol), balance_slot(bob)};
  Receipt r2;  // tx#2 reads bob: its version came from tx#1, not tx#0
  r2.success = true;
  r2.reads = {balance_slot(dave), balance_slot(bob)};
  r2.writes = {balance_slot(dave)};

  AccessAuditor auditor;
  auditor.set_commit_discipline(CommitDiscipline::kMultiVersion);
  auditor.begin_block(txs, state);
  const account::AccessRecorder& recorder = auditor;
  recorder.on_begin(txs[1]);         // [0,
  recorder.on_complete(txs[1], w1);  //    1]
  recorder.on_begin(txs[2]);         // [2,
  recorder.on_complete(txs[2], r2);  //    3] -- after its writer tx#1
  recorder.on_begin(txs[0]);         // [4,
  recorder.on_complete(txs[0], w0);  //    5] -- after tx#2, but shadowed
  const AuditReport report = auditor.finish_block();
  // (0,1) and (0,2) write-write pairs carry no constraint; (0,2)'s read
  // of bob is shadowed by tx#1's write; only (1,2) is checked — ordered.
  EXPECT_TRUE(report.ok()) << format_violations(report);
  EXPECT_EQ(report.conflict_pairs_checked, 1u);
}

TEST(MultiVersionDiscipline, AbandonedAttemptsAreCountedNotFlagged) {
  const Address alice = addr(1);
  StateDb state;
  const std::vector<AccountTx> txs = {transfer_tx(alice, addr(2), 0)};

  Receipt receipt;
  receipt.success = true;
  receipt.reads = {balance_slot(alice)};
  receipt.writes = {balance_slot(alice)};

  {
    // An early attempt unwound mid-execution (ESTIMATE abort): legal, and
    // surfaced in the report as attempts_abandoned.
    AccessAuditor auditor;
    auditor.set_commit_discipline(CommitDiscipline::kMultiVersion);
    auditor.begin_block(txs, state);
    const account::AccessRecorder& recorder = auditor;
    recorder.on_begin(txs[0]);  // abandoned: no completion
    recorder.on_begin(txs[0]);
    recorder.on_complete(txs[0], receipt);
    const AuditReport report = auditor.finish_block();
    EXPECT_TRUE(report.ok()) << format_violations(report);
    EXPECT_EQ(report.attempts_abandoned, 1u);
    EXPECT_EQ(report.attempts_recorded, 1u);
  }
  {
    // The LAST attempt being abandoned is still a violation: the committed
    // value must come from the final run.
    AccessAuditor auditor;
    auditor.set_commit_discipline(CommitDiscipline::kMultiVersion);
    auditor.begin_block(txs, state);
    const account::AccessRecorder& recorder = auditor;
    recorder.on_begin(txs[0]);
    recorder.on_complete(txs[0], receipt);
    recorder.on_begin(txs[0]);  // abandoned final
    const AuditReport report = auditor.finish_block();
    ASSERT_EQ(report.violations.size(), 1u);
    EXPECT_EQ(report.violations.front().kind,
              AuditViolation::Kind::kUnmatchedRecord);
    EXPECT_EQ(report.attempts_abandoned, 1u);
  }
}

TEST(AuditNegativeControl, DanglingAttemptIsReported) {
  const Address alice = addr(1);
  StateDb state;
  const std::vector<AccountTx> txs = {transfer_tx(alice, addr(2), 0)};

  AccessAuditor auditor;
  auditor.begin_block(txs, state);
  static_cast<const account::AccessRecorder&>(auditor).on_begin(txs[0]);
  const AuditReport report = auditor.finish_block();
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations.front().kind,
            AuditViolation::Kind::kUnmatchedRecord);
}

// ---------------------------------------------------------- non-interference

// Installing the auditor must not change what the engine computes: same
// corpus, same executor, with and without the auditor -- identical state
// digests and receipts. This is the determinism guard for "the auditor is
// an observer, never a participant".
TEST(AuditNonInterference, InstalledAuditorChangesNothing) {
  const workload::ChainProfile profile =
      conformance::profile_by_name("ethereum");

  auto run = [&](bool install) {
    exec::HistoryReplayer replayer(profile, /*seed=*/7);
    AccessAuditor auditor;
    std::vector<AuditReport> reports;
    class Observer final : public exec::BlockObserver {
     public:
      Observer(AccessAuditor& a, std::vector<AuditReport>& out)
          : auditor_(a), out_(out) {}
      void before_block(std::span<const AccountTx> txs,
                        const StateDb& state) override {
        auditor_.begin_block(txs, state);
      }
      void after_block(const exec::ExecutionReport&) override {
        out_.push_back(auditor_.finish_block());
      }
     private:
      AccessAuditor& auditor_;
      std::vector<AuditReport>& out_;
    } observer(auditor, reports);
    if (install) {
      replayer.set_access_recorder(&auditor);
      replayer.set_block_observer(&observer);
    }
    const auto engine = exec::make_executor("speculative", 4);
    std::vector<account::Receipt> receipts;
    for (int b = 0; b < 2 && replayer.remaining() > 0; ++b) {
      const exec::ExecutionReport report = replayer.replay_next(*engine);
      receipts.insert(receipts.end(), report.receipts.begin(),
                      report.receipts.end());
    }
    for (const AuditReport& r : reports) {
      EXPECT_TRUE(r.ok()) << format_violations(r);
      EXPECT_GT(r.attempts_recorded, 0u);
    }
    return std::make_pair(replayer.state().digest(), receipts);
  };

  const auto [with_digest, with_receipts] = run(true);
  const auto [without_digest, without_receipts] = run(false);
  EXPECT_EQ(with_digest, without_digest);
  ASSERT_EQ(with_receipts.size(), without_receipts.size());
  for (std::size_t i = 0; i < with_receipts.size(); ++i) {
    EXPECT_EQ(with_receipts[i].success, without_receipts[i].success);
    EXPECT_EQ(with_receipts[i].gas_used, without_receipts[i].gas_used);
    EXPECT_EQ(with_receipts[i].reads, without_receipts[i].reads);
    EXPECT_EQ(with_receipts[i].writes, without_receipts[i].writes);
  }
}

// An uninstalled recorder costs one null-pointer check: the config default
// stays null and apply_transaction takes the untracked path untouched.
TEST(AuditNonInterference, UninstalledRecorderIsNull) {
  const account::RuntimeConfig config;
  EXPECT_EQ(config.recorder, nullptr);
}

}  // namespace
}  // namespace txconc::audit
