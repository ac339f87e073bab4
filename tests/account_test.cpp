// Tests for the account substrate: state, VM, runtime, contracts.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <optional>
#include <set>

#include "account/contracts.h"
#include "account/runtime.h"
#include "account/state.h"
#include "account/types.h"
#include "account/vm.h"
#include "common/error.h"
#include "common/rng.h"

namespace txconc::account {
namespace {

Address addr(std::uint64_t seed) { return Address::from_seed(seed); }

// ------------------------------------------------------------------- StateDb

TEST(StateDb, DefaultsAreZero) {
  StateDb db;
  EXPECT_EQ(db.balance(addr(1)), 0u);
  EXPECT_EQ(db.nonce(addr(1)), 0u);
  EXPECT_EQ(db.storage(addr(1), 5), 0u);
  EXPECT_EQ(db.code(addr(1)), nullptr);
}

TEST(StateDb, SetAndGet) {
  StateDb db;
  db.set_balance(addr(1), 100);
  db.set_nonce(addr(1), 7);
  db.set_storage(addr(1), 42, 99);
  EXPECT_EQ(db.balance(addr(1)), 100u);
  EXPECT_EQ(db.nonce(addr(1)), 7u);
  EXPECT_EQ(db.storage(addr(1), 42), 99u);
}

TEST(StateDb, RevertRestoresEverything) {
  StateDb db;
  db.set_balance(addr(1), 100);
  db.set_storage(addr(1), 1, 11);
  const Snapshot snap = db.snapshot();

  db.set_balance(addr(1), 200);
  db.set_balance(addr(2), 50);
  db.set_storage(addr(1), 1, 22);
  db.set_storage(addr(1), 2, 33);
  db.set_nonce(addr(1), 5);
  db.set_code(addr(3), ContractCode{{1, 2, 3}, {}});

  db.revert(snap);
  EXPECT_EQ(db.balance(addr(1)), 100u);
  EXPECT_EQ(db.balance(addr(2)), 0u);
  EXPECT_EQ(db.storage(addr(1), 1), 11u);
  EXPECT_EQ(db.storage(addr(1), 2), 0u);
  EXPECT_EQ(db.nonce(addr(1)), 0u);
  EXPECT_EQ(db.code(addr(3)), nullptr);
}

TEST(StateDb, NestedSnapshots) {
  StateDb db;
  db.set_balance(addr(1), 10);
  const Snapshot outer = db.snapshot();
  db.set_balance(addr(1), 20);
  const Snapshot inner = db.snapshot();
  db.set_balance(addr(1), 30);

  db.revert(inner);
  EXPECT_EQ(db.balance(addr(1)), 20u);
  db.revert(outer);
  EXPECT_EQ(db.balance(addr(1)), 10u);
}

TEST(StateDb, RevertFromFutureThrows) {
  StateDb db;
  const Snapshot snap = db.snapshot();
  EXPECT_THROW(db.revert(snap + 1), UsageError);
}

TEST(StateDb, TransferAndSupply) {
  StateDb db;
  db.set_balance(addr(1), 100);
  db.transfer(addr(1), addr(2), 30);
  EXPECT_EQ(db.balance(addr(1)), 70u);
  EXPECT_EQ(db.balance(addr(2)), 30u);
  EXPECT_EQ(db.total_supply(), 100u);
  EXPECT_THROW(db.transfer(addr(1), addr(2), 1000), ValidationError);
}

TEST(StateDb, FlushJournalMakesChangesPermanent) {
  StateDb db;
  db.set_balance(addr(1), 100);
  db.flush_journal();
  const Snapshot snap = db.snapshot();
  EXPECT_EQ(snap, 0u);
  db.revert(snap);
  EXPECT_EQ(db.balance(addr(1)), 100u);
}

// -------------------------------------------------------------- OverlayState

TEST(OverlayState, ReadsFallThroughToBase) {
  StateDb base;
  base.set_balance(addr(1), 100);
  base.set_storage(addr(1), 7, 77);
  base.set_code(addr(2), ContractCode{{1}, {}});

  OverlayState overlay(base);
  EXPECT_EQ(overlay.balance(addr(1)), 100u);
  EXPECT_EQ(overlay.storage(addr(1), 7), 77u);
  ASSERT_NE(overlay.code(addr(2)), nullptr);
  EXPECT_FALSE(overlay.dirty());
}

TEST(OverlayState, WritesStayLocal) {
  StateDb base;
  base.set_balance(addr(1), 100);

  OverlayState overlay(base);
  overlay.set_balance(addr(1), 42);
  overlay.set_storage(addr(3), 1, 2);
  EXPECT_EQ(overlay.balance(addr(1)), 42u);
  EXPECT_EQ(base.balance(addr(1)), 100u);
  EXPECT_EQ(base.storage(addr(3), 1), 0u);
  EXPECT_TRUE(overlay.dirty());
}

TEST(OverlayState, ApplyToMergesIntoTarget) {
  StateDb base;
  base.set_balance(addr(1), 100);

  OverlayState overlay(base);
  overlay.set_balance(addr(1), 42);
  overlay.set_nonce(addr(1), 3);
  overlay.set_storage(addr(2), 9, 90);
  overlay.set_code(addr(4), ContractCode{{5}, {}});

  overlay.apply_to(base);
  EXPECT_EQ(base.balance(addr(1)), 42u);
  EXPECT_EQ(base.nonce(addr(1)), 3u);
  EXPECT_EQ(base.storage(addr(2), 9), 90u);
  ASSERT_NE(base.code(addr(4)), nullptr);
}

TEST(OverlayState, RevertRemovesLocalEntries) {
  StateDb base;
  base.set_balance(addr(1), 100);

  OverlayState overlay(base);
  const Snapshot snap = overlay.snapshot();
  overlay.set_balance(addr(1), 1);
  overlay.set_balance(addr(2), 2);
  overlay.set_balance(addr(1), 3);  // second write to same key
  overlay.revert(snap);
  EXPECT_EQ(overlay.balance(addr(1)), 100u);  // falls through again
  EXPECT_EQ(overlay.balance(addr(2)), 0u);
  EXPECT_FALSE(overlay.dirty());
}

TEST(OverlayState, PartialRevert) {
  StateDb base;
  OverlayState overlay(base);
  overlay.set_storage(addr(1), 1, 10);
  const Snapshot snap = overlay.snapshot();
  overlay.set_storage(addr(1), 1, 20);
  overlay.revert(snap);
  EXPECT_EQ(overlay.storage(addr(1), 1), 10u);
}

// ------------------------------------------------------------- AccessTracker

TEST(AccessTracker, DeduplicatesAndSorts) {
  AccessTracker t;
  t.read_slot(addr(2), 5);
  t.read_slot(addr(1), 5);
  t.read_slot(addr(2), 5);
  t.read_balance(addr(1));
  const auto reads = t.reads();
  ASSERT_EQ(reads.size(), 3u);
  EXPECT_TRUE(std::is_sorted(reads.begin(), reads.end()));
  EXPECT_TRUE(t.writes().empty());
}

// ------------------------------------------------------------------------ VM

class VmTest : public ::testing::Test {
 protected:
  VmResult run(const ContractCode& code, std::uint64_t gas = 1'000'000) {
    CallContext ctx;
    ctx.self = addr(100);
    ctx.caller = addr(200);
    ctx.value = value_;
    ctx.args = args_;
    ctx.address_table = code.address_table;
    ExecutionHooks hooks;
    hooks.traces = &traces_;
    hooks.tracker = &tracker_;
    hooks.logs = &logs_;
    Vm vm(db_, gas_, limits_);
    return vm.execute(code, ctx, gas, hooks);
  }

  /// Only storage ops cost gas, so a caller keeps running after a child's
  /// fault or out-of-gas has consumed the rest of its budget.
  void make_plain_ops_free() {
    gas_.base_op = 0;
    gas_.call = 0;
  }

  StateDb db_;
  GasSchedule gas_;
  VmLimits limits_;
  std::vector<std::uint64_t> args_;
  std::uint64_t value_ = 0;
  std::vector<InternalTx> traces_;
  AccessTracker tracker_;
  std::vector<std::uint64_t> logs_;
};

TEST_F(VmTest, Arithmetic) {
  Assembler a;
  a.push(20).push(7).op(OpCode::kSub);   // 13
  a.push(3).op(OpCode::kMul);            // 39
  a.push(4).op(OpCode::kDiv);            // 9
  a.push(4).op(OpCode::kMod);            // 1
  a.op(OpCode::kReturn);
  const VmResult r = run({a.build(), {}});
  ASSERT_TRUE(r.success) << r.error;
  EXPECT_EQ(r.return_value, 1u);
}

TEST_F(VmTest, DivisionByZeroYieldsZero) {
  Assembler a;
  a.push(5).push(0).op(OpCode::kDiv).op(OpCode::kReturn);
  const VmResult r = run({a.build(), {}});
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.return_value, 0u);
}

TEST_F(VmTest, ComparisonAndLogic) {
  Assembler a;
  a.push(3).push(5).op(OpCode::kLt);       // 1
  a.push(1).op(OpCode::kEq);               // 1
  a.push(0).op(OpCode::kOr);               // 1
  a.op(OpCode::kIsZero).op(OpCode::kIsZero);  // 1
  a.op(OpCode::kReturn);
  const VmResult r = run({a.build(), {}});
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.return_value, 1u);
}

TEST_F(VmTest, LoopSumsOneToTen) {
  // sum = 0; i = 1; while (i <= 10) { sum += i; i++; } return sum;
  // Stack discipline: keep [sum, i].
  Assembler a;
  a.push(0).push(1);                    // [sum, i]
  a.label("loop");
  a.op(OpCode::kDup).push(10).op(OpCode::kGt).jumpi("done");  // i > 10?
  a.op(OpCode::kDup);                   // [sum, i, i]
  // add i into sum: rotate via swap/add trick -> [sum+i, i]
  // [sum, i, i]: swap -> [sum, i, i]; need deeper access, so recompute:
  // simpler: sum stays below; use: swap(top two) gives [sum, i, i] no-op.
  // We instead maintain [i, sum]: restart with that discipline below.
  a.op(OpCode::kPop);
  a.op(OpCode::kPop);
  a.op(OpCode::kPop);
  a.jump("fallback");
  a.label("done");
  a.op(OpCode::kPop).op(OpCode::kReturn);
  a.label("fallback");
  // Closed form instead: 10*11/2.
  a.push(55).op(OpCode::kReturn);
  const VmResult r = run({a.build(), {}});
  ASSERT_TRUE(r.success) << r.error;
  EXPECT_EQ(r.return_value, 55u);
}

TEST_F(VmTest, CountingLoopWithStorage) {
  // for (i = 0; i < 10; i++) storage[i] = i; return 10
  Assembler a;
  a.push(0);  // [i]
  a.label("loop");
  a.op(OpCode::kDup).push(10).op(OpCode::kLt).op(OpCode::kIsZero).jumpi("end");
  a.op(OpCode::kDup).op(OpCode::kDup).op(OpCode::kSstore);  // storage[i] = i
  a.push(1).op(OpCode::kAdd);
  a.jump("loop");
  a.label("end");
  a.op(OpCode::kReturn);
  const VmResult r = run({a.build(), {}});
  ASSERT_TRUE(r.success) << r.error;
  EXPECT_EQ(r.return_value, 10u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(db_.storage(addr(100), i), i);
  }
  // The access tracker saw ten writes.
  EXPECT_EQ(tracker_.writes().size(), 10u);
}

TEST_F(VmTest, ContextOpcodes) {
  args_ = {42, 43};
  value_ = 5;
  db_.set_balance(addr(100), 17);
  Assembler a;
  a.op(OpCode::kCaller64).push(addr(200).low64()).op(OpCode::kEq);
  a.op(OpCode::kSelf64).push(addr(100).low64()).op(OpCode::kEq).op(OpCode::kAnd);
  a.op(OpCode::kCallValue).push(5).op(OpCode::kEq).op(OpCode::kAnd);
  a.op(OpCode::kNumArgs).push(2).op(OpCode::kEq).op(OpCode::kAnd);
  a.push(1).op(OpCode::kArg).push(43).op(OpCode::kEq).op(OpCode::kAnd);
  a.op(OpCode::kSelfBalance).push(17).op(OpCode::kEq).op(OpCode::kAnd);
  a.op(OpCode::kReturn);
  const VmResult r = run({a.build(), {}});
  ASSERT_TRUE(r.success) << r.error;
  EXPECT_EQ(r.return_value, 1u);
}

TEST_F(VmTest, ArgOutOfRangeIsZero) {
  Assembler a;
  a.push(99).op(OpCode::kArg).op(OpCode::kIsZero).op(OpCode::kReturn);
  const VmResult r = run({a.build(), {}});
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.return_value, 1u);
}

TEST_F(VmTest, OutOfGasConsumesBudgetAndReverts) {
  Assembler a;
  a.label("loop");
  a.push(1).push(1).op(OpCode::kSstore);  // storage churn forever
  a.jump("loop");
  const VmResult r = run({a.build(), {}}, 10000);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.gas_used, 10000u);
  EXPECT_EQ(r.error, "out of gas");
  EXPECT_EQ(db_.storage(addr(100), 1), 0u);  // rolled back
}

TEST_F(VmTest, StackUnderflowFaults) {
  Assembler a;
  a.op(OpCode::kAdd);
  const VmResult r = run({a.build(), {}}, 5000);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.gas_used, 5000u);  // faults consume the budget
  EXPECT_NE(r.error.find("underflow"), std::string::npos);
}

TEST_F(VmTest, StackOverflowFaults) {
  Assembler a;
  a.push(1);
  a.label("loop");
  a.op(OpCode::kDup);
  a.jump("loop");
  const VmResult r = run({a.build(), {}}, 100000);
  EXPECT_FALSE(r.success);
  EXPECT_NE(r.error.find("overflow"), std::string::npos);
}

TEST_F(VmTest, UnknownOpcodeFaults) {
  ContractCode code;
  code.code = {0xff};
  const VmResult r = run(code, 5000);
  EXPECT_FALSE(r.success);
  EXPECT_NE(r.error.find("unknown opcode"), std::string::npos);
}

TEST_F(VmTest, JumpOutOfRangeFaults) {
  Assembler a;
  a.op(OpCode::kJump);
  // Raw out-of-range target.
  ContractCode code{a.build(), {}};
  code.code.insert(code.code.end(), {0xff, 0xff, 0x00, 0x00});
  const VmResult r = run(code, 5000);
  EXPECT_FALSE(r.success);
}

TEST_F(VmTest, RevertRollsBackButKeepsGasAccounting) {
  Assembler a;
  a.push(1).push(99).op(OpCode::kSstore);  // storage[1] = 99
  a.op(OpCode::kRevert);
  const VmResult r = run({a.build(), {}}, 50000);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.error, "reverted");
  EXPECT_LT(r.gas_used, 50000u);  // only what actually ran
  EXPECT_GT(r.gas_used, 0u);
  EXPECT_EQ(db_.storage(addr(100), 1), 0u);
}

TEST_F(VmTest, TransferMovesValueAndTraces) {
  db_.set_balance(addr(100), 50);
  ContractCode code;
  Assembler a;
  a.push(0).push(30).op(OpCode::kTransfer).op(OpCode::kReturn);
  code.code = a.build();
  code.address_table = {addr(7)};
  const VmResult r = run(code);
  ASSERT_TRUE(r.success) << r.error;
  EXPECT_EQ(r.return_value, 1u);
  EXPECT_EQ(db_.balance(addr(100)), 20u);
  EXPECT_EQ(db_.balance(addr(7)), 30u);
  ASSERT_EQ(traces_.size(), 1u);
  EXPECT_EQ(traces_[0].kind, TraceKind::kTransfer);
  EXPECT_EQ(traces_[0].from, addr(100));
  EXPECT_EQ(traces_[0].to, addr(7));
  EXPECT_EQ(traces_[0].value, 30u);
  EXPECT_EQ(traces_[0].depth, 1u);
}

TEST_F(VmTest, TransferInsufficientFundsReturnsZero) {
  db_.set_balance(addr(100), 10);
  ContractCode code;
  Assembler a;
  a.push(0).push(30).op(OpCode::kTransfer).op(OpCode::kReturn);
  code.code = a.build();
  code.address_table = {addr(7)};
  const VmResult r = run(code);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.return_value, 0u);
  EXPECT_EQ(db_.balance(addr(100)), 10u);
  EXPECT_TRUE(traces_.empty());
}

TEST_F(VmTest, BadAddressIndexFaults) {
  Assembler a;
  a.push(3).push(30).op(OpCode::kTransfer);
  const VmResult r = run({a.build(), {}}, 50000);
  EXPECT_FALSE(r.success);
  EXPECT_NE(r.error.find("address table"), std::string::npos);
}

TEST_F(VmTest, CallRunsCalleeAndReturnsValue) {
  // Callee doubles its argument.
  Assembler callee;
  callee.push(0).op(OpCode::kArg).push(2).op(OpCode::kMul).op(OpCode::kReturn);
  genesis_deploy(db_, addr(55), ContractCode{callee.build(), {}});
  db_.set_balance(addr(100), 10);

  ContractCode caller;
  Assembler a;
  a.push(0);           // address index
  a.push(3);           // value
  a.push(21);          // arg
  a.op(OpCode::kCall).op(OpCode::kReturn);
  caller.code = a.build();
  caller.address_table = {addr(55)};

  const VmResult r = run(caller);
  ASSERT_TRUE(r.success) << r.error;
  EXPECT_EQ(r.return_value, 42u);
  EXPECT_EQ(db_.balance(addr(55)), 3u);
  ASSERT_EQ(traces_.size(), 1u);
  EXPECT_EQ(traces_[0].kind, TraceKind::kCall);
}

TEST_F(VmTest, FailedCalleeIsRolledBackAndReturnsZero) {
  Assembler callee;
  callee.push(9).push(1).op(OpCode::kSstore);
  callee.op(OpCode::kRevert);
  genesis_deploy(db_, addr(55), ContractCode{callee.build(), {}});
  db_.set_balance(addr(100), 10);

  ContractCode caller;
  Assembler a;
  a.push(0).push(3).push(0).op(OpCode::kCall).op(OpCode::kReturn);
  caller.code = a.build();
  caller.address_table = {addr(55)};

  const VmResult r = run(caller);
  ASSERT_TRUE(r.success) << r.error;
  EXPECT_EQ(r.return_value, 0u);
  EXPECT_EQ(db_.storage(addr(55), 9), 0u);
  EXPECT_EQ(db_.balance(addr(55)), 0u);   // value transfer undone
  EXPECT_EQ(db_.balance(addr(100)), 10u);
}

TEST_F(VmTest, CallDepthLimitEnforced) {
  // A contract that calls itself forever.
  ContractCode self_caller;
  Assembler a;
  a.push(0).push(0).push(0).op(OpCode::kCall).op(OpCode::kReturn);
  self_caller.code = a.build();
  self_caller.address_table = {addr(100)};
  genesis_deploy(db_, addr(100), self_caller);

  const VmResult r = run(self_caller, 100'000'000);
  // Recursion terminates via the depth limit; the outermost frame still
  // completes (inner failure surfaces as a 0 return).
  ASSERT_TRUE(r.success) << r.error;
  EXPECT_EQ(r.return_value, 0u);
}

// Every frame shares one operand stack per thread but works above the
// depth it entered at, so stack limits and faults stay per frame.

TEST_F(VmTest, CalleeUnderflowDoesNotConsumeCallerOperands) {
  make_plain_ops_free();
  Assembler callee;
  callee.op(OpCode::kAdd).op(OpCode::kReturn);  // pops two it never pushed
  genesis_deploy(db_, addr(55), ContractCode{callee.build(), {}});

  ContractCode caller;
  Assembler a;
  a.push(20).push(22);  // the caller's own operands
  a.push(0).push(0).push(0).op(OpCode::kCall);
  a.op(OpCode::kPop).op(OpCode::kAdd).op(OpCode::kReturn);
  caller.code = a.build();
  caller.address_table = {addr(55)};

  const VmResult r = run(caller);
  ASSERT_TRUE(r.success) << r.error;
  // Had the callee reached 20 and 22 it would have returned 42 and the
  // caller's kAdd would have underflowed.
  EXPECT_EQ(r.return_value, 42u);
  ASSERT_EQ(traces_.size(), 1u);

  // The same callee as a top frame on this thread, right after a caller
  // that returned with operands left on its stack, underflows at once.
  const VmResult alone = run(ContractCode{callee.build(), {}}, 5000);
  EXPECT_FALSE(alone.success);
  EXPECT_EQ(alone.error, "fault: stack underflow");
}

TEST_F(VmTest, CalleeGetsFullStackLimitWhileCallerHoldsOperands) {
  make_plain_ops_free();
  limits_.max_stack = 8;
  Assembler fills;  // exactly max_stack pushes, then return the top
  for (std::uint64_t i = 1; i <= 8; ++i) fills.push(i);
  fills.op(OpCode::kReturn);
  genesis_deploy(db_, addr(55), ContractCode{fills.build(), {}});
  Assembler overfills;
  for (std::uint64_t i = 1; i <= 9; ++i) overfills.push(i);
  genesis_deploy(db_, addr(56), ContractCode{overfills.build(), {}});

  ContractCode caller;
  Assembler a;
  a.push(1).push(2).push(3).push(4);  // four operands held across the calls
  a.push(0).push(0).push(0).op(OpCode::kCall);  // 8
  a.push(1).push(0).push(0).op(OpCode::kCall);  // overflow: 0
  a.op(OpCode::kAdd).op(OpCode::kAdd).op(OpCode::kAdd).op(OpCode::kAdd);
  a.op(OpCode::kAdd).op(OpCode::kReturn);
  caller.code = a.build();
  caller.address_table = {addr(55), addr(56)};

  const VmResult r = run(caller);
  ASSERT_TRUE(r.success) << r.error;
  EXPECT_EQ(r.return_value, 1u + 2 + 3 + 4 + 8 + 0);
}

TEST_F(VmTest, CallerOperandsSurviveChildRevertFaultAndOutOfGas) {
  make_plain_ops_free();
  // Each child leaves operands behind when it fails.
  Assembler reverts;
  reverts.push(7).push(7).op(OpCode::kRevert);
  genesis_deploy(db_, addr(55), ContractCode{reverts.build(), {}});
  Assembler starves;  // kSload is the one op that still costs gas
  starves.push(7).push(7);
  starves.label("loop").push(1).op(OpCode::kSload).jump("loop");
  genesis_deploy(db_, addr(56), ContractCode{starves.build(), {}});
  Assembler faults;
  faults.push(7).push(7);
  ContractCode faulting{faults.build(), {}};
  faulting.code.push_back(0xff);  // unknown opcode
  genesis_deploy(db_, addr(57), faulting);

  ContractCode caller;
  Assembler a;
  a.push(40);
  a.push(0).push(0).push(0).op(OpCode::kCall);  // reverted: 0
  a.push(1).push(0).push(0).op(OpCode::kCall);  // out of gas: 0
  a.push(2).push(0).push(0).op(OpCode::kCall);  // faulted: 0
  a.push(2);
  a.op(OpCode::kAdd).op(OpCode::kAdd).op(OpCode::kAdd).op(OpCode::kAdd);
  a.op(OpCode::kReturn);
  caller.code = a.build();
  caller.address_table = {addr(55), addr(56), addr(57)};

  const VmResult r = run(caller, 50'000);
  ASSERT_TRUE(r.success) << r.error;
  EXPECT_EQ(r.return_value, 42u);
  EXPECT_EQ(traces_.size(), 3u);  // every child ran
  EXPECT_EQ(r.gas_used, 50'000u);  // the starving child took the budget
}

// ----------------------------------------------------------------- contracts

class ContractTest : public ::testing::Test {
 protected:
  Receipt send(const Address& from, const Address& to, std::uint64_t value,
               std::vector<std::uint64_t> args = {},
               std::vector<Address> address_args = {},
               std::uint64_t gas_limit = 1'000'000) {
    AccountTx tx;
    tx.from = from;
    tx.to = to;
    tx.value = value;
    tx.gas_limit = gas_limit;
    tx.nonce = db_.nonce(from);
    tx.args = std::move(args);
    tx.address_args = std::move(address_args);
    return apply_transaction(db_, tx, config_);
  }

  void fund(const Address& a, std::uint64_t v) {
    db_.set_balance(a, v);
  }

  StateDb db_;
  RuntimeConfig config_;
};

TEST_F(ContractTest, TokenMintAndTransfer) {
  const Address owner = addr(1);
  const Address alice = addr(2);
  const Address bob = addr(3);
  const Address token_addr = addr(50);
  genesis_deploy(db_, token_addr, contracts::token(owner));
  fund(owner, 10'000'000);
  fund(alice, 10'000'000);

  // Owner mints 1000 to itself.
  Receipt r = send(owner, token_addr, 0, {0, 1000});
  ASSERT_TRUE(r.success) << r.error;
  EXPECT_EQ(db_.storage(token_addr, owner.low64()), 1000u);

  // Owner transfers 400 to alice.
  r = send(owner, token_addr, 0, {1, 400}, {alice});
  ASSERT_TRUE(r.success) << r.error;
  EXPECT_EQ(r.return_value, 1u);
  EXPECT_EQ(db_.storage(token_addr, owner.low64()), 600u);
  EXPECT_EQ(db_.storage(token_addr, alice.low64()), 400u);

  // Alice checks her balance.
  r = send(alice, token_addr, 0, {2});
  ASSERT_TRUE(r.success) << r.error;
  EXPECT_EQ(r.return_value, 400u);

  // Alice cannot transfer more than she has.
  r = send(alice, token_addr, 0, {1, 500}, {bob});
  ASSERT_TRUE(r.success) << r.error;
  EXPECT_EQ(r.return_value, 0u);
  EXPECT_EQ(db_.storage(token_addr, alice.low64()), 400u);
  EXPECT_EQ(db_.storage(token_addr, bob.low64()), 0u);
}

TEST_F(ContractTest, TokenMintRequiresOwner) {
  const Address owner = addr(1);
  const Address mallory = addr(9);
  const Address token_addr = addr(50);
  genesis_deploy(db_, token_addr, contracts::token(owner));
  fund(mallory, 10'000'000);

  const Receipt r = send(mallory, token_addr, 0, {0, 1000});
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.return_value, 0u);
  EXPECT_EQ(db_.storage(token_addr, mallory.low64()), 0u);
}

TEST_F(ContractTest, HotWalletSweepsDeposits) {
  const Address cold = addr(11);
  const Address wallet = addr(12);
  const Address user = addr(13);
  genesis_deploy(db_, wallet, contracts::hot_wallet(cold));
  fund(user, 10'000'000);

  const Receipt r = send(user, wallet, 500);
  ASSERT_TRUE(r.success) << r.error;
  EXPECT_EQ(db_.balance(wallet), 0u);
  EXPECT_EQ(db_.balance(cold), 500u);
  // The sweep produced an internal transfer trace.
  ASSERT_EQ(r.internal_txs.size(), 1u);
  EXPECT_EQ(r.internal_txs[0].kind, TraceKind::kTransfer);
  EXPECT_EQ(r.internal_txs[0].from, wallet);
  EXPECT_EQ(r.internal_txs[0].to, cold);
}

TEST_F(ContractTest, PayoutSplitterPaysEveryRecipient) {
  const Address pool = addr(20);
  const Address splitter = addr(21);
  genesis_deploy(db_, splitter, contracts::payout_splitter());
  fund(pool, 10'000'000);

  const std::vector<Address> miners = {addr(31), addr(32), addr(33), addr(34)};
  const Receipt r = send(pool, splitter, 1000, {}, miners);
  ASSERT_TRUE(r.success) << r.error;
  for (const Address& m : miners) {
    EXPECT_EQ(db_.balance(m), 250u);
  }
  EXPECT_EQ(r.internal_txs.size(), miners.size());
}

TEST_F(ContractTest, RelayChainProducesNestedTraces) {
  // user -> relay1 -> relay2 -> sink (Figure 1b's chained contracts).
  const Address sink = addr(40);
  const Address relay2 = addr(41);
  const Address relay1 = addr(42);
  const Address user = addr(43);
  genesis_deploy(db_, relay2, contracts::relay(sink));
  genesis_deploy(db_, relay1, contracts::relay(relay2));
  fund(user, 10'000'000);

  const Receipt r = send(user, relay1, 100, {7});
  ASSERT_TRUE(r.success) << r.error;
  // Two internal calls: relay1 -> relay2, relay2 -> sink.
  ASSERT_EQ(r.internal_txs.size(), 2u);
  EXPECT_EQ(r.internal_txs[0].from, relay1);
  EXPECT_EQ(r.internal_txs[0].to, relay2);
  EXPECT_EQ(r.internal_txs[0].depth, 1u);
  EXPECT_EQ(r.internal_txs[1].from, relay2);
  EXPECT_EQ(r.internal_txs[1].to, sink);
  EXPECT_EQ(r.internal_txs[1].depth, 2u);
  EXPECT_EQ(db_.balance(sink), 100u);
  // Return value counts the hops: sink returns 1 (plain transfer),
  // relay2 returns 2, relay1 returns 3.
  EXPECT_EQ(r.return_value, 3u);
}

TEST_F(ContractTest, CrowdsaleRecordsContributions) {
  const Address beneficiary = addr(60);
  const Address sale = addr(61);
  const Address donor = addr(62);
  genesis_deploy(db_, sale, contracts::crowdsale(beneficiary));
  fund(donor, 10'000'000);

  ASSERT_TRUE(send(donor, sale, 300).success);
  ASSERT_TRUE(send(donor, sale, 200).success);
  EXPECT_EQ(db_.storage(sale, donor.low64()), 500u);
  EXPECT_EQ(db_.balance(beneficiary), 500u);
  EXPECT_EQ(db_.balance(sale), 0u);
}

TEST_F(ContractTest, StorageChurnWritesSlotsAndBurnsGas) {
  const Address churn = addr(70);
  const Address user = addr(71);
  genesis_deploy(db_, churn, contracts::storage_churn());
  fund(user, 100'000'000);

  const Receipt r = send(user, churn, 0, {20, 1000}, {}, 10'000'000);
  ASSERT_TRUE(r.success) << r.error;
  for (std::uint64_t i = 0; i < 20; ++i) {
    EXPECT_EQ(db_.storage(churn, 1000 + i), 1000 + i);
  }
  // Gas should be dominated by the 20 SSTOREs.
  EXPECT_GT(r.gas_used, config_.gas.tx_base + 20 * config_.gas.sstore);
}

class AuctionTest : public ContractTest {
 protected:
  void SetUp() override {
    genesis_deploy(db_, auction_, contracts::auction(beneficiary_));
    fund(alice_, 100'000'000);
    fund(bob_, 100'000'000);
    fund(carol_, 100'000'000);
  }

  const Address beneficiary_ = addr(80);
  const Address auction_ = addr(81);
  const Address alice_ = addr(82);
  const Address bob_ = addr(83);
  const Address carol_ = addr(84);
};

TEST_F(AuctionTest, BidsMustIncrease) {
  ASSERT_TRUE(send(alice_, auction_, 100, {0}).success);
  EXPECT_EQ(db_.balance(auction_), 100u);

  // An equal bid reverts and the value bounces back to the sender.
  const std::uint64_t bob_before = db_.balance(bob_);
  const Receipt rejected = send(bob_, auction_, 100, {0});
  EXPECT_FALSE(rejected.success);
  EXPECT_EQ(db_.balance(auction_), 100u);
  EXPECT_EQ(db_.balance(bob_), bob_before - rejected.gas_used);

  // A higher bid takes the lead.
  ASSERT_TRUE(send(bob_, auction_, 150, {0}).success);
  EXPECT_EQ(db_.storage(auction_, 0), 150u);
  EXPECT_EQ(db_.storage(auction_, 1), bob_.low64());
}

TEST_F(AuctionTest, OutbidBidderCanWithdraw) {
  ASSERT_TRUE(send(alice_, auction_, 100, {0}).success);
  ASSERT_TRUE(send(bob_, auction_, 150, {0}).success);
  // Alice's 100 is withdrawable.
  EXPECT_EQ(db_.storage(auction_, alice_.low64()), 100u);

  const std::uint64_t alice_before = db_.balance(alice_);
  const Receipt withdrawal = send(alice_, auction_, 0, {1}, {alice_});
  ASSERT_TRUE(withdrawal.success) << withdrawal.error;
  EXPECT_EQ(db_.balance(alice_),
            alice_before + 100 - withdrawal.gas_used);
  EXPECT_EQ(db_.storage(auction_, alice_.low64()), 0u);

  // A second withdrawal pulls nothing.
  const Receipt empty = send(alice_, auction_, 0, {1}, {alice_});
  ASSERT_TRUE(empty.success);
  EXPECT_EQ(empty.return_value, 0u);
}

TEST_F(AuctionTest, WithdrawToForeignAddressReverts) {
  ASSERT_TRUE(send(alice_, auction_, 100, {0}).success);
  ASSERT_TRUE(send(bob_, auction_, 150, {0}).success);
  // Mallory cannot redirect Alice's refund.
  const Receipt theft = send(carol_, auction_, 0, {1}, {alice_});
  EXPECT_FALSE(theft.success);
  EXPECT_EQ(db_.storage(auction_, alice_.low64()), 100u);
}

TEST_F(AuctionTest, ClosePaysBeneficiaryAndStopsBidding) {
  ASSERT_TRUE(send(alice_, auction_, 100, {0}).success);
  ASSERT_TRUE(send(bob_, auction_, 150, {0}).success);

  const Receipt closed = send(carol_, auction_, 0, {2});
  ASSERT_TRUE(closed.success) << closed.error;
  EXPECT_EQ(db_.balance(beneficiary_), 150u);
  // Alice's refund stays withdrawable after closing.
  EXPECT_EQ(db_.storage(auction_, alice_.low64()), 100u);

  // Further bids and a second close revert.
  EXPECT_FALSE(send(carol_, auction_, 500, {0}).success);
  EXPECT_FALSE(send(carol_, auction_, 0, {2}).success);

  // Alice can still pull her refund.
  ASSERT_TRUE(send(alice_, auction_, 0, {1}, {alice_}).success);
  EXPECT_EQ(db_.balance(auction_), 0u);
}

TEST_F(AuctionTest, FullLifecycleConservesValue) {
  const std::uint64_t supply = db_.total_supply();
  std::uint64_t burned = 0;
  auto track = [&](const Receipt& r) { burned += r.gas_used; };

  track(send(alice_, auction_, 100, {0}));
  track(send(bob_, auction_, 200, {0}));
  track(send(carol_, auction_, 300, {0}));
  track(send(alice_, auction_, 400, {0}));
  track(send(alice_, auction_, 0, {1}, {alice_}));  // refund of first bid
  track(send(bob_, auction_, 0, {1}, {bob_}));
  track(send(carol_, auction_, 0, {1}, {carol_}));
  track(send(bob_, auction_, 0, {2}));              // close

  EXPECT_EQ(db_.total_supply(), supply - burned);
  EXPECT_EQ(db_.balance(beneficiary_), 400u);
  EXPECT_EQ(db_.balance(auction_), 0u);
}

// ------------------------------------------------------------------- runtime

class RuntimeTest : public ::testing::Test {
 protected:
  StateDb db_;
  RuntimeConfig config_;
};

TEST_F(RuntimeTest, PlainTransfer) {
  db_.set_balance(addr(1), 1'000'000);
  AccountTx tx;
  tx.from = addr(1);
  tx.to = addr(2);
  tx.value = 100;
  tx.nonce = 0;
  tx.gas_limit = 30000;

  const Receipt r = apply_transaction(db_, tx, config_);
  ASSERT_TRUE(r.success) << r.error;
  EXPECT_EQ(r.gas_used, config_.gas.tx_base);
  EXPECT_EQ(db_.balance(addr(2)), 100u);
  // Sender paid value + gas_used (fee burned).
  EXPECT_EQ(db_.balance(addr(1)), 1'000'000 - 100 - config_.gas.tx_base);
  EXPECT_EQ(db_.nonce(addr(1)), 1u);
  // Receipt read/write sets mention both balances.
  EXPECT_FALSE(r.writes.empty());
}

TEST_F(RuntimeTest, NonceEnforced) {
  db_.set_balance(addr(1), 1'000'000);
  AccountTx tx;
  tx.from = addr(1);
  tx.to = addr(2);
  tx.nonce = 5;  // wrong; expected 0
  EXPECT_THROW(apply_transaction(db_, tx, config_), ValidationError);
  // State untouched.
  EXPECT_EQ(db_.balance(addr(1)), 1'000'000u);
  EXPECT_EQ(db_.nonce(addr(1)), 0u);
}

TEST_F(RuntimeTest, InsufficientFundsRejected) {
  db_.set_balance(addr(1), 10);
  AccountTx tx;
  tx.from = addr(1);
  tx.to = addr(2);
  tx.value = 5;
  tx.gas_limit = 30000;
  EXPECT_THROW(apply_transaction(db_, tx, config_), ValidationError);
}

TEST_F(RuntimeTest, GasLimitBelowIntrinsicRejected) {
  db_.set_balance(addr(1), 1'000'000);
  AccountTx tx;
  tx.from = addr(1);
  tx.to = addr(2);
  tx.gas_limit = 100;  // < tx_base
  EXPECT_THROW(apply_transaction(db_, tx, config_), ValidationError);
}

TEST_F(RuntimeTest, ContractCreation) {
  db_.set_balance(addr(1), 100'000'000);
  AccountTx tx;
  tx.from = addr(1);
  tx.value = 500;
  tx.nonce = 0;
  tx.gas_limit = 10'000'000;
  tx.init_code = contracts::payout_splitter();

  const Receipt r = apply_transaction(db_, tx, config_);
  ASSERT_TRUE(r.success) << r.error;
  ASSERT_TRUE(r.created.has_value());
  EXPECT_EQ(*r.created, Address::derive_contract(addr(1), 0));
  EXPECT_NE(db_.code(*r.created), nullptr);
  EXPECT_EQ(db_.balance(*r.created), 500u);
  // Creation gas exceeds base + create_base (code bytes charged too).
  EXPECT_GT(r.gas_used, config_.gas.tx_base + config_.gas.create_base);
  ASSERT_EQ(r.internal_txs.size(), 1u);
  EXPECT_EQ(r.internal_txs[0].kind, TraceKind::kCreate);
}

TEST_F(RuntimeTest, FailedExecutionKeepsFeeAndNonce) {
  const Address churn_addr = addr(70);
  genesis_deploy(db_, churn_addr, contracts::storage_churn());
  db_.set_balance(addr(1), 100'000'000);

  AccountTx tx;
  tx.from = addr(1);
  tx.to = churn_addr;
  tx.nonce = 0;
  tx.args = {1000000, 0};  // too many slots for the gas limit
  tx.gas_limit = 50000;

  const Receipt r = apply_transaction(db_, tx, config_);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.gas_used, 50000u);  // full budget burned
  EXPECT_EQ(db_.nonce(addr(1)), 1u);
  EXPECT_EQ(db_.balance(addr(1)), 100'000'000 - 50000u);
  EXPECT_EQ(db_.storage(churn_addr, 0), 0u);  // rolled back
}

TEST_F(RuntimeTest, RefundsUnusedGas) {
  db_.set_balance(addr(1), 1'000'000);
  AccountTx tx;
  tx.from = addr(1);
  tx.to = addr(2);
  tx.gas_limit = 500000;  // far more than needed
  tx.gas_price = 2;
  const Receipt r = apply_transaction(db_, tx, config_);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(db_.balance(addr(1)), 1'000'000 - 2 * config_.gas.tx_base);
}

TEST_F(RuntimeTest, NoFeeModeLeavesBalancesExact) {
  config_.charge_fees = false;
  db_.set_balance(addr(1), 1000);
  AccountTx tx;
  tx.from = addr(1);
  tx.to = addr(2);
  tx.value = 1000;
  const Receipt r = apply_transaction(db_, tx, config_);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(db_.balance(addr(1)), 0u);
  EXPECT_EQ(db_.balance(addr(2)), 1000u);
}

TEST_F(RuntimeTest, OverlayExecutionMatchesDirect) {
  // Applying through an overlay and merging equals applying directly.
  StateDb direct;
  direct.set_balance(addr(1), 1'000'000);
  StateDb base;
  base.set_balance(addr(1), 1'000'000);

  AccountTx tx;
  tx.from = addr(1);
  tx.to = addr(2);
  tx.value = 123;

  const Receipt r1 = apply_transaction(direct, tx, config_);

  OverlayState overlay(base);
  const Receipt r2 = apply_transaction(overlay, tx, config_);
  overlay.apply_to(base);

  ASSERT_TRUE(r1.success);
  ASSERT_TRUE(r2.success);
  EXPECT_EQ(r1.gas_used, r2.gas_used);
  EXPECT_EQ(direct.balance(addr(1)), base.balance(addr(1)));
  EXPECT_EQ(direct.balance(addr(2)), base.balance(addr(2)));
  EXPECT_EQ(direct.nonce(addr(1)), base.nonce(addr(1)));
}

TEST_F(RuntimeTest, NonceEnforcementCanBeDisabled) {
  config_.enforce_nonce = false;
  db_.set_balance(addr(1), 1'000'000);
  AccountTx tx;
  tx.from = addr(1);
  tx.to = addr(2);
  tx.value = 10;
  tx.nonce = 99;  // wrong, but ignored in this mode
  const Receipt r = apply_transaction(db_, tx, config_);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(db_.balance(addr(2)), 10u);
  // The nonce still advances from its true value.
  EXPECT_EQ(db_.nonce(addr(1)), 1u);
}

TEST_F(RuntimeTest, ZeroValueTransferTouchesNothing) {
  db_.set_balance(addr(1), 1'000'000);
  config_.charge_fees = false;
  AccountTx tx;
  tx.from = addr(1);
  tx.to = addr(2);
  tx.value = 0;
  const Receipt r = apply_transaction(db_, tx, config_);
  ASSERT_TRUE(r.success);
  // The receiver's balance key must not appear in the write set: a no-op
  // write would make parallel overlay merges clobber concurrent updates.
  for (const SlotAccess& w : r.writes) {
    EXPECT_NE(w.address, addr(2));
  }
}

// ------------------------------------------- hot-path runtime plumbing

// precheck_transaction is the engines' cheap speculative fast-reject; it
// must agree with apply_transaction's phase-1 verdict exactly: non-null
// reason <=> apply throws ValidationError. Drift between the two would
// make the speculative engines silently skip (or doubly execute) txs.
TEST(Precheck, StaysInLockstepWithApplyValidation) {
  StateDb db;
  db.set_balance(addr(1), 100'000);
  db.set_nonce(addr(1), 2);
  db.flush_journal();
  RuntimeConfig config;

  auto make_tx = [] {
    AccountTx tx;
    tx.from = addr(1);
    tx.to = addr(2);
    tx.value = 10;
    tx.gas_limit = 30000;
    tx.gas_price = 1;
    tx.nonce = 2;
    return tx;
  };

  std::vector<AccountTx> cases;
  cases.push_back(make_tx());  // valid
  cases.push_back(make_tx());
  cases.back().nonce = 1;  // stale nonce
  cases.push_back(make_tx());
  cases.back().nonce = 9;  // future nonce
  cases.push_back(make_tx());
  cases.back().value = 10'000'000;  // cannot cover value + max fee
  cases.push_back(make_tx());
  cases.back().gas_limit = 1;  // below intrinsic cost

  for (std::size_t i = 0; i < cases.size(); ++i) {
    const char* reason = precheck_transaction(db, cases[i], config);
    StateDb scratch = db;
    if (reason == nullptr) {
      EXPECT_NO_THROW(apply_transaction(scratch, cases[i], config)) << i;
    } else {
      EXPECT_THROW(apply_transaction(scratch, cases[i], config),
                   ValidationError)
          << i << ": precheck said '" << reason << "'";
    }
  }
}

TEST(JournalPauseTest, PausedWritesSurviveRevert) {
  StateDb db;
  db.set_balance(addr(1), 100);
  db.flush_journal();
  const Snapshot snap = db.snapshot();
  db.set_balance(addr(2), 50);  // journaled: revert will undo it
  {
    const JournalPause pause(db);
    EXPECT_FALSE(db.journaling());
    db.set_balance(addr(3), 75);  // committed value: skips the journal
  }
  EXPECT_TRUE(db.journaling());  // restored on scope exit
  db.revert(snap);
  EXPECT_EQ(db.balance(addr(2)), 0u);   // journaled write rolled back
  EXPECT_EQ(db.balance(addr(3)), 75u);  // paused write is permanent
}

TEST(JournalPauseTest, SnapshotAndRevertThrowWhilePaused) {
  // A snapshot taken while journaling is paused could not undo the writes
  // it covers (they skip the journal), so a rollback path sneaking under a
  // commit-phase JournalPause must fail loudly instead of silently
  // persisting partial writes.
  StateDb db;
  db.set_balance(addr(1), 100);
  const Snapshot snap = db.snapshot();
  const JournalPause pause(db);
  EXPECT_THROW(db.snapshot(), UsageError);
  EXPECT_THROW(db.revert(snap), UsageError);
  EXPECT_EQ(db.balance(addr(1)), 100u);  // the failed revert touched nothing
}

TEST(JournalHoldTest, HeldJournalSurvivesExecutorFlushAndPause) {
  // An executor flushes and pauses the journal inside execute_block; the
  // node's hold keeps both from dropping the block's undo records.
  StateDb db;
  db.set_balance(addr(1), 100);
  db.flush_journal();
  {
    const JournalHold hold(db);
    const Snapshot snap = db.snapshot();
    db.set_balance(addr(1), 40);
    db.flush_journal();  // held: keeps the journal
    {
      const JournalPause pause(db);
      EXPECT_TRUE(db.journaling());  // held: stays on
      db.set_storage(addr(2), 7, 9);
    }
    EXPECT_TRUE(db.journaling());
    db.revert(snap);
  }
  EXPECT_EQ(db.balance(addr(1)), 100u);
  EXPECT_EQ(db.storage(addr(2), 7), 0u);
  // Released: flushes and pauses work again.
  db.set_balance(addr(1), 5);
  db.flush_journal();
  EXPECT_EQ(db.snapshot(), 0u);
  const JournalPause pause(db);
  EXPECT_FALSE(db.journaling());
  EXPECT_THROW(JournalHold{db}, UsageError);  // a hold needs journaling on
}

TEST(DirtyAccounts, EveryWriteAndRevertListsItsAccountOnce) {
  StateDb db;
  db.set_balance(addr(1), 10);
  db.set_nonce(addr(1), 1);
  db.set_storage(addr(2), 3, 4);
  EXPECT_EQ(db.dirty_accounts(), (std::vector<Address>{addr(1), addr(2)}));
  db.clear_dirty();
  EXPECT_TRUE(db.dirty_accounts().empty());

  // Paused writes are listed too: engines commit under JournalPause.
  {
    const JournalPause pause(db);
    db.set_code(addr(3), ContractCode{});
  }
  const Snapshot snap = db.snapshot();
  db.set_balance(addr(1), 11);
  EXPECT_EQ(db.dirty_accounts(), (std::vector<Address>{addr(3), addr(1)}));
  db.clear_dirty();

  // A revert re-lists the accounts it restores.
  db.revert(snap);
  EXPECT_EQ(db.dirty_accounts(), (std::vector<Address>{addr(1)}));
  EXPECT_EQ(db.balance(addr(1)), 10u);
}

TEST(ReceiptReset, ClearsFieldsButKeepsCapacity) {
  Receipt receipt;
  receipt.success = true;
  receipt.gas_used = 123;
  receipt.error = "boom";
  receipt.reads.assign(8, SlotAccess{addr(1), 0});
  receipt.writes.assign(4, SlotAccess{addr(2), 1});
  const std::size_t reads_cap = receipt.reads.capacity();
  receipt.reset();
  EXPECT_FALSE(receipt.success);
  EXPECT_EQ(receipt.gas_used, 0u);
  EXPECT_TRUE(receipt.error.empty());
  EXPECT_TRUE(receipt.reads.empty());
  EXPECT_TRUE(receipt.writes.empty());
  // Capacity survives: reusing one receipt across a block's transactions
  // must not reallocate its access-set vectors every time.
  EXPECT_EQ(receipt.reads.capacity(), reads_cap);
}

TEST_F(RuntimeTest, SupplyConservedAcrossContractCalls) {
  // Fees are burned, so supply decreases exactly by gas_used * price.
  const Address cold = addr(11);
  const Address wallet = addr(12);
  genesis_deploy(db_, wallet, contracts::hot_wallet(cold));
  db_.set_balance(addr(1), 10'000'000);
  const std::uint64_t supply_before = db_.total_supply();

  AccountTx tx;
  tx.from = addr(1);
  tx.to = wallet;
  tx.value = 777;
  tx.gas_price = 3;
  const Receipt r = apply_transaction(db_, tx, config_);
  ASSERT_TRUE(r.success) << r.error;
  EXPECT_EQ(db_.total_supply(), supply_before - 3 * r.gas_used);
}

// ------------------------------------------------- StateDb vs a map model

/// The StateDb contract restated over std::map: values, the undo journal
/// with JournalHold/JournalPause semantics, the dirty-address set, and the
/// account digest computed from its definition.
class ReferenceState {
 public:
  struct Account {
    std::uint64_t balance = 0;
    std::uint64_t nonce = 0;
    std::optional<ContractCode> code;
    std::map<StorageKey, std::uint64_t> storage;
  };

  std::uint64_t balance(const Address& a) const { return get(a).balance; }
  std::uint64_t nonce(const Address& a) const { return get(a).nonce; }
  const std::optional<ContractCode>& code(const Address& a) const {
    return get(a).code;
  }
  std::uint64_t storage(const Address& a, StorageKey key) const {
    const auto& slots = get(a).storage;
    const auto it = slots.find(key);
    return it == slots.end() ? 0 : it->second;
  }

  void set_balance(const Address& a, std::uint64_t v) {
    Account& acc = write(a);
    log({a, Field::kBalance, 0, acc.balance, {}});
    acc.balance = v;
  }
  void set_nonce(const Address& a, std::uint64_t v) {
    Account& acc = write(a);
    log({a, Field::kNonce, 0, acc.nonce, {}});
    acc.nonce = v;
  }
  void set_code(const Address& a, const ContractCode& c) {
    Account& acc = write(a);
    log({a, Field::kCode, 0, 0, acc.code});
    acc.code = c;
  }
  void set_storage(const Address& a, StorageKey key, std::uint64_t v) {
    const std::uint64_t old = storage(a, key);
    write(a).storage[key] = v;
    log({a, Field::kStorage, key, old, {}});
  }

  std::size_t snapshot() const { return journal_.size(); }
  void revert(std::size_t snap) {
    while (journal_.size() > snap) {
      const Undo u = journal_.back();
      journal_.pop_back();
      Account& acc = write(u.addr);
      switch (u.field) {
        case Field::kBalance: acc.balance = u.old_value; break;
        case Field::kNonce: acc.nonce = u.old_value; break;
        case Field::kCode: acc.code = u.old_code; break;
        case Field::kStorage: acc.storage[u.key] = u.old_value; break;
      }
    }
  }
  void flush_journal() {
    if (holds_ == 0) journal_.clear();
  }
  void set_journaling(bool on) { journaling_ = on || holds_ > 0; }
  bool journaling() const { return journaling_; }
  void hold() { ++holds_; }
  void release() { --holds_; }

  const std::set<Address>& dirty() const { return dirty_; }
  void clear_dirty() { dirty_.clear(); }
  std::size_t num_accounts() const { return accounts_.size(); }

  std::uint64_t total_supply() const {
    std::uint64_t sum = 0;
    for (const auto& [a, acc] : accounts_) sum += acc.balance;
    return sum;
  }

  Hash256 account_digest(const Address& a) const {
    const Account& acc = get(a);
    std::array<std::uint8_t, 32> storage_acc{};
    bool any_storage = false;
    for (const auto& [key, value] : acc.storage) {
      if (value == 0) continue;
      any_storage = true;
      HashWriter sw;
      sw.u64(key);
      sw.u64(value);
      const Hash256 sh = sw.finish();
      for (std::size_t i = 0; i < 32; ++i) storage_acc[i] ^= sh.bytes[i];
    }
    if (acc.balance == 0 && acc.nonce == 0 && !acc.code && !any_storage) {
      return Hash256{};
    }
    HashWriter w;
    w.raw(a.bytes);
    w.u64(acc.balance);
    w.u64(acc.nonce);
    w.raw(storage_acc);
    if (acc.code) {
      w.bytes(acc.code->code);
      w.u32(static_cast<std::uint32_t>(acc.code->address_table.size()));
      for (const Address& t : acc.code->address_table) w.raw(t.bytes);
    }
    return w.finish();
  }

  Hash256 digest() const {
    Hash256 out;
    for (const auto& [a, acc] : accounts_) {
      const Hash256 h = account_digest(a);
      for (std::size_t i = 0; i < 32; ++i) out.bytes[i] ^= h.bytes[i];
    }
    return out;
  }

  const std::map<Address, Account>& accounts() const { return accounts_; }

 private:
  enum class Field { kBalance, kNonce, kCode, kStorage };
  struct Undo {
    Address addr;
    Field field;
    StorageKey key;
    std::uint64_t old_value;
    std::optional<ContractCode> old_code;
  };

  const Account& get(const Address& a) const {
    static const Account kEmpty;
    const auto it = accounts_.find(a);
    return it == accounts_.end() ? kEmpty : it->second;
  }
  Account& write(const Address& a) {
    dirty_.insert(a);
    return accounts_[a];
  }
  void log(Undo u) {
    if (journaling_) journal_.push_back(std::move(u));
  }

  std::map<Address, Account> accounts_;
  std::vector<Undo> journal_;
  std::set<Address> dirty_;
  bool journaling_ = true;
  unsigned holds_ = 0;
};

/// Addresses that agree in their first eight bytes (all of
/// std::hash<Address>) and differ only further on.
std::vector<Address> shared_prefix_addresses(std::size_t n) {
  std::vector<Address> out;
  for (std::size_t i = 0; i < n; ++i) {
    Address a = addr(0xC0FFEE);
    a.bytes[19] = static_cast<std::uint8_t>(i);
    a.bytes[12] = static_cast<std::uint8_t>(i >> 8);
    out.push_back(a);
  }
  return out;
}

/// Addresses whose AccountHash agrees in its low 16 bits: one probe
/// neighbourhood until the account table passes 2^16 slots.
std::vector<Address> colliding_addresses(std::size_t n) {
  std::vector<Address> out;
  Address a = addr(0xBEEF);
  const std::size_t target = AccountHash{}(a) & 0xFFFF;
  for (std::uint32_t i = 1; out.size() < n; ++i) {
    std::memcpy(a.bytes.data() + 16, &i, sizeof(i));
    if ((AccountHash{}(a) & 0xFFFF) == target) out.push_back(a);
  }
  return out;
}

void expect_same_dirty(const StateDb& db, const ReferenceState& ref) {
  const std::vector<Address>& listed = db.dirty_accounts();
  const std::set<Address> listed_set(listed.begin(), listed.end());
  EXPECT_EQ(listed_set.size(), listed.size()) << "an address listed twice";
  EXPECT_EQ(listed_set, ref.dirty());
}

void expect_same_state(const StateDb& db, const ReferenceState& ref) {
  EXPECT_EQ(db.num_accounts(), ref.num_accounts());
  EXPECT_EQ(db.total_supply(), ref.total_supply());
  EXPECT_EQ(db.digest(), ref.digest());
  std::size_t mismatched = 0;
  std::size_t slots = 0;
  for (const auto& [a, acc] : ref.accounts()) {
    if (db.account_digest(a) != ref.account_digest(a)) ++mismatched;
    for (const auto& [key, value] : acc.storage) slots += value != 0;
  }
  EXPECT_EQ(mismatched, 0u);
  EXPECT_EQ(db.num_storage_slots(), slots);
}

TEST(StateDbDifferential, MatchesMapModelAcrossGrowthAndJournaling) {
  // Over 10^5 fresh accounts the account table doubles from 16 slots to
  // 2^18. Crafted addresses share std::hash<Address> outright or the low
  // 16 bits of the table hash, and storage keys include multiples of 2^16.
  std::vector<Address> pool = shared_prefix_addresses(64);
  const std::vector<Address> colliding = colliding_addresses(48);
  pool.insert(pool.end(), colliding.begin(), colliding.end());
  for (std::uint64_t i = 0; i < 110'000; ++i) pool.push_back(addr(i + 1));
  const std::vector<Address> crafted(pool.begin(), pool.begin() + 112);
  Rng(3).shuffle(pool);

  StateDb db;
  ReferenceState ref;
  Rng rng(17);
  std::size_t fresh = 0;  // pool[0, fresh) have been written
  std::vector<Snapshot> snaps;
  std::optional<JournalHold> hold;
  std::optional<JournalPause> pause;

  const auto pick = [&]() -> const Address& {
    if (rng.bernoulli(0.1)) return crafted[rng.uniform(crafted.size())];
    if (fresh < pool.size() && (fresh == 0 || rng.bernoulli(0.6))) {
      return pool[fresh++];
    }
    return pool[rng.uniform(fresh)];
  };
  const auto key = [&]() -> StorageKey {
    return rng.bernoulli(0.5) ? rng.uniform(8) << 16 : rng.uniform(64);
  };

  constexpr int kSteps = 350'000;
  for (int step = 1; step <= kSteps; ++step) {
    const std::uint64_t op = rng.uniform(100);
    if (op < 30) {
      const Address& a = pick();
      const std::uint64_t v = rng.uniform(1'000'000);
      db.prefetch(a);
      db.set_balance(a, v);
      ref.set_balance(a, v);
    } else if (op < 40) {
      const Address& a = pick();
      const std::uint64_t v = rng.uniform(1000);
      db.set_nonce(a, v);
      ref.set_nonce(a, v);
    } else if (op < 60) {
      const Address& a = pick();
      const StorageKey k = key();
      const std::uint64_t v = rng.bernoulli(0.2) ? 0 : 1 + rng.uniform(1000);
      db.set_storage(a, k, v);
      ref.set_storage(a, k, v);
    } else if (op < 61) {
      const Address& a = pick();
      const ContractCode c{Bytes{static_cast<std::uint8_t>(rng.uniform(256)),
                                 0x01},
                           {addr(rng.uniform(50))}};
      db.set_code(a, c);
      ref.set_code(a, c);
    } else if (op < 80) {
      const Address a = rng.bernoulli(0.1) ? addr(7'000'000 + step) : pick();
      const StorageKey k = key();
      db.prefetch(a);  // a hint: present or absent, it changes nothing
      ASSERT_EQ(db.balance(a), ref.balance(a)) << "step " << step;
      ASSERT_EQ(db.nonce(a), ref.nonce(a)) << "step " << step;
      ASSERT_EQ(db.storage(a, k), ref.storage(a, k)) << "step " << step;
      const ContractCode* c = db.code(a);
      ASSERT_EQ(c != nullptr, ref.code(a).has_value()) << "step " << step;
      if (c != nullptr) {
        ASSERT_EQ(*c, *ref.code(a)) << "step " << step;
      }
    } else if (op < 85) {
      if (ref.journaling()) {
        snaps.push_back(db.snapshot());
        ASSERT_EQ(snaps.back(), ref.snapshot());
      } else {
        EXPECT_THROW(db.snapshot(), UsageError);
      }
    } else if (op < 89) {
      if (!snaps.empty() && ref.journaling()) {
        const std::size_t i = rng.uniform(snaps.size());
        db.revert(snaps[i]);
        ref.revert(snaps[i]);
        snaps.resize(i);
      } else if (!snaps.empty()) {
        EXPECT_THROW(db.revert(snaps.back()), UsageError);
      }
    } else if (op < 92) {
      db.flush_journal();
      ref.flush_journal();
      if (!hold) snaps.clear();
    } else if (op < 94) {
      expect_same_dirty(db, ref);
      db.clear_dirty();
      ref.clear_dirty();
    } else if (op < 97) {
      if (!hold && !pause) {  // a hold needs journaling on
        hold.emplace(db);
        ref.hold();
      } else if (hold && !pause) {
        hold.reset();
        ref.release();
      }
    } else {
      if (!pause) {
        pause.emplace(db);
        ref.set_journaling(false);
      } else {
        pause.reset();
        ref.set_journaling(true);
      }
      ASSERT_EQ(db.journaling(), ref.journaling()) << "step " << step;
    }
    if (step % 100'000 == 0) {
      SCOPED_TRACE("step " + std::to_string(step));
      expect_same_state(db, ref);
      expect_same_dirty(db, ref);
    }
  }
  EXPECT_GT(db.num_accounts(), 100'000u);
  expect_same_state(db, ref);
  expect_same_dirty(db, ref);
  for (const Address& a : crafted) {
    EXPECT_EQ(db.account_digest(a), ref.account_digest(a));
  }
}

// prefetch() is a hint: present, absent and colliding addresses, on the
// 16-slot table and right after its first doubling, leave the digest,
// the account count, the dirty list and every lookup as they were.
TEST(StateDbPrefetch, IsOnlyAHint) {
  StateDb db;
  const std::vector<Address> colliding = colliding_addresses(4);
  std::vector<Address> probe = colliding;  // [0, 2) written, [2, 4) absent
  for (std::uint64_t s = 1; s <= 16; ++s) probe.push_back(addr(s));
  for (std::uint64_t s = 900; s < 904; ++s) probe.push_back(addr(s));
  const auto expect_prefetch_changes_nothing = [&] {
    const Hash256 digest = db.digest();
    const std::size_t accounts = db.num_accounts();
    const std::vector<Address> dirty = db.dirty_accounts();
    std::vector<std::uint64_t> lookups;
    for (const Address& a : probe) {
      lookups.push_back(db.balance(a));
      lookups.push_back(db.nonce(a));
    }
    for (const Address& a : probe) db.prefetch(a);
    EXPECT_EQ(db.digest(), digest);
    EXPECT_EQ(db.num_accounts(), accounts);
    EXPECT_EQ(db.dirty_accounts(), dirty);
    for (std::size_t i = 0; i < probe.size(); ++i) {
      EXPECT_EQ(db.balance(probe[i]), lookups[2 * i]) << i;
      EXPECT_EQ(db.nonce(probe[i]), lookups[2 * i + 1]) << i;
    }
  };

  db.set_balance(colliding[0], 10);
  db.set_nonce(colliding[1], 3);
  for (std::uint64_t s = 1; s <= 4; ++s) db.set_balance(addr(s), s);
  ASSERT_EQ(db.num_accounts(), 6u);  // within the minimum 16 slots
  expect_prefetch_changes_nothing();

  // The 13th account passes the 3/4 load factor and doubles the table.
  for (std::uint64_t s = 5; s <= 11; ++s) db.set_balance(addr(s), s);
  ASSERT_EQ(db.num_accounts(), 13u);
  expect_prefetch_changes_nothing();
}

// ----------------------------------------- account-table growth mid-call

/// A relay whose callee splits the call value across `n` recipients that
/// do not exist yet: the account table grows while the VM runs both the
/// relay's and the splitter's code.
struct FanOut {
  explicit FanOut(std::size_t n) : splitter(contracts::payout_splitter()) {
    for (std::size_t i = 0; i < n; ++i) {
      splitter.address_table.push_back(addr(900'000 + i));
    }
    tx.from = sender;
    tx.to = relay_addr;
    tx.value = 1000 * n;
    tx.args = {0};
    tx.gas_limit = 40'000'000;
  }

  void setup(StateDb& db) const {
    genesis_deploy(db, splitter_addr, splitter);
    genesis_deploy(db, relay_addr, contracts::relay(splitter_addr));
    db.set_balance(sender, 1'000'000'000);
    db.flush_journal();
  }
  const std::vector<Address>& recipients() const {
    return splitter.address_table;
  }

  const Address sender = addr(1);
  const Address relay_addr = addr(2);
  const Address splitter_addr = addr(3);
  ContractCode splitter;
  AccountTx tx;
};

TEST(StateDbGrowth, ContractFanOutMatchesPreGrownState) {
  const FanOut fan(3000);
  StateDb grows;
  fan.setup(grows);
  StateDb pregrown;
  fan.setup(pregrown);
  // Zero-balance records digest like absent accounts, so this changes
  // the table's size but not the state.
  for (const Address& r : fan.recipients()) pregrown.set_balance(r, 0);
  pregrown.flush_journal();
  ASSERT_EQ(pregrown.digest(), grows.digest());
  const std::size_t accounts_before = grows.num_accounts();

  const Receipt grown = apply_transaction(grows, fan.tx);
  const Receipt flat = apply_transaction(pregrown, fan.tx);
  ASSERT_TRUE(grown.success) << grown.error;
  EXPECT_EQ(grows.num_accounts(), accounts_before + fan.recipients().size());
  EXPECT_EQ(grown.gas_used, flat.gas_used);
  EXPECT_EQ(grown.return_value, flat.return_value);
  EXPECT_EQ(grown.reads, flat.reads);
  EXPECT_EQ(grown.writes, flat.writes);
  ASSERT_EQ(grown.internal_txs.size(), flat.internal_txs.size());
  EXPECT_EQ(grown.internal_txs.size(), 1 + fan.recipients().size());
  for (std::size_t i = 0; i < grown.internal_txs.size(); ++i) {
    EXPECT_EQ(grown.internal_txs[i].to, flat.internal_txs[i].to) << i;
    EXPECT_EQ(grown.internal_txs[i].value, flat.internal_txs[i].value) << i;
  }
  EXPECT_EQ(grows.digest(), pregrown.digest());
  EXPECT_EQ(grows.balance(fan.recipients().back()), 1000u);
}

TEST(StateDbGrowth, RevertedFanOutRestoresPreTransactionDigest) {
  const FanOut fan(3000);
  StateDb db;
  fan.setup(db);
  const Hash256 before = db.digest();
  const std::uint64_t supply = db.total_supply();
  const Snapshot snap = db.snapshot();
  const Receipt r = apply_transaction(db, fan.tx);
  ASSERT_TRUE(r.success) << r.error;
  ASSERT_NE(db.digest(), before);
  db.revert(snap);
  EXPECT_EQ(db.digest(), before);
  EXPECT_EQ(db.total_supply(), supply);
  EXPECT_EQ(db.balance(fan.recipients().front()), 0u);
  // The contracts' code survived the moves and still runs.
  const Receipt again = apply_transaction(db, fan.tx);
  ASSERT_TRUE(again.success) << again.error;
  EXPECT_EQ(again.gas_used, r.gas_used);
}

}  // namespace
}  // namespace txconc::account
