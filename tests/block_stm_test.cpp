// Tests for the Block-STM executor (src/exec/block_stm): the
// multi-version store's resolution/estimate/incarnation rules (the code
// channel included), exact re-execution counts on a hand-built dependency
// chain and on a call dispatched before its contract's deployment
// (deterministic scheduler mode), the negative control proving validation is
// load-bearing, and the one-execution-per-transaction pin on an
// all-conflicting block (DESIGN.md §13.3 vs §14).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "account/contracts.h"
#include "account/runtime.h"
#include "account/state.h"
#include "account/types.h"
#include "common/error.h"
#include "exec/block_stm.h"
#include "exec/executor.h"

namespace txconc::exec {
namespace {

Address addr(std::uint64_t seed) { return Address::from_seed(seed); }

using obs::TouchChannel;
using obs::TouchKey;

TouchKey balance_key(std::uint64_t seed) {
  return TouchKey{addr(seed), 0, TouchChannel::kBalance};
}

TouchKey storage_key(std::uint64_t seed, account::StorageKey key) {
  return TouchKey{addr(seed), key, TouchChannel::kStorage};
}

TouchKey code_key(std::uint64_t seed) {
  return TouchKey{addr(seed), 0, TouchChannel::kCode};
}

// --------------------------------------------------------------- the store

TEST(MultiVersionStore, ResolvesHighestLowerIndexWrite) {
  for (const TouchKey& key : {storage_key(1, 7), code_key(1)}) {
    SCOPED_TRACE(obs::touch_channel_name(key.channel));
    MultiVersionStore store;
    store.publish(key, /*tx=*/2, /*incarnation=*/0, 200);
    store.publish(key, /*tx=*/8, /*incarnation=*/0, 800);
    store.publish(key, /*tx=*/5, /*incarnation=*/0, 500);

    // A reader resolves the version with the greatest tx strictly below it.
    const auto r6 = store.resolve(key, 6);
    EXPECT_TRUE(r6.found);
    EXPECT_FALSE(r6.estimate);
    EXPECT_EQ(r6.tx, 5u);
    EXPECT_EQ(r6.value, 500u);

    const auto r9 = store.resolve(key, 9);
    EXPECT_TRUE(r9.found);
    EXPECT_EQ(r9.tx, 8u);
    EXPECT_EQ(r9.value, 800u);

    // Own index and below the lowest writer fall through to the base state.
    EXPECT_FALSE(store.resolve(key, 2).found);
    EXPECT_FALSE(store.resolve(key, 0).found);
    // A different key is untouched.
    EXPECT_FALSE(store.resolve(storage_key(1, 8), 9).found);
  }
}

TEST(MultiVersionStore, IncarnationsAreMonotonicPerVersion) {
  MultiVersionStore store;
  const TouchKey key = balance_key(3);
  store.publish(key, 4, /*incarnation=*/1, 10);
  // Same incarnation may republish (idempotent replay); higher replaces.
  store.publish(key, 4, 1, 11);
  store.publish(key, 4, 2, 12);
  const auto r = store.resolve(key, 5);
  EXPECT_EQ(r.incarnation, 2u);
  EXPECT_EQ(r.value, 12u);
  // A decrease means a stale execution overwrote a newer one: refused.
  EXPECT_THROW(store.publish(key, 4, 1, 13), UsageError);
}

TEST(MultiVersionStore, EstimateBlocksReadersUntilRepublished) {
  for (const TouchKey& key : {balance_key(9), code_key(9)}) {
    SCOPED_TRACE(obs::touch_channel_name(key.channel));
    MultiVersionStore store;
    store.publish(key, 3, 0, 111);

    // Abort: the version flips to an ESTIMATE in place, naming its writer.
    store.mark_estimate(key, 3);
    const auto blocked = store.resolve(key, 7);
    EXPECT_TRUE(blocked.found);
    EXPECT_TRUE(blocked.estimate);
    EXPECT_EQ(blocked.tx, 3u);

    // Readers below the writer are unaffected.
    EXPECT_FALSE(store.resolve(key, 3).found);

    // Re-execution republishes at the next incarnation and unblocks.
    store.publish(key, 3, 1, 222);
    const auto resolved = store.resolve(key, 7);
    EXPECT_TRUE(resolved.found);
    EXPECT_FALSE(resolved.estimate);
    EXPECT_EQ(resolved.incarnation, 1u);
    EXPECT_EQ(resolved.value, 222u);
  }
}

TEST(MultiVersionStore, MarkEstimateRequiresAnExistingVersion) {
  MultiVersionStore store;
  EXPECT_THROW(store.mark_estimate(balance_key(1), 0), UsageError);
}

TEST(MultiVersionStore, RemoveDropsAVersionEntirely) {
  for (const TouchKey& key : {storage_key(2, 1), code_key(2)}) {
    SCOPED_TRACE(obs::touch_channel_name(key.channel));
    MultiVersionStore store;
    store.publish(key, 4, 0, 40);
    store.publish(key, 6, 0, 60);
    EXPECT_TRUE(store.remove(key, 4));
    EXPECT_FALSE(store.remove(key, 4));  // already gone
    EXPECT_FALSE(store.resolve(key, 5).found);
    EXPECT_EQ(store.resolve(key, 7).tx, 6u);
  }
}

TEST(MultiVersionStore, ChannelsOfOneAccountDoNotAlias) {
  MultiVersionStore store;
  const TouchKey nonce_key{addr(5), 0, TouchChannel::kNonce};
  store.publish(balance_key(5), 1, 0, 100);
  store.publish(nonce_key, 1, 0, 7);
  store.publish(storage_key(5, 0), 1, 0, 55);
  store.publish(code_key(5), 1, 0, 3);
  EXPECT_EQ(store.resolve(balance_key(5), 2).value, 100u);
  EXPECT_EQ(store.resolve(nonce_key, 2).value, 7u);
  EXPECT_EQ(store.resolve(storage_key(5, 0), 2).value, 55u);
  EXPECT_EQ(store.resolve(code_key(5), 2).value, 3u);
}

TEST(MultiVersionStore, ResetEmptiesEveryChannel) {
  MultiVersionStore store;
  store.publish(balance_key(1), 1, 0, 10);
  store.publish(storage_key(2, 3), 2, 1, 20);
  store.publish(code_key(4), 3, 0, 40);
  store.reset();
  EXPECT_FALSE(store.resolve(balance_key(1), 5).found);
  EXPECT_FALSE(store.resolve(storage_key(2, 3), 5).found);
  EXPECT_FALSE(store.resolve(code_key(4), 5).found);
  // The store is reusable after reset (fresh incarnation numbering).
  store.publish(balance_key(1), 1, 0, 30);
  EXPECT_EQ(store.resolve(balance_key(1), 2).value, 30u);
  store.publish(code_key(4), 3, 0, 50);
  EXPECT_EQ(store.resolve(code_key(4), 4).value, 50u);
}

// ---------------------------------------------------------------- the engine

/// A 3-transaction value chain: alice->bob 50, bob->carol 30,
/// carol->dave 20, everyone funded with 100. Sequential finals:
/// alice 50, bob 120, carol 110, dave 120.
struct ChainFixture {
  account::StateDb genesis;
  account::StateDb state;  ///< the copy the engine under test mutates
  std::vector<account::AccountTx> block;
  account::RuntimeConfig config;

  ChainFixture() {
    for (std::uint64_t s = 1; s <= 4; ++s) genesis.set_balance(addr(s), 100);
    genesis.flush_journal();
    state = genesis;
    const std::uint64_t values[3] = {50, 30, 20};
    for (std::uint64_t i = 0; i < 3; ++i) {
      account::AccountTx tx;
      tx.from = addr(i + 1);
      tx.to = addr(i + 2);
      tx.value = values[i];
      tx.nonce = 0;
      block.push_back(tx);
    }
    config.charge_fees = false;  // exact balance arithmetic in assertions
  }

  Hash256 sequential_digest() const {
    account::StateDb reference = genesis;
    account::RuntimeConfig seq_config = config;
    make_sequential_executor()->execute_block(reference, block, seq_config);
    return reference.digest();
  }
};

TEST(BlockStm, IndependentDispatchExecutesEachTransactionOnce) {
  ChainFixture fixture;
  BlockStmOptions options;
  options.deterministic = true;  // block-order dispatch, single worker
  auto executor = make_block_stm_executor(2, options);
  const ExecutionReport report =
      executor->execute_block(fixture.state, fixture.block, fixture.config);

  // In block order every read sees its dependency already published:
  // no aborts, one execution per transaction.
  EXPECT_EQ(report.executions, 3u);
  EXPECT_EQ(report.sequential_txs, 0u);
  ASSERT_EQ(report.tx_attempts.size(), 3u);
  ASSERT_EQ(report.tx_incarnations.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(report.tx_attempts[i], 1u) << "tx " << i;
    EXPECT_EQ(report.tx_incarnations[i], 1u) << "tx " << i;
  }
  EXPECT_EQ(fixture.state.digest(), fixture.sequential_digest());
}

TEST(BlockStm, ReverseDispatchReexecutesExactlyTheInvalidatedSuffix) {
  ChainFixture fixture;
  BlockStmOptions options;
  options.deterministic = true;
  options.first_dispatch = {2, 1, 0};  // run the chain back to front
  auto executor = make_block_stm_executor(2, options);
  const ExecutionReport report =
      executor->execute_block(fixture.state, fixture.block, fixture.config);

  // Deterministic trace: tx2 and tx1 first run against stale balances;
  // tx0's publication invalidates tx1 (one re-execution), whose carol
  // write invalidates tx2's stale base read (one re-execution). tx0
  // itself never reruns — targeted re-execution, not whole-block abort.
  ASSERT_EQ(report.tx_attempts.size(), 3u);
  EXPECT_EQ(report.tx_attempts[0], 1u);
  EXPECT_EQ(report.tx_attempts[1], 2u);
  EXPECT_EQ(report.tx_attempts[2], 2u);
  EXPECT_EQ(report.tx_incarnations[0], 1u);
  EXPECT_EQ(report.tx_incarnations[1], 2u);
  EXPECT_EQ(report.tx_incarnations[2], 2u);
  EXPECT_EQ(report.executions, 5u);
  EXPECT_EQ(report.sequential_txs, 2u);  // txs that needed >1 incarnation

  EXPECT_EQ(fixture.state.balance(addr(1)), 50u);
  EXPECT_EQ(fixture.state.balance(addr(2)), 120u);
  EXPECT_EQ(fixture.state.balance(addr(3)), 110u);
  EXPECT_EQ(fixture.state.balance(addr(4)), 120u);
  EXPECT_EQ(fixture.state.digest(), fixture.sequential_digest());
}

TEST(BlockStm, SkippingValidationDivergesOnDependentBlocks) {
  // Negative control: with validation disabled, the reverse dispatch
  // commits the stale speculative values — proving the validation step
  // (not luck or ordering) is what makes the engine sequential-equivalent.
  ChainFixture fixture;
  BlockStmOptions options;
  options.deterministic = true;
  options.first_dispatch = {2, 1, 0};
  options.validate = false;
  auto executor = make_block_stm_executor(2, options);
  const ExecutionReport report =
      executor->execute_block(fixture.state, fixture.block, fixture.config);

  EXPECT_EQ(report.executions, 3u);  // nothing ever re-runs
  // tx1 read bob=100 (missing tx0's +50), tx2 read carol=100 (missing
  // tx1's +30): the committed finals are the stale ones.
  EXPECT_EQ(fixture.state.balance(addr(2)), 70u);
  EXPECT_EQ(fixture.state.balance(addr(3)), 80u);
  EXPECT_NE(fixture.state.digest(), fixture.sequential_digest());
}

TEST(BlockStm, CallBeforeDeployReexecutesOnTheCodeChannel) {
  // tx 0 deploys a storage-churn contract; tx 1 calls it. Dispatched
  // first, tx 1 reads no code at the contract address (a plain zero-value
  // call); tx 0's deployment then invalidates that code read, and the
  // re-execution runs the contract: the committed state matches
  // sequential, with exactly one re-execution of tx 1.
  account::StateDb genesis;
  genesis.set_balance(addr(1), 1'000'000);
  genesis.set_balance(addr(2), 1'000'000);
  genesis.flush_journal();
  std::vector<account::AccountTx> block(2);
  block[0].from = addr(1);
  block[0].init_code = account::contracts::storage_churn();
  block[1].from = addr(2);
  block[1].to = Address::derive_contract(addr(1), 0);
  block[1].args = {2, 10};  // write slots 10 and 11
  account::RuntimeConfig config;
  config.charge_fees = false;

  account::StateDb reference = genesis;
  make_sequential_executor()->execute_block(reference, block, config);
  ASSERT_NE(reference.storage(*block[1].to, 10), 0u);

  BlockStmOptions options;
  options.deterministic = true;
  options.first_dispatch = {1, 0};
  account::StateDb state = genesis;
  const ExecutionReport report =
      make_block_stm_executor(2, options)->execute_block(state, block, config);
  ASSERT_EQ(report.tx_attempts.size(), 2u);
  EXPECT_EQ(report.tx_attempts[0], 1u);
  EXPECT_EQ(report.tx_attempts[1], 2u);
  EXPECT_EQ(state.digest(), reference.digest());
}

TEST(BlockStm, ConcurrentReverseDispatchStaysSequentialEquivalent) {
  // Same adversarial dispatch, real threads: attempt counts are now
  // race-dependent, but the committed state must not be.
  for (int round = 0; round < 8; ++round) {
    ChainFixture fixture;
    BlockStmOptions options;
    options.first_dispatch = {2, 1, 0};
    auto executor = make_block_stm_executor(4, options);
    const ExecutionReport report =
        executor->execute_block(fixture.state, fixture.block, fixture.config);
    EXPECT_GE(report.executions, 3u);
    EXPECT_EQ(fixture.state.digest(), fixture.sequential_digest())
        << "round " << round;
  }
}

TEST(BlockStm, HotSlotBlockCommitsLikeSequential) {
  // 64 distinct senders all paying one hot receiver: every pair conflicts
  // on the receiver balance. Multi-threaded, many rounds — the scheduler's
  // abort/suspend/resume machinery gets real concurrency to chew on.
  constexpr std::uint64_t kSenders = 64;
  account::StateDb genesis;
  std::vector<account::AccountTx> block;
  for (std::uint64_t s = 0; s < kSenders; ++s) {
    genesis.set_balance(addr(100 + s), 1'000'000);
    account::AccountTx tx;
    tx.from = addr(100 + s);
    tx.to = addr(7);
    tx.value = s + 1;
    tx.nonce = 0;
    block.push_back(tx);
  }
  genesis.flush_journal();
  account::RuntimeConfig config;
  config.charge_fees = false;

  account::StateDb reference = genesis;
  make_sequential_executor()->execute_block(reference, block, config);

  auto executor = make_block_stm_executor(4);
  for (int round = 0; round < 4; ++round) {
    account::StateDb state = genesis;
    const ExecutionReport report =
        executor->execute_block(state, block, config);
    EXPECT_EQ(state.digest(), reference.digest()) << "round " << round;
    EXPECT_GE(report.executions, kSenders);
    ASSERT_EQ(report.tx_attempts.size(), kSenders);
    std::uint64_t total_attempts = 0;
    for (const std::uint32_t a : report.tx_attempts) total_attempts += a;
    EXPECT_EQ(total_attempts, report.executions);
  }

  // Dispatched in block order, the same chain resolves with one execution
  // per transaction — the in-order wave serialization DESIGN.md §13.3
  // recorded (one commit per wave, n(n+1)/2 executions) must not return.
  BlockStmOptions options;
  options.deterministic = true;
  account::StateDb state = genesis;
  const ExecutionReport report =
      make_block_stm_executor(2, options)->execute_block(state, block, config);
  EXPECT_EQ(report.executions, kSenders);
  EXPECT_EQ(state.digest(), reference.digest());
}

TEST(BlockStm, EmptyBlockIsANoop) {
  account::StateDb state;
  state.flush_journal();
  const Hash256 before = state.digest();
  auto executor = make_block_stm_executor(2);
  account::RuntimeConfig config;
  const ExecutionReport report = executor->execute_block(state, {}, config);
  EXPECT_EQ(report.num_txs, 0u);
  EXPECT_EQ(report.executions, 0u);
  EXPECT_EQ(state.digest(), before);
}

TEST(BlockStm, DispatchOptionsAreValidated) {
  ChainFixture fixture;
  {
    BlockStmOptions options;
    options.first_dispatch = {0, 1};  // wrong size for a 3-tx block
    auto executor = make_block_stm_executor(2, options);
    EXPECT_THROW(
        executor->execute_block(fixture.state, fixture.block, fixture.config),
        UsageError);
  }
  {
    BlockStmOptions options;
    options.first_dispatch = {0, 1, 1};  // not a permutation
    auto executor = make_block_stm_executor(2, options);
    EXPECT_THROW(
        executor->execute_block(fixture.state, fixture.block, fixture.config),
        UsageError);
  }
}

TEST(BlockStm, RegistryEntryIsFlaggedMultiVersion) {
  bool found = false;
  for (const ExecutorSpec& spec : executor_registry()) {
    if (spec.name != "block-stm") {
      EXPECT_FALSE(spec.multi_version) << spec.name;
      continue;
    }
    found = true;
    EXPECT_TRUE(spec.parallel);
    EXPECT_TRUE(spec.multi_version);
    EXPECT_EQ(spec.make(2)->name(), "block-stm");
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace txconc::exec
