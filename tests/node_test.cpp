// Tests for the full-node integration layer and the fork-choice tree.
#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "account/contracts.h"
#include "account/state_trie.h"
#include "chain/fork.h"
#include "chain/network.h"
#include "chain/node.h"
#include "common/error.h"
#include "common/rng.h"
#include "exec/executor.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/scope.h"
#include "workload/account_workload.h"
#include "workload/profiles.h"

namespace txconc::chain {
namespace {

Address addr(std::uint64_t seed) { return Address::from_seed(seed); }

account::AccountTx make_tx(const Address& from, const Address& to,
                           std::uint64_t value, std::uint64_t nonce,
                           std::uint64_t gas_price = 1) {
  account::AccountTx tx;
  tx.from = from;
  tx.to = to;
  tx.value = value;
  tx.nonce = nonce;
  tx.gas_limit = 30000;
  tx.gas_price = gas_price;
  return tx;
}

/// The node's built-in executor ("") followed by every registry engine.
std::vector<std::string> engine_names() {
  std::vector<std::string> names = {""};
  for (const exec::ExecutorSpec& spec : exec::executor_registry()) {
    names.push_back(spec.name);
  }
  return names;
}

/// A node that executes received blocks with the named registry engine,
/// or with its built-in sequential path for "".
std::unique_ptr<AccountNode> make_node(
    const std::string& engine_name, const AccountNodeConfig& node_config = {}) {
  if (engine_name.empty()) return std::make_unique<AccountNode>(node_config);
  std::shared_ptr<exec::BlockExecutor> engine =
      exec::make_executor(engine_name, 2);
  return std::make_unique<AccountNode>(
      node_config,
      [engine](account::StateDb& state,
               std::span<const account::AccountTx> txs,
               const account::RuntimeConfig& config) {
        return engine->execute_block(state, txs, config).receipts;
      });
}

class AccountNodeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    node_.genesis_fund(addr(1), 10'000'000);
    node_.genesis_fund(addr(2), 10'000'000);
  }

  AccountNode node_;
};

TEST_F(AccountNodeTest, ProduceAppliesTransactions) {
  node_.submit_transaction(make_tx(addr(1), addr(3), 1000, 0));
  node_.submit_transaction(make_tx(addr(2), addr(3), 500, 0));
  EXPECT_EQ(node_.mempool_size(), 2u);

  const auto block = node_.produce_block(100);
  EXPECT_EQ(block.transactions.size(), 2u);
  EXPECT_EQ(block.header.height, 0u);
  EXPECT_GT(block.header.gas_used, 0u);
  EXPECT_EQ(node_.state().balance(addr(3)), 1500u);
  EXPECT_EQ(node_.mempool_size(), 0u);
  EXPECT_EQ(node_.ledger().height(), 1u);
}

TEST_F(AccountNodeTest, MempoolOrdersByGasPrice) {
  node_.submit_transaction(make_tx(addr(1), addr(3), 1, 0, /*gas_price=*/1));
  node_.submit_transaction(make_tx(addr(2), addr(4), 1, 0, /*gas_price=*/50));
  const auto block = node_.produce_block(1);
  ASSERT_EQ(block.transactions.size(), 2u);
  EXPECT_EQ(block.transactions[0].from, addr(2));  // higher gas price first
}

TEST_F(AccountNodeTest, RejectsInadmissibleTransactions) {
  // Past nonce.
  node_.submit_transaction(make_tx(addr(1), addr(3), 1, 0));
  node_.produce_block(1);
  EXPECT_THROW(node_.submit_transaction(make_tx(addr(1), addr(3), 1, 0)),
               ValidationError);
  // Unaffordable.
  EXPECT_THROW(node_.submit_transaction(
                   make_tx(addr(9), addr(3), 1'000'000, 0)),
               ValidationError);
  // Gas limit above block gas limit.
  account::AccountTx huge = make_tx(addr(1), addr(3), 1, 1);
  huge.gas_limit = node_.config().block_gas_limit + 1;
  EXPECT_THROW(node_.submit_transaction(std::move(huge)), ValidationError);
  // Gas limit below intrinsic.
  account::AccountTx tiny = make_tx(addr(1), addr(3), 1, 1);
  tiny.gas_limit = 100;
  EXPECT_THROW(node_.submit_transaction(std::move(tiny)), ValidationError);
}

TEST_F(AccountNodeTest, FutureNonceWaitsForPredecessor) {
  // Nonce 1 before nonce 0: the first production round cannot run it.
  node_.submit_transaction(make_tx(addr(1), addr(3), 10, 1));
  const auto b0 = node_.produce_block(1);
  EXPECT_TRUE(b0.transactions.empty());
  EXPECT_EQ(node_.mempool_size(), 1u);  // requeued

  node_.submit_transaction(make_tx(addr(1), addr(3), 10, 0));
  const auto b1 = node_.produce_block(2);
  EXPECT_EQ(b1.transactions.size(), 2u);
  EXPECT_EQ(node_.state().balance(addr(3)), 20u);
}

TEST_F(AccountNodeTest, BlockGasLimitRespected) {
  AccountNodeConfig config;
  // Admission is limit-based (Ethereum-style): each transfer reserves its
  // 30000 gas limit even though it uses only 21000. 71999 admits exactly
  // two (71999 - 2*21000 = 29999 < 30000).
  config.block_gas_limit = 71999;
  AccountNode node(config);
  node.genesis_fund(addr(1), 10'000'000);
  node.genesis_fund(addr(2), 10'000'000);
  node.genesis_fund(addr(3), 10'000'000);
  node.submit_transaction(make_tx(addr(1), addr(9), 1, 0));
  node.submit_transaction(make_tx(addr(2), addr(9), 1, 0));
  node.submit_transaction(make_tx(addr(3), addr(9), 1, 0));

  const auto block = node.produce_block(1);
  EXPECT_EQ(block.transactions.size(), 2u);
  EXPECT_LE(block.header.gas_used, config.block_gas_limit);
  EXPECT_EQ(node.mempool_size(), 1u);  // third tx deferred

  const auto next = node.produce_block(2);
  EXPECT_EQ(next.transactions.size(), 1u);
}

TEST_F(AccountNodeTest, ReceiveBlockValidatesAndApplies) {
  // Producer node creates a block; a fresh validator replays it.
  node_.submit_transaction(make_tx(addr(1), addr(3), 1000, 0));
  const auto block = node_.produce_block(1);

  AccountNode validator;
  validator.genesis_fund(addr(1), 10'000'000);
  validator.genesis_fund(addr(2), 10'000'000);
  validator.receive_block(block);
  EXPECT_EQ(validator.state().digest(), node_.state().digest());
  EXPECT_EQ(validator.ledger().height(), 1u);
}

TEST_F(AccountNodeTest, ReceiveBlockRejectsTampering) {
  node_.submit_transaction(make_tx(addr(1), addr(3), 1000, 0));
  const auto block = node_.produce_block(1);

  // Every engine flushes the journal inside execute_block and the
  // parallel ones commit under JournalPause; a rejected block must still
  // roll back on each of them.
  for (const std::string& engine : engine_names()) {
    SCOPED_TRACE("engine '" + engine + "'");
    const auto validator = make_node(engine);
    validator->genesis_fund(addr(1), 10'000'000);
    validator->genesis_fund(addr(2), 10'000'000);
    const Hash256 genesis = validator->state().digest();

    // Tampered transaction (merkle mismatch).
    auto tampered = block;
    tampered.transactions[0].value = 999999;
    EXPECT_THROW(validator->receive_block(tampered), ValidationError);

    // Tampered gas commitment. Header change breaks nothing structurally
    // until re-execution compares.
    auto bad_gas = block;
    bad_gas.header.gas_used += 1;
    EXPECT_THROW(validator->receive_block(bad_gas), ValidationError);

    // Tampered state-root commitment.
    auto bad_root = block;
    bad_root.header.state_root = Hash256::from_seed(666);
    EXPECT_THROW(validator->receive_block(bad_root), ValidationError);

    // State must be untouched after rejections.
    EXPECT_EQ(validator->state().balance(addr(3)), 0u);
    EXPECT_EQ(validator->state().nonce(addr(1)), 0u);
    EXPECT_EQ(validator->state().digest(), genesis);
    EXPECT_EQ(validator->ledger().height(), 0u);

    // The untampered block still applies.
    validator->receive_block(block);
    EXPECT_EQ(validator->ledger().height(), 1u);
    EXPECT_EQ(validator->state().digest(), node_.state().digest());
  }
}

TEST_F(AccountNodeTest, ReceiveBlockRejectsBadLinkage) {
  node_.submit_transaction(make_tx(addr(1), addr(3), 1, 0));
  const auto b0 = node_.produce_block(1);
  node_.submit_transaction(make_tx(addr(1), addr(3), 1, 1));
  const auto b1 = node_.produce_block(2);

  AccountNode validator;
  validator.genesis_fund(addr(1), 10'000'000);
  validator.genesis_fund(addr(2), 10'000'000);
  // b1 without b0 does not extend the (empty) tip.
  EXPECT_THROW(validator.receive_block(b1), ValidationError);
  validator.receive_block(b0);
  validator.receive_block(b1);
  EXPECT_EQ(validator.ledger().height(), 2u);
}

TEST_F(AccountNodeTest, BackwardTimestampRejectedBeforeExecution) {
  node_.submit_transaction(make_tx(addr(1), addr(3), 1, 0));
  const auto b0 = node_.produce_block(10);
  node_.submit_transaction(make_tx(addr(1), addr(3), 1, 1));
  const auto b1 = node_.produce_block(20);

  for (const std::string& engine : engine_names()) {
    SCOPED_TRACE("engine '" + engine + "'");
    const auto validator = make_node(engine);
    validator->genesis_fund(addr(1), 10'000'000);
    validator->genesis_fund(addr(2), 10'000'000);
    validator->receive_block(b0);
    const Hash256 after_b0 = validator->state().digest();

    // Re-stamped earlier than its parent: refused before it executes.
    auto restamped = b1;
    restamped.header.timestamp = 5;
    EXPECT_THROW(validator->receive_block(restamped), ValidationError);
    EXPECT_EQ(validator->state().digest(), after_b0);
    EXPECT_EQ(validator->state().nonce(addr(1)), 1u);
    EXPECT_EQ(validator->ledger().height(), 1u);

    validator->receive_block(b1);
    EXPECT_EQ(validator->ledger().height(), 2u);
    EXPECT_EQ(validator->state().digest(), node_.state().digest());
  }
}

// A block whose body repeats its last transaction has the honest merkle
// root (CVE-2012-2459). The validator refuses it before any engine runs,
// then accepts the honest block.
TEST_F(AccountNodeTest, DuplicatedTailRejectedBeforeExecution) {
  node_.submit_transaction(make_tx(addr(1), addr(3), 1, 0));
  node_.submit_transaction(make_tx(addr(2), addr(3), 2, 0));
  node_.submit_transaction(make_tx(addr(1), addr(3), 3, 1));
  const auto honest = node_.produce_block(10);
  ASSERT_EQ(honest.transactions.size(), 3u);
  auto padded = honest;
  padded.transactions.push_back(padded.transactions.back());
  ASSERT_EQ(transactions_root(
                std::span<const account::AccountTx>(padded.transactions)),
            honest.header.merkle_root);

  for (const exec::ExecutorSpec& spec : exec::executor_registry()) {
    SCOPED_TRACE("engine '" + spec.name + "'");
    const std::shared_ptr<exec::BlockExecutor> engine =
        exec::make_executor(spec.name, 2);
    std::size_t executed = 0;
    AccountNode validator(
        {}, [engine, &executed](account::StateDb& state,
                                std::span<const account::AccountTx> txs,
                                const account::RuntimeConfig& config) {
          ++executed;
          return engine->execute_block(state, txs, config).receipts;
        });
    validator.genesis_fund(addr(1), 10'000'000);
    validator.genesis_fund(addr(2), 10'000'000);
    const Hash256 genesis = validator.state().digest();

    EXPECT_THROW(validator.receive_block(padded), ValidationError);
    EXPECT_EQ(executed, 0u);
    EXPECT_EQ(validator.state().digest(), genesis);
    EXPECT_EQ(validator.ledger().height(), 0u);

    validator.receive_block(honest);
    EXPECT_EQ(executed, 1u);
    EXPECT_EQ(validator.state().digest(), node_.state().digest());
  }
}

TEST_F(AccountNodeTest, BackwardTimestampRejectedBeforePacking) {
  node_.submit_transaction(make_tx(addr(1), addr(3), 1, 0));
  node_.produce_block(10);
  node_.submit_transaction(make_tx(addr(1), addr(3), 1, 1));
  const Hash256 before = node_.state().digest();

  EXPECT_THROW(node_.produce_block(5), ValidationError);
  EXPECT_EQ(node_.state().digest(), before);
  EXPECT_EQ(node_.mempool_size(), 1u);
  EXPECT_EQ(node_.ledger().height(), 1u);

  const auto block = node_.produce_block(10);
  EXPECT_EQ(block.transactions.size(), 1u);
  EXPECT_EQ(node_.ledger().height(), 2u);
}

TEST_F(AccountNodeTest, MinedBlocksCarryValidPow) {
  AccountNodeConfig config;
  config.mine = true;
  config.difficulty = 8;
  AccountNode miner(config);
  miner.genesis_fund(addr(1), 10'000'000);
  miner.submit_transaction(make_tx(addr(1), addr(3), 5, 0));
  const auto block = miner.produce_block(1);
  EXPECT_TRUE(meets_target(block.header.hash(), block.header.difficulty));

  AccountNode validator(config);
  validator.genesis_fund(addr(1), 10'000'000);
  validator.receive_block(block);

  // A forged nonce is rejected.
  auto forged = block;
  forged.header.nonce += 1;
  while (meets_target(forged.header.hash(), forged.header.difficulty)) {
    forged.header.nonce += 1;  // find a failing nonce (difficulty 8: fast)
  }
  AccountNode validator2(config);
  validator2.genesis_fund(addr(1), 10'000'000);
  EXPECT_THROW(validator2.receive_block(forged), ValidationError);

  // Zeroing the nonce must not bypass the proof-of-work check.
  auto zeroed = block;
  zeroed.header.nonce = 0;
  if (!meets_target(zeroed.header.hash(), zeroed.header.difficulty)) {
    AccountNode validator3(config);
    validator3.genesis_fund(addr(1), 10'000'000);
    EXPECT_THROW(validator3.receive_block(zeroed), ValidationError);
  }
}

TEST_F(AccountNodeTest, PluggableParallelExecutorValidates) {
  // A validator that re-executes blocks with the group executor reaches
  // the same state and accepts the producer's gas commitments.
  auto engine = exec::make_group_executor(2);
  AccountNode validator(
      AccountNodeConfig{},
      [&engine](account::StateDb& state,
                std::span<const account::AccountTx> txs,
                const account::RuntimeConfig& config) {
        return engine->execute_block(state, txs, config).receipts;
      });
  validator.genesis_fund(addr(1), 10'000'000);
  validator.genesis_fund(addr(2), 10'000'000);

  for (int round = 0; round < 3; ++round) {
    node_.submit_transaction(
        make_tx(addr(1), addr(3), 10, static_cast<std::uint64_t>(round)));
    node_.submit_transaction(
        make_tx(addr(2), addr(4), 10, static_cast<std::uint64_t>(round)));
    const auto block = node_.produce_block(static_cast<std::uint64_t>(round));
    validator.receive_block(block);
  }
  EXPECT_EQ(validator.state().digest(), node_.state().digest());
}

TEST(IncrementalStateRoot, MatchesRebuildOnEveryEngineAcrossRejections) {
  // A producer and a validator over a random stream of transfers (many to
  // fresh accounts) and crowdsale calls (storage writes). Every header
  // root must equal a full rebuild, and each honest block follows a
  // doctored copy the validator must reject without a trace: the trie
  // re-syncs from the accounts the rollback restored.
  constexpr std::uint64_t kUsers = 24;
  const Address sale = addr(900);
  const Address beneficiary = addr(901);
  for (const std::string& engine : engine_names()) {
    SCOPED_TRACE("engine '" + engine + "'");
    AccountNode producer;
    const auto validator = make_node(engine);
    for (AccountNode* node : {&producer, validator.get()}) {
      for (std::uint64_t u = 1; u <= kUsers; ++u) {
        node->genesis_fund(addr(u), 10'000'000);
      }
      node->genesis_deploy(sale, account::contracts::crowdsale(beneficiary));
    }
    Rng rng(11);
    std::vector<std::uint64_t> nonces(kUsers + 1, 0);
    for (std::uint64_t height = 0; height < 12; ++height) {
      for (int i = 0; i < 10; ++i) {
        const std::uint64_t from = 1 + rng.uniform(kUsers);
        const Address to =
            rng.bernoulli(0.3) ? sale : addr(1 + rng.uniform(3 * kUsers));
        account::AccountTx tx =
            make_tx(addr(from), to, 1 + rng.uniform(1000), nonces[from]++);
        tx.gas_limit = 200'000;
        producer.submit_transaction(std::move(tx));
      }
      const auto block = producer.produce_block(height);
      ASSERT_EQ(block.transactions.size(), 10u);
      EXPECT_EQ(block.header.state_root,
                account::build_state_trie(producer.state()).root());

      const Hash256 before = validator->state().digest();
      auto doctored = block;
      if (height % 2 == 0) {
        doctored.header.state_root.bytes[0] ^= 1;
      } else {
        doctored.header.gas_used += 1;
      }
      EXPECT_THROW(validator->receive_block(doctored), ValidationError);
      EXPECT_EQ(validator->state().digest(), before);

      validator->receive_block(block);
      EXPECT_EQ(validator->state().digest(), producer.state().digest());
      EXPECT_EQ(account::build_state_trie(validator->state()).root(),
                block.header.state_root);
    }
    EXPECT_EQ(validator->ledger().height(), 12u);
  }
}

/// Counts the attempts an AccessRecorder sees, and those whose receipt
/// came back without read or write sets.
class CountingRecorder final : public account::AccessRecorder {
 public:
  void on_begin(const account::AccountTx&) const override {}
  void on_complete(const account::AccountTx&,
                   const account::Receipt& receipt) const override {
    completed.fetch_add(1);
    if (receipt.reads.empty() || receipt.writes.empty()) {
      without_sets.fetch_add(1);
    }
  }

  mutable std::atomic<std::uint64_t> completed{0};
  mutable std::atomic<std::uint64_t> without_sets{0};
};

TEST(ValidatorTracking, RecorderStillSeesAccessSetsOnEveryEngine) {
  // Validators execute without access tracking; an installed recorder
  // forces it back on, so the audit layer still sees real sets, and no
  // engine's result depends on the flag.
  constexpr std::uint64_t kUsers = 12;
  const Address sale = addr(900);
  const auto genesis = [&](AccountNode& node) {
    for (std::uint64_t u = 1; u <= kUsers; ++u) {
      node.genesis_fund(addr(u), 10'000'000);
    }
    node.genesis_deploy(sale, account::contracts::crowdsale(addr(901)));
  };
  AccountNode producer;
  genesis(producer);
  Rng rng(5);
  std::vector<std::uint64_t> nonces(kUsers + 1, 0);
  std::vector<Block<account::AccountTx>> blocks;
  for (std::uint64_t height = 0; height < 4; ++height) {
    for (int i = 0; i < 12; ++i) {
      const std::uint64_t from = 1 + rng.uniform(kUsers);
      const Address to = rng.bernoulli(0.4) ? sale : addr(1 + rng.uniform(40));
      account::AccountTx tx =
          make_tx(addr(from), to, 1 + rng.uniform(100), nonces[from]++);
      tx.gas_limit = 200'000;
      producer.submit_transaction(std::move(tx));
    }
    blocks.push_back(producer.produce_block(height));
  }
  for (const std::string& engine : engine_names()) {
    SCOPED_TRACE("engine '" + engine + "'");
    CountingRecorder recorder;
    AccountNodeConfig config;
    config.runtime.recorder = &recorder;
    const auto validator = make_node(engine, config);
    genesis(*validator);
    for (const auto& block : blocks) validator->receive_block(block);
    EXPECT_GE(recorder.completed.load(), 48u);
    EXPECT_EQ(recorder.without_sets.load(), 0u);
    EXPECT_EQ(validator->state().digest(), producer.state().digest());
  }
}

TEST(IncrementalStateRoot, MatchesRebuildOverHundredThousandAccounts) {
  // A 10^5-account genesis and blocks of transfers, a fifth of them to
  // fresh accounts. The validator's executor captures the dirty list its
  // root will drain: exactly the accounts the block wrote (plus, at the
  // first block, the genesis set no root has hashed yet).
  constexpr std::uint64_t kAccounts = 100'000;
  constexpr std::size_t kBlockTxs = 200;
  std::shared_ptr<exec::BlockExecutor> engine =
      exec::make_executor("sequential", 1);
  std::vector<Address> dirty;
  AccountNode producer;
  AccountNode validator(
      AccountNodeConfig{}, [&](account::StateDb& state,
                               std::span<const account::AccountTx> txs,
                               const account::RuntimeConfig& config) {
        auto receipts = engine->execute_block(state, txs, config).receipts;
        dirty = state.dirty_accounts();
        return receipts;
      });
  std::set<Address> expected;
  for (std::uint64_t a = 1; a <= kAccounts; ++a) {
    producer.genesis_fund(addr(a), 10'000'000);
    validator.genesis_fund(addr(a), 10'000'000);
    expected.insert(addr(a));
  }
  Rng rng(23);
  std::vector<std::uint64_t> nonces(kAccounts + 1, 0);
  for (std::uint64_t height = 0; height < 3; ++height) {
    SCOPED_TRACE("block " + std::to_string(height));
    for (std::size_t i = 0; i < kBlockTxs; ++i) {
      const std::uint64_t from = 1 + rng.uniform(kAccounts);
      const Address to = rng.bernoulli(0.2)
                             ? addr(10 * kAccounts + rng.uniform(kAccounts))
                             : addr(1 + rng.uniform(kAccounts));
      producer.submit_transaction(
          make_tx(addr(from), to, 1 + rng.uniform(1000), nonces[from]++));
      expected.insert(addr(from));
      expected.insert(to);
    }
    const auto block = producer.produce_block(height);
    ASSERT_EQ(block.transactions.size(), kBlockTxs);
    validator.receive_block(block);
    EXPECT_EQ(std::set<Address>(dirty.begin(), dirty.end()), expected);
    EXPECT_EQ(dirty.size(), expected.size());  // each listed once
    EXPECT_EQ(block.header.state_root,
              account::build_state_trie(validator.state()).root());
    EXPECT_EQ(validator.state().digest(), producer.state().digest());
    expected.clear();
  }
  EXPECT_GT(validator.state().num_accounts(), kAccounts);
}

TEST(StateGauges, SetAfterEveryProducedAndReceivedBlock) {
  // Tracing off, metrics on: the gauges still read the node's state size.
  obs::Registry producer_metrics;
  obs::Registry validator_metrics;
  const obs::Scope producer_scope{nullptr, &producer_metrics};
  const obs::Scope validator_scope{nullptr, &validator_metrics};
  AccountNodeConfig producer_config;
  producer_config.runtime.obs = &producer_scope;
  AccountNodeConfig validator_config;
  validator_config.runtime.obs = &validator_scope;
  AccountNode producer(producer_config);
  AccountNode validator(validator_config);
  const Address sale = addr(900);
  for (AccountNode* node : {&producer, &validator}) {
    for (std::uint64_t u = 1; u <= 6; ++u) {
      node->genesis_fund(addr(u), 10'000'000);
    }
    node->genesis_deploy(sale, account::contracts::crowdsale(addr(901)));
  }
  const auto expect_gauges = [](const obs::Registry& registry,
                                const AccountNode& node,
                                std::size_t contributors) {
    const auto gauges = registry.gauge_values();
    EXPECT_EQ(gauges.at(obs::names::kMetricNodeStateAccounts),
              static_cast<double>(node.state().num_accounts()));
    EXPECT_EQ(gauges.at(obs::names::kMetricNodeStateStorageSlots),
              static_cast<double>(node.state().num_storage_slots()));
    // One crowdsale slot per contributor.
    EXPECT_EQ(node.state().num_storage_slots(), contributors);
  };
  for (std::uint64_t height = 0; height < 3; ++height) {
    // Users 1..height+1 contribute (one new contributor per block), and
    // user 6 pays a fresh account.
    for (std::uint64_t u = 1; u <= height + 1; ++u) {
      account::AccountTx tx = make_tx(addr(u), sale, 10, height + 1 - u);
      tx.gas_limit = 200'000;
      producer.submit_transaction(std::move(tx));
    }
    producer.submit_transaction(make_tx(addr(6), addr(100 + height), 1, height));
    const auto block = producer.produce_block(height);
    expect_gauges(producer_metrics, producer, height + 1);
    validator.receive_block(block);
    expect_gauges(validator_metrics, validator, height + 1);
  }
  EXPECT_EQ(validator_metrics.gauge_values().at(
                obs::names::kMetricNodeStateAccounts),
            6.0 + 3 + 2);  // users, fresh payees, sale, beneficiary
}

/// Hashes a re-hash of exactly these addresses' leaves costs: one per
/// distinct key prefix of length 0..47 on their paths, the trie keying on
/// the first 48 bits of SHA-256(address).
std::size_t path_union_hashes(const std::vector<Address>& addrs) {
  const unsigned depth = account::StateTrie::kDepth;
  std::set<std::pair<unsigned, std::uint64_t>> prefixes;
  for (const Address& a : addrs) {
    const Hash256 h = Hash256::digest_of(a.bytes);
    std::uint64_t key = 0;
    for (unsigned i = 0; i < depth / 8; ++i) key = (key << 8) | h.bytes[i];
    for (unsigned d = 0; d < depth; ++d) {
      prefixes.insert({d, key >> (depth - d)});
    }
  }
  return prefixes.size();
}

TEST(StateRootMetrics, LeavesAndHashesObservedPerRoot) {
  // Tracing off, metrics on: both nodes observe every root's work.
  obs::Registry producer_metrics;
  obs::Registry validator_metrics;
  const obs::Scope producer_scope{nullptr, &producer_metrics};
  const obs::Scope validator_scope{nullptr, &validator_metrics};
  AccountNodeConfig producer_config;
  producer_config.runtime.obs = &producer_scope;
  AccountNodeConfig validator_config;
  validator_config.runtime.obs = &validator_scope;
  AccountNode producer(producer_config);
  AccountNode validator(validator_config);
  std::vector<Address> genesis;
  for (std::uint64_t u = 1; u <= 40; ++u) genesis.push_back(addr(u));
  for (AccountNode* node : {&producer, &validator}) {
    for (const Address& a : genesis) node->genesis_fund(a, 10'000'000);
  }
  // Per root: {leaves, hashes}, read back as differences of the sums.
  std::vector<std::pair<double, double>> seen;
  const auto expect_root = [&](obs::Registry& registry, std::size_t roots,
                               std::size_t leaves, std::size_t hashes) {
    obs::Histogram& leaf_hist =
        registry.histogram(obs::names::kMetricNodeStateRootLeaves);
    obs::Histogram& hash_hist =
        registry.histogram(obs::names::kMetricNodeStateRootHashes);
    EXPECT_EQ(leaf_hist.count(), roots);
    EXPECT_EQ(hash_hist.count(), roots);
    const double prior_leaves = roots > 1 ? seen[roots - 2].first : 0;
    const double prior_hashes = roots > 1 ? seen[roots - 2].second : 0;
    EXPECT_EQ(leaf_hist.sum() - prior_leaves, static_cast<double>(leaves));
    EXPECT_EQ(hash_hist.sum() - prior_hashes, static_cast<double>(hashes));
  };

  // The first root syncs every genesis account into an empty trie: each
  // node on the union of their paths hashes once.
  producer.submit_transaction(make_tx(addr(1), addr(2), 1, 0));
  const auto first = producer.produce_block(1);
  const std::size_t first_hashes = path_union_hashes(genesis);
  expect_root(producer_metrics, 1, genesis.size(), first_hashes);
  validator.receive_block(first);
  expect_root(validator_metrics, 1, genesis.size(), first_hashes);
  seen.emplace_back(genesis.size(), first_hashes);

  // A block that only rewrites existing accounts re-hashes the union of
  // its dirty leaves' paths.
  producer.submit_transaction(make_tx(addr(3), addr(4), 1, 0));
  producer.submit_transaction(make_tx(addr(5), addr(6), 1, 0));
  producer.submit_transaction(make_tx(addr(7), addr(3), 1, 0));
  const auto second = producer.produce_block(2);
  const std::vector<Address> dirty = {addr(3), addr(4), addr(5), addr(6),
                                      addr(7)};
  expect_root(producer_metrics, 2, dirty.size(), path_union_hashes(dirty));
  validator.receive_block(second);
  expect_root(validator_metrics, 2, dirty.size(), path_union_hashes(dirty));
}

TEST_F(AccountNodeTest, GenesisAfterStartRejected) {
  node_.submit_transaction(make_tx(addr(1), addr(3), 1, 0));
  node_.produce_block(1);
  EXPECT_THROW(node_.genesis_fund(addr(5), 1), UsageError);
  EXPECT_THROW(node_.genesis_deploy(addr(5), {}), UsageError);
}

// ------------------------------------------------------------------ packing

TEST_F(AccountNodeTest, PackingRunsHigherFeeFutureNonceAfterPredecessor) {
  // Fee order puts nonce 1 first; it waits one pass for nonce 0.
  node_.submit_transaction(make_tx(addr(1), addr(3), 7, 1, /*gas_price=*/50));
  node_.submit_transaction(make_tx(addr(1), addr(3), 5, 0, /*gas_price=*/1));
  const auto block = node_.produce_block(1);
  ASSERT_EQ(block.transactions.size(), 2u);
  EXPECT_EQ(block.transactions[0].nonce, 0u);
  EXPECT_EQ(block.transactions[1].nonce, 1u);
  EXPECT_EQ(node_.state().nonce(addr(1)), 2u);
  EXPECT_EQ(node_.state().balance(addr(3)), 12u);
  EXPECT_EQ(node_.mempool_size(), 0u);
}

TEST_F(AccountNodeTest, PackingDropsStaleAndRequeuesFuture) {
  // Two spends of addr(1)'s nonce 0: the better-paying one lands and
  // leaves the other stale. addr(2)'s nonce 3 has a gap before it.
  node_.submit_transaction(make_tx(addr(1), addr(3), 10, 0, /*gas_price=*/9));
  node_.submit_transaction(make_tx(addr(1), addr(4), 20, 0, /*gas_price=*/5));
  node_.submit_transaction(make_tx(addr(2), addr(3), 30, 3));
  const auto block = node_.produce_block(1);
  ASSERT_EQ(block.transactions.size(), 1u);
  EXPECT_EQ(block.transactions[0].to, addr(3));
  EXPECT_EQ(node_.state().balance(addr(4)), 0u);
  EXPECT_EQ(node_.mempool_size(), 1u);  // the gap, not the stale spend

  // The gap stays pooled, block after block, until it closes.
  EXPECT_TRUE(node_.produce_block(2).transactions.empty());
  EXPECT_EQ(node_.mempool_size(), 1u);
  for (std::uint64_t nonce = 0; nonce < 3; ++nonce) {
    node_.submit_transaction(make_tx(addr(2), addr(5), 1, nonce));
  }
  EXPECT_EQ(node_.produce_block(3).transactions.size(), 4u);
  EXPECT_EQ(node_.mempool_size(), 0u);
}

TEST(PackCounters, CountDeferralsDropsAndPasses) {
  obs::Registry registry;
  const obs::Scope scope{nullptr, &registry};
  AccountNodeConfig config;
  config.runtime.obs = &scope;
  AccountNode node(config);
  node.genesis_fund(addr(1), 10'000'000);
  node.genesis_fund(addr(2), 10'000'000);
  // Fee order: A1 B0 B0' B7 A0.
  //   pass 1: A1 deferred, B0 in, B0' dropped (stale), B7 deferred, A0 in;
  //   pass 2: A1 in, B7 deferred;
  //   pass 3: B7 deferred, no progress, back to the pool.
  node.submit_transaction(make_tx(addr(1), addr(3), 1, 1, /*gas_price=*/50));
  node.submit_transaction(make_tx(addr(2), addr(3), 1, 0, /*gas_price=*/10));
  node.submit_transaction(make_tx(addr(2), addr(4), 1, 0, /*gas_price=*/5));
  node.submit_transaction(make_tx(addr(2), addr(3), 1, 7, /*gas_price=*/3));
  node.submit_transaction(make_tx(addr(1), addr(3), 1, 0, /*gas_price=*/1));
  const auto block = node.produce_block(1);
  EXPECT_EQ(block.transactions.size(), 3u);
  EXPECT_EQ(node.mempool_size(), 1u);

  const auto counters = registry.counter_values();
  EXPECT_EQ(counters.at(obs::names::kMetricNodePackDeferred), 4u);
  EXPECT_EQ(counters.at(obs::names::kMetricNodePackDropped), 1u);
  EXPECT_EQ(counters.at(obs::names::kMetricNodeTxsIncluded), 3u);
  const obs::Histogram& passes =
      registry.histogram(obs::names::kMetricNodePackPasses);
  EXPECT_EQ(passes.count(), 1u);
  EXPECT_EQ(passes.sum(), 3.0);
}

TEST(MiningFailure, AccountNodeKeepsStateAndMempool) {
  // Difficulty 64 with two nonces per attempt: most attempts give up.
  // Each failure must leave no trace; the header's timestamp changes per
  // attempt, so retries eventually mine the same transactions.
  AccountNodeConfig config;
  config.mine = true;
  config.difficulty = 64;
  config.mine_budget = 2;
  AccountNode miner(config);
  miner.genesis_fund(addr(1), 10'000'000);
  miner.genesis_fund(addr(2), 10'000'000);
  miner.submit_transaction(make_tx(addr(1), addr(3), 5, 1, /*gas_price=*/9));
  miner.submit_transaction(make_tx(addr(1), addr(3), 5, 0));
  miner.submit_transaction(make_tx(addr(2), addr(3), 5, 0, /*gas_price=*/4));
  const Hash256 genesis = miner.state().digest();

  int failures = 0;
  std::uint64_t timestamp = 1;
  for (;; ++timestamp) {
    ASSERT_LT(timestamp, 10'000u) << "no header mined";
    try {
      const auto block = miner.produce_block(timestamp);
      EXPECT_EQ(block.transactions.size(), 3u);
      EXPECT_TRUE(meets_target(block.header.hash(), block.header.difficulty));
      break;
    } catch (const Error& e) {
      ASSERT_STREQ(e.what(), "mining budget exhausted");
      ++failures;
      EXPECT_EQ(miner.mempool_size(), 3u);
      EXPECT_EQ(miner.state().digest(), genesis);
      EXPECT_EQ(miner.ledger().height(), 0u);
    }
  }
  EXPECT_GT(failures, 0);
  EXPECT_EQ(miner.mempool_size(), 0u);
  EXPECT_EQ(miner.state().balance(addr(3)), 15u);

  // The mined block carries a root over the post-state, not over any
  // failed attempt's.
  AccountNode validator(config);
  validator.genesis_fund(addr(1), 10'000'000);
  validator.genesis_fund(addr(2), 10'000'000);
  validator.receive_block(miner.ledger().tip());
  EXPECT_EQ(validator.state().digest(), miner.state().digest());
}

TEST(PackingGolden, SeededStreamProducesRecordedHeaders) {
  // A late-era Ethereum stream: fee order (gas prices 1..50) puts many a
  // sender's later nonce before its predecessor, and about 150
  // submissions per 100-transaction block leave spill-over for the next.
  // The header hashes and the final digest were recorded with the
  // exception-driven pack loop; any change to packing order shows here.
  workload::ChainProfile profile = workload::ethereum_profile();
  workload::EraParams era = profile.at(1.0);
  era.txs_per_block = 150;
  era.position = 0.0;
  workload::EraParams late = era;
  late.position = 1.0;
  profile.eras = {era, late};
  workload::AccountWorkloadGenerator generator(profile, 29, 5);

  obs::Registry registry;
  const obs::Scope scope{nullptr, &registry};
  AccountNodeConfig config;
  config.max_block_txs = 100;
  config.runtime.obs = &scope;
  AccountNode producer(config);
  generator.state().for_each_account([&](const Address& a) {
    if (const account::ContractCode* code = generator.state().code(a)) {
      producer.genesis_deploy(a, *code);
    }
  });
  std::vector<std::vector<account::AccountTx>> blocks;
  for (int b = 0; b < 5; ++b) {
    blocks.push_back(generator.next_block().account_txs);
    for (const account::AccountTx& tx : blocks.back()) {
      if (producer.state().balance(tx.from) == 0) {
        producer.genesis_fund(tx.from, 1'000'000'000'000'000ULL);
      }
    }
  }
  const char* const kHeaderHashes[] = {
      "876e7184a43a06e9bc89caa266e20073495f0fb3eada40d028ba6fee0c628f7d",
      "fbd2985175ab8ad72e0af246b7403474c91e1a62cec4a949bb39eac565223da0",
      "db8511b626dbd99b5f0185ab881015afc9fbc8f9da87921327098f9008bec35e",
      "c76bf7de66b1fc314040c2fa635b647353793b8a4ae07aeb722941a84c4bcabc",
      "8107fe6f327e3559ba3acf8b18cdff9c8fec2bc105961f3c4f5df1ac376702ad",
  };
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    for (account::AccountTx& tx : blocks[b]) {
      producer.submit_transaction(std::move(tx));
    }
    const auto block = producer.produce_block(b + 1);
    EXPECT_EQ(block.transactions.size(), 100u);
    EXPECT_EQ(block.header.hash().to_hex(), kHeaderHashes[b]) << "block " << b;
  }
  EXPECT_EQ(producer.mempool_size(), 118u);
  EXPECT_EQ(producer.state().digest().to_hex(),
            "d6be3fbea149e8e5ce338f8b1ea8a48c6f6596cfa2cfa47f46fa619cde4ffba9");
  // The stream exercises the retry path the golden values pin.
  EXPECT_GT(registry.counter_values().at(obs::names::kMetricNodePackDeferred),
            0u);
}

// ------------------------------------------------------------------ ForkTree

class ForkTreeTest : public ::testing::Test {
 protected:
  ForkTreeTest() : genesis_(make_header(0, Hash256{}, 10)), tree_(genesis_) {}

  static BlockHeader make_header(std::uint64_t height, const Hash256& prev,
                                 std::uint64_t difficulty,
                                 std::uint64_t salt = 0) {
    BlockHeader h;
    h.height = height;
    h.prev_hash = prev;
    h.difficulty = difficulty;
    h.timestamp = salt;  // differentiates sibling headers
    return h;
  }

  BlockHeader genesis_;
  ForkTree tree_;
};

TEST_F(ForkTreeTest, ExtensionMovesTipWithoutReorg) {
  const BlockHeader b1 = make_header(1, genesis_.hash(), 10);
  const auto reorg = tree_.insert(b1);
  ASSERT_TRUE(reorg.has_value());
  EXPECT_TRUE(reorg->disconnect.empty());
  EXPECT_TRUE(reorg->connect.empty());
  EXPECT_EQ(tree_.best_tip(), b1.hash());
  EXPECT_EQ(tree_.best_height(), 1u);
  EXPECT_EQ(tree_.cumulative_difficulty(b1.hash()), 20u);
}

TEST_F(ForkTreeTest, LighterBranchDoesNotMoveTip) {
  const BlockHeader b1 = make_header(1, genesis_.hash(), 10);
  tree_.insert(b1);
  const BlockHeader fork = make_header(1, genesis_.hash(), 5, /*salt=*/1);
  EXPECT_FALSE(tree_.insert(fork).has_value());
  EXPECT_EQ(tree_.best_tip(), b1.hash());
}

TEST_F(ForkTreeTest, HeavierForkTriggersReorg) {
  const BlockHeader a1 = make_header(1, genesis_.hash(), 10);
  const BlockHeader a2 = make_header(2, a1.hash(), 10);
  tree_.insert(a1);
  tree_.insert(a2);

  // Competing branch with more cumulative difficulty.
  const BlockHeader b1 = make_header(1, genesis_.hash(), 15, 1);
  const BlockHeader b2 = make_header(2, b1.hash(), 15, 1);
  EXPECT_FALSE(tree_.insert(b1).has_value());  // 25 < 30
  const auto reorg = tree_.insert(b2);          // 40 > 30
  ASSERT_TRUE(reorg.has_value());
  EXPECT_EQ(reorg->disconnect,
            (std::vector<Hash256>{a2.hash(), a1.hash()}));
  EXPECT_EQ(reorg->connect, (std::vector<Hash256>{b1.hash(), b2.hash()}));
  EXPECT_EQ(tree_.best_tip(), b2.hash());
}

TEST_F(ForkTreeTest, ReorgAcrossUnequalDepths) {
  // Old branch of length 1 vs new branch of length 3 with low difficulty.
  const BlockHeader a1 = make_header(1, genesis_.hash(), 10);
  tree_.insert(a1);
  const BlockHeader b1 = make_header(1, genesis_.hash(), 4, 1);
  const BlockHeader b2 = make_header(2, b1.hash(), 4, 1);
  const BlockHeader b3 = make_header(3, b2.hash(), 4, 1);
  tree_.insert(b1);
  tree_.insert(b2);
  const auto reorg = tree_.insert(b3);  // 10+12 > 10+10
  ASSERT_TRUE(reorg.has_value());
  EXPECT_EQ(reorg->disconnect, (std::vector<Hash256>{a1.hash()}));
  EXPECT_EQ(reorg->connect,
            (std::vector<Hash256>{b1.hash(), b2.hash(), b3.hash()}));
}

TEST_F(ForkTreeTest, FirstSeenWinsTies) {
  const BlockHeader a1 = make_header(1, genesis_.hash(), 10);
  const BlockHeader b1 = make_header(1, genesis_.hash(), 10, 1);
  tree_.insert(a1);
  EXPECT_FALSE(tree_.insert(b1).has_value());
  EXPECT_EQ(tree_.best_tip(), a1.hash());
}

TEST_F(ForkTreeTest, BestChainGenesisFirst) {
  const BlockHeader a1 = make_header(1, genesis_.hash(), 10);
  const BlockHeader a2 = make_header(2, a1.hash(), 10);
  tree_.insert(a1);
  tree_.insert(a2);
  const auto chain = tree_.best_chain();
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain[0].hash(), genesis_.hash());
  EXPECT_EQ(chain[2].hash(), a2.hash());
}

TEST_F(ForkTreeTest, RejectsBadInserts) {
  const BlockHeader orphan = make_header(1, Hash256::from_seed(1), 10);
  EXPECT_THROW(tree_.insert(orphan), ValidationError);

  const BlockHeader wrong_height = make_header(5, genesis_.hash(), 10);
  EXPECT_THROW(tree_.insert(wrong_height), ValidationError);

  const BlockHeader b1 = make_header(1, genesis_.hash(), 10);
  tree_.insert(b1);
  EXPECT_THROW(tree_.insert(b1), ValidationError);  // duplicate

  EXPECT_THROW(ForkTree(make_header(3, Hash256{}, 1)), UsageError);
}

// ----------------------------------------------------------------- network

TEST(Network, ZeroDelayProducesNoForks) {
  NetworkConfig config;
  config.propagation_delay = 0.0;
  config.block_interval = 10.0;
  NetworkSimulator sim(1, config);
  const NetworkStats stats = sim.run(200);
  EXPECT_EQ(stats.blocks_found, 200u);
  EXPECT_EQ(stats.stale_blocks, 0u);
  EXPECT_EQ(stats.reorgs, 0u);
  EXPECT_TRUE(stats.converged);
}

TEST(Network, MeanIntervalTracksTarget) {
  NetworkConfig config;
  config.propagation_delay = 0.0;
  config.block_interval = 50.0;
  NetworkSimulator sim(2, config);
  const NetworkStats stats = sim.run(500);
  EXPECT_NEAR(stats.mean_interval, 50.0, 8.0);
}

TEST(Network, StaleRateGrowsWithDelay) {
  // The classic trade-off: stale rate ~ delay / interval.
  auto stale_rate_at = [](double delay) {
    NetworkConfig config;
    config.propagation_delay = delay;
    config.block_interval = 100.0;
    NetworkSimulator sim(3, config);
    return sim.run(600).stale_rate;
  };
  const double none = stale_rate_at(0.0);
  const double small = stale_rate_at(5.0);
  const double large = stale_rate_at(40.0);
  EXPECT_EQ(none, 0.0);
  EXPECT_GT(small, 0.0);
  EXPECT_GT(large, small);
  // Ballpark of the delay/interval ratio.
  EXPECT_NEAR(small, 0.05, 0.05);
  EXPECT_GT(large, 0.15);
}

TEST(Network, DelayCausesReorgsButHeightsConverge) {
  NetworkConfig config;
  config.propagation_delay = 20.0;
  config.block_interval = 100.0;
  NetworkSimulator sim(4, config);
  const NetworkStats stats = sim.run(400);
  EXPECT_GT(stats.reorgs, 0u);
  EXPECT_GE(stats.max_reorg_depth, 1u);
  // After draining, at most an unresolved last-block tie remains.
  EXPECT_GE(stats.blocks_found, stats.stale_blocks);
}

TEST(Network, WinsProportionalToHashrate) {
  NetworkConfig config;
  config.hashrate = {3.0, 1.0, 1.0, 1.0};  // miner 0 holds half the power
  config.propagation_delay = 0.0;
  config.block_interval = 10.0;
  NetworkSimulator sim(5, config);
  const NetworkStats stats = sim.run(1000);
  std::uint64_t total_wins = 0;
  for (std::uint64_t w : stats.wins) total_wins += w;
  EXPECT_NEAR(static_cast<double>(stats.wins[0]) / total_wins, 0.5, 0.06);
}

TEST(Network, RejectsBadConfig) {
  NetworkConfig empty;
  empty.hashrate = {};
  EXPECT_THROW(NetworkSimulator(1, empty), UsageError);

  NetworkConfig negative;
  negative.hashrate = {1.0, -1.0};
  EXPECT_THROW(NetworkSimulator(1, negative), UsageError);

  NetworkConfig bad_interval;
  bad_interval.block_interval = 0.0;
  EXPECT_THROW(NetworkSimulator(1, bad_interval), UsageError);
}

}  // namespace
}  // namespace txconc::chain
