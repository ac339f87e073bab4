// End-to-end tests for the UTXO wallet and the UTXO full node: key
// management, signed payments, block production/validation, fees, and
// reorg undo.
#include <gtest/gtest.h>

#include "chain/utxo_node.h"
#include "common/error.h"
#include "utxo/wallet.h"

namespace txconc {
namespace {

using chain::UtxoNode;
using chain::UtxoNodeConfig;
using utxo::Script;
using utxo::Transaction;
using utxo::Wallet;

// -------------------------------------------------------------------- wallet

TEST(Wallet, KeysAreDeterministicAndDistinct) {
  Wallet a(1);
  Wallet b(1);
  Wallet c(2);
  EXPECT_EQ(a.pubkey(0), b.pubkey(0));
  EXPECT_NE(a.pubkey(0), a.pubkey(1));
  EXPECT_NE(a.pubkey(0), c.pubkey(0));
  EXPECT_EQ(a.lock_script(3), b.lock_script(3));
}

TEST(Wallet, DiscoversIncomingCoins) {
  Wallet wallet(7);
  const Script receive = wallet.next_receive_script();
  const Transaction cb = Transaction::coinbase(1000, receive, 0);
  wallet.process_block({&cb, 1});
  EXPECT_EQ(wallet.balance(), 1000u);
  ASSERT_EQ(wallet.coins().size(), 1u);
  EXPECT_EQ(wallet.coins()[0].value, 1000u);
}

TEST(Wallet, IgnoresForeignCoins) {
  Wallet wallet(7);
  wallet.next_receive_script();
  Wallet other(8);
  const Transaction cb =
      Transaction::coinbase(1000, other.next_receive_script(), 0);
  wallet.process_block({&cb, 1});
  EXPECT_EQ(wallet.balance(), 0u);
}

TEST(Wallet, PaymentValidatesAgainstUtxoSet) {
  Wallet alice(1);
  Wallet bob(2);
  utxo::UtxoSet set;

  const Transaction cb =
      Transaction::coinbase(1000, alice.next_receive_script(), 0);
  set.apply(cb, {.run_scripts = true, .allow_minting = true});
  alice.process_block({&cb, 1});

  const Transaction payment =
      alice.pay(bob.next_receive_script(), 700, /*fee=*/10);
  // Full script validation must pass.
  EXPECT_NO_THROW(set.apply(payment));
  EXPECT_EQ(set.total_value(), 990u);

  bob.process_block({&payment, 1});
  alice.process_block({&payment, 1});
  EXPECT_EQ(bob.balance(), 700u);
  EXPECT_EQ(alice.balance(), 290u);  // change output
}

TEST(Wallet, PaySelectsLargestCoinsFirst) {
  Wallet wallet(3);
  std::vector<Transaction> blocks;
  for (std::uint64_t v : {100u, 500u, 50u}) {
    blocks.push_back(
        Transaction::coinbase(v, wallet.next_receive_script(), v));
  }
  wallet.process_block(blocks);
  EXPECT_EQ(wallet.balance(), 650u);

  const Transaction tx = wallet.pay(Script{}, 450);
  EXPECT_EQ(tx.inputs().size(), 1u);  // the 500 coin suffices
  EXPECT_EQ(wallet.balance(), 150u);  // 100 + 50 remain; change not yet seen
  wallet.process_block({&tx, 1});
  EXPECT_EQ(wallet.balance(), 200u);  // change (50) discovered
}

TEST(Wallet, PayInsufficientThrows) {
  Wallet wallet(4);
  EXPECT_THROW(wallet.pay(Script{}, 1), ValidationError);
}

TEST(Wallet, ExactPaymentHasNoChangeOutput) {
  Wallet wallet(5);
  const Transaction cb =
      Transaction::coinbase(100, wallet.next_receive_script(), 0);
  wallet.process_block({&cb, 1});
  const Transaction tx = wallet.pay(Script{}, 90, /*fee=*/10);
  EXPECT_EQ(tx.outputs().size(), 1u);
}

// ----------------------------------------------------------------- UTXO node

class UtxoNodeTest : public ::testing::Test {
 protected:
  UtxoNodeTest() : miner_wallet_(100), user_wallet_(200) {}

  /// Mine an empty block paying the miner wallet and let wallets scan it.
  void mine_funding_block() {
    const auto block = node_.produce_block(
        10 * (node_.ledger().height() + 1),
        miner_wallet_.next_receive_script());
    miner_wallet_.process_block(block.transactions);
    user_wallet_.process_block(block.transactions);
  }

  UtxoNode node_;
  Wallet miner_wallet_;
  Wallet user_wallet_;
};

TEST_F(UtxoNodeTest, CoinbaseMaturesIntoSpendableValue) {
  mine_funding_block();
  EXPECT_EQ(node_.ledger().height(), 1u);
  EXPECT_EQ(node_.utxo_set().total_value(), 50'0000'0000ULL);
  EXPECT_EQ(miner_wallet_.balance(), 50'0000'0000ULL);
}

TEST_F(UtxoNodeTest, EndToEndPaymentWithFees) {
  mine_funding_block();

  // Miner pays the user 10 coins with a 0.1-coin fee.
  const Transaction payment = miner_wallet_.pay(
      user_wallet_.next_receive_script(), 10'0000'0000ULL, 1000'0000ULL);
  node_.submit_transaction(payment);
  EXPECT_EQ(node_.mempool_size(), 1u);

  const auto block =
      node_.produce_block(20, miner_wallet_.next_receive_script());
  ASSERT_EQ(block.transactions.size(), 2u);
  EXPECT_TRUE(block.transactions[0].is_coinbase());
  // The coinbase collects subsidy + fee.
  EXPECT_EQ(block.transactions[0].total_output(),
            50'0000'0000ULL + 1000'0000ULL);

  user_wallet_.process_block(block.transactions);
  EXPECT_EQ(user_wallet_.balance(), 10'0000'0000ULL);
}

TEST_F(UtxoNodeTest, RejectsUnconfirmedChains) {
  mine_funding_block();
  const Transaction first = miner_wallet_.pay(
      user_wallet_.next_receive_script(), 10'0000'0000ULL);
  node_.submit_transaction(first);
  // A transaction spending `first`'s change before it confirms: the wallet
  // knows the coin only after scanning, so emulate a direct spend.
  utxo::TxInput in;
  in.prevout = {first.txid(), 1};
  const Transaction chained(std::vector<utxo::TxInput>{in},
                            std::vector<utxo::TxOutput>{{1, Script{}}});
  EXPECT_THROW(node_.submit_transaction(chained), ValidationError);
}

TEST_F(UtxoNodeTest, CoinbaseSubmissionRejected) {
  const Transaction cb = Transaction::coinbase(1, Script{}, 0);
  EXPECT_THROW(node_.submit_transaction(cb), ValidationError);
}

TEST_F(UtxoNodeTest, ValidatorAcceptsProducedBlocks) {
  mine_funding_block();
  const Transaction payment = miner_wallet_.pay(
      user_wallet_.next_receive_script(), 5'0000'0000ULL, 500ULL);
  node_.submit_transaction(payment);
  const auto b1 =
      node_.produce_block(20, miner_wallet_.next_receive_script());

  UtxoNode validator;
  validator.receive_block(node_.ledger().at(0));
  validator.receive_block(b1);
  EXPECT_EQ(validator.utxo_set().total_value(),
            node_.utxo_set().total_value());
  EXPECT_EQ(validator.ledger().height(), 2u);
}

TEST_F(UtxoNodeTest, ValidatorRejectsBadCoinbaseValue) {
  mine_funding_block();
  UtxoNode validator;
  auto inflated = node_.ledger().at(0);
  // Replace the coinbase with one minting too much.
  inflated.transactions[0] =
      Transaction::coinbase(99'0000'0000ULL, Script{}, 0);
  inflated.header.merkle_root = chain::transactions_root(
      std::span<const Transaction>(inflated.transactions));
  EXPECT_THROW(validator.receive_block(inflated), ValidationError);
  EXPECT_EQ(validator.utxo_set().size(), 0u);
}

TEST_F(UtxoNodeTest, ValidatorRejectsDoubleCoinbase) {
  mine_funding_block();
  UtxoNode validator;
  auto doubled = node_.ledger().at(0);
  doubled.transactions.push_back(
      Transaction::coinbase(1, Script{}, 7));
  doubled.header.merkle_root = chain::transactions_root(
      std::span<const Transaction>(doubled.transactions));
  EXPECT_THROW(validator.receive_block(doubled), ValidationError);
}

TEST_F(UtxoNodeTest, UndoTipRestoresUtxoSet) {
  mine_funding_block();
  const std::uint64_t value_after_one = node_.utxo_set().total_value();

  const Transaction payment = miner_wallet_.pay(
      user_wallet_.next_receive_script(), 1'0000'0000ULL);
  node_.submit_transaction(payment);
  node_.produce_block(20, miner_wallet_.next_receive_script());
  EXPECT_EQ(node_.ledger().height(), 2u);

  const auto undone = node_.undo_tip();
  EXPECT_EQ(undone.header.height, 1u);
  EXPECT_EQ(node_.ledger().height(), 1u);
  EXPECT_EQ(node_.utxo_set().total_value(), value_after_one);
  // The payment's outputs are gone, the original coinbase is back.
  EXPECT_FALSE(node_.utxo_set().contains({payment.txid(), 0}));
}

TEST_F(UtxoNodeTest, BackwardTimestampRejectedBeforeApplying) {
  mine_funding_block();  // timestamp 10
  const Transaction payment = miner_wallet_.pay(
      user_wallet_.next_receive_script(), 1'0000'0000ULL, 500ULL);
  node_.submit_transaction(payment);
  const std::uint64_t funded = node_.utxo_set().size();

  // A producer refuses the timestamp before spending the mempool.
  EXPECT_THROW(node_.produce_block(5, miner_wallet_.next_receive_script()),
               ValidationError);
  EXPECT_EQ(node_.mempool_size(), 1u);
  EXPECT_EQ(node_.utxo_set().size(), funded);
  EXPECT_EQ(node_.ledger().height(), 1u);
  const auto b1 = node_.produce_block(20, miner_wallet_.next_receive_script());
  ASSERT_EQ(b1.transactions.size(), 2u);

  // A validator refuses a re-stamped copy before applying it.
  UtxoNode validator;
  validator.receive_block(node_.ledger().at(0));
  auto restamped = b1;
  restamped.header.timestamp = 5;
  EXPECT_THROW(validator.receive_block(restamped), ValidationError);
  EXPECT_EQ(validator.utxo_set().size(), funded);
  EXPECT_EQ(validator.ledger().height(), 1u);
  validator.receive_block(b1);
  EXPECT_EQ(validator.utxo_set().total_value(),
            node_.utxo_set().total_value());
  EXPECT_EQ(validator.ledger().height(), 2u);
}

TEST_F(UtxoNodeTest, MinedBlocksVerify) {
  UtxoNodeConfig config;
  config.mine = true;
  config.difficulty = 8;
  UtxoNode miner(config);
  Wallet wallet(1);
  const auto block = miner.produce_block(1, wallet.next_receive_script());
  EXPECT_TRUE(chain::meets_target(block.header.hash(),
                                  block.header.difficulty));

  UtxoNode validator(config);
  validator.receive_block(block);
  EXPECT_EQ(validator.ledger().height(), 1u);
}

TEST(UtxoMiningFailure, KeepsUtxoSetAndMempool) {
  // Difficulty 64 with two nonces per attempt: most attempts give up.
  // Each failure must leave no trace; the header's timestamp changes per
  // attempt, so retries eventually mine.
  UtxoNodeConfig config;
  config.mine = true;
  config.difficulty = 64;
  config.mine_budget = 2;
  UtxoNode miner(config);
  Wallet miner_wallet(100);
  Wallet user_wallet(200);
  std::uint64_t timestamp = 1;
  for (;; ++timestamp) {  // the funding block
    ASSERT_LT(timestamp, 10'000u) << "no header mined";
    try {
      miner_wallet.process_block(
          miner.produce_block(timestamp, miner_wallet.next_receive_script())
              .transactions);
      break;
    } catch (const txconc::Error&) {
    }
  }

  const Transaction first = miner_wallet.pay(
      user_wallet.next_receive_script(), 10'0000'0000ULL, 1000ULL);
  miner.submit_transaction(first);
  const std::size_t utxos = miner.utxo_set().size();
  const std::uint64_t value = miner.utxo_set().total_value();
  int failures = 0;
  for (++timestamp;; ++timestamp) {
    ASSERT_LT(timestamp, 10'000u) << "no header mined";
    try {
      const auto block =
          miner.produce_block(timestamp, miner_wallet.next_receive_script());
      ASSERT_EQ(block.transactions.size(), 2u);
      EXPECT_EQ(block.transactions[1].txid(), first.txid());
      // The coinbase still collects the returned transaction's fee.
      EXPECT_EQ(block.transactions[0].total_output(),
                config.coinbase_subsidy + 1000ULL);
      break;
    } catch (const txconc::Error& e) {
      ASSERT_STREQ(e.what(), "mining budget exhausted");
      ++failures;
      EXPECT_EQ(miner.mempool_size(), 1u);
      EXPECT_EQ(miner.utxo_set().size(), utxos);
      EXPECT_EQ(miner.utxo_set().total_value(), value);
      EXPECT_TRUE(miner.utxo_set().contains(first.inputs()[0].prevout));
      EXPECT_EQ(miner.ledger().height(), 1u);
    }
  }
  EXPECT_GT(failures, 0);
  EXPECT_EQ(miner.mempool_size(), 0u);
  EXPECT_EQ(miner.ledger().height(), 2u);
}

}  // namespace
}  // namespace txconc
