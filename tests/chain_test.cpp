// Tests for the chain substrate: merkle trees, blocks, ledger, PoW, mempool.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>

#include "chain/block.h"
#include "chain/merkle.h"
#include "chain/pow.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/stats.h"

namespace txconc::chain {
namespace {

std::vector<Hash256> leaves(std::size_t n) {
  std::vector<Hash256> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(Hash256::from_seed(i));
  return out;
}

// -------------------------------------------------------------------- merkle

TEST(Merkle, EmptyRootIsZero) {
  EXPECT_TRUE(merkle_root({}).is_zero());
}

TEST(Merkle, SingleLeafIsItsOwnRoot) {
  const auto l = leaves(1);
  EXPECT_EQ(merkle_root(l), l[0]);
}

TEST(Merkle, RootChangesWithAnyLeaf) {
  auto l = leaves(5);
  const Hash256 root = merkle_root(l);
  for (std::size_t i = 0; i < l.size(); ++i) {
    auto modified = l;
    modified[i] = Hash256::from_seed(1000 + i);
    EXPECT_NE(merkle_root(modified), root) << "leaf " << i;
  }
}

TEST(Merkle, OddLeafCountDuplicatesLast) {
  // Root over 3 leaves equals root over [a, b, c, c] pair-hashing.
  const auto l3 = leaves(3);
  std::vector<Hash256> l4 = l3;
  l4.push_back(l3[2]);
  EXPECT_EQ(merkle_root(l3), merkle_root(l4));
}

// Duplicating an odd last node gives [a, b, c] and [a, b, c, c] one root
// (CVE-2012-2459); the padded list is the one that pairs equal siblings.
TEST(Merkle, EqualSiblingsFlagAPaddedList) {
  bool mutated = true;
  for (std::size_t n = 0; n <= 40; ++n) {
    merkle_root(leaves(n), &mutated);
    EXPECT_FALSE(mutated) << n << " distinct leaves";
  }
  const auto l3 = leaves(3);
  std::vector<Hash256> l4 = l3;
  l4.push_back(l3[2]);
  EXPECT_EQ(merkle_root(l4, &mutated), merkle_root(l3));
  EXPECT_TRUE(mutated);
  // Six leaves padded with a copy of their last pair: the equal siblings
  // meet one level up.
  const auto l6 = leaves(6);
  std::vector<Hash256> l8 = l6;
  l8.push_back(l6[4]);
  l8.push_back(l6[5]);
  EXPECT_EQ(merkle_root(l8, &mutated), merkle_root(l6));
  EXPECT_TRUE(mutated);
}

TEST(Merkle, OrderMatters) {
  auto l = leaves(4);
  const Hash256 root = merkle_root(l);
  std::swap(l[0], l[1]);
  EXPECT_NE(merkle_root(l), root);
}

TEST(Merkle, TreeRootMatchesFreeFunction) {
  for (std::size_t n : {1u, 2u, 3u, 4u, 7u, 8u, 33u}) {
    const auto l = leaves(n);
    EXPECT_EQ(MerkleTree(l).root(), merkle_root(l)) << n;
  }
}

TEST(Merkle, ProofsVerify) {
  const auto l = leaves(9);
  const MerkleTree tree(l);
  for (std::size_t i = 0; i < l.size(); ++i) {
    const MerkleProof proof = tree.prove(i);
    EXPECT_TRUE(MerkleTree::verify(l[i], proof, tree.root())) << i;
    // Wrong leaf fails.
    EXPECT_FALSE(MerkleTree::verify(Hash256::from_seed(999), proof,
                                    tree.root()));
  }
}

TEST(Merkle, ProofForWrongPositionFails) {
  const auto l = leaves(8);
  const MerkleTree tree(l);
  MerkleProof proof = tree.prove(2);
  proof.index = 3;
  EXPECT_FALSE(MerkleTree::verify(l[2], proof, tree.root()));
}

TEST(Merkle, ProveOutOfRangeThrows) {
  const auto l = leaves(4);
  const MerkleTree tree(l);
  EXPECT_THROW(tree.prove(4), UsageError);
}

// --------------------------------------------------------------------- block

TEST(Block, HeaderHashCommitsToFields) {
  BlockHeader a;
  a.height = 5;
  BlockHeader b = a;
  EXPECT_EQ(a.hash(), b.hash());
  b.nonce = 1;
  EXPECT_NE(a.hash(), b.hash());
  b = a;
  b.merkle_root = Hash256::from_seed(1);
  EXPECT_NE(a.hash(), b.hash());
}

TEST(Block, AccountTxHashDistinguishesFields) {
  account::AccountTx tx;
  tx.from = Address::from_seed(1);
  tx.to = Address::from_seed(2);
  const Hash256 h = tx_hash(tx);

  account::AccountTx other = tx;
  other.value = 5;
  EXPECT_NE(tx_hash(other), h);
  other = tx;
  other.nonce = 9;
  EXPECT_NE(tx_hash(other), h);
  other = tx;
  other.to.reset();
  EXPECT_NE(tx_hash(other), h);
  other = tx;
  other.args = {1};
  EXPECT_NE(tx_hash(other), h);
}

// Roots computed with the scalar SHA-256 and the per-level merkle
// reduction; every later kernel and reduction must reproduce them.
TEST(Block, GoldenTransactionRoots) {
  const auto txs = [](std::uint64_t n) {
    std::vector<account::AccountTx> out(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      account::AccountTx& tx = out[i];
      tx.from = Address::from_seed(i);
      tx.to = Address::from_seed(i + 1000);
      tx.value = i;
      tx.nonce = i % 5;
      tx.gas_limit = 21000 + i;
      tx.gas_price = 1 + i % 3;
      if (i % 2 == 1) tx.args = {i, i * i};
      if (i % 3 == 0) tx.address_args = {Address::from_seed(i + 7)};
    }
    return out;
  };
  const auto root = [](const std::vector<account::AccountTx>& block) {
    return transactions_root(std::span<const account::AccountTx>(block))
        .to_hex();
  };
  EXPECT_EQ(root(txs(1)),
            "cdae6f1af84bd70b068b81a5e2ddf9df7d3fb26d4a0b092c482ec72a41675228");
  EXPECT_EQ(root(txs(7)),
            "e8b3ce6dd3220283e32af20ee04ca6e53583c37c583b9e9617a83fbbdd1b062e");
  EXPECT_EQ(root(txs(1000)),
            "c7b5eb06cf43b3e0d2f54fd6e88a61532747fae8a6fc7103d4f6aae2e7f976e7");
}

// Seeded account transactions: calls with 0-40 arguments and 0-3 address
// arguments, and every fifth one a creation whose init code spans 0 to
// about 8 blocks, so the encodings span many block counts.
std::vector<account::AccountTx> seeded_txs(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<account::AccountTx> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    account::AccountTx& tx = out[i];
    tx.from = Address::from_seed(rng.next_u64());
    tx.value = rng.uniform(1'000'000);
    tx.gas_limit = 21'000 + rng.uniform(100'000);
    tx.gas_price = 1 + rng.uniform(50);
    tx.nonce = rng.uniform(1'000);
    if (i % 5 == 4) {
      tx.init_code.code.resize(rng.uniform(512));
      for (std::uint8_t& b : tx.init_code.code) {
        b = static_cast<std::uint8_t>(rng.next_u64());
      }
      for (std::size_t a = rng.uniform(4); a > 0; --a) {
        tx.init_code.address_table.push_back(Address::from_seed(rng.next_u64()));
      }
    } else {
      tx.to = Address::from_seed(rng.next_u64());
    }
    for (std::size_t a = rng.uniform(41); a > 0; --a) {
      tx.args.push_back(rng.next_u64());
    }
    for (std::size_t a = rng.uniform(4); a > 0; --a) {
      tx.address_args.push_back(Address::from_seed(rng.next_u64()));
    }
  }
  return out;
}

Sha256::Digest portable_hash(std::span<const std::uint8_t> data) {
  Sha256 h(&Sha256::portable_kernel);
  h.update(data);
  return h.finalize();
}

// The root the one-at-a-time way, on the portable kernel alone: each
// transaction's tx_hash encoding, then pairs hashed twice level by level.
Hash256 portable_transactions_root(std::span<const account::AccountTx> txs) {
  if (txs.empty()) return Hash256{};
  std::vector<Hash256> level;
  for (const account::AccountTx& tx : txs) {
    HashWriter w(&Sha256::portable_kernel);
    write_tx(w, tx);
    level.push_back(w.finish());
  }
  while (level.size() > 1) {
    if (level.size() % 2 == 1) level.push_back(level.back());
    std::vector<Hash256> next;
    for (std::size_t i = 0; i < level.size(); i += 2) {
      Bytes pair(level[i].bytes.begin(), level[i].bytes.end());
      pair.insert(pair.end(), level[i + 1].bytes.begin(),
                  level[i + 1].bytes.end());
      next.push_back(Hash256{portable_hash(portable_hash(pair))});
    }
    level = std::move(next);
  }
  return level[0];
}

TEST(Block, BatchedTransactionsRootMatchesPortableReference) {
  for (const std::size_t n : {0u, 1u, 15u, 16u, 17u, 120u, 1000u}) {
    const std::vector<account::AccountTx> block = seeded_txs(n + 1, n);
    const std::span<const account::AccountTx> txs(block);
    const Hash256 root = transactions_root(txs);
    EXPECT_EQ(root, portable_transactions_root(txs)) << n << " transactions";
    std::vector<Hash256> leaves;
    for (const account::AccountTx& tx : block) leaves.push_back(tx_hash(tx));
    EXPECT_EQ(root, merkle_root(leaves)) << n << " transactions";
  }
}

// Each call encodes into its own buffer: two threads hashing different
// blocks at once each get their block's root.
TEST(Block, ConcurrentTransactionsRootsAgree) {
  const std::vector<account::AccountTx> a = seeded_txs(71, 300);
  const std::vector<account::AccountTx> b = seeded_txs(72, 301);
  const Hash256 want_a = transactions_root(std::span<const account::AccountTx>(a));
  const Hash256 want_b = transactions_root(std::span<const account::AccountTx>(b));
  std::atomic<int> wrong{0};
  const auto hammer = [&wrong](const std::vector<account::AccountTx>& txs,
                               const Hash256& want) {
    for (int i = 0; i < 100; ++i) {
      if (transactions_root(std::span<const account::AccountTx>(txs)) != want) {
        wrong.fetch_add(1);
      }
    }
  };
  std::thread first(hammer, std::cref(a), std::cref(want_a));
  std::thread second(hammer, std::cref(b), std::cref(want_b));
  first.join();
  second.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(Block, MakeBlockLinksAndCommits) {
  std::vector<account::AccountTx> txs(3);
  for (std::size_t i = 0; i < txs.size(); ++i) {
    txs[i].from = Address::from_seed(i);
    txs[i].to = Address::from_seed(i + 100);
  }
  const auto genesis = make_block<account::AccountTx>(nullptr, txs, 0, 1);
  EXPECT_EQ(genesis.header.height, 0u);
  EXPECT_TRUE(genesis.header.prev_hash.is_zero());

  const auto next =
      make_block<account::AccountTx>(&genesis.header, txs, 10, 1);
  EXPECT_EQ(next.header.height, 1u);
  EXPECT_EQ(next.header.prev_hash, genesis.header.hash());
}

TEST(Ledger, AppendValidatesLinkage) {
  std::vector<account::AccountTx> txs(1);
  txs[0].from = Address::from_seed(1);
  txs[0].to = Address::from_seed(2);

  Ledger<account::AccountTx> ledger;
  auto genesis = make_block<account::AccountTx>(nullptr, txs, 0, 1);
  ledger.append(genesis);
  auto b1 = make_block<account::AccountTx>(&genesis.header, txs, 5, 1);
  ledger.append(b1);
  EXPECT_EQ(ledger.height(), 2u);
  EXPECT_EQ(ledger.total_transactions(), 2u);
  EXPECT_EQ(ledger.tip().header.height, 1u);
  EXPECT_EQ(ledger.at(0).header.height, 0u);

  // Wrong prev hash.
  auto bad = make_block<account::AccountTx>(&genesis.header, txs, 6, 1);
  EXPECT_THROW(ledger.append(bad), ValidationError);

  // Tampered merkle root.
  auto b2 = make_block<account::AccountTx>(&b1.header, txs, 6, 1);
  b2.transactions[0].value = 777;
  EXPECT_THROW(ledger.append(b2), ValidationError);

  // Backwards timestamp.
  auto b3 = make_block<account::AccountTx>(&b1.header, txs, 2, 1);
  EXPECT_THROW(ledger.append(b3), ValidationError);
}

TEST(Ledger, CheckedBlocksAreBoundToTheTip) {
  std::vector<account::AccountTx> txs(1);
  txs[0].from = Address::from_seed(1);
  txs[0].to = Address::from_seed(2);

  Ledger<account::AccountTx> ledger;
  auto genesis = ledger.seal(ledger.next_header(10, 1), txs);
  EXPECT_EQ(genesis.block().header.merkle_root,
            transactions_root(std::span<const account::AccountTx>(txs)));
  // Both checked against the empty chain; only one can extend it.
  auto rival = ledger.check(make_block<account::AccountTx>(nullptr, txs, 11, 1));
  ledger.append(std::move(genesis));
  EXPECT_THROW(ledger.append(std::move(rival)), ValidationError);
  EXPECT_EQ(ledger.height(), 1u);

  // A producer learns of a backward timestamp before it packs a block.
  EXPECT_THROW(ledger.next_header(9, 1), ValidationError);
  const BlockHeader next = ledger.next_header(10, 1);
  EXPECT_EQ(next.height, 1u);
  EXPECT_EQ(next.prev_hash, ledger.tip().header.hash());
}

// A body padded with a copy of its last transaction keeps the honest
// merkle root; the ledger refuses it on the equal siblings.
TEST(Ledger, CheckRejectsDuplicatedTail) {
  const std::vector<account::AccountTx> txs = seeded_txs(5, 3);
  const auto honest = make_block<account::AccountTx>(nullptr, txs, 0, 1);
  auto padded = honest;
  padded.transactions.push_back(padded.transactions.back());
  ASSERT_EQ(transactions_root(
                std::span<const account::AccountTx>(padded.transactions)),
            honest.header.merkle_root);

  Ledger<account::AccountTx> ledger;
  EXPECT_THROW(ledger.check(padded), ValidationError);
  EXPECT_THROW(ledger.append(padded), ValidationError);
  EXPECT_EQ(ledger.height(), 0u);
  ledger.append(honest);
  EXPECT_EQ(ledger.height(), 1u);
}

TEST(Ledger, FirstBlockMustBeGenesis) {
  std::vector<account::AccountTx> txs(1);
  txs[0].from = Address::from_seed(1);
  txs[0].to = Address::from_seed(2);
  auto genesis = make_block<account::AccountTx>(nullptr, txs, 0, 1);
  auto b1 = make_block<account::AccountTx>(&genesis.header, txs, 5, 1);

  Ledger<account::AccountTx> ledger;
  EXPECT_THROW(ledger.append(b1), ValidationError);
  EXPECT_THROW(ledger.tip(), UsageError);
}

// ----------------------------------------------------------------------- PoW

TEST(Pow, TargetMonotoneInDifficulty) {
  // Difficulty 1 accepts everything.
  EXPECT_TRUE(meets_target(Hash256::from_seed(1), 1));
  // A higher difficulty accepts a subset.
  int accepted_lo = 0;
  int accepted_hi = 0;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    const Hash256 h = Hash256::from_seed(i);
    accepted_lo += meets_target(h, 4) ? 1 : 0;
    accepted_hi += meets_target(h, 64) ? 1 : 0;
  }
  EXPECT_GT(accepted_lo, accepted_hi);
  // Roughly 1/4 and 1/64 acceptance.
  EXPECT_NEAR(accepted_lo / 2000.0, 0.25, 0.05);
  EXPECT_NEAR(accepted_hi / 2000.0, 1.0 / 64, 0.02);
}

TEST(Pow, MineFindsValidNonce) {
  BlockHeader header;
  header.difficulty = 16;
  const auto nonce = mine_header(header, 100000);
  ASSERT_TRUE(nonce.has_value());
  header.nonce = *nonce;
  EXPECT_TRUE(meets_target(header.hash(), header.difficulty));
}

TEST(Pow, MineGivesUpAtBudget) {
  BlockHeader header;
  header.difficulty = ~std::uint64_t{0};  // essentially impossible
  EXPECT_FALSE(mine_header(header, 10).has_value());
}

TEST(Pow, BitcoinRetargetDirection) {
  // Blocks came twice as fast -> difficulty doubles.
  EXPECT_EQ(bitcoin_retarget(1000, 500, 1000), 2000u);
  // Twice as slow -> halves.
  EXPECT_EQ(bitcoin_retarget(1000, 2000, 1000), 500u);
  // Perfect -> unchanged.
  EXPECT_EQ(bitcoin_retarget(1000, 1000, 1000), 1000u);
}

TEST(Pow, BitcoinRetargetClampsAtFourX) {
  EXPECT_EQ(bitcoin_retarget(1000, 1, 1000), 4000u);
  EXPECT_EQ(bitcoin_retarget(1000, 1000000, 1000), 250u);
}

TEST(Pow, EthereumAdjustDirection) {
  const std::uint64_t parent = 2048 * 1000;
  // Fast block -> difficulty rises.
  EXPECT_GT(ethereum_adjust(parent, 5, 10), parent);
  // Slow block -> falls.
  EXPECT_LT(ethereum_adjust(parent, 30, 10), parent);
  // Never below 1.
  EXPECT_GE(ethereum_adjust(2, 10000, 10), 1u);
}

TEST(Pow, SimulatorIntervalMatchesExpectation) {
  PowSimulator sim(7, 100.0);  // 100 hashes/s
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    stats.add(sim.next_block_interval(60000));  // mean 600s
  }
  EXPECT_NEAR(stats.mean(), 600.0, 15.0);
}

TEST(Pow, SimulatedRetargetLoopConverges) {
  // Closed loop: hashrate fixed, difficulty retargeted every 10 blocks
  // towards a 600 s interval; the mean interval should converge.
  PowSimulator sim(11, 1000.0);
  std::uint64_t difficulty = 1000;  // start far too easy
  const std::uint64_t target_timespan = 6000;
  double last_timespan = 0.0;
  for (int epoch = 0; epoch < 40; ++epoch) {
    double timespan = 0.0;
    for (int b = 0; b < 10; ++b) {
      timespan += sim.next_block_interval(difficulty);
    }
    difficulty = bitcoin_retarget(
        difficulty, std::max<std::uint64_t>(1, static_cast<std::uint64_t>(timespan)),
        target_timespan);
    last_timespan = timespan;
  }
  EXPECT_NEAR(last_timespan, 6000.0, 4000.0);  // converged to the ballpark
  EXPECT_GT(difficulty, 100000u);              // grew towards ~600k
}

// ------------------------------------------------------------------- mempool

TEST(Mempool, TakesHighestFeeFirst) {
  Mempool<int> pool;
  pool.add(1, 10);
  pool.add(2, 30);
  pool.add(3, 20);
  const auto taken = pool.take(2);
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0], 2);
  EXPECT_EQ(taken[1], 3);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(Mempool, FifoAmongEqualFees) {
  Mempool<int> pool;
  pool.add(1, 10);
  pool.add(2, 10);
  pool.add(3, 10);
  const auto taken = pool.take(3);
  EXPECT_EQ(taken, (std::vector<int>{1, 2, 3}));
}

TEST(Mempool, TakeMoreThanAvailable) {
  Mempool<int> pool;
  pool.add(1, 5);
  const auto taken = pool.take(10);
  EXPECT_EQ(taken.size(), 1u);
  EXPECT_TRUE(pool.empty());
}

TEST(Mempool, PartialTakeKeepsOrderOfRemainder) {
  // Many ties: values 0..99 at fee 7 with fee-9 and fee-1 entries mixed
  // in. A partial take leaves a tie run cut in the middle; the next take
  // continues it in FIFO order, with later additions behind their ties.
  Mempool<int> pool;
  std::vector<int> high;
  std::vector<int> ties;
  std::vector<int> low;
  for (int i = 0; i < 100; ++i) {
    if (i % 10 == 3) {
      pool.add(1000 + i, 9);
      high.push_back(1000 + i);
    } else if (i % 10 == 6) {
      pool.add(2000 + i, 1);
      low.push_back(2000 + i);
    }
    pool.add(i, 7);
    ties.push_back(i);
  }
  const std::vector<int> first = pool.take(40);
  ASSERT_EQ(first.size(), 40u);
  std::vector<int> expected(high);
  expected.insert(expected.end(), ties.begin(), ties.begin() + 30);
  EXPECT_EQ(first, expected);
  EXPECT_EQ(pool.size(), 70u + low.size());

  pool.add(500, 7);  // joins the tie run behind the survivors
  pool.add(600, 8);  // outbids it
  const std::vector<int> second = pool.take(1000);
  expected = {600};
  expected.insert(expected.end(), ties.begin() + 30, ties.end());
  expected.push_back(500);
  expected.insert(expected.end(), low.begin(), low.end());
  EXPECT_EQ(second, expected);
  EXPECT_TRUE(pool.empty());
}

}  // namespace
}  // namespace txconc::chain
