// Tests for the Zilliqa-style sharding substrate.
#include <gtest/gtest.h>

#include "common/error.h"
#include "shard/pbft.h"
#include "shard/sharding.h"

namespace txconc::shard {
namespace {

account::AccountTx tx_between(std::uint64_t from_seed, std::uint64_t to_seed) {
  account::AccountTx tx;
  tx.from = Address::from_seed(from_seed);
  tx.to = Address::from_seed(to_seed);
  return tx;
}

// ---------------------------------------------------------------------- pbft

TEST(Pbft, MessageCountQuadratic) {
  // (n-1) + 2n(n-1)
  EXPECT_EQ(pbft_message_count(4), 3u + 24u);
  EXPECT_EQ(pbft_message_count(10), 9u + 180u);
  // Quadratic growth: 10x nodes -> ~100x messages.
  EXPECT_GT(pbft_message_count(100), 50 * pbft_message_count(10));
}

TEST(Pbft, EmptyCommitteeRejected) {
  EXPECT_THROW(pbft_message_count(0), UsageError);
}

TEST(Pbft, RoundLatencyIsThreePhases) {
  PbftConfig config;
  config.message_latency = 0.5;
  EXPECT_DOUBLE_EQ(pbft_round_latency(config), 1.5);
}

TEST(Pbft, FaultFreeRoundDeterministic) {
  PbftConfig config;
  config.committee_size = 10;
  config.faulty_leader_probability = 0.0;
  PbftSimulator sim(1, config);
  const PbftOutcome outcome = sim.run_round();
  EXPECT_EQ(outcome.view_changes, 0u);
  EXPECT_DOUBLE_EQ(outcome.latency_seconds, pbft_round_latency(config));
  EXPECT_EQ(outcome.messages, pbft_message_count(10));
}

TEST(Pbft, FaultyLeadersCauseViewChanges) {
  PbftConfig config;
  config.committee_size = 10;
  config.faulty_leader_probability = 0.5;
  PbftSimulator sim(1, config);
  std::size_t total_view_changes = 0;
  for (int i = 0; i < 2000; ++i) {
    total_view_changes += sim.run_round().view_changes;
  }
  // Expected view changes per round: p/(1-p) = 1.
  EXPECT_NEAR(total_view_changes / 2000.0, 1.0, 0.15);
}

TEST(Pbft, RejectsBadConfig) {
  PbftConfig too_small;
  too_small.committee_size = 3;
  EXPECT_THROW(PbftSimulator(1, too_small), UsageError);

  PbftConfig bad_prob;
  bad_prob.faulty_leader_probability = 1.0;
  EXPECT_THROW(PbftSimulator(1, bad_prob), UsageError);
}

// ------------------------------------------------------------------ sharding

TEST(Sharding, AssignmentDeterministicAndInRange) {
  for (std::uint64_t s = 0; s < 100; ++s) {
    const Address a = Address::from_seed(s);
    const unsigned shard = shard_of(a, 4);
    EXPECT_LT(shard, 4u);
    EXPECT_EQ(shard, shard_of(a, 4));
  }
  EXPECT_THROW(shard_of(Address::from_seed(1), 0), UsageError);
}

TEST(Sharding, AssignmentRoughlyBalanced) {
  std::vector<int> counts(4, 0);
  for (std::uint64_t s = 0; s < 4000; ++s) {
    ++counts[shard_of(Address::from_seed(s), 4)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, 1000, 150);
  }
}

TEST(Sharding, CrossShardDetection) {
  // Find two addresses in the same shard and two in different shards.
  const Address a = Address::from_seed(1);
  Address same;
  Address different;
  for (std::uint64_t s = 2;; ++s) {
    const Address b = Address::from_seed(s);
    if (shard_of(b, 4) == shard_of(a, 4)) {
      same = b;
      break;
    }
  }
  for (std::uint64_t s = 2;; ++s) {
    const Address b = Address::from_seed(s);
    if (shard_of(b, 4) != shard_of(a, 4)) {
      different = b;
      break;
    }
  }
  account::AccountTx intra;
  intra.from = a;
  intra.to = same;
  EXPECT_FALSE(is_cross_shard(intra, 4));

  account::AccountTx cross;
  cross.from = a;
  cross.to = different;
  EXPECT_TRUE(is_cross_shard(cross, 4));

  account::AccountTx creation;
  creation.from = a;
  EXPECT_FALSE(is_cross_shard(creation, 4));
}

class ZilliqaTest : public ::testing::Test {
 protected:
  ShardConfig config() {
    ShardConfig c;
    c.num_shards = 4;
    c.pbft.committee_size = 10;
    c.pbft.message_latency = 0.1;
    c.shard_capacity = 100;
    c.state_sync_latency = 5.0;
    return c;
  }
};

TEST_F(ZilliqaTest, PartitionsBySenderAndRejectsCrossShard) {
  ZilliqaSimulator sim(1, config());
  std::vector<account::AccountTx> pending;
  for (std::uint64_t s = 0; s < 200; ++s) {
    pending.push_back(tx_between(s, s + 1000));
  }
  const std::size_t total = pending.size();
  const EpochResult result = sim.run_epoch(std::move(pending));

  // Every transaction is either accepted, rejected, or deferred.
  EXPECT_EQ(result.final_block.size() + result.rejected_cross_shard.size() +
                result.deferred.size(),
            total);
  // Roughly 3/4 of random transactions are cross-shard with 4 committees.
  EXPECT_NEAR(static_cast<double>(result.rejected_cross_shard.size()) / total,
              0.75, 0.12);

  // Accepted transactions sit in their sender's micro-block.
  for (const MicroBlock& micro : result.micro_blocks) {
    for (const auto& tx : micro.transactions) {
      EXPECT_EQ(shard_of(tx.from, 4), micro.shard);
      EXPECT_FALSE(is_cross_shard(tx, 4));
    }
  }
  // Latency includes consensus and the state-sync penalty.
  EXPECT_GT(result.latency_seconds, 5.0);
  EXPECT_GT(result.total_messages, 0u);
}

TEST_F(ZilliqaTest, CapacityDefersOverflow) {
  ShardConfig c = config();
  c.shard_capacity = 5;
  ZilliqaSimulator sim(1, c);

  // Many same-shard transactions from one sender.
  const Address sender = Address::from_seed(1);
  Address same_shard_receiver;
  for (std::uint64_t s = 2;; ++s) {
    if (shard_of(Address::from_seed(s), 4) == shard_of(sender, 4)) {
      same_shard_receiver = Address::from_seed(s);
      break;
    }
  }
  std::vector<account::AccountTx> pending(20);
  for (auto& tx : pending) {
    tx.from = sender;
    tx.to = same_shard_receiver;
  }
  const EpochResult result = sim.run_epoch(std::move(pending));
  EXPECT_EQ(result.final_block.size(), 5u);
  EXPECT_EQ(result.deferred.size(), 15u);
  EXPECT_TRUE(result.rejected_cross_shard.empty());
}

TEST_F(ZilliqaTest, MoreShardsRaiseAggregateThroughputCeiling) {
  // With the same per-shard capacity, more committees accept more of a
  // same-shard-friendly workload.
  ShardConfig c2 = config();
  c2.num_shards = 2;
  c2.shard_capacity = 10;
  ShardConfig c8 = config();
  c8.num_shards = 8;
  c8.shard_capacity = 10;

  std::vector<account::AccountTx> pending;
  for (std::uint64_t s = 0; s < 400; ++s) {
    // Same-shard under any power-of-two shard count: to == from.
    account::AccountTx tx;
    tx.from = Address::from_seed(s);
    tx.to = tx.from;
    pending.push_back(tx);
  }
  ZilliqaSimulator sim2(1, c2);
  ZilliqaSimulator sim8(1, c8);
  const auto r2 = sim2.run_epoch(pending);
  const auto r8 = sim8.run_epoch(pending);
  EXPECT_EQ(r2.final_block.size(), 20u);
  EXPECT_EQ(r8.final_block.size(), 80u);
}

}  // namespace
}  // namespace txconc::shard
