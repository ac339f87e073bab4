// Zilliqa-style network sharding.
//
// "[Zilliqa] employs network sharding which assigns nodes to small
// committees ... transactions are processed independently at different
// committees that are selected based on the senders' addresses. A major
// limitation of Zilliqa is that it does not support cross-shard
// transactions." — paper, Section II-B.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "account/types.h"
#include "common/thread_annotations.h"
#include "shard/pbft.h"

namespace txconc::shard {

/// Static sharding parameters.
struct ShardConfig {
  unsigned num_shards = 4;
  PbftConfig pbft;
  /// Maximum transactions per micro-block per epoch.
  std::size_t shard_capacity = 1000;
  /// Extra delay for cross-committee state synchronization ("it needs to
  /// wait for state synchronization between committees before transactions
  /// are confirmed").
  double state_sync_latency = 5.0;
};

/// Committee of a sender: the low bits of the address, as in Zilliqa.
unsigned shard_of(const Address& sender, unsigned num_shards);

/// A transaction is cross-shard when sender and receiver map to different
/// committees (creations count as same-shard: the new address is derived
/// but processed at the sender's committee).
bool is_cross_shard(const account::AccountTx& tx, unsigned num_shards);

/// The per-committee slice of an epoch's final block.
struct MicroBlock {
  unsigned shard = 0;
  std::vector<account::AccountTx> transactions;
  PbftOutcome consensus;
};

/// Outcome of one Zilliqa epoch.
struct EpochResult {
  std::vector<MicroBlock> micro_blocks;
  /// The DS-committee aggregation of all micro-blocks, in shard order.
  std::vector<account::AccountTx> final_block;
  /// Transactions rejected because they were cross-shard.
  std::vector<account::AccountTx> rejected_cross_shard;
  /// Transactions deferred because their shard was at capacity.
  std::vector<account::AccountTx> deferred;
  /// Wall-clock estimate: slowest committee + DS round + state sync.
  double latency_seconds = 0.0;
  std::uint64_t total_messages = 0;
};

/// Simulates Zilliqa epochs: partition by sender shard, run PBFT per
/// committee, aggregate micro-blocks, reject cross-shard traffic.
///
/// Thread-safe monitor: run_epoch() serializes on an internal mutex.
/// Epochs form one logical sequence — each committee's PBFT rounds must be
/// drawn in epoch order for per-seed determinism, so concurrent callers
/// may not interleave inside an epoch. The committees live in a deque
/// because PbftSimulator owns a Mutex and is therefore immovable.
class ZilliqaSimulator {
 public:
  ZilliqaSimulator(std::uint64_t seed, ShardConfig config);

  /// `trace` joins the epoch span (and every committee/DS round under it)
  /// to the caller's causal story (see obs/context.h).
  EpochResult run_epoch(std::vector<account::AccountTx> pending,
                        const obs::TraceContext& trace = {});

  const ShardConfig& config() const { return config_; }

 private:
  mutable Mutex mu_;
  ShardConfig config_;  // immutable after construction
  std::deque<PbftSimulator> committees_ GUARDED_BY(mu_);
  PbftSimulator ds_committee_ GUARDED_BY(mu_);
};

}  // namespace txconc::shard
