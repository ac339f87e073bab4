#include "shard/sharding.h"

#include <algorithm>

#include "common/error.h"
#include "obs/scope.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace txconc::shard {

unsigned shard_of(const Address& sender, unsigned num_shards) {
  if (num_shards == 0) throw UsageError("shard_of: no shards");
  return static_cast<unsigned>(sender.low64() % num_shards);
}

bool is_cross_shard(const account::AccountTx& tx, unsigned num_shards) {
  if (!tx.to.has_value()) return false;
  return shard_of(tx.from, num_shards) != shard_of(*tx.to, num_shards);
}

ZilliqaSimulator::ZilliqaSimulator(std::uint64_t seed, ShardConfig config)
    : config_(config),
      ds_committee_(seed ^ 0xd5d5d5d5ULL, config.pbft) {
  if (config_.num_shards == 0) {
    throw UsageError("ZilliqaSimulator: need at least one shard");
  }
  for (unsigned s = 0; s < config_.num_shards; ++s) {
    committees_.emplace_back(seed + s, config_.pbft);
  }
}

EpochResult ZilliqaSimulator::run_epoch(
    std::vector<account::AccountTx> pending, const obs::TraceContext& trace) {
  const MutexLock lock(mu_);
  obs::Tracer* tracer = obs::tracer(config_.pbft.obs);
  if (tracer == nullptr) tracer = &obs::Tracer::global();
  const obs::CausalSpan epoch_span(
      tracer, obs::names::kSpanEpoch, obs::names::kCatShard, trace,
      static_cast<std::int64_t>(pending.size()));
  EpochResult result;
  result.micro_blocks.resize(config_.num_shards);
  for (unsigned s = 0; s < config_.num_shards; ++s) {
    result.micro_blocks[s].shard = s;
  }

  // Partition by sender committee; reject cross-shard, enforce capacity.
  for (auto& tx : pending) {
    if (is_cross_shard(tx, config_.num_shards)) {
      result.rejected_cross_shard.push_back(std::move(tx));
      continue;
    }
    MicroBlock& micro = result.micro_blocks[shard_of(tx.from, config_.num_shards)];
    if (micro.transactions.size() >= config_.shard_capacity) {
      result.deferred.push_back(std::move(tx));
      continue;
    }
    micro.transactions.push_back(std::move(tx));
  }

  // Each committee reaches consensus on its micro-block in parallel; the
  // epoch waits for the slowest one.
  double slowest = 0.0;
  for (MicroBlock& micro : result.micro_blocks) {
    micro.consensus = committees_[micro.shard].run_round(epoch_span.context());
    slowest = std::max(slowest, micro.consensus.latency_seconds);
    result.total_messages += micro.consensus.messages;
  }

  // The DS committee aggregates the micro-blocks into the final block.
  const PbftOutcome ds = ds_committee_.run_round(epoch_span.context());
  result.total_messages += ds.messages;
  result.latency_seconds =
      slowest + ds.latency_seconds + config_.state_sync_latency;

  for (const MicroBlock& micro : result.micro_blocks) {
    result.final_block.insert(result.final_block.end(),
                              micro.transactions.begin(),
                              micro.transactions.end());
  }
  obs::Registry* registry = obs::metrics(config_.pbft.obs);
  if (registry == nullptr && obs::Tracer::global().enabled()) {
    registry = &obs::Registry::global();
  }
  if (registry != nullptr) {
    registry->counter(obs::names::kMetricShardEpochs).add(1);
    registry->counter(obs::names::kMetricShardMessages).add(result.total_messages);
    registry->counter(obs::names::kMetricShardRejectedCrossShard)
        .add(result.rejected_cross_shard.size());
    registry->counter(obs::names::kMetricShardFinalBlockTxs).add(result.final_block.size());
    registry->histogram(obs::names::kMetricShardEpochLatencyS)
        .observe(result.latency_seconds);
  }
  return result;
}

}  // namespace txconc::shard
