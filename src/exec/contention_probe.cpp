#include "exec/contention_probe.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "analysis/block_analyzer.h"
#include "common/error.h"
#include "core/components.h"
#include "core/metrics.h"
#include "exec/predict.h"

namespace txconc::exec {

void score_prediction(std::span<const std::vector<Address>> predicted,
                      std::span<const account::Receipt> receipts,
                      obs::BlockContention& block) {
  if (predicted.size() != receipts.size()) {
    throw UsageError("score_prediction: closure count mismatch");
  }
  std::unordered_set<Address> closure;
  std::unordered_set<Address> observed;
  for (std::size_t i = 0; i < receipts.size(); ++i) {
    closure.clear();
    observed.clear();
    closure.insert(predicted[i].begin(), predicted[i].end());
    for (const account::SlotAccess& r : receipts[i].reads) {
      observed.insert(r.address);
    }
    for (const account::SlotAccess& w : receipts[i].writes) {
      observed.insert(w.address);
    }
    block.predicted_addresses += closure.size();
    block.observed_addresses += observed.size();
    for (const Address& a : observed) {
      if (closure.count(a) != 0) ++block.overlap_addresses;
    }
  }
  if (block.predicted_addresses > 0) {
    block.precision = static_cast<double>(block.overlap_addresses) /
                      static_cast<double>(block.predicted_addresses);
  }
  if (block.observed_addresses > 0) {
    block.recall = static_cast<double>(block.overlap_addresses) /
                   static_cast<double>(block.observed_addresses);
    block.over_approx = static_cast<double>(block.predicted_addresses) /
                        static_cast<double>(block.observed_addresses);
  }
}

void ContentionProbe::before_block(std::span<const account::AccountTx> txs,
                                   const account::StateDb& state) {
  txs_ = txs;
  predicted_.clear();
  for (const account::AccountTx& tx : txs) {
    predicted_.push_back(predicted_addresses(tx, state));
  }
  sink_.begin_block();
}

void ContentionProbe::on_begin(const account::AccountTx&) const {}

void ContentionProbe::on_complete(const account::AccountTx&,
                                  const account::Receipt& receipt) const {
  sink_.record_touches(receipt.reads, receipt.writes);
}

namespace {

/// Descending count, ties by ascending key: a total order, so the ranking
/// depends on the counts alone.
void rank(std::vector<obs::HotKey>& keys) {
  std::sort(keys.begin(), keys.end(),
            [](const obs::HotKey& a, const obs::HotKey& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.key < b.key;
            });
}

}  // namespace

void ContentionProbe::after_block(const ExecutionReport& report) {
  const std::span<const account::Receipt> receipts = report.receipts;
  if (receipts.size() != txs_.size()) {
    throw UsageError("ContentionProbe::after_block: receipt count mismatch");
  }
  sink_.finish_block();
  obs::BlockContention block;
  block.num_txs = txs_.size();

  const core::ComponentSet slots = analysis::account_slot_components(receipts);
  const core::ConflictStats slot_stats = core::utxo_conflict_stats(slots);
  block.conflicted_txs = slot_stats.conflicted_transactions;
  block.lcc_txs = slot_stats.lcc_transactions;
  block.num_components = slot_stats.num_components;
  block.measured_c = slot_stats.single_rate();
  block.measured_l = slot_stats.group_rate();
  std::vector<std::size_t> sizes = slots.sizes();
  std::sort(sizes.begin(), sizes.end());
  for (const std::size_t size : sizes) {
    if (block.component_histogram.empty() ||
        block.component_histogram.back().size != size) {
      block.component_histogram.push_back(obs::ComponentBucket{size, 0});
    }
    ++block.component_histogram.back().count;
  }

  const core::ConflictStats address =
      analysis::analyze_account_block(txs_, receipts);
  block.measured_c_address = address.single_rate();
  block.measured_l_address = address.group_rate();

  score_prediction(predicted_, receipts, block);

  block.total_touches = sink_.total_touches();
  sink_.touches().for_each([&](const obs::TouchKey& key, std::uint64_t count) {
    block.hot_keys.push_back(obs::HotKey{key, count, {}});
  });
  rank(block.hot_keys);
  sink_.aborts().for_each(
      [&](const obs::TouchKey& key, const obs::AbortCounts& counts) {
        const std::uint64_t total =
            std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
        block.abort_keys.push_back(obs::HotKey{key, total, counts});
      });
  rank(block.abort_keys);
  block.sink_abort_totals = sink_.abort_totals();
  block.engine_abort_totals = report.abort_reasons;
  blocks_.push_back(std::move(block));
}

}  // namespace txconc::exec
