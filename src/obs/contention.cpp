#include "obs/contention.h"

#include <algorithm>
#include <map>
#include <ostream>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/error.h"
#include "core/components.h"
#include "obs/names.h"

namespace txconc::obs {

const char* abort_reason_name(AbortReason reason) {
  switch (reason) {
    case AbortReason::kSpecConflict:
      return "spec_conflict";
    case AbortReason::kInvalidAttempt:
      return "invalid_attempt";
    case AbortReason::kFwwPoisoned:
      return "fww_poisoned";
    case AbortReason::kBlockStmEstimateAbort:
      return "estimate_abort";
    case AbortReason::kBlockStmValidationFail:
      return "validation_fail";
    case AbortReason::kCount:
      break;
  }
  return "unknown";
}

std::string_view abort_metric_name(AbortReason reason) {
  static const std::array<std::string, kNumAbortReasons> metric_names = [] {
    std::array<std::string, kNumAbortReasons> out;
    for (std::size_t r = 0; r < kNumAbortReasons; ++r) {
      out[r] = std::string(names::kMetricExecAbortPrefix) +
               abort_reason_name(static_cast<AbortReason>(r));
    }
    return out;
  }();
  return metric_names[static_cast<std::size_t>(reason)];
}

const char* touch_channel_name(TouchChannel channel) {
  switch (channel) {
    case TouchChannel::kBalance:
      return "balance";
    case TouchChannel::kNonce:
      return "nonce";
    case TouchChannel::kStorage:
      return "storage";
    case TouchChannel::kCode:
      return "code";
  }
  return "unknown";
}

// ----------------------------------------------------------------- sink

TXCONC_HOT ContentionSink::Lane& ContentionSink::lane() {
  const std::size_t h =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return lanes_[h % kLanes];
}

TXCONC_HOT void ContentionSink::record_touches(
    std::span<const account::SlotAccess> reads,
    std::span<const account::SlotAccess> writes) {
  Lane& mine = lane();
  MutexLock lock(mine.mu);
  for (const account::SlotAccess& r : reads) ++mine.touches[touch_key(r)];
  for (const account::SlotAccess& w : writes) ++mine.touches[touch_key(w)];
}

TXCONC_HOT void ContentionSink::record_abort(AbortReason reason,
                                             const TouchKey& key) {
  Lane& mine = lane();
  MutexLock lock(mine.mu);
  const auto r = static_cast<std::size_t>(reason);
  ++mine.abort_tally[r];
  ++mine.aborts[key][r];
}

TXCONC_HOT void ContentionSink::record_abort(AbortReason reason) {
  Lane& mine = lane();
  MutexLock lock(mine.mu);
  ++mine.abort_tally[static_cast<std::size_t>(reason)];
}

void ContentionSink::begin_block() {
  for (Lane& lane : lanes_) {
    MutexLock lock(lane.mu);
    lane.touches.clear();
    lane.aborts.clear();
    lane.abort_tally = {};
  }
  merged_touches_.clear();
  merged_aborts_.clear();
  merged_abort_totals_ = {};
  merged_total_touches_ = 0;
}

void ContentionSink::finish_block() {
  merged_touches_.clear();
  merged_aborts_.clear();
  merged_abort_totals_ = {};
  merged_total_touches_ = 0;
  for (Lane& lane : lanes_) {
    MutexLock lock(lane.mu);
    lane.touches.for_each([&](const TouchKey& key, std::uint64_t count) {
      merged_touches_[key] += count;
      merged_total_touches_ += count;
    });
    lane.aborts.for_each([&](const TouchKey& key, const AbortCounts& counts) {
      AbortCounts& merged = merged_aborts_[key];
      for (std::size_t r = 0; r < kNumAbortReasons; ++r) merged[r] += counts[r];
    });
    for (std::size_t r = 0; r < kNumAbortReasons; ++r) {
      merged_abort_totals_[r] += lane.abort_tally[r];
    }
  }
}

// ------------------------------------------------------------- observer

void ContentionObserver::begin_block(
    std::span<const account::AccountTx> txs) {
  txs_ = txs;
  predicted_.assign(txs.size(), {});
  has_prediction_ = false;
  sink_.begin_block();
}

void ContentionObserver::set_predicted(std::size_t tx_index,
                                       std::span<const Address> closure) {
  if (tx_index >= predicted_.size()) {
    throw UsageError("ContentionObserver::set_predicted: tx out of range");
  }
  predicted_[tx_index].assign(closure.begin(), closure.end());
  has_prediction_ = true;
}

void ContentionObserver::on_begin(const account::AccountTx&) const {}

void ContentionObserver::on_complete(const account::AccountTx&,
                                     const account::Receipt& receipt) const {
  sink_.record_touches(receipt.reads, receipt.writes);
}

namespace {

std::uint64_t total_of(const AbortCounts& counts) {
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  return total;
}

/// Descending count, ties by ascending key: a total order, so the ranking
/// depends on the counts alone.
void rank(std::vector<HotKey>& keys) {
  std::sort(keys.begin(), keys.end(), [](const HotKey& a, const HotKey& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.key < b.key;
  });
}

}  // namespace

BlockContention ContentionObserver::finish_block(
    std::span<const account::Receipt> receipts) {
  if (receipts.size() != txs_.size()) {
    throw UsageError("ContentionObserver::finish_block: receipt count "
                     "mismatch (pass the report's final receipts)");
  }
  sink_.finish_block();

  BlockContention block;
  const std::size_t n = txs_.size();
  block.num_txs = n;

  // --- measured conflicts, storage-slot granularity -----------------
  // Transactions conflict when they touch the same (address, slot) and at
  // least one writes. Union every accessor with the slot's first writer;
  // same partition as analysis::analyze_account_block_slots, computed
  // independently from the sink side of the loop.
  {
    core::DisjointSets dsu(n);
    std::unordered_map<account::SlotAccess, std::uint32_t,
                       account::SlotAccessHash>
        first_writer;
    for (std::uint32_t i = 0; i < n; ++i) {
      for (const account::SlotAccess& w : receipts[i].writes) {
        auto [it, fresh] = first_writer.emplace(w, i);
        if (!fresh) dsu.merge(it->second, i);
      }
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      for (const account::SlotAccess& r : receipts[i].reads) {
        auto it = first_writer.find(r);
        if (it != first_writer.end()) dsu.merge(it->second, i);
      }
    }
    std::unordered_map<std::size_t, std::size_t> component_size;
    for (std::size_t i = 0; i < n; ++i) ++component_size[dsu.find(i)];
    std::map<std::size_t, std::size_t> histogram;  // size -> component count
    for (const auto& [root, size] : component_size) {
      (void)root;
      ++histogram[size];
      block.lcc_txs = std::max(block.lcc_txs, size);
      if (size >= 2) block.conflicted_txs += size;
    }
    block.num_components = component_size.size();
    for (const auto& [size, count] : histogram) {
      block.component_histogram.push_back(ComponentBucket{size, count});
    }
    if (n > 0) {
      block.measured_c =
          static_cast<double>(block.conflicted_txs) / static_cast<double>(n);
      block.measured_l =
          static_cast<double>(block.lcc_txs) / static_cast<double>(n);
    }
  }

  // --- measured conflicts, address granularity (the paper's TDG) ----
  // Same edge rules as analysis::build_account_tdg: sender -> receiver
  // (creations edge to the deployed address) plus every internal tx.
  {
    std::unordered_map<Address, std::size_t> id_of;
    core::DisjointSets dsu(0);
    auto intern = [&](const Address& a) {
      auto [it, fresh] = id_of.emplace(a, dsu.size());
      if (fresh) dsu.add();
      return it->second;
    };
    std::vector<std::size_t> sender_node(n);
    for (std::size_t i = 0; i < n; ++i) {
      const account::AccountTx& tx = txs_[i];
      Address to;
      if (tx.to.has_value()) {
        to = *tx.to;
      } else if (receipts[i].created.has_value()) {
        to = *receipts[i].created;
      } else {
        to = Address::derive_contract(tx.from, tx.nonce);
      }
      sender_node[i] = intern(tx.from);
      dsu.merge(sender_node[i], intern(to));
      for (const account::InternalTx& itx : receipts[i].internal_txs) {
        dsu.merge(intern(itx.from), intern(itx.to));
      }
    }
    std::unordered_map<std::size_t, std::size_t> txs_per_component;
    for (std::size_t i = 0; i < n; ++i) {
      ++txs_per_component[dsu.find(sender_node[i])];
    }
    std::size_t conflicted = 0;
    std::size_t lcc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t members = txs_per_component[dsu.find(sender_node[i])];
      if (members >= 2) ++conflicted;
      lcc = std::max(lcc, members);
    }
    if (n > 0) {
      block.measured_c_address =
          static_cast<double>(conflicted) / static_cast<double>(n);
      block.measured_l_address =
          static_cast<double>(lcc) / static_cast<double>(n);
    }
  }

  // --- prediction quality -------------------------------------------
  if (has_prediction_) {
    block.has_prediction = true;
    std::unordered_set<Address> predicted;
    std::unordered_set<Address> observed;
    for (std::size_t i = 0; i < n; ++i) {
      predicted.clear();
      observed.clear();
      for (const Address& a : predicted_[i]) predicted.insert(a);
      for (const account::SlotAccess& r : receipts[i].reads) {
        observed.insert(r.address);
      }
      for (const account::SlotAccess& w : receipts[i].writes) {
        observed.insert(w.address);
      }
      block.predicted_addresses += predicted.size();
      block.observed_addresses += observed.size();
      for (const Address& a : observed) {
        if (predicted.count(a) != 0) ++block.overlap_addresses;
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

  // --- per-key counts -----------------------------------------------
  block.total_touches = sink_.total_touches();
  sink_.touches().for_each([&](const TouchKey& key, std::uint64_t count) {
    block.hot_keys.push_back(HotKey{key, count, {}});
  });
  rank(block.hot_keys);
  sink_.aborts().for_each([&](const TouchKey& key, const AbortCounts& counts) {
    block.abort_keys.push_back(HotKey{key, total_of(counts), counts});
  });
  rank(block.abort_keys);
  block.sink_abort_totals = sink_.abort_totals();
  return block;
}

// ------------------------------------------------------------ rendering

namespace {

std::string key_label(const TouchKey& key) {
  std::string out = key.addr.short_hex();
  out += ' ';
  out += touch_channel_name(key.channel);
  if (key.channel == TouchChannel::kStorage) {
    out += '[';
    out += std::to_string(key.slot);
    out += ']';
  }
  return out;
}

void write_reason_json(std::ostream& out, const AbortCounts& counts) {
  out << '{';
  bool first = true;
  for (std::size_t r = 0; r < kNumAbortReasons; ++r) {
    if (counts[r] == 0) continue;
    if (!first) out << ',';
    first = false;
    out << '"' << abort_reason_name(static_cast<AbortReason>(r)) << "\":"
        << counts[r];
  }
  out << '}';
}

void write_keys_json(std::ostream& out, const std::vector<HotKey>& keys,
                     std::size_t top_k) {
  out << '[';
  for (std::size_t i = 0; i < keys.size() && i < top_k; ++i) {
    if (i != 0) out << ',';
    const HotKey& k = keys[i];
    out << "{\"addr\":\"" << k.key.addr.to_hex() << "\",\"channel\":\""
        << touch_channel_name(k.key.channel) << "\",\"slot\":" << k.key.slot
        << ",\"count\":" << k.count << ",\"reasons\":";
    write_reason_json(out, k.reasons);
    out << '}';
  }
  out << ']';
}

}  // namespace

void write_text(std::ostream& out, const BlockContention& block,
                std::size_t top_k) {
  out << "block: " << block.num_txs << " txs\n";
  out << "measured conflict rates (slot granularity): c="
      << block.measured_c << " l=" << block.measured_l << " ("
      << block.conflicted_txs << " conflicted, lcc " << block.lcc_txs
      << " txs, " << block.num_components << " components)\n";
  out << "measured conflict rates (address TDG):      c="
      << block.measured_c_address << " l=" << block.measured_l_address
      << "\n";
  out << "component histogram:";
  for (const ComponentBucket& b : block.component_histogram) {
    out << ' ' << b.size << "x" << b.count;
  }
  out << '\n';
  if (block.has_prediction) {
    out << "prediction quality: precision=" << block.precision
        << " recall=" << block.recall << " over_approx=" << block.over_approx
        << " (predicted " << block.predicted_addresses << ", observed "
        << block.observed_addresses << ", overlap "
        << block.overlap_addresses << ")\n";
  } else {
    out << "prediction quality: (no predicted closures loaded)\n";
  }
  out << "aborts: " << total_of(block.engine_abort_totals)
      << " reported by the engine";
  bool any = false;
  for (std::size_t r = 0; r < kNumAbortReasons; ++r) {
    if (block.engine_abort_totals[r] == 0) continue;
    out << (any ? ", " : " — ")
        << abort_reason_name(static_cast<AbortReason>(r)) << ' '
        << block.engine_abort_totals[r];
    any = true;
  }
  out << '\n';
  out << "hot keys (top " << std::min(top_k, block.hot_keys.size()) << " of "
      << block.total_touches << " touches):\n";
  for (std::size_t i = 0; i < block.hot_keys.size() && i < top_k; ++i) {
    const HotKey& k = block.hot_keys[i];
    out << "  " << key_label(k.key) << "  " << k.count << '\n';
  }
  if (!block.abort_keys.empty()) {
    out << "abort attribution (top "
        << std::min(top_k, block.abort_keys.size()) << "):\n";
    for (std::size_t i = 0; i < block.abort_keys.size() && i < top_k; ++i) {
      const HotKey& k = block.abort_keys[i];
      out << "  " << key_label(k.key) << "  " << k.count << "  ";
      bool first = true;
      for (std::size_t r = 0; r < kNumAbortReasons; ++r) {
        if (k.reasons[r] == 0) continue;
        if (!first) out << ", ";
        first = false;
        out << abort_reason_name(static_cast<AbortReason>(r)) << ' '
            << k.reasons[r];
      }
      out << '\n';
    }
  }
}

void write_json(std::ostream& out, const BlockContention& block,
                std::size_t top_k) {
  out << "{\"num_txs\":" << block.num_txs
      << ",\"measured_c\":" << block.measured_c
      << ",\"measured_l\":" << block.measured_l
      << ",\"conflicted_txs\":" << block.conflicted_txs
      << ",\"lcc_txs\":" << block.lcc_txs
      << ",\"num_components\":" << block.num_components
      << ",\"measured_c_address\":" << block.measured_c_address
      << ",\"measured_l_address\":" << block.measured_l_address
      << ",\"component_histogram\":[";
  for (std::size_t i = 0; i < block.component_histogram.size(); ++i) {
    if (i != 0) out << ',';
    out << "{\"size\":" << block.component_histogram[i].size
        << ",\"count\":" << block.component_histogram[i].count << '}';
  }
  out << "],\"prediction\":{\"available\":"
      << (block.has_prediction ? "true" : "false")
      << ",\"precision\":" << block.precision
      << ",\"recall\":" << block.recall
      << ",\"over_approx\":" << block.over_approx
      << ",\"predicted_addresses\":" << block.predicted_addresses
      << ",\"observed_addresses\":" << block.observed_addresses
      << ",\"overlap_addresses\":" << block.overlap_addresses << '}'
      << ",\"total_touches\":" << block.total_touches
      << ",\"engine_abort_totals\":";
  write_reason_json(out, block.engine_abort_totals);
  out << ",\"sink_abort_totals\":";
  write_reason_json(out, block.sink_abort_totals);
  out << ",\"hot_keys\":";
  write_keys_json(out, block.hot_keys, top_k);
  out << ",\"abort_keys\":";
  write_keys_json(out, block.abort_keys, top_k);
  out << '}';
}

}  // namespace txconc::obs
