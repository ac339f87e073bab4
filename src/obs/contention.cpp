#include "obs/contention.h"

#include <algorithm>
#include <numeric>
#include <ostream>
#include <thread>

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
  out << "prediction quality: precision=" << block.precision
      << " recall=" << block.recall << " over_approx=" << block.over_approx
      << " (predicted " << block.predicted_addresses << ", observed "
      << block.observed_addresses << ", overlap " << block.overlap_addresses
      << ")\n";
  out << "aborts: "
      << std::accumulate(block.engine_abort_totals.begin(),
                         block.engine_abort_totals.end(), std::uint64_t{0})
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
  out << "],\"prediction\":{\"precision\":" << block.precision
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
