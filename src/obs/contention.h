// Contention explainer: measured conflict telemetry, hot-key attribution
// and prediction-quality metrics (DESIGN.md §17).
//
// The paper's argument rests on two measured quantities — the single-
// transaction conflict rate `c` and the group conflict rate `l` — but the
// runtime only ever sees their *predicted* versions. This layer holds
// what the engines need through obs::Scope to close that loop: the
// uniform abort taxonomy, the (address, slot, channel) touch keys, the
// lane-sharded sink that counts every execution attempt's observed
// touches and the keys engines attribute their aborts to (speculative
// conflicts, fww poisonings, Block-STM estimate-aborts / validation
// failures), the per-block BlockContention report and its two writers.
// exec::ContentionProbe (exec/contention_probe.h) drives the sink per
// block and fills the report: measured `c`, `l` and the component-size
// histogram through the analysis layer's TDGs, and the quality of
// `exec::predicted_addresses` closures (precision / recall /
// over-approximation).
//
// Layering: this header depends on common + account only.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "account/state.h"
#include "account/types.h"
#include "common/flat_table.h"
#include "common/hash.h"
#include "common/hot_path.h"
#include "common/thread_annotations.h"

namespace txconc::obs {

// ------------------------------------------------------------ taxonomy

/// Why an execution attempt's work was discarded, uniform across engines.
/// Extending: add the enumerator before kCount, name it in
/// abort_reason_name(), record it at the engine's abort site (report +
/// sink), and the exec.abort.* counters, trace instants, CLI breakdowns
/// and bench artifact pick it up automatically — see DESIGN.md §17.4.
enum class AbortReason : std::uint8_t {
  /// speculative(all-conflicted): tx touched a slot with a writer and
  /// another accessor in phase 1, so it joins the sequential bin.
  kSpecConflict = 0,
  /// speculative: the attempt failed validity (stale nonce/balance); its
  /// predicted component is poisoned into the sequential bin.
  kInvalidAttempt,
  /// speculative(first-writer-wins): tx read or wrote a slot already
  /// committed or poisoned by an earlier transaction.
  kFwwPoisoned,
  /// block-stm: a read hit an ESTIMATE marker and the attempt suspended
  /// or restarted behind the blocking transaction.
  kBlockStmEstimateAbort,
  /// block-stm: read-set validation observed a different version than
  /// the attempt read; the incarnation is discarded.
  kBlockStmValidationFail,
  kCount,
};

inline constexpr std::size_t kNumAbortReasons =
    static_cast<std::size_t>(AbortReason::kCount);

/// Stable snake_case identifier ("spec_conflict", ...); doubles as the
/// exec.abort.<name> counter suffix and the JSON key.
const char* abort_reason_name(AbortReason reason);

/// The reason's registry counter, names::kMetricExecAbortPrefix +
/// abort_reason_name() (e.g. "exec.abort.spec_conflict"), from a table
/// built on the first call.
std::string_view abort_metric_name(AbortReason reason);

/// Per-reason abort tallies, indexed by AbortReason.
using AbortCounts = std::array<std::uint64_t, kNumAbortReasons>;

// ------------------------------------------------------------ touch keys

/// Which facet of an account a touch hit. The same split keys Block-STM's
/// multi-version store (exec/block_stm.h), whose keys are TouchKeys.
enum class TouchChannel : std::uint8_t {
  kBalance = 0,
  kNonce,
  kStorage,
  kCode,
};

const char* touch_channel_name(TouchChannel channel);

/// One counted key: the (address, slot, channel) triple engines
/// conflict on.
struct TouchKey {
  Address addr;
  std::uint64_t slot = 0;
  TouchChannel channel = TouchChannel::kStorage;

  auto operator<=>(const TouchKey&) const = default;
};

struct TouchKeyHash {
  std::size_t operator()(const TouchKey& k) const noexcept {
    std::size_t seed = std::hash<Address>{}(k.addr);
    std::uint64_t v =
        k.slot ^ (static_cast<std::uint64_t>(k.channel) << 56);
    v ^= v >> 30;
    v *= 0xbf58476d1ce4e5b9ULL;
    v ^= v >> 27;
    v *= 0x94d049bb133111ebULL;
    v ^= v >> 31;
    seed ^= static_cast<std::size_t>(v) + 0x9e3779b97f4a7c15ULL +
            (seed << 6) + (seed >> 2);
    return seed;
  }
};

/// Map one recorded storage-layer access to its touch key (the
/// tracker's balance sentinel, AccessTracker::kBalanceKey, becomes the
/// balance channel).
inline TouchKey touch_key(const account::SlotAccess& access) {
  if (access.key == account::AccessTracker::kBalanceKey) {
    return TouchKey{access.address, 0, TouchChannel::kBalance};
  }
  return TouchKey{access.address, access.key, TouchChannel::kStorage};
}

// -------------------------------------------------------------- sink

/// Thread-safe contention event collector, carried next to the tracer and
/// metrics registry in obs::Scope. Writers (pool workers inside engines
/// and the access-recorder hook) hash their thread id onto one of a few
/// mutex-guarded lanes, each holding exact per-key touch counts, per-key
/// abort counts and an abort tally — near-zero contention, no
/// registration, and the hot path stays allocation-free once the lanes'
/// tables have grown to the block's footprint. finish_block() adds the
/// lanes into the block-level tables the reports render; addition
/// commutes, so which lane a thread lands on changes no output.
class ContentionSink {
 public:
  /// Exact touch count per key.
  using TouchCounts = common::FlatTable<TouchKey, std::uint64_t, TouchKeyHash>;
  /// Exact per-reason abort counts per key.
  using KeyAborts = common::FlatTable<TouchKey, AbortCounts, TouchKeyHash>;

  // --- hot path (any thread) ---

  /// Record the observed access sets of one execution attempt.
  TXCONC_HOT void record_touches(
      std::span<const account::SlotAccess> reads,
      std::span<const account::SlotAccess> writes);
  /// Record an abort attributed to a specific key.
  TXCONC_HOT void record_abort(AbortReason reason, const TouchKey& key);
  /// Record an abort with no attributable key (e.g. speculative's valid
  /// members of a component poisoned by an invalid attempt): counted in
  /// the totals, absent from the per-key table.
  TXCONC_HOT void record_abort(AbortReason reason);

  // --- block lifecycle (one thread, between executions) ---

  /// Reset every lane and the merged view for a new block.
  void begin_block();
  /// Add the lanes into the block-level tables and tallies.
  void finish_block();

  /// Merged views (valid after finish_block()).
  const TouchCounts& touches() const { return merged_touches_; }
  const KeyAborts& aborts() const { return merged_aborts_; }
  const AbortCounts& abort_totals() const { return merged_abort_totals_; }
  std::uint64_t total_touches() const { return merged_total_touches_; }

 private:
  static constexpr std::size_t kLanes = 8;

  struct alignas(64) Lane {
    Mutex mu;
    TouchCounts touches GUARDED_BY(mu);
    KeyAborts aborts GUARDED_BY(mu);
    AbortCounts abort_tally GUARDED_BY(mu){};
  };

  TXCONC_HOT Lane& lane();

  std::array<Lane, kLanes> lanes_;
  TouchCounts merged_touches_;
  KeyAborts merged_aborts_;
  AbortCounts merged_abort_totals_{};
  std::uint64_t merged_total_touches_ = 0;
};

// ----------------------------------------------------- per-block report

/// One bar of the observed component-size histogram: `count` components
/// of `size` transactions each (size 1 = unconflicted singletons).
struct ComponentBucket {
  std::size_t size = 0;
  std::size_t count = 0;
};

/// One rendered key: its exact count (touches, or aborts summed over
/// reasons) and, for abort keys, the per-reason split.
struct HotKey {
  TouchKey key;
  std::uint64_t count = 0;
  AbortCounts reasons{};
};

/// Everything the contention explainer can say about one executed block.
struct BlockContention {
  std::size_t num_txs = 0;

  /// Measured conflicts at storage-slot granularity (Saraph & Herlihy):
  /// two transactions conflict when they touch the same (address, slot)
  /// and at least one writes — analysis::account_slot_components over the
  /// final receipts' recorded access sets, not any prediction.
  std::size_t conflicted_txs = 0;
  std::size_t lcc_txs = 0;
  std::size_t num_components = 0;
  double measured_c = 0.0;
  double measured_l = 0.0;
  std::vector<ComponentBucket> component_histogram;

  /// Measured conflicts at address granularity (the paper's TDG over
  /// sender/receiver/internal-tx edges): analysis::analyze_account_block
  /// over the engine's final receipts. The bench_gate --contend check
  /// compares it with the same function over sequential's receipts.
  double measured_c_address = 0.0;
  double measured_l_address = 0.0;

  /// Quality of the predicted closures vs the observed address sets,
  /// micro-averaged over transactions: precision = |P∩O|/|P|, recall =
  /// |P∩O|/|O|, over_approx = |P|/|O|. Sound prediction ⇒ recall 1.
  std::uint64_t predicted_addresses = 0;
  std::uint64_t observed_addresses = 0;
  std::uint64_t overlap_addresses = 0;
  double precision = 1.0;
  double recall = 1.0;
  double over_approx = 1.0;

  /// Every touched key and every abort-attributed key, by descending
  /// count, ties by ascending key.
  std::uint64_t total_touches = 0;
  std::vector<HotKey> hot_keys;
  std::vector<HotKey> abort_keys;
  /// Aborts attributed through the sink (key-level, may undercount
  /// keyless reasons) vs the engine's authoritative report tallies.
  AbortCounts sink_abort_totals{};
  AbortCounts engine_abort_totals{};
};

// ---------------------------------------------------------- rendering

/// Human-readable report (txconc_contend default).
void write_text(std::ostream& out, const BlockContention& block,
                std::size_t top_k = 10);
/// Machine-readable report (txconc_contend --format=json; the bench
/// artifact embeds the same shape per cell).
void write_json(std::ostream& out, const BlockContention& block,
                std::size_t top_k = 10);

}  // namespace txconc::obs
