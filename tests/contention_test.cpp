// Contention explainer tests (DESIGN.md §17).
//
// Covers the SpaceSaving sketch against hand-computed admission/eviction
// sequences, lane merging, the observer's measured-c/l and prediction-
// quality arithmetic on synthetic receipts, and — with a counting
// operator new, mirroring hotpath_test — the promise that the warm
// sketch/sink hot path performs ZERO heap allocations.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <sstream>
#include <vector>

#include "account/state.h"
#include "account/types.h"
#include "obs/contention.h"

// ------------------------------------------------- allocation counting
// Same counting override as hotpath_test.cpp: a single relaxed atomic per
// allocation, so the zero-allocation assertions below are exact.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// The replacement operator new allocates with malloc, so freeing in the
// replacement operator delete is correct; silence the compiler's
// new/free mismatch heuristic which cannot see the pairing.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace txconc {
namespace {

using obs::AbortReason;
using obs::SpaceSavingSketch;
using obs::TouchChannel;
using obs::TouchKey;

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

Address addr(std::uint64_t seed) { return Address::from_seed(seed); }

TouchKey skey(std::uint64_t seed, std::uint64_t slot) {
  return TouchKey{addr(seed), slot, TouchChannel::kStorage};
}

const SpaceSavingSketch::Entry* find_entry(const SpaceSavingSketch& sketch,
                                           const TouchKey& key) {
  for (const SpaceSavingSketch::Entry& e : sketch.entries()) {
    if (e.key == key) return &e;
  }
  return nullptr;
}

// ------------------------------------------------------------- sketch

TEST(SpaceSavingSketch, ExactWhileUnderCapacity) {
  SpaceSavingSketch sketch(4);
  sketch.admit(skey(1, 0), 5);
  sketch.admit(skey(2, 0), 3);
  sketch.admit(skey(3, 0), 2);
  sketch.admit(skey(4, 0), 1);
  EXPECT_EQ(sketch.live(), 4u);
  EXPECT_EQ(sketch.total(), 11u);
  const std::uint64_t expected[] = {5, 3, 2, 1};
  for (std::uint64_t s = 1; s <= 4; ++s) {
    const auto* e = find_entry(sketch, skey(s, 0));
    ASSERT_NE(e, nullptr) << s;
    EXPECT_EQ(e->count, expected[s - 1]) << s;
    EXPECT_EQ(e->error, 0u) << s;  // no evictions yet: exact counts
  }
}

TEST(SpaceSavingSketch, HandComputedEvictionInheritsMinCountAsError) {
  SpaceSavingSketch sketch(4);
  sketch.admit(skey(1, 0), 5);  // A
  sketch.admit(skey(2, 0), 3);  // B
  sketch.admit(skey(3, 0), 2);  // C
  sketch.admit(skey(4, 0), 1);  // D — the minimum
  // E arrives at capacity: D (count 1) hands over its slot; E's count is
  // 1 + 1 = 2 with error bound 1 (Metwally's takeover rule).
  sketch.admit(skey(5, 0), 1);  // E
  EXPECT_EQ(sketch.total(), 12u);
  EXPECT_EQ(find_entry(sketch, skey(4, 0)), nullptr);  // D evicted
  const auto* e = find_entry(sketch, skey(5, 0));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->count, 2u);
  EXPECT_EQ(e->error, 1u);
  // The heavy-hitter guarantee: true frequency > total/k => present.
  // A's 5 > 12/4 = 3, and its count stayed exact.
  const auto* a = find_entry(sketch, skey(1, 0));
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->count, 5u);
  EXPECT_EQ(a->error, 0u);
  // top() is descending by count: A leads.
  const std::vector<SpaceSavingSketch::Entry> top = sketch.top();
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top.front().key, skey(1, 0));
  EXPECT_EQ(top.front().count, 5u);
}

TEST(SpaceSavingSketch, AdmitAbortAttributesPerReasonCounts) {
  SpaceSavingSketch sketch(4);
  const TouchKey k = skey(7, 3);
  sketch.admit_abort(k, AbortReason::kFwwPoisoned);
  sketch.admit_abort(k, AbortReason::kFwwPoisoned);
  sketch.admit_abort(k, AbortReason::kSpecConflict);
  const auto* e = find_entry(sketch, k);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->count, 3u);
  EXPECT_EQ(e->reasons[static_cast<std::size_t>(AbortReason::kFwwPoisoned)],
            2u);
  EXPECT_EQ(e->reasons[static_cast<std::size_t>(AbortReason::kSpecConflict)],
            1u);
  EXPECT_EQ(sketch.total(), 3u);
}

TEST(SpaceSavingSketch, AbsorbAddsCountsErrorsAndReasons) {
  // Build an inexact donor: k = 1 forces one eviction, so its surviving
  // entry carries a nonzero error bound.
  SpaceSavingSketch donor(1);
  donor.admit(skey(1, 0), 2);  // A
  donor.admit(skey(2, 0), 1);  // B evicts A: count 3, error 2
  donor.admit_abort(skey(2, 0), AbortReason::kSpecConflict);  // count 4
  {
    const auto* b = find_entry(donor, skey(2, 0));
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->count, 4u);
    EXPECT_EQ(b->error, 2u);
  }

  SpaceSavingSketch into(4);
  into.admit(skey(2, 0), 10);
  into.admit(skey(3, 0), 1);
  into.absorb(donor);
  EXPECT_EQ(into.total(), 11u + donor.total());
  const auto* b = find_entry(into, skey(2, 0));
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->count, 14u);  // 10 + donor's 4
  EXPECT_EQ(b->error, 2u);   // errors add for shared keys
  EXPECT_EQ(b->reasons[static_cast<std::size_t>(AbortReason::kSpecConflict)],
            1u);
  const auto* c = find_entry(into, skey(3, 0));
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->count, 1u);  // untouched by the merge
}

TEST(SpaceSavingSketch, ClearRetainsCapacityAndForgetsEntries) {
  SpaceSavingSketch sketch(8);
  for (std::uint64_t s = 0; s < 20; ++s) sketch.admit(skey(s, 0));
  const std::size_t cap = sketch.capacity();
  sketch.clear();
  EXPECT_EQ(sketch.capacity(), cap);
  EXPECT_EQ(sketch.live(), 0u);
  EXPECT_EQ(sketch.total(), 0u);
  sketch.admit(skey(3, 0), 2);
  const auto* e = find_entry(sketch, skey(3, 0));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->count, 2u);   // no leakage from the previous era
  EXPECT_EQ(e->error, 0u);
}

// The steady-state promise: once the sketch has seen its footprint, a
// clear + churn cycle — including evictions and the in-place index
// rebuilds they trigger — never touches the heap.
TEST(SpaceSavingSketch, WarmChurnWithEvictionsIsAllocationFree) {
  SpaceSavingSketch sketch(32);
  std::vector<TouchKey> keys;
  for (std::uint64_t s = 0; s < 96; ++s) keys.push_back(skey(s, s % 7));
  // Warm: one full pass establishes every internal capacity.
  for (const TouchKey& k : keys) sketch.admit(k);
  const std::uint64_t before = allocations();
  for (int round = 0; round < 50; ++round) {
    sketch.clear();
    for (const TouchKey& k : keys) {
      sketch.admit(k);
      sketch.admit_abort(k, AbortReason::kSpecConflict);
    }
  }
  EXPECT_EQ(allocations() - before, 0u)
      << "warm SpaceSaving admit/evict churn must not allocate";
  EXPECT_EQ(sketch.total(), 96u * 2u);
}

// ---------------------------------------------------------------- sink

TEST(ContentionSink, KeyedAndKeylessAbortsBothTally) {
  obs::ContentionSink sink(8);
  sink.begin_block();
  sink.record_abort(AbortReason::kSpecConflict, skey(1, 0));
  sink.record_abort(AbortReason::kSpecConflict, skey(1, 0));
  sink.record_abort(AbortReason::kInvalidAttempt);  // no attributable key
  sink.finish_block();
  const obs::AbortCounts& totals = sink.abort_totals();
  EXPECT_EQ(totals[static_cast<std::size_t>(AbortReason::kSpecConflict)], 2u);
  EXPECT_EQ(totals[static_cast<std::size_t>(AbortReason::kInvalidAttempt)], 1u);
  // Only the keyed aborts land in the key sketch.
  EXPECT_EQ(sink.aborts().total(), 2u);
  const auto* e = find_entry(sink.aborts(), skey(1, 0));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->reasons[static_cast<std::size_t>(AbortReason::kSpecConflict)],
            2u);
}

TEST(ContentionSink, WarmBlockCycleIsAllocationFree) {
  obs::ContentionSink sink;
  std::vector<account::SlotAccess> reads;
  std::vector<account::SlotAccess> writes;
  for (std::uint64_t s = 0; s < 40; ++s) {
    reads.push_back(account::SlotAccess{addr(s), s});
    writes.push_back(account::SlotAccess{addr(s % 8), s});
  }
  const auto run_block = [&] {
    sink.begin_block();
    for (int i = 0; i < 16; ++i) {
      sink.record_touches(reads, writes);
      sink.record_touch(skey(3, 1));
      sink.record_abort(AbortReason::kSpecConflict, skey(3, 1));
      sink.record_abort(AbortReason::kInvalidAttempt);
    }
    sink.finish_block();
  };
  run_block();  // warm every lane the calling thread hashes to
  const std::uint64_t before = allocations();
  for (int round = 0; round < 20; ++round) run_block();
  EXPECT_EQ(allocations() - before, 0u)
      << "the warm record/merge block cycle must not allocate";
  EXPECT_GT(sink.total_touches(), 0u);
}

// ------------------------------------------------------------ observer

// Three synthetic transactions with hand-computable conflicts:
//   tx0 (a1 -> a2) writes (a2, slot 7)
//   tx1 (a3 -> a2) reads  (a2, slot 7)      — conflicts with tx0
//   tx2 (a5 -> a6) writes (a6, slot 1)      — clean singleton
// Slot granularity: one component {tx0, tx1} plus a singleton, so
// c = l = 2/3. Address TDG: a2 links tx0 and tx1 the same way.
class SyntheticBlock : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto make_tx = [](std::uint64_t from, std::uint64_t to) {
      account::AccountTx tx;
      tx.from = Address::from_seed(from);
      tx.to = Address::from_seed(to);
      return tx;
    };
    txs_.push_back(make_tx(1, 2));
    txs_.push_back(make_tx(3, 2));
    txs_.push_back(make_tx(5, 6));
    receipts_.resize(3);
    for (auto& r : receipts_) r.success = true;
    receipts_[0].writes.push_back(account::SlotAccess{addr(2), 7});
    receipts_[1].reads.push_back(account::SlotAccess{addr(2), 7});
    receipts_[2].writes.push_back(account::SlotAccess{addr(6), 1});
  }

  std::vector<account::AccountTx> txs_;
  std::vector<account::Receipt> receipts_;
};

TEST_F(SyntheticBlock, MeasuredRatesAndHistogramMatchHandComputation) {
  obs::ContentionObserver observer;
  observer.begin_block(txs_);
  for (std::size_t i = 0; i < txs_.size(); ++i) {
    observer.on_complete(txs_[i], receipts_[i]);
  }
  const obs::BlockContention block = observer.finish_block(receipts_);
  EXPECT_EQ(block.num_txs, 3u);
  EXPECT_EQ(block.conflicted_txs, 2u);
  EXPECT_EQ(block.lcc_txs, 2u);
  EXPECT_EQ(block.num_components, 2u);
  EXPECT_DOUBLE_EQ(block.measured_c, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(block.measured_l, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(block.measured_c_address, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(block.measured_l_address, 2.0 / 3.0);
  // Histogram: one singleton, one pair; covers every transaction.
  ASSERT_EQ(block.component_histogram.size(), 2u);
  EXPECT_EQ(block.component_histogram[0].size, 1u);
  EXPECT_EQ(block.component_histogram[0].count, 1u);
  EXPECT_EQ(block.component_histogram[1].size, 2u);
  EXPECT_EQ(block.component_histogram[1].count, 1u);
  // Hot keys: (a2, storage[7]) was touched 2x, (a6, storage[1]) once.
  EXPECT_EQ(block.total_touches, 3u);
  ASSERT_FALSE(block.hot_keys.empty());
  EXPECT_EQ(block.hot_keys.front().key, skey(2, 7));
  EXPECT_EQ(block.hot_keys.front().count, 2u);
  EXPECT_FALSE(block.has_prediction);
}

TEST_F(SyntheticBlock, PrecisionRecallOnOverApproximatedClosure) {
  obs::ContentionObserver observer;
  observer.begin_block(txs_);
  // Over-approximated but sound closures: every observed address is
  // predicted, plus extras that execution never touched.
  const std::vector<Address> c0 = {addr(2), addr(1)};  // observed: {a2}
  const std::vector<Address> c1 = {addr(2), addr(3)};  // observed: {a2}
  const std::vector<Address> c2 = {addr(6)};           // observed: {a6}
  observer.set_predicted(0, c0);
  observer.set_predicted(1, c1);
  observer.set_predicted(2, c2);
  for (std::size_t i = 0; i < txs_.size(); ++i) {
    observer.on_complete(txs_[i], receipts_[i]);
  }
  const obs::BlockContention block = observer.finish_block(receipts_);
  ASSERT_TRUE(block.has_prediction);
  // Micro-averaged: |P| = 2+2+1 = 5, |O| = 1+1+1 = 3, overlap = 3.
  EXPECT_EQ(block.predicted_addresses, 5u);
  EXPECT_EQ(block.observed_addresses, 3u);
  EXPECT_EQ(block.overlap_addresses, 3u);
  EXPECT_DOUBLE_EQ(block.precision, 3.0 / 5.0);
  EXPECT_DOUBLE_EQ(block.recall, 1.0);  // sound: nothing observed missed
  EXPECT_DOUBLE_EQ(block.over_approx, 5.0 / 3.0);
}

TEST_F(SyntheticBlock, UnsoundClosureDropsRecallBelowOne) {
  obs::ContentionObserver observer;
  observer.begin_block(txs_);
  // tx0's closure misses the observed a2 entirely.
  const std::vector<Address> c0 = {addr(1)};
  observer.set_predicted(0, c0);
  const std::vector<Address> c1 = {addr(2)};
  const std::vector<Address> c2 = {addr(6)};
  observer.set_predicted(1, c1);
  observer.set_predicted(2, c2);
  for (std::size_t i = 0; i < txs_.size(); ++i) {
    observer.on_complete(txs_[i], receipts_[i]);
  }
  const obs::BlockContention block = observer.finish_block(receipts_);
  EXPECT_DOUBLE_EQ(block.recall, 2.0 / 3.0);
  EXPECT_LT(block.recall, 1.0);  // what bench_gate --contend trips on
}

TEST_F(SyntheticBlock, BalanceSentinelMapsToBalanceChannel) {
  const account::SlotAccess balance{addr(9),
                                    account::AccessTracker::kBalanceKey};
  const TouchKey key = obs::touch_key(balance);
  EXPECT_EQ(key.channel, TouchChannel::kBalance);
  EXPECT_EQ(key.slot, 0u);
  EXPECT_EQ(key.addr, addr(9));
}

TEST_F(SyntheticBlock, RendersTextAndJsonWithAbortBreakdown) {
  obs::ContentionObserver observer;
  observer.begin_block(txs_);
  for (std::size_t i = 0; i < txs_.size(); ++i) {
    observer.on_complete(txs_[i], receipts_[i]);
  }
  observer.sink().record_abort(AbortReason::kSpecConflict, skey(2, 7));
  obs::BlockContention block = observer.finish_block(receipts_);
  block.engine_abort_totals = block.sink_abort_totals;
  std::ostringstream text;
  obs::write_text(text, block);
  EXPECT_NE(text.str().find("spec_conflict 1"), std::string::npos);
  EXPECT_NE(text.str().find("component histogram: 1x1 2x1"),
            std::string::npos);
  std::ostringstream json;
  obs::write_json(json, block);
  EXPECT_NE(json.str().find("\"measured_c\":0.66"), std::string::npos);
  EXPECT_NE(json.str().find("\"spec_conflict\":1"), std::string::npos);
}

}  // namespace
}  // namespace txconc
