// Contention explainer tests (DESIGN.md §17).
//
// Covers the sink's exact per-key counts and their lane merge against a
// hand-computed multi-threaded recording, the probe's measured-c/l and
// the prediction-quality arithmetic on synthetic receipts, and — with a
// counting operator new, mirroring hotpath_test — the promise that the
// warm sink hot path performs ZERO heap allocations.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <numeric>
#include <sstream>
#include <thread>
#include <vector>

#include "account/state.h"
#include "account/types.h"
#include "exec/contention_probe.h"
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
using obs::TouchChannel;
using obs::TouchKey;

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

Address addr(std::uint64_t seed) { return Address::from_seed(seed); }

TouchKey skey(std::uint64_t seed, std::uint64_t slot) {
  return TouchKey{addr(seed), slot, TouchChannel::kStorage};
}

// ---------------------------------------------------------------- sink

TEST(ContentionSink, KeyedAndKeylessAbortsBothTally) {
  obs::ContentionSink sink;
  sink.begin_block();
  sink.record_abort(AbortReason::kSpecConflict, skey(1, 0));
  sink.record_abort(AbortReason::kSpecConflict, skey(1, 0));
  sink.record_abort(AbortReason::kInvalidAttempt);  // no attributable key
  sink.finish_block();
  const obs::AbortCounts& totals = sink.abort_totals();
  EXPECT_EQ(totals[static_cast<std::size_t>(AbortReason::kSpecConflict)], 2u);
  EXPECT_EQ(totals[static_cast<std::size_t>(AbortReason::kInvalidAttempt)], 1u);
  // Only the keyed aborts land in the per-key table.
  ASSERT_EQ(sink.aborts().size(), 1u);
  const obs::AbortCounts* e = sink.aborts().find(skey(1, 0));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(std::accumulate(e->begin(), e->end(), std::uint64_t{0}), 2u);
  EXPECT_EQ((*e)[static_cast<std::size_t>(AbortReason::kSpecConflict)], 2u);
}

TEST(ContentionSink, WarmBlockCycleIsAllocationFree) {
  obs::ContentionSink sink;
  std::vector<account::SlotAccess> reads;
  std::vector<account::SlotAccess> writes;
  for (std::uint64_t s = 0; s < 40; ++s) {
    reads.push_back(account::SlotAccess{addr(s), s});
    writes.push_back(account::SlotAccess{addr(s % 8), s});
  }
  const account::SlotAccess hot{addr(3), 1};  // skey(3, 1)
  const auto run_block = [&] {
    sink.begin_block();
    for (int i = 0; i < 16; ++i) {
      sink.record_touches(reads, writes);
      sink.record_touches({&hot, 1}, {});
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

// Four threads record 44 storage keys of one account (more than the 32
// entries a fixed-size top-k summary keeps) and keyed aborts of two
// reasons on 36 of them. Each key's events are dealt round-robin across
// the threads, so its count is split over several lanes. The merged view
// must hold the exact counts, ranked by count with ties by ascending
// slot, and must not change when every thread records in reverse order.
TEST(ContentionSink, MergedCountsAreExactAndIndependentOfRecordOrder) {
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kTouched = 44;
  constexpr std::uint64_t kAborted = 36;
  constexpr auto kSpec = static_cast<std::size_t>(AbortReason::kSpecConflict);
  constexpr auto kFww = static_cast<std::size_t>(AbortReason::kFwwPoisoned);
  const auto key = [](std::uint64_t slot) { return skey(7, slot); };
  // Slot s < 40 is touched s + 1 times; slots 40..43 tie slot 19 at 20.
  const auto touches = [](std::uint64_t s) { return s < 40 ? s + 1 : 20; };
  // Slot s < 36 aborts 1 + s / 2 times, the first half (rounded up)
  // spec_conflict and the rest fww_poisoned; slots 2c and 2c + 1 tie.
  const auto aborts = [](std::uint64_t s) { return 1 + s / 2; };

  struct Event {
    std::uint64_t slot = 0;
    int kind = 0;  // 0 touch, 1 spec_conflict, 2 fww_poisoned
  };
  std::vector<Event> events;
  for (std::uint64_t s = 0; s < kTouched; ++s) {
    for (std::uint64_t i = 0; i < touches(s); ++i) events.push_back({s, 0});
  }
  for (std::uint64_t s = 0; s < kAborted; ++s) {
    for (std::uint64_t i = 0; i < aborts(s); ++i) {
      events.push_back({s, i < (aborts(s) + 1) / 2 ? 1 : 2});
    }
  }
  std::array<std::vector<Event>, kThreads> dealt;
  for (std::size_t i = 0; i < events.size(); ++i) {
    dealt[i % kThreads].push_back(events[i]);
  }

  // Hand-ranked expectation. Touches: slots 39..20, then the five-way tie
  // at 20 in slot order (19, 40, 41, 42, 43), then slots 18..0.
  std::vector<obs::HotKey> want_hot;
  for (std::uint64_t s = 39; s >= 20; --s) {
    want_hot.push_back({key(s), s + 1, {}});
  }
  for (std::uint64_t s : {19, 40, 41, 42, 43}) {
    want_hot.push_back({key(s), 20, {}});
  }
  for (std::uint64_t s = 19; s-- > 0;) want_hot.push_back({key(s), s + 1, {}});
  // Aborts: count c = 18..1 on slot 2c - 2, then slot 2c - 1.
  std::vector<obs::HotKey> want_aborts;
  for (std::uint64_t c = 18; c >= 1; --c) {
    for (std::uint64_t s : {2 * c - 2, 2 * c - 1}) {
      obs::HotKey k{key(s), c, {}};
      k.reasons[kSpec] = (c + 1) / 2;
      k.reasons[kFww] = c / 2;
      want_aborts.push_back(k);
    }
  }

  const auto run = [&](bool reversed) {
    exec::ContentionProbe probe;
    probe.before_block({}, account::StateDb{});
    obs::ContentionSink& sink = *probe.sink();
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        std::vector<Event> mine = dealt[t];
        if (reversed) std::reverse(mine.begin(), mine.end());
        for (const Event& e : mine) {
          const account::SlotAccess access{addr(7), e.slot};
          if (e.kind == 0) {
            sink.record_touches({&access, 1}, {});
          } else {
            sink.record_abort(e.kind == 1 ? AbortReason::kSpecConflict
                                          : AbortReason::kFwwPoisoned,
                              key(e.slot));
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    probe.after_block(exec::ExecutionReport{});
    return probe.blocks().back();
  };
  const auto expect_keys = [](const std::vector<obs::HotKey>& got,
                              const std::vector<obs::HotKey>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].key, want[i].key) << "rank " << i;
      EXPECT_EQ(got[i].count, want[i].count) << "rank " << i;
      EXPECT_EQ(got[i].reasons, want[i].reasons) << "rank " << i;
    }
  };

  const obs::BlockContention forward = run(false);
  const obs::BlockContention backward = run(true);
  std::uint64_t total = 0;
  for (std::uint64_t s = 0; s < kTouched; ++s) total += touches(s);
  for (const obs::BlockContention* block : {&forward, &backward}) {
    EXPECT_EQ(block->total_touches, total);
    expect_keys(block->hot_keys, want_hot);
    expect_keys(block->abort_keys, want_aborts);
    EXPECT_EQ(block->sink_abort_totals[kSpec] + block->sink_abort_totals[kFww],
              events.size() - total);
  }
  std::ostringstream a;
  std::ostringstream b;
  obs::write_json(a, forward, want_hot.size());
  obs::write_json(b, backward, want_hot.size());
  EXPECT_EQ(a.str(), b.str());
}

// --------------------------------------------------------------- probe

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

  /// Open the block on the probe and record every receipt's touches.
  void begin() {
    probe_.before_block(txs_, state_);
    for (std::size_t i = 0; i < txs_.size(); ++i) {
      probe_.on_complete(txs_[i], receipts_[i]);
    }
  }

  /// Close the block over the final receipts.
  obs::BlockContention finish() {
    exec::ExecutionReport report;
    report.receipts = receipts_;
    probe_.after_block(report);
    return probe_.blocks().back();
  }

  std::vector<account::AccountTx> txs_;
  std::vector<account::Receipt> receipts_;
  account::StateDb state_;
  exec::ContentionProbe probe_;
};

TEST_F(SyntheticBlock, MeasuredRatesAndHistogramMatchHandComputation) {
  begin();
  const obs::BlockContention block = finish();
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
  ASSERT_EQ(block.hot_keys.size(), 2u);
  EXPECT_EQ(block.hot_keys.front().key, skey(2, 7));
  EXPECT_EQ(block.hot_keys.front().count, 2u);
  EXPECT_EQ(block.hot_keys.back().key, skey(6, 1));
  EXPECT_EQ(block.hot_keys.back().count, 1u);
}

TEST_F(SyntheticBlock, PrecisionRecallOnOverApproximatedClosure) {
  // Over-approximated but sound closures: every observed address is
  // predicted, plus extras that execution never touched.
  const std::vector<std::vector<Address>> closures = {
      {addr(2), addr(1)},  // observed: {a2}
      {addr(2), addr(3)},  // observed: {a2}
      {addr(6)},           // observed: {a6}
  };
  obs::BlockContention block;
  exec::score_prediction(closures, receipts_, block);
  // Micro-averaged: |P| = 2+2+1 = 5, |O| = 1+1+1 = 3, overlap = 3.
  EXPECT_EQ(block.predicted_addresses, 5u);
  EXPECT_EQ(block.observed_addresses, 3u);
  EXPECT_EQ(block.overlap_addresses, 3u);
  EXPECT_DOUBLE_EQ(block.precision, 3.0 / 5.0);
  EXPECT_DOUBLE_EQ(block.recall, 1.0);  // sound: nothing observed missed
  EXPECT_DOUBLE_EQ(block.over_approx, 5.0 / 3.0);
}

TEST_F(SyntheticBlock, UnsoundClosureDropsRecallBelowOne) {
  // tx0's closure misses the observed a2 entirely.
  const std::vector<std::vector<Address>> closures = {
      {addr(1)}, {addr(2)}, {addr(6)}};
  obs::BlockContention block;
  exec::score_prediction(closures, receipts_, block);
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
  begin();
  probe_.sink()->record_abort(AbortReason::kSpecConflict, skey(2, 7));
  obs::BlockContention block = finish();
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
