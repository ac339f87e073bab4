// Hot-path allocation discipline tests.
//
// The parallel engines promise that steady-state per-transaction work —
// rebasing a worker overlay, applying a transaction into a reused
// receipt/tracker, exporting the write log — performs ZERO heap
// allocations once the scratch is warm (DESIGN.md §13). These tests pin
// that with a counting operator new, plus unit coverage for the
// flat epoch-cleared containers the promise rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "account/contracts.h"
#include "account/runtime.h"
#include "account/state_trie.h"
#include "account/state.h"
#include "account/types.h"
#include "chain/block.h"
#include "chain/node.h"
#include "common/flat_table.h"
#include "exec/block_stm.h"
#include "exec/executor.h"
#include "exec/scratch.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/scope.h"
#include "obs/trace.h"

// ------------------------------------------------- allocation counting
// Same counting override as obs_test.cpp: a single relaxed atomic per
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
// std::stable_sort's temporary buffer (the group engine's LPT schedule)
// takes the nothrow form; route it through the same counter and malloc,
// so the operator delete below stays its match under ASan.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace txconc {
namespace {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

Address addr(std::uint64_t seed) { return Address::from_seed(seed); }

// ------------------------------------------------------------ FlatTable

using common::FlatSet;
using common::FlatTable;

TEST(FlatTable, InsertFindEraseRoundTrip) {
  FlatTable<std::uint64_t, std::uint64_t> table;
  EXPECT_TRUE(table.empty());
  for (std::uint64_t k = 0; k < 100; ++k) {
    table[k] = k * 3;
  }
  EXPECT_EQ(table.size(), 100u);
  for (std::uint64_t k = 0; k < 100; ++k) {
    const std::uint64_t* v = table.find(k);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(*v, k * 3);
  }
  EXPECT_EQ(table.find(100), nullptr);
  EXPECT_TRUE(table.erase(7));
  EXPECT_FALSE(table.erase(7));  // already gone
  EXPECT_EQ(table.find(7), nullptr);
  EXPECT_EQ(table.size(), 99u);
  // Probe chains must step over the tombstone: key 7's neighbours in the
  // chain stay reachable.
  for (std::uint64_t k = 0; k < 100; ++k) {
    if (k != 7) {
      EXPECT_NE(table.find(k), nullptr) << k;
    }
  }
}

TEST(FlatTable, InsertOrAssignOverwrites) {
  FlatTable<std::uint64_t, std::uint64_t> table;
  table.insert_or_assign(1, 10);
  table.insert_or_assign(1, 20);
  ASSERT_NE(table.find(1), nullptr);
  EXPECT_EQ(*table.find(1), 20u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlatTable, TombstoneSlotIsReusedOnReinsert) {
  FlatTable<std::uint64_t, std::uint64_t> table;
  table[42] = 1;
  table.erase(42);
  table[42] = 2;
  EXPECT_EQ(table.size(), 1u);
  ASSERT_NE(table.find(42), nullptr);
  EXPECT_EQ(*table.find(42), 2u);
  std::size_t visited = 0;
  table.for_each([&](const std::uint64_t& k, const std::uint64_t& v) {
    ++visited;
    EXPECT_EQ(k, 42u);
    EXPECT_EQ(v, 2u);
  });
  EXPECT_EQ(visited, 1u);
}

TEST(FlatTable, ClearKeepsCapacityAndHidesOldEntries) {
  FlatTable<std::uint64_t, std::uint64_t> table;
  for (std::uint64_t k = 0; k < 500; ++k) table[k] = k;
  const std::size_t cap = table.capacity();
  table.clear();
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.capacity(), cap);  // epoch bump, not a free
  for (std::uint64_t k = 0; k < 500; ++k) {
    EXPECT_EQ(table.find(k), nullptr) << k;
  }
  // Reinsertion into stale slots works and for_each sees only the new era.
  table[1] = 99;
  std::size_t visited = 0;
  table.for_each([&](const std::uint64_t&, const std::uint64_t&) {
    ++visited;
  });
  EXPECT_EQ(visited, 1u);
}

TEST(FlatTable, GrowthPreservesAllEntries) {
  FlatTable<std::uint64_t, std::uint64_t> table;
  for (std::uint64_t k = 0; k < 10'000; ++k) table[k] = ~k;
  EXPECT_EQ(table.size(), 10'000u);
  for (std::uint64_t k = 0; k < 10'000; ++k) {
    const std::uint64_t* v = table.find(k);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(*v, ~k);
  }
}

TEST(FlatTable, SteadyStateClearAndRefillIsAllocationFree) {
  FlatTable<std::uint64_t, std::uint64_t> table;
  // Warm: one full fill establishes capacity for this key count.
  for (std::uint64_t k = 0; k < 200; ++k) table[k] = k;
  const std::uint64_t before = allocations();
  for (int round = 0; round < 50; ++round) {
    table.clear();
    for (std::uint64_t k = 0; k < 200; ++k) table[k] = k + round;
    for (std::uint64_t k = 0; k < 200; ++k) {
      if (table.find(k) == nullptr) FAIL() << k;
    }
  }
  EXPECT_EQ(allocations() - before, 0u)
      << "clear()+refill of a warm FlatTable must not touch the heap";
}

/// Sends every key to one of two home slots, so keys share probe chains.
struct TwoSlotHash {
  std::size_t operator()(std::uint64_t key) const noexcept { return key & 1; }
};

// prefetch() is a hint: for present, absent and colliding keys, at the
// minimum capacity and right after a growth, it leaves size, capacity
// and every lookup as they were, and never allocates.
TEST(FlatTable, PrefetchIsOnlyAHint) {
  FlatTable<std::uint64_t, std::uint64_t, TwoSlotHash> table;
  const auto snapshot = [&] {
    std::vector<std::uint64_t> out;
    for (std::uint64_t k = 0; k < 64; ++k) {
      const std::uint64_t* v = table.find(k);
      out.push_back(v == nullptr ? ~std::uint64_t{0} : *v);
    }
    return out;
  };
  const auto prefetch_all = [&] {
    const std::uint64_t before = allocations();
    for (std::uint64_t k = 0; k < 64; ++k) table.prefetch(k);
    EXPECT_EQ(allocations() - before, 0u);
  };

  for (std::uint64_t k = 0; k < 6; ++k) table[k * 2] = k + 100;
  ASSERT_EQ(table.capacity(), 16u);  // still the minimum
  const std::vector<std::uint64_t> small = snapshot();
  prefetch_all();
  EXPECT_EQ(table.size(), 6u);
  EXPECT_EQ(table.capacity(), 16u);
  EXPECT_EQ(snapshot(), small);

  std::uint64_t next = 12;
  while (table.capacity() == 16u) {
    table[next] = next + 100;
    ++next;
  }
  const std::vector<std::uint64_t> grown = snapshot();
  const std::size_t size = table.size();
  prefetch_all();
  EXPECT_EQ(table.size(), size);
  EXPECT_EQ(table.capacity(), 32u);
  EXPECT_EQ(snapshot(), grown);
}

TEST(FlatSet, InsertContainsClear) {
  FlatSet<std::uint64_t> set;
  EXPECT_TRUE(set.insert(5));
  EXPECT_FALSE(set.insert(5));  // already present
  EXPECT_TRUE(set.contains(5));
  EXPECT_FALSE(set.contains(6));
  EXPECT_EQ(set.size(), 1u);
  set.clear();
  EXPECT_FALSE(set.contains(5));
  EXPECT_TRUE(set.empty());
}

// ------------------------------------------------------------- WriteLog

TEST(WriteLog, ExportedLogReplaysIdenticallyToOverlayApply) {
  account::StateDb base;
  base.set_balance(addr(1), 1000);
  base.set_nonce(addr(1), 3);
  base.set_storage(addr(9), 7, 77);
  base.flush_journal();

  account::OverlayState overlay;
  overlay.reset(base);
  overlay.set_balance(addr(1), 900);
  overlay.set_balance(addr(2), 100);
  overlay.set_nonce(addr(1), 4);
  overlay.set_storage(addr(9), 7, 0);   // erase-to-zero must replay too
  overlay.set_storage(addr(9), 8, 88);

  account::WriteLog log;
  overlay.export_writes(log);
  EXPECT_GT(log.num_ops(), 0u);

  account::StateDb via_overlay = base;
  overlay.apply_to(via_overlay);
  via_overlay.flush_journal();
  account::StateDb via_log = base;
  log.apply_to(via_log);
  via_log.flush_journal();
  EXPECT_EQ(via_log.digest(), via_overlay.digest());
  EXPECT_EQ(via_log.balance(addr(2)), 100u);
  EXPECT_EQ(via_log.storage(addr(9), 7), 0u);
  EXPECT_EQ(via_log.storage(addr(9), 8), 88u);

  log.clear();
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.num_ops(), 0u);
}

TEST(OverlayState, ResetRebasesAndDropsLocalWrites) {
  account::StateDb base_a;
  base_a.set_balance(addr(1), 111);
  base_a.flush_journal();
  account::StateDb base_b;
  base_b.set_balance(addr(1), 222);
  base_b.flush_journal();

  account::OverlayState overlay;
  overlay.reset(base_a);
  EXPECT_EQ(overlay.balance(addr(1)), 111u);
  overlay.set_balance(addr(1), 5);
  EXPECT_TRUE(overlay.dirty());

  overlay.reset(base_b);
  EXPECT_FALSE(overlay.dirty());
  EXPECT_EQ(overlay.balance(addr(1)), 222u);  // local write gone
}

// -------------------------------------------- zero-alloc per-tx execute

// The per-transaction unit every parallel engine loops over: rebase the
// worker overlay, precheck, apply into a reused receipt/tracker, export
// the write log. After one warm-up pass over the block this must not
// allocate at all — the engines run it hundreds of thousands of times.
class PerTxHotPath : public ::testing::Test {
 protected:
  void SetUp() override {
    for (std::uint64_t s = 1; s <= kTxs; ++s) {
      base_.set_balance(addr(s), 1'000'000'000);
    }
    base_.flush_journal();
    for (std::uint64_t s = 1; s <= kTxs; ++s) {
      account::AccountTx tx;
      tx.from = addr(s);
      tx.to = addr(1000 + s);
      tx.value = 7;
      tx.gas_limit = 30000;
      tx.nonce = 0;
      block_.push_back(tx);
    }
    receipts_.resize(block_.size());
    logs_.resize(block_.size());
  }

  void run_block_once() {
    for (std::size_t i = 0; i < block_.size(); ++i) {
      ws_.overlay.reset(base_);
      ASSERT_EQ(account::precheck_transaction(ws_.overlay, block_[i], config_),
                nullptr);
      account::apply_transaction_into(ws_.overlay, block_[i], config_,
                                      receipts_[i], ws_.tracker);
      ws_.overlay.export_writes(logs_[i]);
    }
  }

  static constexpr std::uint64_t kTxs = 64;
  account::StateDb base_;
  account::RuntimeConfig config_;
  std::vector<account::AccountTx> block_;
  std::vector<account::Receipt> receipts_;
  std::vector<account::WriteLog> logs_;
  exec::WorkerScratch ws_;
};

TEST_F(PerTxHotPath, WarmExecutePathDoesNotAllocate) {
  run_block_once();  // warm every container to this block's footprint
  const std::uint64_t before = allocations();
  for (int round = 0; round < 20; ++round) {
    run_block_once();
  }
  EXPECT_EQ(allocations() - before, 0u)
      << "the warmed per-tx execute path (overlay reset + apply + "
         "write-log export) must be allocation-free";
  // The work still happened: receipts and logs carry the effects.
  EXPECT_TRUE(receipts_.back().success);
  EXPECT_GT(logs_.back().num_ops(), 0u);
}

TEST_F(PerTxHotPath, PrecheckRejectionPathDoesNotAllocate) {
  run_block_once();
  account::AccountTx stale = block_[0];
  stale.nonce = 5;  // base nonce is 0: the speculative fast-reject path
  ws_.overlay.reset(base_);
  const std::uint64_t before = allocations();
  for (int round = 0; round < 1000; ++round) {
    if (account::precheck_transaction(ws_.overlay, stale, config_) ==
        nullptr) {
      FAIL() << "stale nonce must fail precheck";
    }
  }
  EXPECT_EQ(allocations() - before, 0u)
      << "precheck is a predicate: no exceptions, no strings, no heap";
}

// A contract call whose frame makes a nested kCall: relay A forwards to
// relay B, which forwards to a plain account. Every frame shares the
// thread's operand stack, so once it is warm the call allocates nothing,
// just like the plain transfers above.
TEST(ContractCallHotPath, WarmNestedCallDoesNotAllocate) {
  account::StateDb base;
  const Address sender = addr(1);
  const Address outer = addr(2);
  const Address inner = addr(3);
  base.set_balance(sender, 1'000'000'000);
  account::genesis_deploy(base, outer, account::contracts::relay(inner));
  account::genesis_deploy(base, inner, account::contracts::relay(addr(4)));
  base.flush_journal();

  account::AccountTx tx;
  tx.from = sender;
  tx.to = outer;
  tx.value = 9;
  tx.args = {5};
  tx.gas_limit = 100'000;
  const account::RuntimeConfig config;
  exec::WorkerScratch ws;
  account::Receipt receipt;
  const auto apply = [&] {
    ws.overlay.reset(base);
    account::apply_transaction_into(ws.overlay, tx, config, receipt,
                                    ws.tracker);
  };

  apply();  // warm the receipt, tracker, overlay and operand stack
  const std::uint64_t before = allocations();
  for (int round = 0; round < 100; ++round) apply();
  EXPECT_EQ(allocations() - before, 0u)
      << "a warm contract call with a nested kCall must not allocate";
  ASSERT_TRUE(receipt.success) << receipt.error;
  EXPECT_EQ(receipt.return_value, 3u);  // two relay hops, plain-send 1
  EXPECT_EQ(receipt.internal_txs.size(), 2u);
  EXPECT_EQ(ws.overlay.balance(addr(4)), 9u);
}

// ------------------------------------------------- thread-pool handoff

// The pool hands a batch to its workers through one slot, with the batch
// on the caller's stack and no task queue: a warm call never allocates.
TEST(ThreadPoolHotPath, WarmParallelForSlotsDoesNotAllocate) {
  exec::ThreadPool pool(3);
  std::atomic<int> ran{0};
  std::atomic<bool> slot_ran[4] = {};
  const exec::ThreadPool::SlotFn fn = [&](unsigned slot, std::size_t) {
    ++ran;
    slot_ran[slot] = true;
  };
  // Warm until every worker has run a grain: a worker's first join
  // creates the process tracer (one allocation), which on a loaded host
  // could otherwise land inside the measured calls.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  int warm = 0;
  for (; warm < 10 || !(slot_ran[1] && slot_ran[2] && slot_ran[3]); ++warm) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "a worker never ran a grain";
    pool.parallel_for_slots(4, fn, 1);
  }
  const std::uint64_t before = allocations();
  for (int call = 0; call < 1000; ++call) pool.parallel_for_slots(4, fn, 1);
  EXPECT_EQ(allocations() - before, 0u)
      << "a warm parallel_for_slots handoff must not allocate";
  EXPECT_EQ(ran.load(), (warm + 1000) * 4);
}

// ------------------------------------------- multi-version hot path

// The multi-version store is reset and refilled once per block; after one
// block has warmed the per-shard chain vectors and the epoch-cleared
// index, the reset/publish/resolve cycle must stay off the heap entirely.
TEST(MultiVersionStoreHotPath, WarmResetAndRepublishAreAllocationFree) {
  using exec::MultiVersionStore;

  MultiVersionStore store;
  constexpr std::uint32_t kKeys = 128;
  const auto key_of = [](std::uint32_t k) {
    return obs::TouchKey{Address::from_seed(k % 32), k,
                         obs::TouchChannel::kStorage};
  };
  const auto fill = [&](std::uint64_t salt) {
    for (std::uint32_t k = 0; k < kKeys; ++k) {
      // Two writers per key so resolve walks a real chain.
      store.publish(key_of(k), k % 8, 0, salt + k);
      store.publish(key_of(k), 8 + k % 8, 0, salt + k + 1);
    }
  };
  fill(0);  // warm: establishes chain + index capacity for this footprint
  const std::uint64_t before = allocations();
  for (int round = 1; round <= 50; ++round) {
    store.reset();
    fill(static_cast<std::uint64_t>(round));
    for (std::uint32_t k = 0; k < kKeys; ++k) {
      const MultiVersionStore::Resolution r = store.resolve(key_of(k), 20);
      if (!r.found || r.value != static_cast<std::uint64_t>(round) + k + 1) {
        FAIL() << "round " << round << " key " << k;
      }
    }
    // The abort path (mark + republish at the next incarnation) is also
    // per-block steady state and must stay flat.
    store.mark_estimate(key_of(0), 0);
    store.publish(key_of(0), 0, 1, 42);
  }
  EXPECT_EQ(allocations() - before, 0u)
      << "warm MultiVersionStore reset/publish/resolve must not allocate";
}

// Engine-level regression bounds: a warmed executor's steady-state block
// allocates for its report (fresh receipts and their access-set
// vectors), not for per-tx executor internals. Each budget is the
// engine's measured count (200 txs, 2 threads) plus 5 %, so even a
// one-allocation-per-tx regression trips it. Block-STM is pinned in
// deterministic mode, where its count is exact; its threaded run keeps
// 16/tx of room for raced re-executions.
constexpr std::uint64_t kSteadyStateTxs = 200;

std::uint64_t steady_state_budget(const std::string& engine) {
  const std::pair<const char*, std::uint64_t> budgets[] = {
      {"sequential", 422},         {"speculative", 1409},
      {"speculative-fww", 1409},   {"oracle-speculative", 1410},
      {"group-lpt", 1508},         {"block-stm", 424},
  };
  for (const auto& [name, budget] : budgets) {
    if (engine == name) return budget;
  }
  ADD_FAILURE() << engine << " has no allocation budget";
  return 0;
}

// Allocations of the third run of one 200-tx block (two warm runs
// first), with some receiver fan-in conflicts, reporting into `scope`.
std::uint64_t steady_state_allocations(exec::BlockExecutor& executor,
                                       const obs::Scope* scope = nullptr) {
  account::StateDb db;
  std::vector<account::AccountTx> block;
  for (std::uint64_t s = 1; s <= kSteadyStateTxs; ++s) {
    db.set_balance(addr(s), 1'000'000'000'000ULL);
    account::AccountTx tx;
    tx.from = addr(s);
    tx.to = addr(5000 + (s % 16));
    tx.value = 3;
    tx.gas_limit = 30000;
    tx.nonce = 0;
    block.push_back(tx);
  }
  db.flush_journal();
  account::RuntimeConfig config;
  config.enforce_nonce = false;  // replay the same block repeatedly
  config.obs = scope;

  for (int warm = 0; warm < 2; ++warm) {
    executor.execute_block(db, block, config);
  }
  const std::uint64_t before = allocations();
  const exec::ExecutionReport report =
      executor.execute_block(db, block, config);
  const std::uint64_t spent = allocations() - before;
  EXPECT_EQ(report.num_txs, kSteadyStateTxs) << executor.name();
  return spent;
}

TEST(EngineAllocations, SpeculativeSteadyStateStaysWithinBudget) {
  const auto executor = exec::make_speculative_executor(2);
  const std::uint64_t spent = steady_state_allocations(*executor);
  EXPECT_LE(spent, steady_state_budget("speculative"))
      << "steady-state speculative block burned " << spent
      << " allocations for " << kSteadyStateTxs << " transactions";
}

TEST(EngineAllocations, BlockStmSteadyStateStaysWithinBudget) {
  exec::BlockStmOptions deterministic;
  deterministic.deterministic = true;
  const auto pinned = exec::make_block_stm_executor(2, deterministic);
  std::uint64_t spent = steady_state_allocations(*pinned);
  EXPECT_LE(spent, steady_state_budget("block-stm"))
      << "steady-state deterministic block-stm block burned " << spent
      << " allocations for " << kSteadyStateTxs << " transactions";
  const auto threaded = exec::make_block_stm_executor(2);
  spent = steady_state_allocations(*threaded);
  EXPECT_LE(spent, 16 * kSteadyStateTxs + 1024)
      << "steady-state threaded block-stm block burned " << spent
      << " allocations for " << kSteadyStateTxs << " transactions";
}

// A registry engine at 2 threads; block-stm is pinned in deterministic
// mode, where its allocation count is exact.
std::unique_ptr<exec::BlockExecutor> make_pinned(
    const exec::ExecutorSpec& spec) {
  if (spec.name != "block-stm") return spec.make(2);
  exec::BlockStmOptions deterministic;
  deterministic.deterministic = true;
  return exec::make_block_stm_executor(2, deterministic);
}

// Every registry engine has a budget, so a new engine cannot join the
// registry without one.
TEST(EngineAllocations, EveryEngineSteadyStateStaysWithinBudget) {
  for (const exec::ExecutorSpec& spec : exec::executor_registry()) {
    const auto executor = make_pinned(spec);
    const std::uint64_t spent = steady_state_allocations(*executor);
    EXPECT_LE(spent, steady_state_budget(spec.name))
        << "steady-state " << spec.name << " block burned " << spent
        << " allocations for " << kSteadyStateTxs << " transactions";
  }
}

// Reporting into a metrics registry costs a warm block no allocation:
// every instrument it touches was registered by the warm blocks, and a
// lookup by name builds no string. Each side keeps its lowest of three
// measured blocks on one executor, so a one-time allocation (a pool
// worker's first grain) cannot land on one side only.
TEST(EngineAllocations, InstalledRegistryAddsNoAllocations) {
  obs::Tracer::global();  // created once, not inside a measured block
  for (const exec::ExecutorSpec& spec : exec::executor_registry()) {
    const auto executor = make_pinned(spec);
    obs::Registry registry;
    const obs::Scope scope{nullptr, &registry};
    std::uint64_t bare = ~std::uint64_t{0};
    std::uint64_t metered = ~std::uint64_t{0};
    for (int round = 0; round < 3; ++round) {
      bare = std::min(bare, steady_state_allocations(*executor));
      metered =
          std::min(metered, steady_state_allocations(*executor, &scope));
    }
    EXPECT_EQ(metered, bare) << spec.name;
    EXPECT_GT(registry.counter_values().at(obs::names::kMetricExecBlocks),
              0u)
        << spec.name;
  }
}

// A block's transaction root hashes every transaction and every pair in
// the tree, 1000 + 999 hashes for 1000 transactions, yet allocates only
// its leaf vector and the one level vector it reduces in place.
TEST(MerkleHotPath, TransactionsRootAllocatesOncePerBlock) {
  std::vector<account::AccountTx> block(1000);
  for (std::uint64_t i = 0; i < block.size(); ++i) {
    block[i].from = addr(i);
    block[i].to = addr(i + 1000);
    block[i].nonce = i;
    block[i].args = {i, i * i};
    block[i].address_args = {addr(i + 7)};
  }
  const std::span<const account::AccountTx> txs(block);
  const Hash256 warm = chain::transactions_root(txs);
  const std::uint64_t before = allocations();
  const Hash256 root = chain::transactions_root(txs);
  const std::uint64_t spent = allocations() - before;
  EXPECT_EQ(root, warm);
  EXPECT_LE(spent, 4u) << "transactions_root over 1000 transactions made "
                       << spent << " allocations";
}

// A warm trie re-hashes a batch level by level through fixed-size chunks
// on the stack and reused scratch vectors: a 200-leaf update of a
// 1,000-account trie allocates nothing.
TEST(StateRootHotPath, WarmBatchUpdateAllocatesNothing) {
  account::StateTrie trie;
  std::vector<account::StateTrie::Leaf> leaves;
  for (std::uint64_t s = 1; s <= 1000; ++s) {
    leaves.push_back({addr(s), Hash256::from_seed(s)});
  }
  trie.update(leaves);
  std::vector<account::StateTrie::Leaf> batch;
  for (std::uint64_t s = 1; s <= 200; ++s) {
    batch.push_back({addr(5 * s), Hash256::from_seed(10'000 + s)});
  }
  trie.update(batch);  // warms the scratch for a batch of this shape
  for (account::StateTrie::Leaf& leaf : batch) {
    leaf.digest = Hash256::from_seed(leaf.digest.low64() + 1);
  }
  const std::uint64_t before = allocations();
  trie.update(batch);
  const std::uint64_t spent = allocations() - before;
  EXPECT_EQ(spent, 0u) << "a warm 200-leaf update made " << spent
                       << " allocations";
  EXPECT_GT(trie.last_update_hashes(), 200u);
}

// ------------------------------------------------------ block production

// Heap allocations of one produce_block over `pairs` senders, each
// submitting nonce 1 at fee 2 before nonce 0 at fee 1: fee order defers
// every nonce 1 to the second pass. Senders and receivers exist before
// the block, so the state itself never grows.
std::uint64_t produce_allocations(std::uint64_t pairs) {
  chain::AccountNodeConfig config;
  config.max_block_txs = 2 * pairs;
  config.block_gas_limit = 30'000 * 2 * pairs;
  chain::AccountNode node(config);
  for (std::uint64_t s = 1; s <= pairs; ++s) {
    node.genesis_fund(addr(s), 1'000'000'000);
    node.genesis_fund(addr(100'000 + s), 1);
  }
  for (std::uint64_t s = 1; s <= pairs; ++s) {
    for (std::uint64_t nonce : {1u, 0u}) {
      account::AccountTx tx;
      tx.from = addr(s);
      tx.to = addr(100'000 + s);
      tx.value = 5;
      tx.nonce = nonce;
      tx.gas_limit = 30'000;
      tx.gas_price = 1 + nonce;
      node.submit_transaction(std::move(tx));
    }
  }
  const std::uint64_t before = allocations();
  const chain::Block<account::AccountTx> block = node.produce_block(1);
  const std::uint64_t spent = allocations() - before;
  EXPECT_EQ(block.transactions.size(), 2 * pairs);
  EXPECT_EQ(node.mempool_size(), 0u);
  return spent;
}

// Packing costs allocations per block, not per transaction: no receipt,
// access tracker or exception per candidate. Ten times the transactions
// may add only container growth (a doubling per vector per 2x).
TEST(ProduceBlockAllocations, PerBlockNotPerTransaction) {
  const std::uint64_t small = produce_allocations(50);    // 100 txs
  const std::uint64_t large = produce_allocations(500);   // 1,000 txs
  EXPECT_LE(large, small + 64)
      << "100 txs: " << small << " allocations, 1000 txs: " << large;
}

// ------------------------------------------------------ block validation

// Heap allocations of a warm sequential receive_block of `txs` plain
// transfers between existing accounts: the validator has already taken
// a block of the same shape, so its journal, dirty list and trie are
// sized, and the state never grows.
std::uint64_t validate_allocations(std::uint64_t txs) {
  chain::AccountNodeConfig config;
  config.max_block_txs = txs;
  config.block_gas_limit = 30'000 * txs;
  std::shared_ptr<exec::BlockExecutor> engine =
      exec::make_executor("sequential", 1);
  chain::AccountNode producer(config);
  chain::AccountNode validator(
      config, [engine](account::StateDb& state,
                       std::span<const account::AccountTx> block,
                       const account::RuntimeConfig& runtime) {
        return engine->execute_block(state, block, runtime).receipts;
      });
  for (chain::AccountNode* node : {&producer, &validator}) {
    for (std::uint64_t s = 1; s <= txs; ++s) {
      node->genesis_fund(addr(s), 1'000'000'000);
      node->genesis_fund(addr(100'000 + s), 1);
    }
  }
  std::vector<chain::Block<account::AccountTx>> blocks;
  for (std::uint64_t nonce = 0; nonce < 2; ++nonce) {
    for (std::uint64_t s = 1; s <= txs; ++s) {
      account::AccountTx tx;
      tx.from = addr(s);
      tx.to = addr(100'000 + s);
      tx.value = 5;
      tx.nonce = nonce;
      tx.gas_limit = 30'000;
      producer.submit_transaction(std::move(tx));
    }
    blocks.push_back(producer.produce_block(nonce + 1));
    EXPECT_EQ(blocks.back().transactions.size(), txs);
  }
  validator.receive_block(blocks[0]);
  const std::uint64_t before = allocations();
  validator.receive_block(blocks[1]);
  const std::uint64_t spent = allocations() - before;
  EXPECT_EQ(validator.state().digest(), producer.state().digest());
  return spent;
}

// A validator keeps only the receipts' gas, so it executes without access
// tracking: no read/write-set vectors per receipt. Ten times the
// transactions may add only container growth, as for packing.
TEST(ReceiveBlockAllocations, SequentialValidatePerBlockNotPerTransaction) {
  const std::uint64_t small = validate_allocations(100);
  const std::uint64_t large = validate_allocations(1000);
  EXPECT_LE(large, small + 64)
      << "100 txs: " << small << " allocations, 1000 txs: " << large;
}

}  // namespace
}  // namespace txconc
