// Block-STM executor (Gelashvili et al., PPoPP'22): optimistic
// multi-version execution with dynamic dependency discovery.
//
// Unlike a wave-based optimistic executor — which freezes the base state
// per wave and validates in order, serializing on the first conflict of
// every wave (DESIGN.md §13.3) — Block-STM gives every transaction a
// private view over a multi-version store: reads resolve to the highest
// lower-index speculative write, aborted incarnations leave ESTIMATE
// markers that suspend dependent reads instead of letting them run on
// garbage, and validation failures re-execute only the invalidated
// transaction (plus revalidation of its suffix), never the whole block.
//
// This header exposes the multi-version store itself so the unit tests in
// tests/block_stm_test.cpp can drive it directly; the engine, view, and
// cooperative scheduler live in block_stm.cpp.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "account/state.h"
#include "account/types.h"
#include "common/flat_table.h"
#include "common/hot_path.h"
#include "common/thread_annotations.h"
#include "exec/executor.h"

namespace txconc::exec {

/// Thrown by the multi-version view when a read resolves to an ESTIMATE
/// marker (the blocking transaction aborted and has not re-executed yet).
/// Deliberately NOT derived from std::exception: the runtime catches
/// ValidationError/VmError around transaction execution, and this signal
/// must unwind through apply_transaction_into untouched, back to the
/// scheduler that suspends the reader on `blocking_tx`. Carries the
/// estimated key so the scheduler can attribute the abort to it
/// (obs::ContentionSink).
struct EstimateAbort {
  std::uint32_t blocking_tx = 0;
  obs::TouchKey key;
};

/// Multi-version in-memory state for one block execution.
///
/// Keys are obs::TouchKeys: (account, slot, channel), slot 0 for the
/// balance, nonce and code channels, so a storage slot never aliases
/// them. Every write of transaction `tx`, incarnation `inc`, is stored as
/// the version (tx, inc); a reader at transaction index `r` resolves a
/// key to the version with the highest tx < r, or falls through to the
/// base state when no such version exists. Aborted incarnations flip
/// their versions to ESTIMATE markers in place; a resolution landing on
/// an estimate tells the reader which transaction to wait for.
///
/// Every channel takes the same path. A code version's value is an index
/// into the store's code table (add_code / code_at), which keeps each
/// deployment alive until reset().
///
/// Thread safety: internally sharded by key hash; every operation locks
/// only the key's shard, and the code table has its own mutex. Version
/// chains and the per-shard index keep their capacity across reset(), so
/// the steady state is allocation-free apart from deployments — matching
/// the engines' hot-path discipline (DESIGN.md §13).
class MultiVersionStore {
 public:
  /// Reader-index sentinel recorded for reads that fell through to the
  /// base state (no lower-index version existed).
  static constexpr std::uint32_t kBase = 0xffffffffu;

  struct Resolution {
    bool found = false;     ///< false: fall through to the base state
    bool estimate = false;  ///< true: blocked on `tx` (value invalid)
    std::uint32_t tx = 0;
    std::uint32_t incarnation = 0;
    std::uint64_t value = 0;
  };

  /// Highest-lower-index read: the version with the greatest tx strictly
  /// below reader_tx, estimates included (callers must check .estimate).
  TXCONC_HOT Resolution resolve(const obs::TouchKey& key,
                                std::uint32_t reader_tx) const;

  /// Record `value` as (tx, incarnation). Re-publishing the same (key, tx)
  /// replaces the entry and must not decrease the incarnation — that would
  /// mean a stale execution overwrote a newer one (UsageError).
  TXCONC_HOT void publish(const obs::TouchKey& key, std::uint32_t tx,
                          std::uint32_t incarnation, std::uint64_t value);

  /// Flip (key, tx)'s version to an ESTIMATE marker, keeping its
  /// incarnation. The entry must exist (UsageError otherwise): aborts mark
  /// exactly the keys the incarnation published.
  TXCONC_HOT void mark_estimate(const obs::TouchKey& key, std::uint32_t tx);

  /// Drop (key, tx) entirely (a re-execution stopped writing the key).
  /// @return true when an entry was removed.
  TXCONC_HOT bool remove(const obs::TouchKey& key, std::uint32_t tx);

  /// Keep `code` until reset(); returns its code-table index, the value a
  /// code-channel version publishes.
  std::uint64_t add_code(account::ContractCode code);
  /// The deployment add_code() returned `index` for (stable until reset()).
  const account::ContractCode* code_at(std::uint64_t index) const;

  /// Logically empty the store for the next block. Capacity is retained
  /// (epoch-cleared index, reused chain vectors); the code table empties.
  TXCONC_HOT void reset();

 private:
  struct Version {
    std::uint32_t tx = 0;
    std::uint32_t incarnation = 0;
    std::uint64_t value = 0;
    bool estimate = false;
  };
  /// Versions of one key, sorted by tx ascending (chains are short: the
  /// writers of one slot within one block).
  using Chain = std::vector<Version>;

  static constexpr std::size_t kNumShards = 16;
  /// Shard ids come from the hash's TOP log2(kNumShards) bits: each shard's
  /// FlatTable masks the same hash by a power-of-two capacity (low bits), so
  /// taking the low bits here would leave every key within a shard sharing
  /// its probe starting point and cluster the linear probes.
  static constexpr unsigned kShardShift = sizeof(std::size_t) * 8 - 4;
  static_assert(std::size_t{1} << (sizeof(std::size_t) * 8 - kShardShift) ==
                    kNumShards,
                "kShardShift must keep exactly log2(kNumShards) top bits");

  struct Shard {
    mutable Mutex mu;
    /// key -> chain slot + 1 (0 = unassigned; FlatTable default-constructs
    /// missing values, so the +1 shift doubles as the presence bit).
    common::FlatTable<obs::TouchKey, std::uint32_t, obs::TouchKeyHash> index
        GUARDED_BY(mu);
    /// Chain storage, recycled across blocks: chains[0..chains_used) are
    /// live this block, the rest are warmed capacity from earlier blocks.
    std::vector<Chain> chains GUARDED_BY(mu);
    std::size_t chains_used GUARDED_BY(mu) = 0;

    TXCONC_HOT Chain& chain_for(const obs::TouchKey& key) REQUIRES(mu);
    TXCONC_HOT Chain* find_chain(const obs::TouchKey& key) REQUIRES(mu);
    TXCONC_HOT const Chain* find_chain(const obs::TouchKey& key) const
        REQUIRES(mu);
  };

  TXCONC_HOT Shard& shard_for(const obs::TouchKey& key) {
    return shards_[obs::TouchKeyHash{}(key) >> kShardShift];
  }
  TXCONC_HOT const Shard& shard_for(const obs::TouchKey& key) const {
    return shards_[obs::TouchKeyHash{}(key) >> kShardShift];
  }

  Shard shards_[kNumShards];

  mutable Mutex code_mu_;
  /// The block's deployments, append-only; a deque so code_at() pointers
  /// survive later appends.
  std::deque<account::ContractCode> codes_ GUARDED_BY(code_mu_);
};

/// Test hooks for the block-stm engine. The defaults are the production
/// configuration; tests pin schedules with them.
struct BlockStmOptions {
  /// Skip read-set validation entirely (negative control: proves the
  /// validation step is load-bearing by diverging on dependent blocks).
  bool validate = true;
  /// Run the cooperative scheduler on the calling thread only, making the
  /// task interleaving a pure function of the dispatch order (exact
  /// attempt-count assertions in tests).
  bool deterministic = false;
  /// Initial execution dispatch order (a permutation of [0, num_txs));
  /// empty = block order. Lets tests force "execute dependents first" so
  /// the ESTIMATE/re-execution machinery provably engages.
  std::vector<std::uint32_t> first_dispatch;
};

std::unique_ptr<BlockExecutor> make_block_stm_executor(unsigned num_threads);
std::unique_ptr<BlockExecutor> make_block_stm_executor(
    unsigned num_threads, const BlockStmOptions& options);

}  // namespace txconc::exec
