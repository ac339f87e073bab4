// Full-node integration: mempool -> block production -> execution ->
// ledger, plus validation of received blocks (re-execute and check header
// commitments). This is the glue a downstream user runs; the executors
// from src/exec plug in as the block-execution strategy.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "account/runtime.h"
#include "account/state.h"
#include "account/state_trie.h"
#include "chain/block.h"
#include "chain/pow.h"
#include "common/error.h"
#include "common/thread_annotations.h"
#include "obs/context.h"

namespace txconc::obs {
class Registry;  // metrics sink, see obs/metrics.h
}

namespace txconc::chain {

/// Configuration of an account-model node.
struct AccountNodeConfig {
  account::RuntimeConfig runtime;
  /// Maximum gas per block (Ethereum-style block gas limit).
  std::uint64_t block_gas_limit = 10'000'000;
  /// Maximum transactions per block.
  std::size_t max_block_txs = 500;
  /// Difficulty carried in produced headers (PoW grinding is optional).
  std::uint64_t difficulty = 16;
  /// Grind a valid PoW nonce when producing blocks (slow; for demos).
  bool mine = false;
  std::uint64_t mine_budget = 1'000'000;
  /// Commit the post-state trie root into headers and verify it when
  /// receiving blocks. The node keeps one persistent trie and re-hashes
  /// only the accounts written since the last root: O(dirty accounts) per
  /// block (DESIGN.md §18).
  bool commit_state_root = true;
  /// Chrome-trace process row this node's spans land under ("node-A",
  /// "node-B", ...); interned at construction. Multi-node runs give each
  /// node its own label so one trace shows one pid row per node.
  std::string trace_label = "node";
};

/// How a node executes the transactions of a block. Receives the node's
/// state and the block's transactions; returns per-transaction receipts in
/// block order. The default is sequential execution; adapters for the
/// src/exec engines satisfy this signature too.
using BlockExecutionFn = std::function<std::vector<account::Receipt>(
    account::StateDb&, std::span<const account::AccountTx>,
    const account::RuntimeConfig&)>;

/// A single account-model full node: owns the state, the ledger and a
/// mempool; produces and validates blocks.
///
/// Thread-safe monitor: submission, production and validation serialize on
/// an internal mutex, so an RPC-style frontend may submit transactions
/// while a producer loop assembles blocks. state() and ledger() hand out
/// raw references for quiescent use only (setup and post-run inspection).
class AccountNode {
 public:
  explicit AccountNode(AccountNodeConfig config = {},
                       BlockExecutionFn executor = nullptr);

  /// Validate a transaction against the current state (nonce not in the
  /// past, sender can cover value + max fee, intrinsic gas) and admit it
  /// to the mempool. Throws ValidationError when inadmissible.
  void submit_transaction(account::AccountTx tx);

  /// Assemble, execute and append the next block from the mempool.
  /// Transactions that fail validation at execution time (stale nonce
  /// after reordering, drained balance) are skipped, not included.
  /// A `timestamp` before the tip's throws ValidationError before the
  /// state or the mempool change. When mining exhausts its budget, throws
  /// Error with the state and the mempool as they were. The block's merkle
  /// root is computed once. Returns the produced block. When `trace_out`
  /// is non-null it receives a forked causal context of the block's root
  /// span — relay it alongside the block (receive_block, pbft, the
  /// Zilliqa epoch) so every downstream span joins the block's trace.
  Block<account::AccountTx> produce_block(
      std::uint64_t timestamp, obs::TraceContext* trace_out = nullptr);

  /// Validate a block received from a peer. The ledger's rules come
  /// first (Ledger::check: height, prev_hash, timestamp, merkle root),
  /// then PoW in mining mode; nothing executes before they pass. Then
  /// re-execute and check the header's gas_used and state_root
  /// commitments. On success the block is appended, without a second
  /// merkle root, and the state advanced; on failure the state is
  /// untouched, whichever executor ran the block, and ValidationError is
  /// thrown. `trace` is the message-envelope causal
  /// context relayed with the block (zero = start a fresh trace).
  void receive_block(const Block<account::AccountTx>& block,
                     const obs::TraceContext& trace = {});

  /// Quiescent use only: the reference escapes the monitor lock, so do
  /// not hold it across concurrent mutating calls.
  // tsa: the escaping reference cannot carry a REQUIRES(mu_) contract —
  // callers inspect state between rounds, when no mutator runs.
  const account::StateDb& state() const NO_THREAD_SAFETY_ANALYSIS {
    return state_;
  }
  /// Quiescent use only (see state()).
  // tsa: same escape as state() — quiescent read-only access.
  const Ledger<account::AccountTx>& ledger() const NO_THREAD_SAFETY_ANALYSIS {
    return ledger_;
  }
  std::size_t mempool_size() const {
    const MutexLock lock(mu_);
    return mempool_.size();
  }
  const AccountNodeConfig& config() const { return config_; }

  /// Credit an address directly (genesis allocation).
  void genesis_fund(const Address& addr, std::uint64_t amount);
  /// Install contract code directly (genesis deployment).
  void genesis_deploy(const Address& addr, account::ContractCode code);

 private:
  /// Runs the block-execution strategy under `trace` (threaded into the
  /// executor through RuntimeConfig::trace). The state parameter aliases
  /// the guarded state_ member (annotations cannot see through the
  /// alias), so the helper requires the monitor lock.
  std::vector<account::Receipt> execute(account::StateDb& state,
                                        std::span<const account::AccountTx> txs,
                                        const obs::TraceContext& trace)
      REQUIRES(mu_);

  /// Root of the current state: re-hashes the accounts written since the
  /// last call into trie_, then reads its root.
  Hash256 state_root() REQUIRES(mu_);

  /// Observes the last root's work, its dirty leaves and the trie's
  /// hashes, into `registry`; nothing when the node commits no root.
  void observe_state_root(obs::Registry& registry) const REQUIRES(mu_);

  mutable Mutex mu_;
  AccountNodeConfig config_;   // immutable after construction
  BlockExecutionFn executor_;  // immutable after construction
  const char* trace_process_;  // interned config_.trace_label
  account::StateDb state_ GUARDED_BY(mu_);
  Ledger<account::AccountTx> ledger_ GUARDED_BY(mu_);
  Mempool<account::AccountTx> mempool_ GUARDED_BY(mu_);
  /// Synced to state_ lazily, at the first root after a write.
  account::StateTrie trie_ GUARDED_BY(mu_);
  std::vector<account::StateTrie::Leaf> dirty_leaves_ GUARDED_BY(mu_);
};

}  // namespace txconc::chain
