// UTXO full node: mempool -> block production -> UTXO-set application ->
// ledger, plus validation of received blocks. The Bitcoin-family sibling
// of AccountNode.
#pragma once

#include "chain/block.h"
#include "chain/pow.h"
#include "common/error.h"
#include "utxo/utxo_set.h"

namespace txconc::chain {

struct UtxoNodeConfig {
  std::uint64_t coinbase_subsidy = 50'0000'0000ULL;
  std::size_t max_block_txs = 2000;
  std::uint64_t difficulty = 16;
  bool mine = false;
  std::uint64_t mine_budget = 1'000'000;
  /// Run unlock/lock scripts during validation (Bitcoin behaviour).
  bool verify_scripts = true;
};

/// A single UTXO-model full node.
class UtxoNode {
 public:
  explicit UtxoNode(UtxoNodeConfig config = {}) : config_(config) {}

  /// Validate against the current UTXO set (inputs exist, values balance,
  /// scripts verify) and admit to the mempool, prioritized by fee.
  /// Transactions spending unconfirmed outputs are rejected.
  void submit_transaction(const utxo::Transaction& tx);

  /// Assemble the next block: a coinbase paying `coinbase_lock` plus the
  /// best-paying admissible mempool transactions. Transactions invalidated
  /// since admission (double-spent inputs) are dropped. A `timestamp`
  /// before the tip's throws ValidationError before anything changes.
  /// When mining exhausts its budget, throws Error with the UTXO set and
  /// the mempool as they were.
  Block<utxo::Transaction> produce_block(std::uint64_t timestamp,
                                         const utxo::Script& coinbase_lock);

  /// Validate and apply a block from a peer: the ledger's rules
  /// (Ledger::check: height, prev_hash, timestamp, merkle root) and PoW
  /// (when mined) before the UTXO set changes, exactly one leading
  /// coinbase with the configured subsidy (plus fees), then
  /// all-or-nothing UTXO application.
  void receive_block(const Block<utxo::Transaction>& block);

  /// Undo the tip block (reorg support); returns the undone block.
  Block<utxo::Transaction> undo_tip();

  const utxo::UtxoSet& utxo_set() const { return utxo_set_; }
  const Ledger<utxo::Transaction>& ledger() const { return ledger_; }
  std::size_t mempool_size() const { return mempool_.size(); }

 private:
  /// Fee of a transaction given the current UTXO set.
  std::uint64_t fee_of(const utxo::Transaction& tx) const;

  UtxoNodeConfig config_;
  utxo::UtxoSet utxo_set_;
  Ledger<utxo::Transaction> ledger_;
  Mempool<utxo::Transaction> mempool_;
  /// Undo records per block, aligned with the ledger.
  std::vector<std::vector<utxo::TxUndo>> undo_stack_;
};

}  // namespace txconc::chain
