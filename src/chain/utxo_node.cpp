#include "chain/utxo_node.h"

namespace txconc::chain {

std::uint64_t UtxoNode::fee_of(const utxo::Transaction& tx) const {
  std::uint64_t in_value = 0;
  for (const auto& in : tx.inputs()) {
    const auto coin = utxo_set_.get(in.prevout);
    if (!coin) throw ValidationError("input not in the UTXO set");
    in_value += coin->value;
  }
  const std::uint64_t out_value = tx.total_output();
  if (out_value > in_value) throw ValidationError("outputs exceed inputs");
  return in_value - out_value;
}

void UtxoNode::submit_transaction(const utxo::Transaction& tx) {
  if (tx.is_coinbase()) {
    throw ValidationError("coinbase transactions cannot be submitted");
  }
  utxo_set_.validate(tx, {.run_scripts = config_.verify_scripts});
  mempool_.add(tx, fee_of(tx));
}

Block<utxo::Transaction> UtxoNode::produce_block(
    std::uint64_t timestamp, const utxo::Script& coinbase_lock) {
  // The ledger's rules first: a timestamp it would refuse must fail
  // before the UTXO set or the mempool change.
  BlockHeader header = ledger_.next_header(timestamp, config_.difficulty);
  std::vector<utxo::Transaction> candidates =
      mempool_.take(config_.max_block_txs);

  std::vector<utxo::Transaction> included;
  std::vector<utxo::TxUndo> undos;
  std::uint64_t fees = 0;

  // Coinbase value depends on the fees, so apply regular transactions
  // first and prepend the coinbase afterwards.
  for (auto& tx : candidates) {
    try {
      const std::uint64_t fee = fee_of(tx);
      undos.push_back(
          utxo_set_.apply(tx, {.run_scripts = config_.verify_scripts}));
      fees += fee;
      included.push_back(std::move(tx));
    } catch (const ValidationError&) {
      // Invalidated since admission (inputs spent meanwhile): drop.
    }
  }

  utxo::Transaction coinbase = utxo::Transaction::coinbase(
      config_.coinbase_subsidy + fees, coinbase_lock, header.height);
  undos.insert(undos.begin(),
               utxo_set_.apply(coinbase, {.run_scripts = false,
                                          .allow_minting = true}));
  included.insert(included.begin(), std::move(coinbase));

  Ledger<utxo::Transaction>::Checked sealed =
      ledger_.seal(std::move(header), std::move(included));
  if (config_.mine) {
    const auto nonce = mine_header(sealed.block().header, config_.mine_budget);
    if (!nonce) {
      // Nothing of the block stays: the UTXO set rolls back and its
      // transactions, all but this attempt's coinbase, return to the pool
      // (their inputs are unspent again, so their fees price as before).
      utxo_set_.undo_block(undos);
      const std::vector<utxo::Transaction>& txs = sealed.block().transactions;
      for (std::size_t i = 1; i < txs.size(); ++i) {
        mempool_.add(txs[i], fee_of(txs[i]));
      }
      throw Error("mining budget exhausted");
    }
    sealed.set_nonce(*nonce);
  }
  Block<utxo::Transaction> block = sealed.block();
  ledger_.append(std::move(sealed));
  undo_stack_.push_back(std::move(undos));
  return block;
}

void UtxoNode::receive_block(const Block<utxo::Transaction>& block) {
  // The ledger's rules (linkage, timestamp, merkle root) before the UTXO
  // set changes; the handle lets the append skip a second root.
  Ledger<utxo::Transaction>::Checked checked = ledger_.check(block);
  // PoW is mandatory whenever this node runs in mining mode — gating on
  // the nonce value would let a forged zero-nonce block skip the check.
  if (config_.mine &&
      !meets_target(block.header.hash(), block.header.difficulty)) {
    throw ValidationError("proof of work does not meet the target");
  }
  if (block.transactions.empty() || !block.transactions[0].is_coinbase()) {
    throw ValidationError("block must start with a coinbase");
  }
  for (std::size_t i = 1; i < block.transactions.size(); ++i) {
    if (block.transactions[i].is_coinbase()) {
      throw ValidationError("multiple coinbase transactions");
    }
  }

  // Subsidy check: coinbase value == subsidy + total fees. Fees need the
  // pre-block UTXO set, so compute them as we validate/apply.
  std::vector<utxo::TxUndo> undos;
  std::uint64_t fees = 0;
  try {
    for (std::size_t i = 1; i < block.transactions.size(); ++i) {
      const std::uint64_t fee = fee_of(block.transactions[i]);
      undos.push_back(utxo_set_.apply(
          block.transactions[i], {.run_scripts = config_.verify_scripts}));
      fees += fee;
    }
    if (block.transactions[0].total_output() !=
        config_.coinbase_subsidy + fees) {
      throw ValidationError("coinbase value != subsidy + fees");
    }
    undos.insert(undos.begin(),
                 utxo_set_.apply(block.transactions[0],
                                 {.run_scripts = false,
                                  .allow_minting = true}));
  } catch (...) {
    utxo_set_.undo_block(undos);
    throw;
  }
  ledger_.append(std::move(checked));
  undo_stack_.push_back(std::move(undos));
}

Block<utxo::Transaction> UtxoNode::undo_tip() {
  if (ledger_.empty()) throw UsageError("undo_tip: empty chain");
  // The linear Ledger has no pop; rebuild it without the tip.
  Block<utxo::Transaction> tip = ledger_.tip();
  utxo_set_.undo_block(undo_stack_.back());
  undo_stack_.pop_back();

  Ledger<utxo::Transaction> shorter;
  for (std::size_t h = 0; h + 1 < ledger_.height(); ++h) {
    shorter.append(ledger_.at(h));
  }
  ledger_ = std::move(shorter);
  return tip;
}

}  // namespace txconc::chain
