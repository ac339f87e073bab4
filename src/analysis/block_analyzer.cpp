#include "analysis/block_analyzer.h"

#include <unordered_map>

#include "common/error.h"
#include "core/components.h"

namespace txconc::analysis {

core::KeyedTdg<Hash256> build_utxo_tdg(
    std::span<const utxo::Transaction> transactions) {
  core::KeyedTdg<Hash256> tdg;
  // Intern every non-coinbase transaction as a node first (isolated
  // transactions must appear as singleton components).
  for (const utxo::Transaction& tx : transactions) {
    if (tx.is_coinbase()) continue;
    tdg.node(tx.txid());
  }
  // An edge per in-block spend: creator -> spender.
  for (const utxo::Transaction& tx : transactions) {
    if (tx.is_coinbase()) continue;
    for (const utxo::TxInput& in : tx.inputs()) {
      if (tdg.contains(in.prevout.txid)) {
        tdg.add_edge(in.prevout.txid, tx.txid());
      }
    }
  }
  return tdg;
}

core::ConflictStats analyze_utxo_block(
    std::span<const utxo::Transaction> transactions,
    std::span<const double> weights) {
  const core::KeyedTdg<Hash256> tdg = build_utxo_tdg(transactions);
  const core::ComponentSet components =
      core::connected_components_bfs(tdg.graph());

  if (weights.empty()) {
    return core::utxo_conflict_stats(components);
  }
  // Re-order caller weights (given in block order over non-coinbase txs)
  // to the TDG's node numbering.
  std::vector<double> node_weights(tdg.num_nodes(), 1.0);
  std::size_t index = 0;
  for (const utxo::Transaction& tx : transactions) {
    if (tx.is_coinbase()) continue;
    if (index >= weights.size()) {
      throw UsageError("analyze_utxo_block: weight count mismatch");
    }
    node_weights[tdg.find(tx.txid())] = weights[index++];
  }
  if (index != weights.size()) {
    throw UsageError("analyze_utxo_block: weight count mismatch");
  }
  return core::utxo_conflict_stats(components, node_weights);
}

AccountTdg build_account_tdg(std::span<const account::AccountTx> transactions,
                             std::span<const account::Receipt> receipts,
                             bool include_internal) {
  if (!receipts.empty() && receipts.size() != transactions.size()) {
    throw UsageError("build_account_tdg: receipt count mismatch");
  }
  AccountTdg out;
  for (std::size_t i = 0; i < transactions.size(); ++i) {
    const account::AccountTx& tx = transactions[i];
    // Creations edge to the deployed contract's address.
    Address to;
    if (tx.to.has_value()) {
      to = *tx.to;
    } else if (i < receipts.size() && receipts[i].created.has_value()) {
      to = *receipts[i].created;
    } else {
      to = Address::derive_contract(tx.from, tx.nonce);
    }
    out.addresses.add_edge(tx.from, to);

    core::AccountTxRef ref;
    ref.sender = out.addresses.node(tx.from);
    ref.receiver = out.addresses.node(to);
    ref.weight = i < receipts.size()
                     ? static_cast<double>(receipts[i].gas_used)
                     : 1.0;
    out.tx_refs.push_back(ref);

    if (include_internal && i < receipts.size()) {
      for (const account::InternalTx& itx : receipts[i].internal_txs) {
        out.addresses.add_edge(itx.from, itx.to);
      }
    }
  }
  return out;
}

core::ConflictStats analyze_account_block(
    std::span<const account::AccountTx> transactions,
    std::span<const account::Receipt> receipts, bool include_internal) {
  const AccountTdg tdg =
      build_account_tdg(transactions, receipts, include_internal);
  const core::ComponentSet components =
      core::connected_components_bfs(tdg.addresses.graph());
  return core::account_conflict_stats(components, tdg.tx_refs);
}

core::ComponentSet account_slot_components(
    std::span<const account::Receipt> receipts) {
  // Conflict graph over *transactions*: union transactions whose write set
  // intersects another's read or write set.
  struct SlotUse {
    std::vector<std::uint32_t> readers;
    std::vector<std::uint32_t> writers;
  };
  std::unordered_map<account::SlotAccess, SlotUse, account::SlotAccessHash>
      slots;
  for (std::uint32_t i = 0; i < receipts.size(); ++i) {
    for (const account::SlotAccess& r : receipts[i].reads) {
      slots[r].readers.push_back(i);
    }
    for (const account::SlotAccess& w : receipts[i].writes) {
      slots[w].writers.push_back(i);
    }
  }

  core::Tdg graph(receipts.size());
  for (const auto& [slot, use] : slots) {
    if (use.writers.empty()) continue;
    const std::uint32_t first_writer = use.writers.front();
    for (std::uint32_t w : use.writers) {
      if (w != first_writer) graph.add_edge(first_writer, w);
    }
    for (std::uint32_t r : use.readers) {
      if (r != first_writer) graph.add_edge(first_writer, r);
    }
  }
  return core::connected_components_dsu(graph);
}

core::ConflictStats analyze_account_block_slots(
    std::span<const account::AccountTx> transactions,
    std::span<const account::Receipt> receipts) {
  if (receipts.size() != transactions.size()) {
    throw UsageError("analyze_account_block_slots: receipt count mismatch");
  }
  std::vector<double> gas(receipts.size());
  for (std::size_t i = 0; i < receipts.size(); ++i) {
    gas[i] = static_cast<double>(receipts[i].gas_used);
  }
  return core::utxo_conflict_stats(account_slot_components(receipts), gas);
}

}  // namespace txconc::analysis
