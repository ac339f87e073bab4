// Per-block conflict analysis: the C++ equivalent of the paper's SQL +
// JavaScript UDF pipeline (Figures 2 and 3).
#pragma once

#include <span>

#include "account/types.h"
#include "core/components.h"
#include "core/metrics.h"
#include "core/tdg.h"
#include "utxo/transaction.h"

namespace txconc::analysis {

/// UTXO-model TDG: one node per non-coinbase transaction, an edge a -> b
/// whenever a TXO created by a is spent by b within the same block.
core::KeyedTdg<Hash256> build_utxo_tdg(
    std::span<const utxo::Transaction> transactions);

/// Conflict stats of a UTXO block (coinbase excluded). Optional weights are
/// per non-coinbase transaction, in block order (e.g. byte sizes).
core::ConflictStats analyze_utxo_block(
    std::span<const utxo::Transaction> transactions,
    std::span<const double> weights = {});

/// Account-model TDG: one node per referenced address; edges for every
/// regular transaction (sender -> receiver) and every internal transaction
/// from the execution traces.
struct AccountTdg {
  core::KeyedTdg<Address> addresses;
  /// One entry per regular transaction, referencing interned address ids;
  /// weight carries the transaction's gas.
  std::vector<core::AccountTxRef> tx_refs;
};

/// @param include_internal  when false, builds the approximate TDG the
/// paper's Section V-C mentions ("an approximate TDG can be constructed by
/// only using information about the regular transactions").
AccountTdg build_account_tdg(std::span<const account::AccountTx> transactions,
                             std::span<const account::Receipt> receipts,
                             bool include_internal = true);

/// Conflict stats of an account block; weighted metrics use per-tx gas.
core::ConflictStats analyze_account_block(
    std::span<const account::AccountTx> transactions,
    std::span<const account::Receipt> receipts,
    bool include_internal = true);

/// Storage-slot-granularity conflict partition (the definition of Saraph
/// & Herlihy [17]) over *transactions*: node i is receipt i's transaction,
/// and transactions share a component when one writes a slot another
/// reads or writes.
core::ComponentSet account_slot_components(
    std::span<const account::Receipt> receipts);

/// Conflict stats of account_slot_components; weighted metrics use
/// per-tx gas. The paper argues this finds *fewer* conflicted pairs than
/// address granularity for same-address/different-slot traffic, but
/// cannot see group structure; the ablation bench quantifies the gap.
core::ConflictStats analyze_account_block_slots(
    std::span<const account::AccountTx> transactions,
    std::span<const account::Receipt> receipts);

}  // namespace txconc::analysis
