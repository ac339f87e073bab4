// Transaction application for the account model.
//
// apply_transaction is the single entry point every executor (sequential,
// speculative, group-scheduled) uses to run one transaction against a State.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>

#include "account/state.h"
#include "account/types.h"
#include "account/vm.h"
#include "obs/context.h"

namespace txconc::obs {
struct Scope;  // tracer + metrics bundle, see obs/scope.h
}

namespace txconc::account {

/// Test-only fault injection: when RuntimeConfig::fault_injector is set,
/// apply_transaction consults it once per transaction; a selected
/// transaction traps right after its value transfer, exactly like a VM
/// fault — the execution effects roll back while the nonce bump, intrinsic
/// gas and fee stand. Selection must be a pure function of the transaction
/// (not of executor, phase or retry count) so every engine traps the same
/// set and the conformance oracle can assert their receipts converge.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;
  virtual bool should_trap(const AccountTx& tx) const = 0;
};

/// Observer of transaction execution attempts, installed through
/// RuntimeConfig::recorder (same hook pattern as the fault injector).
///
/// apply_transaction calls on_begin once the validity checks have passed
/// (so rejected transactions are never recorded) and on_complete just
/// before returning the receipt, on the executing thread. Executors may
/// run a transaction several times (speculation retries, block-stm
/// incarnations); each attempt produces one begin/complete pair, and the
/// pairs never nest on one thread because apply_transaction does not
/// recurse. Implementations must be internally synchronized: hooks fire
/// concurrently from every pool worker. The audit layer (src/audit) builds
/// its interval-based ordering checks on exactly this contract.
class AccessRecorder {
 public:
  virtual ~AccessRecorder() = default;
  virtual void on_begin(const AccountTx& tx) const = 0;
  virtual void on_complete(const AccountTx& tx,
                           const Receipt& receipt) const = 0;
};

/// Configuration of the runtime semantics.
struct RuntimeConfig {
  GasSchedule gas;
  VmLimits limits;
  /// Enforce sender nonces (transactions must apply in nonce order).
  bool enforce_nonce = true;
  /// Charge gas fees from the sender (fees are burned — crediting a miner
  /// would make every transaction conflict on the miner's balance, which
  /// the paper's TDG, like its coinbase handling, deliberately excludes).
  bool charge_fees = true;
  /// Record storage/balance read-write sets in the receipt.
  bool track_accesses = true;
  /// Test-only: trap the transactions this injector selects (see above).
  const FaultInjector* fault_injector = nullptr;
  /// Observe execution attempts (see AccessRecorder). When set, access
  /// tracking is forced on so the recorder always sees real read/write
  /// sets, regardless of track_accesses.
  const AccessRecorder* recorder = nullptr;
  /// Observability sink (span tracer + metrics registry, see obs/scope.h).
  /// Null is the zero-cost disabled path; executors emit their per-phase
  /// and per-transaction spans and block metrics through it.
  const obs::Scope* obs = nullptr;
  /// Causal trace context of the enclosing block (see obs/context.h).
  /// Executors start their block/phase spans as children of this, so a
  /// node relaying a block hands the whole execution to the block's
  /// trace. The zero default means "start a fresh trace root".
  obs::TraceContext trace;
  /// Synthetic per-transaction compute cost: after the validity checks,
  /// burn this many deterministic hash-mix iterations before executing.
  /// Models heavier contracts (EVM interpretation, signature recovery)
  /// without touching the VM; benches use it to move the workload from
  /// overhead-bound to compute-bound (bench/ablation_engines --tx-work).
  std::uint32_t synthetic_work = 0;
};

/// Apply one transaction to the state.
///
/// Invalid transactions — bad nonce, sender cannot cover value plus the
/// maximum fee — throw ValidationError and leave the state untouched (they
/// would never have entered a block). Execution failures (out of gas,
/// contract fault, revert) return an unsuccessful Receipt: the state
/// changes are rolled back but gas is still consumed, exactly as on
/// Ethereum.
Receipt apply_transaction(State& state, const AccountTx& tx,
                          const RuntimeConfig& config = {});

/// Allocation-free flavor of apply_transaction for the engines' per-worker
/// hot paths: the receipt is reset() and filled in place (vector/string
/// capacity reused) and the caller-owned tracker replaces the per-call
/// AccessTracker. Identical semantics otherwise, including the
/// ValidationError throws.
void apply_transaction_into(State& state, const AccountTx& tx,
                            const RuntimeConfig& config, Receipt& receipt,
                            AccessTracker& tracker);

/// The validity checks of apply_transaction as a non-throwing predicate:
/// returns nullptr when the transaction would pass them against `state`,
/// else a static description of the first failing check. Speculative
/// engines call this before apply_transaction_into so the common stale-
/// nonce rejection costs neither an exception throw nor the error-string
/// allocations. Must stay in lockstep with apply_transaction's checks.
const char* precheck_transaction(const State& state, const AccountTx& tx,
                                 const RuntimeConfig& config);

/// How many transactions ahead of the one being applied the sequential
/// block paths prefetch accounts (DESIGN.md §24.2).
inline constexpr std::size_t kPrefetchDistance = 8;

/// Call fn(i) for every index of txs in order, the loop of the sequential
/// block paths. Before each call it prefetches the sender's and
/// receiver's account slots of transaction i + kPrefetchDistance (the
/// first kPrefetchDistance before the first call), so that a
/// transaction's first account touch finds its slot in cache. The
/// prefetches read only transactions after i, so fn may move from the
/// ones up to i through its own handle.
template <typename Fn>
void for_each_prefetched(const StateDb& state,
                         std::span<const AccountTx> txs, Fn&& fn) {
  const auto prefetch = [&](const AccountTx& tx) {
    state.prefetch(tx.from);
    if (tx.to) state.prefetch(*tx.to);
  };
  for (std::size_t i = 0; i < std::min(kPrefetchDistance, txs.size()); ++i) {
    prefetch(txs[i]);
  }
  for (std::size_t i = 0; i < txs.size(); ++i) {
    if (i + kPrefetchDistance < txs.size()) {
      prefetch(txs[i + kPrefetchDistance]);
    }
    fn(i);
  }
}

/// Install a contract at an address without a creation transaction
/// (genesis-style bootstrap used by tests and the workload generator).
void genesis_deploy(State& state, const Address& addr, ContractCode code);

/// Gas cost of a contract creation with the given code size.
std::uint64_t creation_gas(const GasSchedule& gas, std::size_t code_size);

}  // namespace txconc::account
