#include "chain/node.h"

#include <chrono>

#include "obs/scope.h"
#include "obs/names.h"
#include "obs/snapshot.h"
#include "obs/trace.h"

namespace txconc::chain {

namespace {

/// The node's tracer: the scope threaded through RuntimeConfig when set,
/// the process tracer otherwise (matching the pre-context TXCONC_SPAN
/// behavior of the chain layer).
obs::Tracer* node_tracer(const AccountNodeConfig& config) {
  obs::Tracer* scoped = obs::tracer(config.runtime.obs);
  return scoped != nullptr ? scoped : &obs::Tracer::global();
}

/// The node's metrics sink: scope registry when set, otherwise the global
/// registry while the global tracer is enabled (the shard layer's
/// convention), else null.
obs::Registry* node_registry(const AccountNodeConfig& config) {
  obs::Registry* scoped = obs::metrics(config.runtime.obs);
  if (scoped != nullptr) return scoped;
  return obs::Tracer::global().enabled() ? &obs::Registry::global() : nullptr;
}

double elapsed_us(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// State-size gauges, so a memory move can be read against state size.
void set_state_gauges(obs::Registry& registry, const account::StateDb& state) {
  registry.gauge(obs::names::kMetricNodeStateAccounts)
      .set(static_cast<double>(state.num_accounts()));
  registry.gauge(obs::names::kMetricNodeStateStorageSlots)
      .set(static_cast<double>(state.num_storage_slots()));
}

}  // namespace

AccountNode::AccountNode(AccountNodeConfig config, BlockExecutionFn executor)
    : config_(std::move(config)),
      executor_(std::move(executor)),
      trace_process_(obs::intern_label(config_.trace_label.c_str())) {}

void AccountNode::genesis_fund(const Address& addr, std::uint64_t amount) {
  const MutexLock lock(mu_);
  if (!ledger_.empty()) {
    throw UsageError("genesis_fund after the chain has started");
  }
  state_.set_balance(addr, amount);
  state_.flush_journal();
}

void AccountNode::genesis_deploy(const Address& addr,
                                 account::ContractCode code) {
  const MutexLock lock(mu_);
  if (!ledger_.empty()) {
    throw UsageError("genesis_deploy after the chain has started");
  }
  account::genesis_deploy(state_, addr, std::move(code));
  state_.flush_journal();
}

void AccountNode::submit_transaction(account::AccountTx tx) {
  const MutexLock lock(mu_);
  // Admission checks against the current state. Nonces may be in the
  // future (a sender queueing several transactions) but not in the past.
  if (config_.runtime.enforce_nonce && tx.nonce < state_.nonce(tx.from)) {
    throw ValidationError("nonce already used");
  }
  const std::uint64_t max_fee =
      config_.runtime.charge_fees ? tx.gas_limit * tx.gas_price : 0;
  if (state_.balance(tx.from) < tx.value + max_fee) {
    throw ValidationError("sender cannot cover value plus max fee");
  }
  const std::uint64_t intrinsic =
      config_.runtime.gas.tx_base +
      (tx.is_creation()
           ? account::creation_gas(config_.runtime.gas, tx.init_code.code.size())
           : 0);
  if (tx.gas_limit < intrinsic) {
    throw ValidationError("gas limit below intrinsic cost");
  }
  if (tx.gas_limit > config_.block_gas_limit) {
    throw ValidationError("gas limit exceeds the block gas limit");
  }
  const std::uint64_t priority = tx.gas_price;
  mempool_.add(std::move(tx), priority);
}

std::vector<account::Receipt> AccountNode::execute(
    account::StateDb& state, std::span<const account::AccountTx> txs,
    const obs::TraceContext& trace) {
  // A validator checks gas_used and the state root, never the receipts'
  // read/write sets, so it executes without access tracking, like the
  // producer. Engines that detect conflicts from the sets turn tracking
  // back on for themselves, and an installed recorder forces it on
  // (DESIGN.md §21.4).
  account::RuntimeConfig runtime = config_.runtime;
  runtime.track_accesses = false;
  runtime.trace = trace;
  if (executor_) return executor_(state, txs, runtime);
  std::vector<account::Receipt> receipts;
  receipts.reserve(txs.size());
  for (const auto& tx : txs) {
    receipts.push_back(account::apply_transaction(state, tx, runtime));
  }
  return receipts;
}

Hash256 AccountNode::state_root() {
  dirty_leaves_.clear();
  for (const Address& addr : state_.dirty_accounts()) {
    dirty_leaves_.push_back({addr, state_.account_digest(addr)});
  }
  state_.clear_dirty();
  trie_.update(dirty_leaves_);
  return trie_.root();
}

void AccountNode::observe_state_root(obs::Registry& registry) const {
  if (!config_.commit_state_root) return;
  registry.histogram(obs::names::kMetricNodeStateRootLeaves)
      .observe(static_cast<double>(dirty_leaves_.size()));
  registry.histogram(obs::names::kMetricNodeStateRootHashes)
      .observe(static_cast<double>(trie_.last_update_hashes()));
}

Block<account::AccountTx> AccountNode::produce_block(
    std::uint64_t timestamp, obs::TraceContext* trace_out) {
  const MutexLock lock(mu_);
  const auto start = std::chrono::steady_clock::now();
  obs::Tracer* const tracer = node_tracer(config_);
  const obs::ThreadProcessScope proc(trace_process_);
  // Root of the block's causal story: everything downstream — gossip,
  // pbft rounds, cross-shard 2PC, remote re-execution — links back here.
  const obs::CausalSpan block_span(tracer, obs::names::kSpanProduceBlock,
                                   obs::names::kCatChain);
  // The ledger's rules first: a timestamp it would refuse must fail
  // before packing touches the state or drains the mempool.
  BlockHeader header = ledger_.next_header(timestamp, config_.difficulty);
  // Pull candidates by fee priority, then order runnable ones. A candidate
  // whose nonce is not yet current goes back to the pool.
  std::vector<account::AccountTx> candidates =
      mempool_.take(config_.max_block_txs * 2);

  // The producer keeps no receipts, only their gas, so it packs into one
  // reused receipt slot without access tracking (an installed recorder
  // still forces tracking on; DESIGN.md §20).
  account::RuntimeConfig runtime = config_.runtime;
  runtime.track_accesses = false;
  account::Receipt receipt;
  account::AccessTracker tracker;
  std::vector<account::AccountTx> included;
  std::uint64_t gas_budget = config_.block_gas_limit;
  std::uint64_t passes = 0;
  std::uint64_t deferrals = 0;
  std::uint64_t drops = 0;
  const account::Snapshot pre_block = state_.snapshot();

  {
    const obs::CausalSpan span(tracer, obs::names::kSpanPack, obs::names::kCatChain,
                               block_span.context(),
                               static_cast<std::int64_t>(candidates.size()));
    // Multi-pass packing: a transaction with a future nonce becomes
    // runnable once its same-sender predecessor lands, so retry deferrals
    // while any pass makes progress. The precheck classifies a candidate
    // without throwing; deferrals compact to the front of `candidates`,
    // in order, for the next pass.
    bool progress = true;
    while (progress && !candidates.empty()) {
      progress = false;
      ++passes;
      std::size_t kept = 0;
      account::for_each_prefetched(state_, candidates, [&](std::size_t i) {
        account::AccountTx& tx = candidates[i];
        if (included.size() >= config_.max_block_txs ||
            tx.gas_limit > gas_budget) {
          // Does not fit this block; back to the pool for the next one.
          const std::uint64_t priority = tx.gas_price;
          mempool_.add(std::move(tx), priority);
        } else if (account::precheck_transaction(state_, tx, runtime) ==
                   nullptr) {
          account::apply_transaction_into(state_, tx, runtime, receipt,
                                          tracker);
          gas_budget -= receipt.gas_used;
          header.gas_used += receipt.gas_used;
          included.push_back(std::move(tx));
          progress = true;
        } else if (runtime.enforce_nonce && tx.nonce > state_.nonce(tx.from)) {
          // The predecessor may still land.
          if (kept != i) candidates[kept] = std::move(tx);
          ++kept;
          ++deferrals;
        } else {
          ++drops;  // stale nonce or drained balance
        }
      });
      candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(kept),
                       candidates.end());
    }
    // Unresolved future nonces return to the pool.
    for (auto& tx : candidates) {
      const std::uint64_t priority = tx.gas_price;
      mempool_.add(std::move(tx), priority);
    }
  }

  if (config_.commit_state_root) {
    const obs::CausalSpan span(tracer, obs::names::kSpanStateRoot, obs::names::kCatChain,
                               block_span.context());
    header.state_root = state_root();
  }
  Ledger<account::AccountTx>::Checked sealed =
      ledger_.seal(std::move(header), std::move(included));
  if (config_.mine) {
    const obs::CausalSpan span(tracer, obs::names::kSpanPow, obs::names::kCatChain,
                               block_span.context());
    const auto nonce = mine_header(sealed.block().header, config_.mine_budget);
    if (!nonce) {
      // Nothing of the block stays: the state rolls back and its
      // transactions return to the pool for the next attempt.
      state_.revert(pre_block);
      for (const account::AccountTx& tx : sealed.block().transactions) {
        mempool_.add(tx, tx.gas_price);
      }
      throw Error("mining budget exhausted");
    }
    sealed.set_nonce(*nonce);
  }
  state_.flush_journal();
  Block<account::AccountTx> block = sealed.block();
  ledger_.append(std::move(sealed));
  if (obs::Registry* const registry = node_registry(config_)) {
    observe_state_root(*registry);
    registry->counter(obs::names::kMetricNodeBlocksProduced).add(1);
    registry->counter(obs::names::kMetricNodeTxsIncluded).add(block.transactions.size());
    registry->histogram(obs::names::kMetricNodeProduceUs).observe(elapsed_us(start));
    registry->counter(obs::names::kMetricNodePackDeferred).add(deferrals);
    registry->counter(obs::names::kMetricNodePackDropped).add(drops);
    registry->histogram(obs::names::kMetricNodePackPasses)
        .observe(static_cast<double>(passes));
    set_state_gauges(*registry, state_);
  }
  if (config_.snapshots != nullptr) config_.snapshots->tick();
  // Fork the context inside the producing span so the flow arrow starts
  // here and the relay sites (gossip, pbft, cross-shard) just forward it.
  if (trace_out != nullptr) *trace_out = block_span.fork();
  return block;
}

void AccountNode::receive_block(const Block<account::AccountTx>& block,
                                const obs::TraceContext& trace) {
  const MutexLock lock(mu_);
  const auto start = std::chrono::steady_clock::now();
  obs::Tracer* const tracer = node_tracer(config_);
  const obs::ThreadProcessScope proc(trace_process_);
  const obs::CausalSpan block_span(
      tracer, obs::names::kSpanReceiveBlock, obs::names::kCatChain, trace,
      static_cast<std::int64_t>(block.header.height));
  // The ledger's rules (linkage, timestamp, merkle root) before anything
  // executes; the handle lets the commit append without a second root.
  Ledger<account::AccountTx>::Checked checked = ledger_.check(block);
  // PoW is mandatory whenever this node runs in mining mode — gating on
  // the nonce value would let a forged zero-nonce block skip the check.
  if (config_.mine &&
      !meets_target(block.header.hash(), block.header.difficulty)) {
    throw ValidationError("proof of work does not meet the target");
  }

  // Re-execute and verify the commitments; roll back on any failure. The
  // hold keeps the executor's own flush_journal and JournalPause from
  // dropping the undo journal, so the rollback covers every engine.
  {
    const account::JournalHold hold(state_);
    const account::Snapshot pre_block = state_.snapshot();
    try {
      std::vector<account::Receipt> receipts;
      {
        const obs::CausalSpan span(
            tracer, obs::names::kSpanExecute, obs::names::kCatChain, block_span.context(),
            static_cast<std::int64_t>(block.transactions.size()));
        // The executor joins the block's trace through RuntimeConfig::trace
        // (its execute_block span becomes a child of this one).
        receipts = execute(state_, block.transactions, span.context());
      }
      std::uint64_t gas_used = 0;
      for (const auto& r : receipts) gas_used += r.gas_used;
      if (gas_used != block.header.gas_used) {
        throw ValidationError("gas_used commitment mismatch");
      }
      if (gas_used > config_.block_gas_limit) {
        throw ValidationError("block exceeds the gas limit");
      }
      if (config_.commit_state_root &&
          state_root() != block.header.state_root) {
        // The revert below re-marks the restored accounts dirty, so the
        // next root re-syncs the trie to the pre-block state.
        throw ValidationError("state root commitment mismatch");
      }
    } catch (...) {
      state_.revert(pre_block);
      throw;
    }
  }
  {
    const obs::CausalSpan span(tracer, obs::names::kSpanCommit, obs::names::kCatChain,
                               block_span.context());
    state_.flush_journal();
    ledger_.append(std::move(checked));
  }
  if (obs::Registry* const registry = node_registry(config_)) {
    observe_state_root(*registry);
    registry->counter(obs::names::kMetricNodeBlocksReceived).add(1);
    registry->counter(obs::names::kMetricNodeTxsExecuted).add(block.transactions.size());
    registry->histogram(obs::names::kMetricNodeReceiveUs).observe(elapsed_us(start));
    set_state_gauges(*registry, state_);
  }
  if (config_.snapshots != nullptr) config_.snapshots->tick();
}

}  // namespace txconc::chain
