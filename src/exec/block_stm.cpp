// Block-STM executor: multi-version optimistic execution with dynamic
// dependency discovery and targeted re-execution (see block_stm.h).
//
// The moving parts, bottom-up:
//  * MultiVersionStore — sharded (key -> sorted version chain) map, one
//    path for every channel; reads resolve to the highest lower-index
//    write, aborts flip entries to ESTIMATE markers in place. Code
//    versions hold an index into the store's per-block code table.
//  * MvStateView — a read-only State over (store, base) that records every
//    read with the version it observed and throws EstimateAbort on
//    markers. Workers stack the usual OverlayState on top, so the write
//    side (journaling, rollback, export) is the engines' shared code.
//  * PublishSink — a write-only State that replays a WriteLog into the
//    store as (tx, incarnation) versions.
//  * TxSlot + the cooperative scheduler — per-transaction status machine
//    (Ready / Executing / Suspended / Executed) driven by two monotone
//    task cursors (execution in dispatch order, validation in block
//    order) that aborts rewind. Work-count accounting (`active_`)
//    guarantees the done check cannot fire while any task that might
//    rewind a cursor or resume a dependent is still in flight: every
//    rewind happens before its task releases `active_`.
//
// Correctness of the final state rests on two invariants:
//  1. every fall-through read is recorded with the version it resolved
//     (no deduplication — a later read of the same key may observe a
//     different version, and validation must check both); and
//  2. completion requires a full validation sweep after the last
//     (re-)execution: finish_execution always rewinds the validation
//     cursor at or below its index, so the block only quiesces when every
//     final incarnation validated against every other final incarnation.
#include "exec/block_stm.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "account/runtime.h"
#include "common/error.h"
#include "exec/block_frame.h"
#include "exec/scratch.h"
#include "exec/thread_pool.h"
#include "obs/names.h"
#include "obs/scope.h"
#include "obs/trace.h"

namespace txconc::exec {

// ------------------------------------------------------ MultiVersionStore

MultiVersionStore::Chain* MultiVersionStore::Shard::find_chain(
    const obs::TouchKey& key) {
  const std::uint32_t* slot = index.find(key);
  if (slot == nullptr || *slot == 0) return nullptr;
  return &chains[*slot - 1];
}

const MultiVersionStore::Chain* MultiVersionStore::Shard::find_chain(
    const obs::TouchKey& key) const {
  const std::uint32_t* slot = index.find(key);
  if (slot == nullptr || *slot == 0) return nullptr;
  return &chains[*slot - 1];
}

MultiVersionStore::Chain& MultiVersionStore::Shard::chain_for(
    const obs::TouchKey& key) {
  std::uint32_t& slot = index[key];
  if (slot == 0) {
    if (chains_used == chains.size()) chains.emplace_back();
    Chain& chain = chains[chains_used];
    chain.clear();  // recycled from an earlier block; capacity retained
    slot = static_cast<std::uint32_t>(++chains_used);
    return chain;
  }
  return chains[slot - 1];
}

MultiVersionStore::Resolution MultiVersionStore::resolve(
    const obs::TouchKey& key, std::uint32_t reader_tx) const {
  Resolution out;
  const Shard& shard = shard_for(key);
  MutexLock lock(shard.mu);
  const Chain* chain = shard.find_chain(key);
  if (chain == nullptr || chain->empty()) return out;
  // Binary search for the first version with tx >= reader_tx; the
  // predecessor (if any) is the read target.
  auto it = std::lower_bound(
      chain->begin(), chain->end(), reader_tx,
      [](const Version& v, std::uint32_t r) { return v.tx < r; });
  if (it == chain->begin()) return out;
  --it;
  out.found = true;
  out.estimate = it->estimate;
  out.tx = it->tx;
  out.incarnation = it->incarnation;
  out.value = it->value;
  return out;
}

void MultiVersionStore::publish(const obs::TouchKey& key, std::uint32_t tx,
                                std::uint32_t incarnation,
                                std::uint64_t value) {
  Shard& shard = shard_for(key);
  MutexLock lock(shard.mu);
  Chain& chain = shard.chain_for(key);
  auto it = std::lower_bound(
      chain.begin(), chain.end(), tx,
      [](const Version& v, std::uint32_t t) { return v.tx < t; });
  if (it != chain.end() && it->tx == tx) {
    if (incarnation < it->incarnation) {
      throw UsageError(
          "MultiVersionStore::publish: incarnation must not decrease");
    }
    *it = Version{tx, incarnation, value, false};
    return;
  }
  chain.insert(it, Version{tx, incarnation, value, false});
}

void MultiVersionStore::mark_estimate(const obs::TouchKey& key,
                                      std::uint32_t tx) {
  Shard& shard = shard_for(key);
  MutexLock lock(shard.mu);
  Chain* chain = shard.find_chain(key);
  if (chain != nullptr) {
    for (Version& v : *chain) {
      if (v.tx == tx) {
        v.estimate = true;
        return;
      }
    }
  }
  throw UsageError("MultiVersionStore::mark_estimate: no such version");
}

bool MultiVersionStore::remove(const obs::TouchKey& key, std::uint32_t tx) {
  Shard& shard = shard_for(key);
  MutexLock lock(shard.mu);
  Chain* chain = shard.find_chain(key);
  if (chain == nullptr) return false;
  for (auto it = chain->begin(); it != chain->end(); ++it) {
    if (it->tx == tx) {
      chain->erase(it);
      return true;
    }
  }
  return false;
}

void MultiVersionStore::reset() {
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    shard.index.clear();  // epoch bump; chain vectors stay warm
    shard.chains_used = 0;
  }
  MutexLock lock(code_mu_);
  codes_.clear();
}

std::uint64_t MultiVersionStore::add_code(account::ContractCode code) {
  MutexLock lock(code_mu_);
  codes_.push_back(std::move(code));
  return codes_.size() - 1;
}

const account::ContractCode* MultiVersionStore::code_at(
    std::uint64_t index) const {
  MutexLock lock(code_mu_);
  return &codes_[index];
}

namespace {

using account::AccountTx;
using account::StorageKey;

/// One recorded fall-through read: which version the execution observed
/// for `key` (writer_tx == MultiVersionStore::kBase for base-state reads).
struct ReadRecord {
  obs::TouchKey key;
  std::uint32_t writer_tx = 0;
  std::uint32_t writer_inc = 0;
};

// ------------------------------------------------------------ MvStateView

/// Read-only State over (multi-version store, frozen base). Every read is
/// appended to the attempt's read set — deliberately without
/// deduplication: two reads of one key can observe different versions
/// when a concurrent publish lands between them, and validation must see
/// (and reject) exactly that.
class MvStateView final : public account::State {
 public:
  void begin(const MultiVersionStore* store, const account::State* base,
             std::uint32_t reader_tx, std::vector<ReadRecord>* reads) {
    store_ = store;
    base_ = base;
    reader_ = reader_tx;
    reads_ = reads;
    reads_->clear();
  }

  std::uint64_t balance(const Address& addr) const override {
    const obs::TouchKey key{addr, 0, obs::TouchChannel::kBalance};
    const MultiVersionStore::Resolution r = record_read(key);
    return r.found ? r.value : base_->balance(addr);
  }
  std::uint64_t nonce(const Address& addr) const override {
    const obs::TouchKey key{addr, 0, obs::TouchChannel::kNonce};
    const MultiVersionStore::Resolution r = record_read(key);
    return r.found ? r.value : base_->nonce(addr);
  }
  std::uint64_t storage(const Address& addr, StorageKey skey) const override {
    const obs::TouchKey key{addr, skey, obs::TouchChannel::kStorage};
    const MultiVersionStore::Resolution r = record_read(key);
    return r.found ? r.value : base_->storage(addr, skey);
  }
  const account::ContractCode* code(const Address& addr) const override {
    const obs::TouchKey key{addr, 0, obs::TouchChannel::kCode};
    const MultiVersionStore::Resolution r = record_read(key);
    return r.found ? store_->code_at(r.value) : base_->code(addr);
  }

  // The view is strictly the read layer; all writes and rollback happen in
  // the OverlayState stacked on top of it.
  void set_balance(const Address&, std::uint64_t) override { read_only(); }
  void set_nonce(const Address&, std::uint64_t) override { read_only(); }
  void set_code(const Address&, account::ContractCode) override {
    read_only();
  }
  void set_storage(const Address&, StorageKey, std::uint64_t) override {
    read_only();
  }
  account::Snapshot snapshot() const override {
    read_only();
    return 0;
  }
  void revert(account::Snapshot) override { read_only(); }

 private:
  [[noreturn]] static void read_only() {
    throw UsageError("MvStateView is read-only (writes go to the overlay)");
  }

  MultiVersionStore::Resolution record_read(const obs::TouchKey& key) const {
    const MultiVersionStore::Resolution r = store_->resolve(key, reader_);
    if (r.estimate) throw EstimateAbort{r.tx, key};
    reads_->push_back(
        {key, r.found ? r.tx : MultiVersionStore::kBase, r.incarnation});
    return r;
  }

  const MultiVersionStore* store_ = nullptr;
  const account::State* base_ = nullptr;
  std::uint32_t reader_ = 0;
  std::vector<ReadRecord>* reads_ = nullptr;
};

// ------------------------------------------------------------ PublishSink

/// Write-only State adapter: WriteLog::apply_to(sink) becomes a publish of
/// every written key as version (tx, incarnation), collecting the key set
/// for the wrote-new-path diff against the previous incarnation.
class PublishSink final : public account::State {
 public:
  void begin(MultiVersionStore* store, std::uint32_t tx,
             std::uint32_t incarnation, std::vector<obs::TouchKey>* keys) {
    store_ = store;
    tx_ = tx;
    incarnation_ = incarnation;
    keys_ = keys;
    keys_->clear();
  }

  void set_balance(const Address& addr, std::uint64_t value) override {
    publish({addr, 0, obs::TouchChannel::kBalance}, value);
  }
  void set_nonce(const Address& addr, std::uint64_t value) override {
    publish({addr, 0, obs::TouchChannel::kNonce}, value);
  }
  void set_storage(const Address& addr, StorageKey skey,
                   std::uint64_t value) override {
    publish({addr, skey, obs::TouchChannel::kStorage}, value);
  }
  void set_code(const Address& addr, account::ContractCode code) override {
    publish({addr, 0, obs::TouchChannel::kCode},
            store_->add_code(std::move(code)));
  }

  std::uint64_t balance(const Address&) const override { write_only(); }
  std::uint64_t nonce(const Address&) const override { write_only(); }
  std::uint64_t storage(const Address&, StorageKey) const override {
    write_only();
  }
  const account::ContractCode* code(const Address&) const override {
    write_only();
  }
  account::Snapshot snapshot() const override { write_only(); }
  void revert(account::Snapshot) override { write_only(); }

 private:
  [[noreturn]] static void write_only() {
    throw UsageError("PublishSink is write-only (a WriteLog replay target)");
  }

  void publish(const obs::TouchKey& key, std::uint64_t value) {
    keys_->push_back(key);
    store_->publish(key, tx_, incarnation_, value);
  }

  MultiVersionStore* store_ = nullptr;
  std::uint32_t tx_ = 0;
  std::uint32_t incarnation_ = 0;
  std::vector<obs::TouchKey>* keys_ = nullptr;
};

// ----------------------------------------------------- scheduler + engine

/// Per-transaction scheduler state.
struct TxSlot {
  enum class Status : std::uint8_t {
    kReady,      ///< wants (re-)execution; picked up via try_incarnate
    kExecuting,  ///< one worker owns it
    kSuspended,  ///< blocked on an ESTIMATE; parked in a dependents list
    kExecuted,   ///< current incarnation completed; validation may abort it
  };

  Mutex mu;
  Status status GUARDED_BY(mu) = Status::kReady;
  std::uint32_t incarnation GUARDED_BY(mu) = 0;
  /// Suspended transactions waiting for this one to finish executing.
  std::vector<std::uint32_t> dependents GUARDED_BY(mu);
  /// Keys the current incarnation published (the abort/diff working set).
  std::vector<obs::TouchKey> last_writes GUARDED_BY(mu);
  /// The incarnation failed the validity checks (stale nonce/balance
  /// against its view) and published nothing; if final, the commit phase
  /// reproduces the sequential ValidationError.
  bool validity_failed GUARDED_BY(mu) = false;
  /// Read set of the current incarnation. NOT guarded: written lock-free
  /// by the executing worker (status kExecuting excludes everyone else),
  /// read only under mu with status == kExecuted — which also blocks the
  /// next incarnation from starting, since try_incarnate needs mu.
  std::vector<ReadRecord> reads;
};

class BlockStmExecutor final : public BlockExecutor {
 public:
  BlockStmExecutor(unsigned num_threads, BlockStmOptions options)
      : pool_(num_threads, "block-stm"), options_(std::move(options)) {}

  std::string name() const override { return "block-stm"; }

  ExecutionReport execute_block(
      account::StateDb& state, std::span<const AccountTx> transactions,
      const account::RuntimeConfig& config) override {
    BlockFrame frame("block-stm", &pool_,
                     options_.deterministic ? 1 : pool_.size() + 1,
                     transactions, config);
    ExecutionReport& report = frame.report();

    {
      // Block-STM predicts nothing a-priori — dependencies are discovered
      // by executing — but the empty span keeps the predict / schedule /
      // execute / commit phase contract every parallel engine shares
      // (bench/ablation_engines validates the set from the trace).
      const obs::CausalSpan span = frame.phase(obs::names::kSpanPredict);
    }

    n_ = transactions.size();
    txs_ = transactions;
    config_ = &config;
    base_ = &state;
    report_ = &report;
    tracer_ = frame.tracer();
    sink_ = obs::contention(config.obs);
    {
      const obs::CausalSpan span = frame.phase(obs::names::kSpanSchedule);
      prepare_block();
    }

    if (n_ > 0) {
      const obs::CausalSpan span = frame.phase(obs::names::kSpanExecute);
      if (options_.deterministic) {
        worker_body(0);
      } else {
        pool_.parallel_for_slots(
            pool_.size() + 1,
            [this](unsigned slot, std::size_t) { worker_body(slot); },
            /*grain=*/1);
      }
    }

    double commit_seconds = 0.0;
    {
      const obs::CausalSpan span = frame.phase(obs::names::kSpanCommit);
      const auto commit_start = std::chrono::steady_clock::now();
      commit(state);
      commit_seconds = seconds_since(commit_start);
    }

    // ordering: relaxed — workers have joined by now (the scheduler
    // barrier), so the counter is quiescent; this is a plain read-back.
    report.executions = executions_.load(std::memory_order_relaxed);
    report.tx_attempts = attempts_;
    report.tx_incarnations.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      TxSlot& slot = slots_[i];
      MutexLock lock(slot.mu);
      report.tx_incarnations[i] = slot.incarnation + 1;
      if (slot.incarnation > 0) report.sequential_txs += 1;
    }
    report.abort_reasons[static_cast<std::size_t>(
        obs::AbortReason::kBlockStmEstimateAbort)] =
        // ordering: relaxed — quiescent read-back after the workers joined.
        estimate_aborts_.load(std::memory_order_relaxed);
    report.abort_reasons[static_cast<std::size_t>(
        obs::AbortReason::kBlockStmValidationFail)] =
        // ordering: relaxed — quiescent read-back, as above.
        aborts_.load(std::memory_order_relaxed);
    // The stall analog for Block-STM is the serial commit walk.
    frame.finish(std::ceil(static_cast<double>(report.executions) /
                           pool_.size()),
                 commit_seconds);
    if (obs::Registry* const registry = frame.registry()) {
      registry->counter(obs::names::kMetricExecBlockStmValidations)
          // ordering: relaxed — quiescent read-back, as above.
          .add(validations_.load(std::memory_order_relaxed));
    }
    return std::move(report);
  }

 private:
  /// Per-slot engine scratch beyond the shared WorkerScratch.
  struct WorkerState {
    MvStateView view;
    PublishSink sink;
    std::vector<obs::TouchKey> new_writes;
    std::vector<std::uint32_t> resume;
  };

  void decrease(std::atomic<std::uint64_t>& cursor, std::uint64_t target) {
    std::uint64_t cur = cursor.load(std::memory_order_seq_cst);
    while (cur > target) {
      if (cursor.compare_exchange_weak(cur, target,
                                       std::memory_order_seq_cst)) {
        // Every successful rewind bumps the monotone counter AFTER the
        // cursor moves; the done check's double-collect of this counter
        // (see worker_loop) is what makes quiescence detection sound.
        rewind_cnt_.fetch_add(1, std::memory_order_seq_cst);
        break;
      }
    }
  }

  void prepare_block() {
    store_.reset();
    ensure_worker_scratch(scratch_, pool_.size());
    if (wstate_.size() < scratch_.size()) wstate_.resize(scratch_.size());
    if (writes_.size() < n_) writes_.resize(n_);
    attempts_.assign(n_, 0);
    if (slots_cap_ < n_) {
      slots_ = std::make_unique<TxSlot[]>(n_);
      slots_cap_ = n_;
    }
    for (std::size_t i = 0; i < n_; ++i) {
      TxSlot& slot = slots_[i];
      MutexLock lock(slot.mu);
      slot.status = TxSlot::Status::kReady;
      slot.incarnation = 0;
      slot.dependents.clear();
      slot.last_writes.clear();
      slot.validity_failed = false;
      slot.reads.clear();
    }

    order_.resize(n_);
    pos_of_.resize(n_);
    if (options_.first_dispatch.empty()) {
      for (std::size_t p = 0; p < n_; ++p) {
        order_[p] = static_cast<std::uint32_t>(p);
      }
    } else {
      if (options_.first_dispatch.size() != n_) {
        throw UsageError(
            "BlockStmOptions::first_dispatch must cover the whole block");
      }
      order_ = options_.first_dispatch;
      std::vector<char> seen(n_, 0);
      for (const std::uint32_t j : order_) {
        if (j >= n_ || seen[j] != 0) {
          throw UsageError(
              "BlockStmOptions::first_dispatch must be a permutation");
        }
        seen[j] = 1;
      }
    }
    for (std::size_t p = 0; p < n_; ++p) {
      pos_of_[order_[p]] = static_cast<std::uint32_t>(p);
    }

    exec_cursor_.store(0, std::memory_order_seq_cst);
    val_cursor_.store(options_.validate ? 0 : n_, std::memory_order_seq_cst);
    active_.store(0, std::memory_order_seq_cst);
    rewind_cnt_.store(0, std::memory_order_seq_cst);
    done_.store(n_ == 0, std::memory_order_seq_cst);
    // ordering: relaxed — statistical counters reset before the workers
    // start; the parallel_for hand-off publishes them.
    executions_.store(0, std::memory_order_relaxed);
    validations_.store(0, std::memory_order_relaxed);   // ordering: ditto
    aborts_.store(0, std::memory_order_relaxed);        // ordering: ditto
    estimate_aborts_.store(0, std::memory_order_relaxed);  // ordering: ditto
  }

  /// One scheduler participant: claim and run tasks until the block
  /// quiesces. Any exception marks the run done (so the other workers
  /// drain) and rethrows through parallel_for's aggregation.
  void worker_body(unsigned slot) {
    try {
      worker_loop(slot);
    } catch (...) {
      done_.store(true, std::memory_order_seq_cst);
      throw;
    }
  }

  void worker_loop(unsigned slot) {
    // Stall visibility: open while this participant spins without a
    // claimable task (everything executed, validations pending behind
    // suspended readers), closed the moment it claims work. The
    // critical-path profiler books the covered time as dependency wait.
    obs::ToggleSpan wait(tracer_, obs::names::kSpanWait,
                         obs::names::kCatExec);
    while (!done_.load(std::memory_order_seq_cst)) {
      active_.fetch_add(1, std::memory_order_seq_cst);
      bool ran_task = false;
      for (;;) {
        const std::uint64_t v = val_cursor_.load(std::memory_order_seq_cst);
        const std::uint64_t e = exec_cursor_.load(std::memory_order_seq_cst);
        if (v >= n_ && e >= n_) break;
        if (v < e || e >= n_) {
          const std::uint64_t idx =
              val_cursor_.fetch_add(1, std::memory_order_seq_cst);
          if (idx >= n_) continue;
          wait.close();
          run_validation(static_cast<std::uint32_t>(idx));
          ran_task = true;
          break;
        }
        const std::uint64_t pos =
            exec_cursor_.fetch_add(1, std::memory_order_seq_cst);
        if (pos >= n_) continue;
        const std::uint32_t j = order_[pos];
        std::uint32_t incarnation = 0;
        if (!try_incarnate(j, incarnation)) continue;
        wait.close();
        run_execution(slot, j, incarnation);
        ran_task = true;
        break;
      }
      active_.fetch_sub(1, std::memory_order_seq_cst);
      if (!ran_task) {
        // Idle: the block is done when both cursors are exhausted and no
        // task that could rewind them is in flight. Reading the cursors,
        // then active_, is not enough on its own: a task still holding
        // active_ can rewind a cursor after we sampled it and release
        // active_ before we sample that, making a rewound transaction look
        // complete. The double-collect of rewind_cnt_ around the whole
        // check closes that window (Block-STM's decrease_cnt mechanism):
        // any rewind landing inside the bracket changes the counter, and a
        // rewind whose counter bump lands after the second collect belongs
        // to a task whose active_ release also lands after it — so the
        // active_ == 0 read would have failed instead.
        const std::uint64_t rewinds =
            rewind_cnt_.load(std::memory_order_seq_cst);
        if (exec_cursor_.load(std::memory_order_seq_cst) >= n_ &&
            val_cursor_.load(std::memory_order_seq_cst) >= n_ &&
            active_.load(std::memory_order_seq_cst) == 0 &&
            rewind_cnt_.load(std::memory_order_seq_cst) == rewinds) {
          done_.store(true, std::memory_order_seq_cst);
          break;
        }
        wait.open(static_cast<std::int64_t>(slot));
        std::this_thread::yield();
      }
    }
  }

  bool try_incarnate(std::uint32_t j, std::uint32_t& incarnation_out) {
    TxSlot& slot = slots_[j];
    MutexLock lock(slot.mu);
    if (slot.status != TxSlot::Status::kReady) return false;
    slot.status = TxSlot::Status::kExecuting;
    incarnation_out = slot.incarnation;
    attempts_[j] += 1;  // serialized by slot.mu across incarnations
    return true;
  }

  void run_execution(unsigned slot_id, std::uint32_t j,
                     std::uint32_t incarnation) {
    const TXCONC_SPAN_T(tracer_, obs::names::kSpanAttempt,
                        obs::names::kCatExec, static_cast<std::int64_t>(j));
    const std::uint64_t total =
        // ordering: relaxed — statistical counter; the livelock cap only
        // needs an eventually-accurate total, not cross-thread ordering.
        executions_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (total > 64 * static_cast<std::uint64_t>(n_) + 1024) {
      throw Error("block-stm: execution count exceeded the livelock cap");
    }
    WorkerScratch& ws = scratch_[slot_id];
    WorkerState& wx = wstate_[slot_id];
    TxSlot& slot = slots_[j];
    wx.view.begin(&store_, base_, j, &slot.reads);
    try {
      if (account::precheck_transaction(wx.view, txs_[j], *config_) !=
          nullptr) {
        finish_execution(slot_id, j, incarnation, /*validity_failed=*/true,
                         nullptr);
        return;
      }
      ws.overlay.reset(wx.view);
      account::apply_transaction_into(ws.overlay, txs_[j], *config_,
                                      report_->receipts[j], ws.tracker);
      ws.overlay.export_writes(writes_[j]);
      finish_execution(slot_id, j, incarnation, /*validity_failed=*/false,
                       &writes_[j]);
    } catch (const EstimateAbort& blocked) {
      // ordering: relaxed — statistical counter, read quiescently.
      estimate_aborts_.fetch_add(1, std::memory_order_relaxed);
      TXCONC_INSTANT_T(tracer_, obs::names::kEvAbort, obs::names::kCatExec,
                       static_cast<std::int64_t>(j));
      if (sink_ != nullptr) {
        sink_->record_abort(obs::AbortReason::kBlockStmEstimateAbort,
                            blocked.key);
      }
      suspend_on(j, blocked.blocking_tx);
    } catch (const ValidationError&) {
      // precheck passed but a concurrent publish changed the view before
      // apply re-checked validity; both reads are recorded, so validation
      // decides whether this outcome sticks.
      finish_execution(slot_id, j, incarnation, /*validity_failed=*/true,
                       nullptr);
    }
  }

  void finish_execution(unsigned slot_id, std::uint32_t j,
                        std::uint32_t incarnation, bool validity_failed,
                        const account::WriteLog* log) {
    WorkerState& wx = wstate_[slot_id];
    TxSlot& slot = slots_[j];
    bool wrote_new_path = false;
    {
      MutexLock lock(slot.mu);
      wx.sink.begin(&store_, j, incarnation, &wx.new_writes);
      if (log != nullptr) log->apply_to(wx.sink);
      for (const obs::TouchKey& old : slot.last_writes) {
        if (std::find(wx.new_writes.begin(), wx.new_writes.end(), old) ==
            wx.new_writes.end()) {
          store_.remove(old, j);
        }
      }
      for (const obs::TouchKey& key : wx.new_writes) {
        if (std::find(slot.last_writes.begin(), slot.last_writes.end(),
                      key) == slot.last_writes.end()) {
          wrote_new_path = true;
          break;
        }
      }
      slot.last_writes.assign(wx.new_writes.begin(), wx.new_writes.end());
      slot.validity_failed = validity_failed;
      slot.status = TxSlot::Status::kExecuted;
      wx.resume.assign(slot.dependents.begin(), slot.dependents.end());
      slot.dependents.clear();
    }
    // Resume the transactions suspended on us. This happens before the
    // enclosing task releases active_, so the done check cannot fire with
    // a resumable transaction still parked.
    std::uint64_t min_pos = ~std::uint64_t{0};
    for (const std::uint32_t d : wx.resume) {
      TxSlot& dep = slots_[d];
      MutexLock lock(dep.mu);
      if (dep.status == TxSlot::Status::kSuspended) {
        dep.status = TxSlot::Status::kReady;
        min_pos = std::min<std::uint64_t>(min_pos, pos_of_[d]);
      }
    }
    if (min_pos != ~std::uint64_t{0}) decrease(exec_cursor_, min_pos);
    if (options_.validate) {
      if (wrote_new_path) {
        // New keys may invalidate any higher reader: sweep from here.
        decrease(val_cursor_, j);
      } else {
        // Same write-set shape: only this transaction needs (re)checking —
        // the abort that caused this re-execution already queued the
        // suffix, and stale readers of the old values fail against the
        // replaced versions when that sweep reaches them.
        run_validation(j);
      }
    }
  }

  void suspend_on(std::uint32_t j, std::uint32_t blocker) {
    TxSlot& blk = slots_[blocker];
    bool registered = false;
    {
      // Lock order: blocker < j always (reads resolve strictly below the
      // reader), matching the lower-index-first discipline.
      MutexLock blocker_lock(blk.mu);
      if (blk.status != TxSlot::Status::kExecuted) {
        TxSlot& slot = slots_[j];
        MutexLock self_lock(slot.mu);
        slot.status = TxSlot::Status::kSuspended;
        blk.dependents.push_back(j);
        registered = true;
      }
    }
    if (registered) {
      // Mark the stall for the profiler: this reader is parked until the
      // blocking transaction finishes (arg = the blocker's index).
      TXCONC_INSTANT_T(tracer_, obs::names::kEvSuspend,
                       obs::names::kCatExec,
                       static_cast<std::int64_t>(blocker));
    }
    if (!registered) {
      // The blocker finished between our read and now: retry immediately.
      TxSlot& slot = slots_[j];
      {
        MutexLock lock(slot.mu);
        slot.status = TxSlot::Status::kReady;
      }
      decrease(exec_cursor_, pos_of_[j]);
    }
  }

  void run_validation(std::uint32_t j) {
    const TXCONC_SPAN_T(tracer_, obs::names::kSpanValidate,
                        obs::names::kCatExec, static_cast<std::int64_t>(j));
    TxSlot& slot = slots_[j];
    // Held for the whole check: keeps the read set stable (no new
    // incarnation can start) and makes concurrent validators of the same
    // index resolve to exactly one abort.
    MutexLock lock(slot.mu);
    if (slot.status != TxSlot::Status::kExecuted) return;
    // ordering: relaxed — statistical counter, read quiescently.
    validations_.fetch_add(1, std::memory_order_relaxed);
    bool valid = true;
    const obs::TouchKey* bad = nullptr;
    for (const ReadRecord& rec : slot.reads) {
      const MultiVersionStore::Resolution r = store_.resolve(rec.key, j);
      const bool match =
          !r.estimate &&
          (r.found ? (rec.writer_tx == r.tx && rec.writer_inc == r.incarnation)
                   : (rec.writer_tx == MultiVersionStore::kBase));
      if (!match) {
        valid = false;
        bad = &rec.key;
        break;
      }
    }
    if (valid) return;
    // ordering: relaxed — statistical counter, read quiescently.
    aborts_.fetch_add(1, std::memory_order_relaxed);
    TXCONC_INSTANT_T(tracer_, obs::names::kEvAbort, obs::names::kCatExec,
                     static_cast<std::int64_t>(j));
    if (sink_ != nullptr) {
      sink_->record_abort(obs::AbortReason::kBlockStmValidationFail,
                          *bad);
    }
    // Expose ESTIMATE markers so dependents suspend instead of reading
    // doomed values, then requeue this transaction and the validation
    // suffix that may have read them.
    for (const obs::TouchKey& key : slot.last_writes) {
      store_.mark_estimate(key, j);
    }
    slot.incarnation += 1;
    slot.status = TxSlot::Status::kReady;
    decrease(val_cursor_, static_cast<std::uint64_t>(j) + 1);
    decrease(exec_cursor_, pos_of_[j]);
  }

  TXCONC_HOT void commit(account::StateDb& state) {
    const account::JournalPause pause(state);
    for (std::size_t i = 0; i < n_; ++i) {
      TxSlot& slot = slots_[i];
      bool validity_failed = false;
      {
        MutexLock lock(slot.mu);
        validity_failed = slot.validity_failed;
      }
      if (validity_failed) {
        // The final incarnation failed the validity checks against its
        // (validated) view; replaying it against the real prefix raises
        // the same ValidationError the sequential baseline would.
        // txconc-lint: allow(hot-path-alloc) — cold error replay, ends in throw
        account::apply_transaction_into(state, txs_[i], *config_,
                                        report_->receipts[i],
                                        scratch_[0].tracker);
      } else {
        writes_[i].apply_to(state);
      }
    }
    state.flush_journal();
  }

  ThreadPool pool_;
  BlockStmOptions options_;

  // Cross-block scratch: capacity persists, contents are per-block.
  std::vector<WorkerScratch> scratch_;
  std::vector<WorkerState> wstate_;
  std::vector<account::WriteLog> writes_;  // per tx, final incarnation
  std::vector<std::uint32_t> attempts_;    // per tx, under its slot mu
  std::unique_ptr<TxSlot[]> slots_;
  std::size_t slots_cap_ = 0;
  std::vector<std::uint32_t> order_;   // dispatch position -> tx index
  std::vector<std::uint32_t> pos_of_;  // tx index -> dispatch position
  MultiVersionStore store_;

  // Per-block run context (set in execute_block, read by the workers).
  std::size_t n_ = 0;
  std::span<const AccountTx> txs_;
  const account::RuntimeConfig* config_ = nullptr;
  const account::StateDb* base_ = nullptr;
  ExecutionReport* report_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::ContentionSink* sink_ = nullptr;

  std::atomic<std::uint64_t> exec_cursor_{0};  // dispatch-order position
  std::atomic<std::uint64_t> val_cursor_{0};   // block-order index
  std::atomic<std::uint64_t> active_{0};
  std::atomic<std::uint64_t> rewind_cnt_{0};  // monotone within a block
  std::atomic<bool> done_{false};
  std::atomic<std::uint64_t> executions_{0};
  std::atomic<std::uint64_t> validations_{0};
  std::atomic<std::uint64_t> aborts_{0};
  std::atomic<std::uint64_t> estimate_aborts_{0};
};

}  // namespace

std::unique_ptr<BlockExecutor> make_block_stm_executor(unsigned num_threads) {
  return make_block_stm_executor(num_threads, BlockStmOptions{});
}

std::unique_ptr<BlockExecutor> make_block_stm_executor(
    unsigned num_threads, const BlockStmOptions& options) {
  return std::make_unique<BlockStmExecutor>(num_threads, options);
}

}  // namespace txconc::exec
