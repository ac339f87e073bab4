// World state for the account model, with journaling and overlays.
//
// State is the abstract interface the VM and runtime execute against.
// StateDb is the authoritative store; OverlayState is a copy-on-write view
// over a frozen base used by the speculative executors, so parallel workers
// never contend on shared mutable data.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <unordered_map>
#include <variant>
#include <vector>

#include "account/types.h"
#include "common/flat_table.h"
#include "common/hot_path.h"
#include "common/hash.h"

namespace txconc::account {

/// Storage key within one account.
using StorageKey = std::uint64_t;

/// Opaque journal position returned by snapshot().
using Snapshot = std::size_t;

/// StateDb's account-table hash: every byte of the address through
/// mix64, since FlatTable indexes by the low bits and std::hash<Address>
/// reads only the first eight bytes.
struct AccountHash {
  std::size_t operator()(const Address& a) const noexcept {
    std::uint64_t w0 = 0;
    std::uint64_t w1 = 0;
    std::uint32_t w2 = 0;
    std::memcpy(&w0, a.bytes.data(), sizeof(w0));
    std::memcpy(&w1, a.bytes.data() + 8, sizeof(w1));
    std::memcpy(&w2, a.bytes.data() + 16, sizeof(w2));
    return static_cast<std::size_t>(
        mix64(w0 ^ mix64(w1 ^ (std::uint64_t{w2} * 0x9e3779b97f4a7c15ULL))));
  }
};

/// StateDb's per-account storage-table hash (raw keys are often small or
/// strided, e.g. multiples of 2^16, and would share their low bits).
struct StorageKeyHash {
  std::size_t operator()(StorageKey key) const noexcept {
    return static_cast<std::size_t>(mix64(key));
  }
};

/// Abstract mutable world state with nested rollback.
///
/// All mutations are journaled; revert(snapshot()) undoes everything since.
/// Implementations are NOT thread-safe; give each worker its own overlay.
class State {
 public:
  virtual ~State() = default;

  virtual std::uint64_t balance(const Address& addr) const = 0;
  virtual void set_balance(const Address& addr, std::uint64_t value) = 0;

  virtual std::uint64_t nonce(const Address& addr) const = 0;
  virtual void set_nonce(const Address& addr, std::uint64_t value) = 0;

  /// nullptr when the account has no code.
  virtual const ContractCode* code(const Address& addr) const = 0;
  virtual void set_code(const Address& addr, ContractCode code) = 0;

  virtual std::uint64_t storage(const Address& addr, StorageKey key) const = 0;
  virtual void set_storage(const Address& addr, StorageKey key,
                           std::uint64_t value) = 0;

  virtual Snapshot snapshot() const = 0;
  virtual void revert(Snapshot snap) = 0;

  // Non-virtual helpers.
  /// Throws ValidationError when the payer lacks funds.
  void transfer(const Address& from, const Address& to, std::uint64_t value);
  /// Balance decrease that throws ValidationError on underflow.
  void debit(const Address& addr, std::uint64_t value);
  void credit(const Address& addr, std::uint64_t value);
};

/// Replayable record of an overlay's final values: a handful of flat
/// vectors instead of a whole OverlayState. The speculative engines
/// extract one per attempt (OverlayState::export_writes) and batch-apply
/// the non-conflicted logs at commit, so the per-transaction retained
/// footprint is capacity-reusing PODs and the commit walk is one linear
/// pass.
class WriteLog {
 public:
  void clear() {
    balances_.clear();
    nonces_.clear();
    storage_.clear();
    codes_.clear();
  }

  bool empty() const {
    return balances_.empty() && nonces_.empty() && storage_.empty() &&
           codes_.empty();
  }

  std::size_t num_ops() const {
    return balances_.size() + nonces_.size() + storage_.size() +
           codes_.size();
  }

  /// Replay every recorded value onto the target, mirroring
  /// OverlayState::apply_to.
  TXCONC_HOT void apply_to(State& target) const;

 private:
  friend class OverlayState;
  struct BalanceOp {
    Address addr;
    std::uint64_t value = 0;
  };
  struct StorageOp {
    SlotAccess slot;
    std::uint64_t value = 0;
  };
  std::vector<BalanceOp> balances_;
  std::vector<BalanceOp> nonces_;  // same shape: (addr, value)
  std::vector<StorageOp> storage_;
  std::vector<std::pair<Address, std::shared_ptr<const ContractCode>>> codes_;
};

/// The authoritative account store.
class StateDb final : public State {
 public:
  StateDb() = default;

  std::uint64_t balance(const Address& addr) const override;
  void set_balance(const Address& addr, std::uint64_t value) override;
  std::uint64_t nonce(const Address& addr) const override;
  void set_nonce(const Address& addr, std::uint64_t value) override;
  const ContractCode* code(const Address& addr) const override;
  void set_code(const Address& addr, ContractCode code) override;
  std::uint64_t storage(const Address& addr, StorageKey key) const override;
  void set_storage(const Address& addr, StorageKey key,
                   std::uint64_t value) override;
  Snapshot snapshot() const override;
  void revert(Snapshot snap) override;

  /// Start loading addr's account slot into cache ahead of its first
  /// touch. A hint only: it changes nothing a lookup, digest or dirty
  /// list can observe (DESIGN.md §24).
  TXCONC_HOT void prefetch(const Address& addr) const {
    accounts_.prefetch(addr);
  }

  /// Drop the journal (changes become permanent; snapshots invalidated).
  /// A no-op while a JournalHold is held.
  TXCONC_HOT void flush_journal();

  /// Toggle undo journaling. While off, writes skip the journal entirely,
  /// and snapshot()/revert() throw UsageError: a rollback attempted during
  /// a pause could not see the paused writes and would silently persist
  /// them. The engines'
  /// commit phases use this (via JournalPause) because committed overlay
  /// values are never rolled back — journaling them only to flush is pure
  /// allocation traffic on the hot path. While a JournalHold is held,
  /// journaling stays on.
  void set_journaling(bool on) { journaling_ = on || holds_ > 0; }
  bool journaling() const { return journaling_; }

  /// Addresses written (or restored by revert) since the last
  /// clear_dirty(), each listed once. Recorded whether or not journaling
  /// is on, so it covers engine commits under JournalPause too; a node
  /// re-hashes exactly these accounts into its state trie.
  const std::vector<Address>& dirty_accounts() const { return dirty_; }
  void clear_dirty();

  std::size_t num_accounts() const { return accounts_.size(); }
  /// Storage slots holding a non-zero value, over all accounts (a running
  /// count, O(1)).
  std::size_t num_storage_slots() const { return num_slots_; }
  /// Sum of all balances (invariant checks in tests).
  std::uint64_t total_supply() const;

  /// Order-independent digest over the full state (balances, nonces,
  /// storage, code). Two StateDbs with equal digests hold equal state;
  /// used by the executor-equivalence tests.
  Hash256 digest() const;

  /// Canonical digest of one account (the state-trie leaf value); the
  /// zero hash for accounts in their default state.
  Hash256 account_digest(const Address& addr) const;

  /// Invoke fn for every stored account address (unspecified order).
  void for_each_account(
      const std::function<void(const Address&)>& fn) const;

 private:
  friend class JournalHold;

  using StorageTable = common::FlatTable<StorageKey, std::uint64_t,
                                         StorageKeyHash>;
  static constexpr std::uint32_t kNoStorage = ~std::uint32_t{0};

  struct AccountRecord {
    std::uint64_t balance = 0;
    std::uint64_t nonce = 0;
    std::shared_ptr<const ContractCode> code;  // shared with overlays
    std::uint32_t storage = kNoStorage;  // index into storage_
    bool dirty = false;                  // listed in dirty_
  };

  struct BalanceEntry {
    Address addr;
    std::uint64_t old_value;
  };
  struct NonceEntry {
    Address addr;
    std::uint64_t old_value;
  };
  struct CodeEntry {
    Address addr;
    std::shared_ptr<const ContractCode> old_code;
  };
  struct StorageEntry {
    Address addr;
    StorageKey key;
    std::uint64_t old_value;
  };
  using JournalEntry =
      std::variant<BalanceEntry, NonceEntry, CodeEntry, StorageEntry>;

  /// The record a write lands in, marked dirty. May insert, so it
  /// invalidates every other AccountRecord reference (see accounts_).
  AccountRecord& record(const Address& addr) {
    AccountRecord& rec = accounts_[addr];
    if (!rec.dirty) {
      rec.dirty = true;
      dirty_.push_back(addr);
    }
    return rec;
  }
  const AccountRecord* find(const Address& addr) const {
    return accounts_.find(addr);
  }
  Hash256 record_digest(const Address& addr, const AccountRecord& rec) const;
  /// Store `value` in one of rec's slots, creating rec's storage table on
  /// its first write; returns the slot's previous value.
  std::uint64_t put_slot(AccountRecord& rec, StorageKey key,
                         std::uint64_t value);

  // Open-addressed and flat: a record lives inline in the slot array, and
  // growth moves every record. Hold no AccountRecord& (nor a reference
  // into a storage table) across another insert into the same table.
  // code() pointers survive growth: they point at the shared ContractCode,
  // not into the record. Accounts are never erased.
  common::FlatTable<Address, AccountRecord, AccountHash> accounts_;
  // Out-of-line storage: one table per account that has written a slot,
  // indexed by AccountRecord::storage, so account_digest walks one
  // account's slots and storage-less accounts pay four bytes.
  std::vector<StorageTable> storage_;
  std::size_t num_slots_ = 0;  // non-zero slots over storage_
  mutable std::vector<JournalEntry> journal_;
  std::vector<Address> dirty_;
  bool journaling_ = true;
  unsigned holds_ = 0;  // live JournalHolds
};

/// RAII hold on a StateDb's undo journal, taken by the owner of a block's
/// rollback (a node validating a block). While held, executors'
/// flush_journal() keeps the journal and their JournalPause keeps
/// journaling on, so the holder's revert() still undoes every write the
/// block made. Take it with journaling on; flush after releasing it.
class JournalHold {
 public:
  explicit JournalHold(StateDb& db);
  ~JournalHold() { --db_.holds_; }

  JournalHold(const JournalHold&) = delete;
  JournalHold& operator=(const JournalHold&) = delete;

 private:
  StateDb& db_;
};

/// RAII journaling pause for a commit phase (see StateDb::set_journaling).
class JournalPause {
 public:
  explicit JournalPause(StateDb& db) : db_(db), prev_(db.journaling()) {
    db_.set_journaling(false);
  }
  ~JournalPause() { db_.set_journaling(prev_); }

  JournalPause(const JournalPause&) = delete;
  JournalPause& operator=(const JournalPause&) = delete;

 private:
  StateDb& db_;
  bool prev_;
};

/// Copy-on-write view over a frozen base state.
///
/// Reads fall through to the base until the overlay has written the entry;
/// writes stay local. apply_to() merges the overlay's final values into a
/// mutable target (normally the base itself, after conflict checks pass).
///
/// The local entries live in open-addressed FlatTables whose capacity
/// persists across reset(): workers keep one overlay each and rebase it
/// per attempt, so the steady-state speculation path never allocates.
class OverlayState final : public State {
 public:
  /// An unbased overlay; reset() must run before any access.
  OverlayState() = default;
  explicit OverlayState(const State& base) : base_(&base) {}

  /// Rebase onto `base` and logically drop every local entry and journal
  /// record. O(1) except for the (rare) code map; capacity is retained.
  TXCONC_HOT void reset(const State& base) {
    base_ = &base;
    balances_.clear();
    nonces_.clear();
    storage_.clear();
    if (!codes_.empty()) codes_.clear();
    journal_.clear();
  }

  std::uint64_t balance(const Address& addr) const override;
  void set_balance(const Address& addr, std::uint64_t value) override;
  std::uint64_t nonce(const Address& addr) const override;
  void set_nonce(const Address& addr, std::uint64_t value) override;
  const ContractCode* code(const Address& addr) const override;
  void set_code(const Address& addr, ContractCode code) override;
  std::uint64_t storage(const Address& addr, StorageKey key) const override;
  void set_storage(const Address& addr, StorageKey key,
                   std::uint64_t value) override;
  Snapshot snapshot() const override;
  void revert(Snapshot snap) override;

  /// Write every overlay value into the target state.
  TXCONC_HOT void apply_to(State& target) const;

  /// Append every overlay value to `out` (cleared first), detaching the
  /// attempt's effects from the overlay so the overlay can be rebased for
  /// the next transaction.
  TXCONC_HOT void export_writes(WriteLog& out) const;

  bool dirty() const;

 private:
  struct BalanceEntry {
    Address addr;
    bool existed;
    std::uint64_t old_value;
  };
  struct NonceEntry {
    Address addr;
    bool existed;
    std::uint64_t old_value;
  };
  struct CodeEntry {
    Address addr;
    bool existed;
    std::shared_ptr<const ContractCode> old_code;
  };
  struct StorageEntry {
    SlotAccess slot;
    bool existed;
    std::uint64_t old_value;
  };
  using JournalEntry =
      std::variant<BalanceEntry, NonceEntry, CodeEntry, StorageEntry>;

  const State* base_ = nullptr;
  common::FlatTable<Address, std::uint64_t> balances_;
  common::FlatTable<Address, std::uint64_t> nonces_;
  // Code deployments are rare (creations only) and carry shared_ptrs;
  // a node-based map is fine here and keeps FlatTable POD-friendly.
  std::unordered_map<Address, std::shared_ptr<const ContractCode>> codes_;
  common::FlatTable<SlotAccess, std::uint64_t, SlotAccessHash> storage_;
  mutable std::vector<JournalEntry> journal_;
};

/// Addresses whose canonical account digest differs between two states
/// (over the union of both account sets, in unspecified order). The
/// conformance oracle uses this to name the diverged accounts when an
/// executor's final state digest mismatches the sequential baseline.
std::vector<Address> diff_accounts(const StateDb& a, const StateDb& b);

/// Records the read/write sets of one transaction, at account and slot
/// granularity; attached to the VM by the runtime.
class AccessTracker {
 public:
  void read_balance(const Address& addr) { reads_.push_back({addr, kBalanceKey}); }
  void write_balance(const Address& addr) { writes_.push_back({addr, kBalanceKey}); }
  void read_slot(const Address& addr, StorageKey key) { reads_.push_back({addr, key}); }
  void write_slot(const Address& addr, StorageKey key) { writes_.push_back({addr, key}); }

  /// Drop the recorded accesses, keeping the vectors' capacity (the
  /// runtime reuses one tracker per worker across transactions).
  void clear() {
    reads_.clear();
    writes_.clear();
  }

  /// Sorted, deduplicated access lists (copies).
  std::vector<SlotAccess> reads() const;
  std::vector<SlotAccess> writes() const;

  /// Sort + dedupe in place and return a reference to the internal list,
  /// valid until the next mutation. The allocation-free flavor of
  /// reads()/writes() used by the per-transaction hot path.
  const std::vector<SlotAccess>& finalize_reads();
  const std::vector<SlotAccess>& finalize_writes();

  /// Sentinel storage key representing the account balance/nonce itself.
  static constexpr StorageKey kBalanceKey = ~StorageKey{0};

 private:
  std::vector<SlotAccess> reads_;
  std::vector<SlotAccess> writes_;
};

}  // namespace txconc::account
