#include "account/state.h"

#include <algorithm>
#include <unordered_set>

#include "common/error.h"

namespace txconc::account {

void State::transfer(const Address& from, const Address& to,
                     std::uint64_t value) {
  debit(from, value);
  credit(to, value);
}

void State::debit(const Address& addr, std::uint64_t value) {
  // Zero-value operations must not touch state: a no-op write would still
  // be journaled and merged by overlay commits, clobbering concurrent
  // updates from other transactions.
  if (value == 0) return;
  const std::uint64_t current = balance(addr);
  if (current < value) {
    throw ValidationError("insufficient balance at " + addr.short_hex());
  }
  set_balance(addr, current - value);
}

void State::credit(const Address& addr, std::uint64_t value) {
  if (value == 0) return;
  set_balance(addr, balance(addr) + value);
}

// ------------------------------------------------------------------ WriteLog

void WriteLog::apply_to(State& target) const {
  for (const BalanceOp& op : balances_) target.set_balance(op.addr, op.value);
  for (const BalanceOp& op : nonces_) target.set_nonce(op.addr, op.value);
  for (const auto& [addr, code] : codes_) target.set_code(addr, *code);
  for (const StorageOp& op : storage_) {
    target.set_storage(op.slot.address, op.slot.key, op.value);
  }
}

// ------------------------------------------------------------------- StateDb

std::uint64_t StateDb::balance(const Address& addr) const {
  const AccountRecord* rec = find(addr);
  return rec ? rec->balance : 0;
}

void StateDb::set_balance(const Address& addr, std::uint64_t value) {
  AccountRecord& rec = record(addr);
  if (journaling_) journal_.push_back(BalanceEntry{addr, rec.balance});
  rec.balance = value;
}

std::uint64_t StateDb::nonce(const Address& addr) const {
  const AccountRecord* rec = find(addr);
  return rec ? rec->nonce : 0;
}

void StateDb::set_nonce(const Address& addr, std::uint64_t value) {
  AccountRecord& rec = record(addr);
  if (journaling_) journal_.push_back(NonceEntry{addr, rec.nonce});
  rec.nonce = value;
}

const ContractCode* StateDb::code(const Address& addr) const {
  const AccountRecord* rec = find(addr);
  return rec && rec->code ? rec->code.get() : nullptr;
}

void StateDb::set_code(const Address& addr, ContractCode new_code) {
  AccountRecord& rec = record(addr);
  if (journaling_) journal_.push_back(CodeEntry{addr, rec.code});
  rec.code = std::make_shared<const ContractCode>(std::move(new_code));
}

std::uint64_t StateDb::storage(const Address& addr, StorageKey key) const {
  const AccountRecord* rec = find(addr);
  if (rec == nullptr || rec->storage == kNoStorage) return 0;
  const std::uint64_t* slot = storage_[rec->storage].find(key);
  return slot == nullptr ? 0 : *slot;
}

std::uint64_t StateDb::put_slot(AccountRecord& rec, StorageKey key,
                                std::uint64_t value) {
  if (rec.storage == kNoStorage) {
    rec.storage = static_cast<std::uint32_t>(storage_.size());
    storage_.emplace_back();
  }
  std::uint64_t& slot = storage_[rec.storage][key];
  const std::uint64_t old = slot;
  num_slots_ += static_cast<std::size_t>(value != 0);
  num_slots_ -= static_cast<std::size_t>(old != 0);
  slot = value;
  return old;
}

void StateDb::set_storage(const Address& addr, StorageKey key,
                          std::uint64_t value) {
  const std::uint64_t old = put_slot(record(addr), key, value);
  if (journaling_) journal_.push_back(StorageEntry{addr, key, old});
}

Snapshot StateDb::snapshot() const {
  if (!journaling_) {
    // A snapshot taken now could not undo the writes it is meant to cover:
    // they skip the journal. Failing loudly here keeps a rollback path that
    // sneaks under a commit-phase JournalPause (e.g. a validity-failed
    // replay reaching VM execution) from silently persisting partial writes.
    throw UsageError("StateDb::snapshot: journaling is paused");
  }
  return journal_.size();
}

void StateDb::revert(Snapshot snap) {
  if (!journaling_) {
    throw UsageError("StateDb::revert: journaling is paused");
  }
  if (snap > journal_.size()) {
    throw UsageError("StateDb::revert: snapshot from the future");
  }
  while (journal_.size() > snap) {
    const JournalEntry entry = std::move(journal_.back());
    journal_.pop_back();
    std::visit(
        [this](const auto& e) {
          using T = std::decay_t<decltype(e)>;
          AccountRecord& rec = record(e.addr);
          if constexpr (std::is_same_v<T, BalanceEntry>) {
            rec.balance = e.old_value;
          } else if constexpr (std::is_same_v<T, NonceEntry>) {
            rec.nonce = e.old_value;
          } else if constexpr (std::is_same_v<T, CodeEntry>) {
            rec.code = e.old_code;
          } else {
            put_slot(rec, e.key, e.old_value);
          }
        },
        entry);
  }
}

void StateDb::flush_journal() {
  if (holds_ == 0) journal_.clear();
}

void StateDb::clear_dirty() {
  for (const Address& addr : dirty_) accounts_.find(addr)->dirty = false;
  dirty_.clear();
}

JournalHold::JournalHold(StateDb& db) : db_(db) {
  if (!db_.journaling_) {
    throw UsageError("JournalHold: journaling is paused");
  }
  ++db_.holds_;
}

std::uint64_t StateDb::total_supply() const {
  std::uint64_t sum = 0;
  accounts_.for_each([&](const Address&, const AccountRecord& rec) {
    sum += rec.balance;
  });
  return sum;
}

Hash256 StateDb::account_digest(const Address& addr) const {
  const AccountRecord* rec = find(addr);
  return rec == nullptr ? Hash256{} : record_digest(addr, *rec);
}

Hash256 StateDb::record_digest(const Address& addr,
                               const AccountRecord& rec) const {
  // Storage entries XOR-combined (order-independent), with zero-valued
  // slots treated as absent.
  std::array<std::uint8_t, 32> storage_acc{};
  bool any_storage = false;
  if (rec.storage != kNoStorage) {
    storage_[rec.storage].for_each([&](StorageKey key, std::uint64_t value) {
      if (value == 0) return;
      any_storage = true;
      HashWriter sw;
      sw.u64(key);
      sw.u64(value);
      const Hash256 sh = sw.finish();
      for (std::size_t i = 0; i < 32; ++i) storage_acc[i] ^= sh.bytes[i];
    });
  }
  // Accounts in their default state digest like absent accounts.
  if (rec.balance == 0 && rec.nonce == 0 && !rec.code && !any_storage) {
    return Hash256{};
  }
  HashWriter w;
  w.raw(addr.bytes);
  w.u64(rec.balance);
  w.u64(rec.nonce);
  w.raw(storage_acc);
  if (rec.code) {
    w.bytes(rec.code->code);
    w.u32(static_cast<std::uint32_t>(rec.code->address_table.size()));
    for (const Address& a : rec.code->address_table) w.raw(a.bytes);
  }
  return w.finish();
}

void StateDb::for_each_account(
    const std::function<void(const Address&)>& fn) const {
  accounts_.for_each(
      [&](const Address& addr, const AccountRecord&) { fn(addr); });
}

Hash256 StateDb::digest() const {
  // XOR-combine per-account digests: order-independent without sorting.
  std::array<std::uint8_t, 32> acc{};
  accounts_.for_each([&](const Address& addr, const AccountRecord& rec) {
    const Hash256 h = record_digest(addr, rec);
    for (std::size_t i = 0; i < 32; ++i) acc[i] ^= h.bytes[i];
  });
  Hash256 out;
  out.bytes = acc;
  return out;
}

// -------------------------------------------------------------- OverlayState

std::uint64_t OverlayState::balance(const Address& addr) const {
  const std::uint64_t* local = balances_.find(addr);
  return local != nullptr ? *local : base_->balance(addr);
}

void OverlayState::set_balance(const Address& addr, std::uint64_t value) {
  const std::uint64_t* local = balances_.find(addr);
  journal_.push_back(BalanceEntry{
      addr, local != nullptr, local != nullptr ? *local : 0});
  balances_.insert_or_assign(addr, value);
}

std::uint64_t OverlayState::nonce(const Address& addr) const {
  const std::uint64_t* local = nonces_.find(addr);
  return local != nullptr ? *local : base_->nonce(addr);
}

void OverlayState::set_nonce(const Address& addr, std::uint64_t value) {
  const std::uint64_t* local = nonces_.find(addr);
  journal_.push_back(NonceEntry{
      addr, local != nullptr, local != nullptr ? *local : 0});
  nonces_.insert_or_assign(addr, value);
}

const ContractCode* OverlayState::code(const Address& addr) const {
  const auto it = codes_.find(addr);
  return it != codes_.end() ? it->second.get() : base_->code(addr);
}

void OverlayState::set_code(const Address& addr, ContractCode new_code) {
  const auto it = codes_.find(addr);
  journal_.push_back(CodeEntry{addr, it != codes_.end(),
                               it != codes_.end() ? it->second : nullptr});
  codes_[addr] = std::make_shared<const ContractCode>(std::move(new_code));
}

std::uint64_t OverlayState::storage(const Address& addr,
                                    StorageKey key) const {
  const std::uint64_t* local = storage_.find(SlotAccess{addr, key});
  return local != nullptr ? *local : base_->storage(addr, key);
}

void OverlayState::set_storage(const Address& addr, StorageKey key,
                               std::uint64_t value) {
  const SlotAccess slot{addr, key};
  const std::uint64_t* local = storage_.find(slot);
  journal_.push_back(StorageEntry{
      slot, local != nullptr, local != nullptr ? *local : 0});
  storage_.insert_or_assign(slot, value);
}

Snapshot OverlayState::snapshot() const { return journal_.size(); }

void OverlayState::revert(Snapshot snap) {
  if (snap > journal_.size()) {
    throw UsageError("OverlayState::revert: snapshot from the future");
  }
  while (journal_.size() > snap) {
    const JournalEntry entry = std::move(journal_.back());
    journal_.pop_back();
    std::visit(
        [this](const auto& e) {
          using T = std::decay_t<decltype(e)>;
          if constexpr (std::is_same_v<T, BalanceEntry>) {
            if (e.existed) {
              balances_.insert_or_assign(e.addr, e.old_value);
            } else {
              balances_.erase(e.addr);
            }
          } else if constexpr (std::is_same_v<T, NonceEntry>) {
            if (e.existed) {
              nonces_.insert_or_assign(e.addr, e.old_value);
            } else {
              nonces_.erase(e.addr);
            }
          } else if constexpr (std::is_same_v<T, CodeEntry>) {
            if (e.existed) {
              codes_[e.addr] = e.old_code;
            } else {
              codes_.erase(e.addr);
            }
          } else {
            if (e.existed) {
              storage_.insert_or_assign(e.slot, e.old_value);
            } else {
              storage_.erase(e.slot);
            }
          }
        },
        entry);
  }
}

void OverlayState::apply_to(State& target) const {
  balances_.for_each(
      [&](const Address& addr, std::uint64_t v) { target.set_balance(addr, v); });
  nonces_.for_each(
      [&](const Address& addr, std::uint64_t v) { target.set_nonce(addr, v); });
  for (const auto& [addr, code] : codes_) target.set_code(addr, *code);
  storage_.for_each([&](const SlotAccess& slot, std::uint64_t v) {
    target.set_storage(slot.address, slot.key, v);
  });
}

void OverlayState::export_writes(WriteLog& out) const {
  out.clear();
  balances_.for_each([&](const Address& addr, std::uint64_t v) {
    out.balances_.push_back({addr, v});
  });
  nonces_.for_each([&](const Address& addr, std::uint64_t v) {
    out.nonces_.push_back({addr, v});
  });
  for (const auto& [addr, code] : codes_) out.codes_.emplace_back(addr, code);
  storage_.for_each([&](const SlotAccess& slot, std::uint64_t v) {
    out.storage_.push_back({slot, v});
  });
}

bool OverlayState::dirty() const {
  return !balances_.empty() || !nonces_.empty() || !codes_.empty() ||
         !storage_.empty();
}

std::vector<Address> diff_accounts(const StateDb& a, const StateDb& b) {
  std::unordered_set<Address> addresses;
  a.for_each_account([&](const Address& addr) { addresses.insert(addr); });
  b.for_each_account([&](const Address& addr) { addresses.insert(addr); });
  std::vector<Address> diverged;
  for (const Address& addr : addresses) {
    if (a.account_digest(addr) != b.account_digest(addr)) {
      diverged.push_back(addr);
    }
  }
  std::sort(diverged.begin(), diverged.end());
  return diverged;
}

// ------------------------------------------------------------- AccessTracker

namespace {

void sort_unique_in_place(std::vector<SlotAccess>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

}  // namespace

std::vector<SlotAccess> AccessTracker::reads() const {
  std::vector<SlotAccess> v = reads_;
  sort_unique_in_place(v);
  return v;
}

std::vector<SlotAccess> AccessTracker::writes() const {
  std::vector<SlotAccess> v = writes_;
  sort_unique_in_place(v);
  return v;
}

const std::vector<SlotAccess>& AccessTracker::finalize_reads() {
  sort_unique_in_place(reads_);
  return reads_;
}

const std::vector<SlotAccess>& AccessTracker::finalize_writes() {
  sort_unique_in_place(writes_);
  return writes_;
}

}  // namespace txconc::account
