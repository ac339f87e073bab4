// Open-addressed hash containers with O(1) epoch-based clear, built for
// the executors' per-block scratch state.
//
// The parallel engines reuse one table across thousands of blocks; after
// the warm-up blocks the steady-state pattern is clear() + a few hundred
// inserts, none of which may touch the heap (see the hotpath allocation
// tests). clear() therefore only bumps an epoch stamp — slots written in
// earlier epochs read as empty — instead of memsetting or freeing the
// backing array.
//
// StateDb keeps its accounts and each account's storage in FlatTables too
// (DESIGN.md §21). Those tables are never cleared or erased from, so no
// value (a record's shared ContractCode) lingers in a dead slot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/hot_path.h"

namespace txconc::common {

/// Open-addressed, linear-probing hash map over a power-of-two slot array.
///
/// Key and Value must be default-constructible and copyable. Deletion uses
/// tombstones (needed by OverlayState::revert); probe chains therefore
/// step over current-epoch tombstones and stop at the first slot not
/// written in the current epoch. Growth doubles the array when live +
/// tombstone slots pass a 3/4 load factor — the only allocating path.
///
/// Not thread-safe; one table per worker, like the overlays it backs.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class FlatTable {
 public:
  explicit FlatTable(std::size_t capacity_hint = 0) {
    std::size_t cap = kMinCapacity;
    while (cap < capacity_hint * 2) cap *= 2;
    slots_.resize(cap);
  }

  /// Logically empty the table without releasing or touching the slots.
  TXCONC_HOT void clear() {
    ++epoch_;
    size_ = 0;
    tombstones_ = 0;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Slot-array size (diagnostics; capacity is retained across clear()).
  std::size_t capacity() const { return slots_.size(); }

  TXCONC_HOT const Value* find(const Key& key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t idx = Hash{}(key) & mask;
    for (;;) {
      const Slot& slot = slots_[idx];
      if (slot.stamp == live_stamp()) {
        if (slot.key == key) return &slot.value;
      } else if (slot.stamp != tomb_stamp()) {
        return nullptr;  // not written this epoch: end of probe chain
      }
      idx = (idx + 1) & mask;
    }
  }

  TXCONC_HOT Value* find(const Key& key) {
    return const_cast<Value*>(std::as_const(*this).find(key));
  }

  TXCONC_HOT bool contains(const Key& key) const { return find(key) != nullptr; }

  /// Value for key, default-constructing (and inserting) when absent.
  TXCONC_HOT Value& operator[](const Key& key) {
    // txconc-lint: allow(hot-path-alloc) — growth is the one sanctioned path
    maybe_grow();
    const std::size_t mask = slots_.size() - 1;
    std::size_t idx = Hash{}(key) & mask;
    std::size_t first_tomb = kNoSlot;
    for (;;) {
      Slot& slot = slots_[idx];
      if (slot.stamp == live_stamp()) {
        if (slot.key == key) return slot.value;
      } else if (slot.stamp == tomb_stamp()) {
        if (first_tomb == kNoSlot) first_tomb = idx;
      } else {
        // End of chain: claim the earliest tombstone on the way, else
        // this empty slot.
        Slot& dest =
            first_tomb == kNoSlot ? slot : slots_[first_tomb];
        if (first_tomb != kNoSlot) --tombstones_;
        dest.stamp = live_stamp();
        dest.key = key;
        dest.value = Value{};
        ++size_;
        return dest.value;
      }
      idx = (idx + 1) & mask;
    }
  }

  TXCONC_HOT void insert_or_assign(const Key& key, const Value& value) {
    (*this)[key] = value;
  }

  TXCONC_HOT bool erase(const Key& key) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t idx = Hash{}(key) & mask;
    for (;;) {
      Slot& slot = slots_[idx];
      if (slot.stamp == live_stamp()) {
        if (slot.key == key) {
          slot.stamp = tomb_stamp();
          --size_;
          ++tombstones_;
          return true;
        }
      } else if (slot.stamp != tomb_stamp()) {
        return false;
      }
      idx = (idx + 1) & mask;
    }
  }

  /// Invoke fn(key, value) for every live entry (unspecified order).
  template <typename Fn>
  TXCONC_HOT void for_each(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.stamp == live_stamp()) fn(slot.key, slot.value);
    }
  }

 private:
  struct Slot {
    std::uint64_t stamp = 0;  ///< epoch*2 live, epoch*2+1 tombstone
    Key key{};
    Value value{};
  };

  static constexpr std::size_t kMinCapacity = 16;
  static constexpr std::size_t kNoSlot = ~std::size_t{0};

  std::uint64_t live_stamp() const { return epoch_ << 1; }
  std::uint64_t tomb_stamp() const { return (epoch_ << 1) | 1; }

  void maybe_grow() {
    if ((size_ + tombstones_ + 1) * 4 <= slots_.size() * 3) return;
    std::vector<Slot> old = std::move(slots_);
    const std::uint64_t old_live = live_stamp();
    slots_.assign(old.size() * 2, Slot{});
    epoch_ = 1;
    tombstones_ = 0;
    const std::size_t mask = slots_.size() - 1;
    for (Slot& slot : old) {
      if (slot.stamp != old_live) continue;
      std::size_t idx = Hash{}(slot.key) & mask;
      while (slots_[idx].stamp == live_stamp()) idx = (idx + 1) & mask;
      slots_[idx].stamp = live_stamp();
      slots_[idx].key = std::move(slot.key);
      slots_[idx].value = std::move(slot.value);
    }
  }

  std::vector<Slot> slots_;
  std::uint64_t epoch_ = 1;
  std::size_t size_ = 0;
  std::size_t tombstones_ = 0;
};

/// Membership-only companion of FlatTable (conflict sets, first-writer-wins
/// commit and poison sets). Same epoch-clear and allocation behavior.
template <typename Key, typename Hash = std::hash<Key>>
class FlatSet {
 public:
  explicit FlatSet(std::size_t capacity_hint = 0) : table_(capacity_hint) {}

  TXCONC_HOT void clear() { table_.clear(); }
  std::size_t size() const { return table_.size(); }
  bool empty() const { return table_.empty(); }
  TXCONC_HOT bool contains(const Key& key) const { return table_.contains(key); }
  /// @return true when the key was newly inserted.
  TXCONC_HOT bool insert(const Key& key) {
    if (table_.contains(key)) return false;
    table_[key] = true;
    return true;
  }

 private:
  FlatTable<Key, bool, Hash> table_;
};

}  // namespace txconc::common
