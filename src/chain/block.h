// Blocks, the ledger, and the mempool.
//
// Block<Tx> is generic over the data model's transaction type
// (utxo::Transaction or account::AccountTx); tx_hash() adapts each type
// for merkle-tree construction.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "account/types.h"
#include "chain/merkle.h"
#include "common/bytes.h"
#include "common/error.h"
#include "common/hash.h"
#include "utxo/transaction.h"

namespace txconc::chain {

/// Hash adapter: UTXO transactions already carry a txid.
Hash256 tx_hash(const utxo::Transaction& tx);

/// Hash adapter: account transactions are hashed over a canonical
/// serialization of all signed fields, write_tx().
Hash256 tx_hash(const account::AccountTx& tx);

/// The canonical serialization of an account transaction: every signed
/// field, encoded as ByteWriter encodes it, into any writer with
/// ByteWriter's u8/u32/u64/raw/bytes calls. tx_hash() and
/// transactions_root() both encode through it, so their bytes agree.
template <typename Writer>
void write_tx(Writer& w, const account::AccountTx& tx) {
  w.raw(tx.from.bytes);
  w.u8(tx.to.has_value() ? 1 : 0);
  if (tx.to) w.raw(tx.to->bytes);
  w.u64(tx.value);
  w.u64(tx.gas_limit);
  w.u64(tx.gas_price);
  w.u64(tx.nonce);
  w.u32(static_cast<std::uint32_t>(tx.args.size()));
  for (const std::uint64_t arg : tx.args) w.u64(arg);
  w.u32(static_cast<std::uint32_t>(tx.address_args.size()));
  for (const Address& a : tx.address_args) w.raw(a.bytes);
  w.bytes(tx.init_code.code);
  w.u32(static_cast<std::uint32_t>(tx.init_code.address_table.size()));
  for (const Address& a : tx.init_code.address_table) w.raw(a.bytes);
}

/// A block header ("a sequence of blocks linked together via cryptographic
/// hash pointers", paper Section II-A).
struct BlockHeader {
  Hash256 prev_hash;
  Hash256 merkle_root;
  /// Commitment to the post-state (account model; zero when unused).
  Hash256 state_root;
  std::uint64_t height = 0;
  std::uint64_t timestamp = 0;   ///< Seconds since chain genesis.
  std::uint64_t difficulty = 1;  ///< PoW target scale.
  std::uint64_t nonce = 0;       ///< PoW solution.
  std::uint64_t gas_used = 0;    ///< Account model only; 0 otherwise.

  Bytes serialize() const;
  Hash256 hash() const;
};

/// A block: header plus the ordered transaction list.
template <typename Tx>
struct Block {
  BlockHeader header;
  std::vector<Tx> transactions;

  std::size_t size() const { return transactions.size(); }
};

/// Compute the merkle root over a transaction list; `mutated` as in
/// merkle_root().
template <typename Tx>
Hash256 transactions_root(std::span<const Tx> transactions,
                          bool* mutated = nullptr) {
  std::vector<Hash256> leaves;
  leaves.reserve(transactions.size());
  for (const Tx& tx : transactions) {
    leaves.push_back(tx_hash(tx));
  }
  return merkle_root(leaves, mutated);
}

/// The same root for account transactions, their leaves hashed as one
/// batch: each transaction is encoded once, padded, into one per-thread
/// buffer reused from block to block.
Hash256 transactions_root(std::span<const account::AccountTx> transactions,
                          bool* mutated = nullptr);

/// Assemble a block on top of `prev` (pass nullptr for the genesis block).
template <typename Tx>
Block<Tx> make_block(const BlockHeader* prev, std::vector<Tx> transactions,
                     std::uint64_t timestamp, std::uint64_t difficulty) {
  Block<Tx> block;
  block.transactions = std::move(transactions);
  block.header.prev_hash = prev ? prev->hash() : Hash256{};
  block.header.height = prev ? prev->height + 1 : 0;
  block.header.timestamp = timestamp;
  block.header.difficulty = difficulty;
  block.header.merkle_root =
      transactions_root(std::span<const Tx>(block.transactions));
  return block;
}

/// An append-only chain of blocks, and the one home of the rules a block
/// must meet to extend it: consecutive height, prev_hash of the tip,
/// timestamp not before the tip's, and a merkle root that commits to the
/// transactions. Nodes run them through check() or next_header() before
/// executing a block, so a block the ledger would refuse never touches
/// their state (DESIGN.md §19).
template <typename Tx>
class Ledger {
 public:
  /// A block whose merkle root is known to commit to its transactions.
  /// Only a Ledger makes one (check() or seal()), and neither the
  /// transactions nor the root can change afterwards, so append() takes
  /// it without recomputing the root.
  class Checked {
   public:
    const Block<Tx>& block() const { return block_; }
    /// The PoW nonce is outside the ledger's rules; a miner sets it last.
    void set_nonce(std::uint64_t nonce) { block_.header.nonce = nonce; }

   private:
    friend class Ledger;
    explicit Checked(Block<Tx> block) : block_(std::move(block)) {}
    Block<Tx> block_;
  };

  /// Header of the block after the tip: height and prev_hash set, for a
  /// producer to fill in. Throws ValidationError when `timestamp` is
  /// before the tip's, so the producer learns it before packing.
  BlockHeader next_header(std::uint64_t timestamp,
                          std::uint64_t difficulty) const {
    BlockHeader header;
    if (!blocks_.empty()) {
      header.prev_hash = blocks_.back().header.hash();
      header.height = blocks_.back().header.height + 1;
    }
    header.timestamp = timestamp;
    header.difficulty = difficulty;
    check_linkage(header);
    return header;
  }

  /// A block a producer assembled on next_header(): sets its merkle root,
  /// the one time it is computed.
  Checked seal(BlockHeader header, std::vector<Tx> transactions) const {
    Block<Tx> block{std::move(header), std::move(transactions)};
    block.header.merkle_root =
        transactions_root(std::span<const Tx>(block.transactions));
    return Checked(std::move(block));
  }

  /// Checks a received block against the tip: linkage, timestamp and
  /// merkle root, and that no level of the tree pairs equal siblings (a
  /// body padded with a copy of its tail shares the honest root).
  /// Throws ValidationError.
  Checked check(Block<Tx> block) const {
    check_linkage(block.header);
    bool mutated = false;
    if (block.header.merkle_root !=
        transactions_root(std::span<const Tx>(block.transactions),
                          &mutated)) {
      throw ValidationError("merkle root mismatch");
    }
    if (mutated) {
      throw ValidationError("merkle tree pairs equal siblings");
    }
    return Checked(std::move(block));
  }

  /// Appends a checked block. The linkage is checked again against the
  /// current tip (one header hash), which binds the handle to the tip it
  /// was made for; the merkle root is not recomputed.
  void append(Checked block) {
    check_linkage(block.block_.header);
    blocks_.push_back(std::move(block.block_));
  }

  /// Checks `block` in full, then appends it.
  void append(Block<Tx> block) { append(check(std::move(block))); }

  std::size_t height() const { return blocks_.size(); }
  bool empty() const { return blocks_.empty(); }

  const Block<Tx>& at(std::size_t height) const {
    if (height >= blocks_.size()) {
      throw UsageError("Ledger::at: height out of range");
    }
    return blocks_[height];
  }

  const Block<Tx>& tip() const {
    if (blocks_.empty()) throw UsageError("Ledger::tip: empty chain");
    return blocks_.back();
  }

  /// Total number of transactions across all blocks.
  std::size_t total_transactions() const {
    std::size_t n = 0;
    for (const auto& b : blocks_) n += b.transactions.size();
    return n;
  }

 private:
  void check_linkage(const BlockHeader& header) const {
    if (blocks_.empty()) {
      if (header.height != 0) {
        throw ValidationError("first block must have height 0");
      }
      return;
    }
    const BlockHeader& tip_header = blocks_.back().header;
    if (header.height != tip_header.height + 1) {
      throw ValidationError("non-consecutive block height");
    }
    if (header.prev_hash != tip_header.hash()) {
      throw ValidationError("prev_hash does not match tip");
    }
    if (header.timestamp < tip_header.timestamp) {
      throw ValidationError("timestamp going backwards");
    }
  }

  std::vector<Block<Tx>> blocks_;
};

/// Fee-priority mempool. Pending transactions are drained highest-fee-first
/// when a block is assembled, FIFO among equal fees.
template <typename Tx>
class Mempool {
 public:
  /// @param fee  the fee (or gas price) used for ordering.
  void add(Tx tx, std::uint64_t fee) {
    entries_.push_back({std::move(tx), fee, next_seq_++, false});
  }

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Remove and return up to `max_count` best-paying transactions, in
  /// that order. Sorts small index keys, not the entries; the rest keep
  /// their order for the next take.
  std::vector<Tx> take(std::size_t max_count) {
    std::vector<Key> keys;
    keys.reserve(entries_.size());
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      keys.push_back({entries_[i].fee, entries_[i].seq, i});
    }
    // (fee, seq) is unique, so an unstable sort gives one order.
    std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
      if (a.fee != b.fee) return a.fee > b.fee;
      return a.seq < b.seq;
    });
    const std::size_t n = std::min(max_count, entries_.size());
    std::vector<Tx> out;
    out.reserve(n);
    for (std::size_t k = 0; k < n; ++k) {
      Entry& entry = entries_[keys[k].index];
      out.push_back(std::move(entry.tx));
      entry.taken = true;
    }
    std::erase_if(entries_, [](const Entry& e) { return e.taken; });
    return out;
  }

 private:
  struct Entry {
    Tx tx;
    std::uint64_t fee;
    std::uint64_t seq;
    bool taken;  ///< moved out by the current take()
  };
  struct Key {
    std::uint64_t fee;
    std::uint64_t seq;
    std::size_t index;  ///< into entries_
  };
  std::vector<Entry> entries_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace txconc::chain
