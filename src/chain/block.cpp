#include "chain/block.h"

#include <array>
#include <cstring>
#include <vector>

#include "common/sha256.h"

namespace txconc::chain {

Hash256 tx_hash(const utxo::Transaction& tx) { return tx.txid(); }

Hash256 tx_hash(const account::AccountTx& tx) {
  HashWriter w;
  write_tx(w, tx);
  return w.finish();
}

namespace {

/// A write_tx() writer that only counts the bytes.
struct SizeWriter {
  std::size_t size = 0;

  void u8(std::uint8_t) { size += 1; }
  void u32(std::uint32_t) { size += 4; }
  void u64(std::uint64_t) { size += 8; }
  void bytes(std::span<const std::uint8_t> data) { size += 4 + data.size(); }
  void raw(std::span<const std::uint8_t> data) { size += data.size(); }
};

/// A write_tx() writer into a buffer sized by SizeWriter.
struct BufferWriter {
  std::uint8_t* at;

  void u8(std::uint8_t v) { raw({&v, 1}); }
  void u32(std::uint32_t v) { le(v); }
  void u64(std::uint64_t v) { le(v); }
  void bytes(std::span<const std::uint8_t> data) {
    u32(static_cast<std::uint32_t>(data.size()));
    raw(data);
  }
  void raw(std::span<const std::uint8_t> data) {
    // An empty span may carry a null pointer, which memcpy must not see.
    if (!data.empty()) std::memcpy(at, data.data(), data.size());
    at += data.size();
  }

  // Little-endian through a local array: byte stores through `at` could
  // alias `at` itself, and would reload it after every byte.
  template <typename T>
  void le(T v) {
    std::array<std::uint8_t, sizeof(T)> out;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    raw(out);
  }
};

/// The padded encodings of a block's transactions and their block
/// counts, reused from block to block. Each thread has its own, so
/// concurrent roots never share one.
struct EncodeScratch {
  std::vector<std::uint32_t> blocks;
  std::vector<std::uint8_t> padded;
};
thread_local EncodeScratch encode_scratch;

}  // namespace

Hash256 transactions_root(std::span<const account::AccountTx> transactions,
                          bool* mutated) {
  // Size every encoding, then encode and pad each into its own blocks of
  // one buffer, and hash them all as one batch.
  EncodeScratch& scratch = encode_scratch;
  scratch.blocks.resize(transactions.size());
  std::size_t total = 0;
  for (std::size_t i = 0; i < transactions.size(); ++i) {
    SizeWriter size;
    write_tx(size, transactions[i]);
    scratch.blocks[i] =
        static_cast<std::uint32_t>(Sha256::padded_blocks(size.size));
    total += scratch.blocks[i];
  }
  scratch.padded.resize(64 * total);
  std::uint8_t* at = scratch.padded.data();
  for (std::size_t i = 0; i < transactions.size(); ++i) {
    BufferWriter writer{at};
    write_tx(writer, transactions[i]);
    Sha256::pad(at, static_cast<std::size_t>(writer.at - at));
    at += 64 * scratch.blocks[i];
  }
  static_assert(sizeof(Hash256) == 32, "leaves must be packed digests");
  std::vector<Hash256> leaves(transactions.size());
  Sha256::hash_padded_batch(scratch.padded.data(), scratch.blocks,
                            reinterpret_cast<std::uint8_t*>(leaves.data()));
  return merkle_root(leaves, mutated);
}

Bytes BlockHeader::serialize() const {
  ByteWriter w(136);
  w.raw(prev_hash.bytes);
  w.raw(merkle_root.bytes);
  w.raw(state_root.bytes);
  w.u64(height);
  w.u64(timestamp);
  w.u64(difficulty);
  w.u64(nonce);
  w.u64(gas_used);
  return w.take();
}

Hash256 BlockHeader::hash() const {
  Hash256 h;
  h.bytes = Sha256::hash_twice(serialize());
  return h;
}

}  // namespace txconc::chain
