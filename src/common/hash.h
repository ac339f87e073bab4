// Fixed-size identifier types: 32-byte hashes and 20-byte addresses.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>

#include "common/sha256.h"

namespace txconc {

/// A 32-byte hash value (transaction id, block hash, merkle root).
struct Hash256 {
  std::array<std::uint8_t, 32> bytes{};

  auto operator<=>(const Hash256&) const = default;

  bool is_zero() const;

  /// Lowercase hex, 64 characters.
  std::string to_hex() const;
  /// Abbreviated display form: first 4 hex digits (as used in the paper's
  /// Figure 6 rendering of Bitcoin transactions).
  std::string short_hex() const;

  static Hash256 from_hex(std::string_view hex);
  static Hash256 from_bytes(std::span<const std::uint8_t> data);
  /// SHA-256 of arbitrary bytes.
  static Hash256 digest_of(std::span<const std::uint8_t> data);
  /// Deterministic hash derived from a 64-bit seed (cheap test/workload ids).
  static Hash256 from_seed(std::uint64_t seed);

  /// First 8 bytes as a little-endian integer (for sharding / bucketing).
  std::uint64_t low64() const;
};

/// A 20-byte account address (account-based data model).
struct Address {
  std::array<std::uint8_t, 20> bytes{};

  auto operator<=>(const Address&) const = default;

  bool is_zero() const;

  /// "0x"-prefixed lowercase hex, 42 characters.
  std::string to_hex() const;
  /// Abbreviated display form: "0x" + first 3 hex digits (paper Figure 1).
  std::string short_hex() const;

  static Address from_hex(std::string_view hex);
  /// Deterministic address derived from a 64-bit seed.
  static Address from_seed(std::uint64_t seed);
  /// Contract address derived from creator + nonce (Ethereum-style).
  static Address derive_contract(const Address& creator, std::uint64_t nonce);

  /// First 8 bytes as a little-endian integer (shard assignment uses this).
  std::uint64_t low64() const;
};

/// SHA-256 of fields encoded exactly as ByteWriter encodes them
/// (little-endian integers, u32 length prefixes), streamed into the
/// hasher instead of a heap buffer. For hashes taken in bulk.
class HashWriter {
 public:
  HashWriter() = default;
  /// Hashes on `kernel`, so tests can run an encoding on each kernel.
  explicit HashWriter(Sha256::Kernel kernel) : sha_(kernel) {}

  void u8(std::uint8_t v) { sha_.update({&v, 1}); }
  void u32(std::uint32_t v) { le(v); }
  void u64(std::uint64_t v) { le(v); }
  /// Length-prefixed (u32) raw bytes.
  void bytes(std::span<const std::uint8_t> data) {
    u32(static_cast<std::uint32_t>(data.size()));
    raw(data);
  }
  /// Raw bytes, no length prefix.
  void raw(std::span<const std::uint8_t> data) { sha_.update(data); }

  /// The digest; the writer is exhausted afterwards.
  Hash256 finish() { return Hash256{sha_.finalize()}; }

 private:
  template <typename T>
  void le(T v) {
    std::array<std::uint8_t, sizeof(T)> out;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    sha_.update(out);
  }

  Sha256 sha_;
};

}  // namespace txconc

template <>
struct std::hash<txconc::Hash256> {
  std::size_t operator()(const txconc::Hash256& h) const noexcept {
    // The value is already uniformly distributed; take the first word.
    std::size_t v = 0;
    for (std::size_t i = 0; i < sizeof(std::size_t); ++i) {
      v |= static_cast<std::size_t>(h.bytes[i]) << (8 * i);
    }
    return v;
  }
};

template <>
struct std::hash<txconc::Address> {
  std::size_t operator()(const txconc::Address& a) const noexcept {
    std::size_t v = 0;
    for (std::size_t i = 0; i < sizeof(std::size_t); ++i) {
      v |= static_cast<std::size_t>(a.bytes[i]) << (8 * i);
    }
    return v;
  }
};
