// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used for transaction ids, block hashes and merkle trees so that the
// simulated chains have realistic, collision-resistant identifiers.
//
// Two compression kernels compute identical digests: a portable one, and
// on x86-64 CPUs with the SHA extensions a SHA-NI one. The hasher picks
// the fastest the CPU supports, once, at first use (DESIGN.md §19).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace txconc {

/// Incremental SHA-256 hasher.
///
///   Sha256 h;
///   h.update(part1);
///   h.update(part2);
///   auto digest = h.finalize();   // 32 bytes
///
/// finalize() may be called once; the object is then exhausted.
class Sha256 {
 public:
  using Digest = std::array<std::uint8_t, 32>;

  /// A compression kernel: absorbs `blocks` consecutive 64-byte blocks
  /// starting at `data` (no alignment required) into the eight state
  /// words.
  using Kernel = void (*)(std::uint32_t* state, const std::uint8_t* data,
                          std::size_t blocks);

  /// Hashes with the fastest kernel this CPU supports.
  Sha256();
  /// Hashes with `kernel`, so tests can run each kernel on the same input.
  explicit Sha256(Kernel kernel);

  /// Absorb more input.
  void update(std::span<const std::uint8_t> data);

  /// Pad, finish, and return the digest.
  Digest finalize();

  /// One-shot convenience.
  static Digest hash(std::span<const std::uint8_t> data);

  /// Double SHA-256 (Bitcoin-style txid construction).
  static Digest hash_twice(std::span<const std::uint8_t> data);

  /// The portable kernel: the reference the tests compare against, and
  /// the only kernel on CPUs without the SHA extensions.
  static void portable_kernel(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t blocks);

  /// The SHA-NI kernel, or nullptr when the CPU lacks the SHA, SSE4.1 or
  /// SSSE3 extensions (always nullptr off x86-64).
  static Kernel hardware_kernel();

 private:
  Kernel kernel_;
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::uint64_t bit_length_ = 0;
  std::size_t buffer_used_ = 0;
};

}  // namespace txconc
