// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used for transaction ids, block hashes and merkle trees so that the
// simulated chains have realistic, collision-resistant identifiers.
//
// Two compression kernels compute identical digests: a portable one, and
// on x86-64 CPUs with the SHA extensions a SHA-NI one. The hasher picks
// the fastest the CPU supports, once, at first use (DESIGN.md §19).
// Commitment hashes (trie joins and lifts, merkle pairs, transaction
// leaves) run as batches: sixteen messages at a time in AVX-512 lanes,
// else two at a time on SHA-NI (DESIGN.md §22, §23).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#include "common/hot_path.h"

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

  /// Absorb more input. Input that still fits the block buffer is only
  /// copied there, inline, so a stream of small fields costs stores.
  void update(std::span<const std::uint8_t> data) {
    // The first test is implied by the second; it bounds the copy for the
    // compiler's array-bounds analysis.
    if (data.size() < 64 && buffer_used_ + data.size() < 64) {
      // An empty span may carry a null pointer, which memcpy must not see.
      if (!data.empty()) {
        std::memcpy(buffer_.data() + buffer_used_, data.data(), data.size());
      }
      buffer_used_ += data.size();
      bit_length_ += static_cast<std::uint64_t>(data.size()) * 8;
      return;
    }
    absorb(data);
  }

  /// Pad, finish, and return the digest.
  Digest finalize();

  /// One-shot convenience.
  static Digest hash(std::span<const std::uint8_t> data);

  /// Double SHA-256 (Bitcoin-style txid construction).
  static Digest hash_twice(std::span<const std::uint8_t> data);

  /// How a batch runs: the portable kernel one message at a time, two
  /// interleaved SHA-NI lanes, or sixteen AVX-512 lanes. A 16-lane batch
  /// hashes whole groups of 16 messages and leaves the rest to the SHA-NI
  /// path, or to the portable one on a CPU without SHA-NI.
  enum class BatchPath : std::uint8_t { kPortable, kShaNi, kAvx512 };

  /// Whether this CPU (and its OS, for the AVX-512 register state) can
  /// run `path`.
  static bool has_batch_path(BatchPath path);

  /// Messages the default batch path hashes at once: 16 on AVX-512
  /// (F and BW, with opmask and ZMM state enabled), else 2 on SHA-NI,
  /// else 1. Chosen once, at first use.
  static std::size_t batch_lanes();

  /// SHA-256 of each of `n` 64-byte messages: the 32 bytes at
  /// out + 32 * i become the digest of the 64 bytes at in + 64 * i. `out`
  /// may equal `in`, so a tree level hashes in place: each output
  /// overwrites only input already read.
  TXCONC_HOT static void hash64_batch(const std::uint8_t* in,
                                      std::uint8_t* out, std::size_t n);
  /// hash64_batch on `path`, which the CPU must have, so tests can run
  /// each path.
  TXCONC_HOT static void hash64_batch(BatchPath path, const std::uint8_t* in,
                                      std::uint8_t* out, std::size_t n);

  /// hash64_batch, with each digest hashed once more (hash_twice of each
  /// message). Same layout and aliasing rule.
  TXCONC_HOT static void hash64_twice_batch(const std::uint8_t* in,
                                            std::uint8_t* out, std::size_t n);
  TXCONC_HOT static void hash64_twice_batch(BatchPath path,
                                            const std::uint8_t* in,
                                            std::uint8_t* out, std::size_t n);

  /// 64-byte blocks a message of `length` bytes fills once padded.
  static constexpr std::size_t padded_blocks(std::size_t length) {
    return (length + 8) / 64 + 1;
  }
  /// Pads the `length` bytes at `message` in place (FIPS 180-4 §5.1.1):
  /// writes the terminator, the zeros and the bit length up to the end
  /// of its padded_blocks(length) blocks.
  static void pad(std::uint8_t* message, std::size_t length);

  /// SHA-256 of messages padded by pad() and laid end to end at `in`:
  /// message i fills blocks[i] >= 1 blocks, and its digest goes to
  /// out + 32 * i. Messages of equal block count share 16-lane groups,
  /// in any order. `out` must not overlap `in`.
  TXCONC_HOT static void hash_padded_batch(
      const std::uint8_t* in, std::span<const std::uint32_t> blocks,
      std::uint8_t* out);
  TXCONC_HOT static void hash_padded_batch(
      BatchPath path, const std::uint8_t* in,
      std::span<const std::uint32_t> blocks, std::uint8_t* out);

  /// The portable kernel: the reference the tests compare against, and
  /// the only kernel on CPUs without the SHA extensions.
  static void portable_kernel(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t blocks);

  /// The SHA-NI kernel, or nullptr when the CPU lacks the SHA, SSE4.1 or
  /// SSSE3 extensions (always nullptr off x86-64).
  static Kernel hardware_kernel();

  /// W[t] + K[t], t = 0..63, of one 64-byte block: the message schedule
  /// plus round constants, as the portable kernel derives it.
  static std::array<std::uint32_t, 64> schedule(const std::uint8_t* block);

  /// The same for the padding block every 64-byte message ends with,
  /// computed at compile time; the SHA-NI and AVX-512 batch paths run it
  /// as is.
  static const std::array<std::uint32_t, 64>& padding_schedule();

 private:
  /// update() for input that fills the block buffer.
  void absorb(std::span<const std::uint8_t> data);

  Kernel kernel_;
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::uint64_t bit_length_ = 0;
  std::size_t buffer_used_ = 0;
};

}  // namespace txconc
