#include "common/sha256.h"

#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace txconc {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

constexpr std::uint32_t load_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

void store_digest(const std::array<std::uint32_t, 8>& state,
                  std::uint8_t* out) {
  for (std::size_t i = 0; i < 8; ++i) store_be32(out + 4 * i, state[i]);
}

/// W[t] + K[t] of one block (FIPS 180-4 §6.2.2 step 1, constants folded).
constexpr std::array<std::uint32_t, 64> schedule_of(const std::uint8_t* block) {
  std::array<std::uint32_t, 64> w{};
  for (std::size_t i = 0; i < 16; ++i) w[i] = load_be32(block + 4 * i);
  for (std::size_t i = 16; i < 64; ++i) {
    const std::uint32_t s0 = std::rotr(w[i - 15], 7) ^
                             std::rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 = std::rotr(w[i - 2], 17) ^
                             std::rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  for (std::size_t i = 0; i < 64; ++i) w[i] += kRoundConstants[i];
  return w;
}

/// The second block of every 64-byte message: the 0x80 terminator, zeros,
/// and the bit length 512.
constexpr std::array<std::uint8_t, 64> kPadding64 = [] {
  std::array<std::uint8_t, 64> block{};
  block[0] = 0x80;
  block[62] = 0x02;
  return block;
}();

/// The only block of a 32-byte message (the outer hash of hash_twice):
/// the digest goes in bytes 0..31, then the terminator and bit length 256.
constexpr std::array<std::uint8_t, 64> kPadding32 = [] {
  std::array<std::uint8_t, 64> block{};
  block[32] = 0x80;
  block[62] = 0x01;
  return block;
}();

constexpr std::array<std::uint32_t, 64> kPadding64Schedule =
    schedule_of(kPadding64.data());

/// The batch path for any kernel: two kernel calls per message, the
/// second on the constant padding block.
template <bool kTwice>
void kernel_hash64_batch(Sha256::Kernel kernel, const std::uint8_t* in,
                         std::uint8_t* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    std::array<std::uint32_t, 8> state = kInitialState;
    kernel(state.data(), in + 64 * i, 1);
    kernel(state.data(), kPadding64.data(), 1);
    if constexpr (kTwice) {
      std::array<std::uint8_t, 64> block = kPadding32;
      store_digest(state, block.data());
      state = kInitialState;
      kernel(state.data(), block.data(), 1);
    }
    store_digest(state, out + 32 * i);
  }
}

#if defined(__x86_64__)

// Intel SHA extensions: each sha256rnds2 runs two rounds, with the state
// split across two registers as ABEF and CDGH; sha256msg1/msg2 extend the
// message schedule four words at a time. Compiled for the extension by
// attribute, so the build flags stay generic; only called after CPUID
// says the CPU has it.
#define TXCONC_SHA_NI __attribute__((target("sha,sse4.1,ssse3")))
#define TXCONC_SHA_NI_INLINE \
  __attribute__((target("sha,sse4.1,ssse3"), always_inline)) inline

/// One hash in flight: the eight state words as ABEF and CDGH.
struct NiLane {
  __m128i abef;
  __m128i cdgh;
};

/// Shuffle mask turning four big-endian words into native ones and back.
TXCONC_SHA_NI_INLINE __m128i ni_byte_swap() {
  return _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
}

TXCONC_SHA_NI_INLINE NiLane ni_load(const std::uint32_t* state) {
  const __m128i cdab = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  return {_mm_alignr_epi8(cdab, efgh, 8), _mm_blend_epi16(efgh, cdab, 0xF0)};
}

/// The state words a..d and e..h of a lane.
TXCONC_SHA_NI_INLINE void ni_words(const NiLane& lane, __m128i& abcd,
                                   __m128i& efgh) {
  const __m128i feba = _mm_shuffle_epi32(lane.abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(lane.cdgh, 0xB1);
  abcd = _mm_blend_epi16(feba, dchg, 0xF0);
  efgh = _mm_alignr_epi8(dchg, feba, 8);
}

/// The message words of one 64-byte block.
TXCONC_SHA_NI_INLINE void ni_message(const std::uint8_t* data, __m128i* w) {
  for (std::size_t q = 0; q < 4; ++q) {
    w[q] = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * q)),
        ni_byte_swap());
  }
}

/// Four rounds, given W[t] + K[t] for them.
TXCONC_SHA_NI_INLINE void ni_rounds(NiLane& lane, __m128i wk) {
  lane.cdgh = _mm_sha256rnds2_epu32(lane.cdgh, lane.abef, wk);
  lane.abef =
      _mm_sha256rnds2_epu32(lane.abef, lane.cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

/// Absorbs one block into each of N lanes, interleaved round by round so
/// the lanes' independent instructions overlap. w[l] holds lane l's first
/// 16 message words and is used up as its rolling schedule: w[l][r % 4]
/// holds words 4r .. 4r+3 in round group r. With kPadding the block is
/// the padding block of a 64-byte message, run from its compile-time
/// schedule, and w is unused.
template <std::size_t N, bool kPadding = false>
TXCONC_SHA_NI_INLINE void ni_block(NiLane* lanes, __m128i (*w)[4]) {
  const auto* k = reinterpret_cast<const __m128i*>(
      kPadding ? kPadding64Schedule.data() : kRoundConstants.data());
  NiLane start[N];
  for (std::size_t l = 0; l < N; ++l) start[l] = lanes[l];
#pragma GCC unroll 16
  for (std::size_t r = 0; r < 16; ++r) {
    const __m128i kr = _mm_loadu_si128(k + r);
#pragma GCC unroll 4
    for (std::size_t l = 0; l < N; ++l) {
      if constexpr (kPadding) {
        ni_rounds(lanes[l], kr);
      } else {
        __m128i& words = w[l][r % 4];
        if (r >= 4) {
          // W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16].
          const __m128i& prev = w[l][(r + 3) % 4];
          const __m128i s0 = _mm_sha256msg1_epu32(words, w[l][(r + 1) % 4]);
          const __m128i w7 = _mm_alignr_epi8(prev, w[l][(r + 2) % 4], 4);
          words = _mm_sha256msg2_epu32(_mm_add_epi32(s0, w7), prev);
        }
        ni_rounds(lanes[l], _mm_add_epi32(words, kr));
      }
    }
  }
  for (std::size_t l = 0; l < N; ++l) {
    lanes[l].abef = _mm_add_epi32(lanes[l].abef, start[l].abef);
    lanes[l].cdgh = _mm_add_epi32(lanes[l].cdgh, start[l].cdgh);
  }
}

TXCONC_SHA_NI void sha_ni_kernel(std::uint32_t* state, const std::uint8_t* data,
                                 std::size_t blocks) {
  NiLane lane = ni_load(state);
  for (; blocks > 0; --blocks, data += 64) {
    __m128i w[1][4];
    ni_message(data, w[0]);
    ni_block<1>(&lane, w);
  }
  __m128i abcd;
  __m128i efgh;
  ni_words(lane, abcd, efgh);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), abcd);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), efgh);
}

/// N 64-byte messages at once, one per lane. Every input is loaded
/// before any output is stored, so `out` may overlap `in`.
template <bool kTwice, std::size_t N>
TXCONC_SHA_NI_INLINE void ni_hash64(const NiLane& init, const std::uint8_t* in,
                                    std::uint8_t* out) {
  NiLane lanes[N];
  __m128i w[N][4];
  for (std::size_t l = 0; l < N; ++l) {
    lanes[l] = init;
    ni_message(in + 64 * l, w[l]);
  }
  ni_block<N>(lanes, w);
  ni_block<N, true>(lanes, nullptr);
  if constexpr (kTwice) {
    // The digest's words are the outer block's first eight message words.
    for (std::size_t l = 0; l < N; ++l) {
      ni_words(lanes[l], w[l][0], w[l][1]);
      w[l][2] = _mm_set_epi32(0, 0, 0, static_cast<int>(0x80000000u));
      w[l][3] = _mm_set_epi32(256, 0, 0, 0);
      lanes[l] = init;
    }
    ni_block<N>(lanes, w);
  }
  for (std::size_t l = 0; l < N; ++l) {
    __m128i abcd;
    __m128i efgh;
    ni_words(lanes[l], abcd, efgh);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 32 * l),
                     _mm_shuffle_epi8(abcd, ni_byte_swap()));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 32 * l + 16),
                     _mm_shuffle_epi8(efgh, ni_byte_swap()));
  }
}

/// Two lanes: SHA-NI is throughput-bound, so a third or fourth lane adds
/// register pressure and no speed (DESIGN.md §22.1).
template <bool kTwice>
TXCONC_SHA_NI void ni_hash64_batch(const std::uint8_t* in, std::uint8_t* out,
                                   std::size_t n) {
  const NiLane init = ni_load(kInitialState.data());
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    ni_hash64<kTwice, 2>(init, in + 64 * i, out + 32 * i);
  }
  if (i < n) ni_hash64<kTwice, 1>(init, in + 64 * i, out + 32 * i);
}

#undef TXCONC_SHA_NI_INLINE
#undef TXCONC_SHA_NI

#endif  // __x86_64__

/// The kernel every default-constructed hasher uses, chosen once.
Sha256::Kernel selected_kernel() {
  static const Sha256::Kernel kernel = [] {
    const Sha256::Kernel hardware = Sha256::hardware_kernel();
    return hardware != nullptr ? hardware : &Sha256::portable_kernel;
  }();
  return kernel;
}

template <bool kTwice>
void hash64_batch_on(Sha256::Kernel kernel, const std::uint8_t* in,
                     std::uint8_t* out, std::size_t n) {
#if defined(__x86_64__)
  if (kernel == &sha_ni_kernel) {
    ni_hash64_batch<kTwice>(in, out, n);
    return;
  }
#endif
  kernel_hash64_batch<kTwice>(kernel, in, out, n);
}

}  // namespace

Sha256::Sha256() : Sha256(selected_kernel()) {}

Sha256::Sha256(Kernel kernel)
    : kernel_(kernel), state_(kInitialState), buffer_{} {}

Sha256::Kernel Sha256::hardware_kernel() {
#if defined(__x86_64__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return nullptr;
  const bool sse = (ecx & bit_SSSE3) != 0 && (ecx & bit_SSE4_1) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return nullptr;
  return sse && (ebx & bit_SHA) != 0 ? &sha_ni_kernel : nullptr;
#else
  return nullptr;
#endif
}

void Sha256::portable_kernel(std::uint32_t* state, const std::uint8_t* data,
                             std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    const std::array<std::uint32_t, 64> wk = schedule_of(data);

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (std::size_t i = 0; i < 64; ++i) {
      const std::uint32_t s1 =
          std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + wk[i];
      const std::uint32_t s0 =
          std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

std::array<std::uint32_t, 64> Sha256::schedule(const std::uint8_t* block) {
  return schedule_of(block);
}

const std::array<std::uint32_t, 64>& Sha256::padding_schedule() {
  return kPadding64Schedule;
}

void Sha256::absorb(std::span<const std::uint8_t> data) {
  bit_length_ += static_cast<std::uint64_t>(data.size()) * 8;
  std::size_t offset = 0;
  if (buffer_used_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffer_used_);
    std::memcpy(buffer_.data() + buffer_used_, data.data(), take);
    buffer_used_ += take;
    offset += take;
    if (buffer_used_ == 64) {
      kernel_(state_.data(), buffer_.data(), 1);
      buffer_used_ = 0;
    }
  }
  if (const std::size_t blocks = (data.size() - offset) / 64; blocks > 0) {
    kernel_(state_.data(), data.data() + offset, blocks);
    offset += 64 * blocks;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_used_ = data.size() - offset;
  }
}

Sha256::Digest Sha256::finalize() {
  // Append the 0x80 terminator, zero padding, and the 64-bit bit length.
  buffer_[buffer_used_++] = 0x80;
  if (buffer_used_ > 56) {
    std::memset(buffer_.data() + buffer_used_, 0, 64 - buffer_used_);
    kernel_(state_.data(), buffer_.data(), 1);
    buffer_used_ = 0;
  }
  std::memset(buffer_.data() + buffer_used_, 0, 56 - buffer_used_);
  for (std::size_t i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_length_ >> (56 - 8 * i));
  }
  kernel_(state_.data(), buffer_.data(), 1);

  Digest digest;
  store_digest(state_, digest.data());
  return digest;
}

Sha256::Digest Sha256::hash(std::span<const std::uint8_t> data) {
  Sha256 h;
  h.update(data);
  return h.finalize();
}

Sha256::Digest Sha256::hash_twice(std::span<const std::uint8_t> data) {
  const Digest once = hash(data);
  return hash(once);
}


void Sha256::hash64_batch(const std::uint8_t* in, std::uint8_t* out,
                          std::size_t n) {
  hash64_batch_on<false>(selected_kernel(), in, out, n);
}

void Sha256::hash64_batch(Kernel kernel, const std::uint8_t* in,
                          std::uint8_t* out, std::size_t n) {
  hash64_batch_on<false>(kernel, in, out, n);
}

void Sha256::hash64_twice_batch(const std::uint8_t* in, std::uint8_t* out,
                                std::size_t n) {
  hash64_batch_on<true>(selected_kernel(), in, out, n);
}

void Sha256::hash64_twice_batch(Kernel kernel, const std::uint8_t* in,
                                std::uint8_t* out, std::size_t n) {
  hash64_batch_on<true>(kernel, in, out, n);
}

}  // namespace txconc
