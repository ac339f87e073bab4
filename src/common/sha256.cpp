#include "common/sha256.h"

#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
// GCC 12's AVX-512 intrinsics seed their unused merge operand with an
// uninitialised value, which -Wuninitialized reports wherever they inline.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
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

/// The portable batch path: two kernel calls per message, the second on
/// the constant padding block.
template <bool kTwice>
void portable_hash64_batch(const std::uint8_t* in, std::uint8_t* out,
                           std::size_t n) {
  constexpr Sha256::Kernel kernel = &Sha256::portable_kernel;
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

// AVX-512: sixteen hashes in flight, lane-major. Register j holds state
// word j of all sixteen hashes, and message word t of all sixteen blocks,
// so one instruction runs a step of the round for every lane. Rotations
// are vprord, and each three-input boolean function (Ch, Maj and the
// three-way XORs of the sigmas) is one vpternlogd. Compiled for AVX512F
// and AVX512BW by attribute; only called after CPUID and XGETBV say the
// CPU and OS support them.
#define TXCONC_AVX512 __attribute__((target("avx512f,avx512bw")))
#define TXCONC_AVX512_INLINE \
  __attribute__((target("avx512f,avx512bw"), always_inline)) inline

constexpr std::size_t kLanes = 16;

TXCONC_AVX512_INLINE __m512i avx_xor3(__m512i a, __m512i b, __m512i c) {
  return _mm512_ternarylogic_epi32(a, b, c, 0x96);
}

/// Reverses the bytes of each 32-bit word (big-endian words <-> native).
TXCONC_AVX512_INLINE __m512i avx_byte_swap(__m512i v) {
  const __m512i mask = _mm512_broadcast_i32x4(
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL));
  return _mm512_shuffle_epi8(v, mask);
}

/// One round on every lane; the caller rotates the roles of a..h.
TXCONC_AVX512_INLINE void avx_round(__m512i a, __m512i b, __m512i c,
                                    __m512i& d, __m512i e, __m512i f,
                                    __m512i g, __m512i& h, __m512i wk) {
  const __m512i s1 = avx_xor3(_mm512_ror_epi32(e, 6), _mm512_ror_epi32(e, 11),
                              _mm512_ror_epi32(e, 25));
  const __m512i ch = _mm512_ternarylogic_epi32(e, f, g, 0xCA);
  const __m512i t1 =
      _mm512_add_epi32(_mm512_add_epi32(h, wk), _mm512_add_epi32(s1, ch));
  const __m512i s0 = avx_xor3(_mm512_ror_epi32(a, 2), _mm512_ror_epi32(a, 13),
                              _mm512_ror_epi32(a, 22));
  const __m512i maj = _mm512_ternarylogic_epi32(a, b, c, 0xE8);
  d = _mm512_add_epi32(d, t1);
  h = _mm512_add_epi32(t1, _mm512_add_epi32(s0, maj));
}

/// Message word t >= 16 from the rolling window w[t % 16].
TXCONC_AVX512_INLINE __m512i avx_extend(__m512i* w, std::size_t t) {
  const __m512i w15 = w[(t - 15) % 16];
  const __m512i w2 = w[(t - 2) % 16];
  const __m512i s0 = avx_xor3(_mm512_ror_epi32(w15, 7),
                              _mm512_ror_epi32(w15, 18),
                              _mm512_srli_epi32(w15, 3));
  const __m512i s1 = avx_xor3(_mm512_ror_epi32(w2, 17),
                              _mm512_ror_epi32(w2, 19),
                              _mm512_srli_epi32(w2, 10));
  w[t % 16] = _mm512_add_epi32(_mm512_add_epi32(w[t % 16], s0),
                               _mm512_add_epi32(w[(t - 7) % 16], s1));
  return w[t % 16];
}

/// Absorbs one block into every lane. w holds the block's 16 message
/// words and is used up as the rolling schedule. With kPadding the block
/// is the padding block of a 64-byte message, run from its compile-time
/// W[t] + K[t], and w is unused.
template <bool kPadding>
TXCONC_AVX512_INLINE __m512i avx_wk(__m512i* w, std::size_t t) {
  if constexpr (kPadding) {
    return _mm512_set1_epi32(static_cast<int>(kPadding64Schedule[t]));
  } else {
    const __m512i word = t < 16 ? w[t] : avx_extend(w, t);
    return _mm512_add_epi32(
        word, _mm512_set1_epi32(static_cast<int>(kRoundConstants[t])));
  }
}

template <bool kPadding>
TXCONC_AVX512_INLINE void avx_block(__m512i* state, __m512i* w) {
  __m512i a = state[0], b = state[1], c = state[2], d = state[3];
  __m512i e = state[4], f = state[5], g = state[6], h = state[7];
#pragma GCC unroll 8
  for (std::size_t t = 0; t < 64; t += 8) {
    avx_round(a, b, c, d, e, f, g, h, avx_wk<kPadding>(w, t));
    avx_round(h, a, b, c, d, e, f, g, avx_wk<kPadding>(w, t + 1));
    avx_round(g, h, a, b, c, d, e, f, avx_wk<kPadding>(w, t + 2));
    avx_round(f, g, h, a, b, c, d, e, avx_wk<kPadding>(w, t + 3));
    avx_round(e, f, g, h, a, b, c, d, avx_wk<kPadding>(w, t + 4));
    avx_round(d, e, f, g, h, a, b, c, avx_wk<kPadding>(w, t + 5));
    avx_round(c, d, e, f, g, h, a, b, avx_wk<kPadding>(w, t + 6));
    avx_round(b, c, d, e, f, g, h, a, avx_wk<kPadding>(w, t + 7));
  }
  state[0] = _mm512_add_epi32(state[0], a);
  state[1] = _mm512_add_epi32(state[1], b);
  state[2] = _mm512_add_epi32(state[2], c);
  state[3] = _mm512_add_epi32(state[3], d);
  state[4] = _mm512_add_epi32(state[4], e);
  state[5] = _mm512_add_epi32(state[5], f);
  state[6] = _mm512_add_epi32(state[6], g);
  state[7] = _mm512_add_epi32(state[7], h);
}

/// The message words of sixteen 64-byte blocks, one per lane, lane-major:
/// a 16 x 16 transpose of 32-bit words in four shuffle stages, then a
/// byte swap. Plain loads, so a sanitizer sees every byte read.
TXCONC_AVX512_INLINE void avx_message(const std::uint8_t* const* blocks,
                                      __m512i* w) {
  __m512i r[kLanes];
  for (std::size_t l = 0; l < kLanes; ++l) {
    r[l] = _mm512_loadu_si512(blocks[l]);
  }
  // Each 128-bit chunk k of t[2i] / t[2i + 1] interleaves words 4k, 4k + 1
  // / 4k + 2, 4k + 3 of rows 2i and 2i + 1.
  __m512i t[kLanes];
  for (std::size_t i = 0; i < kLanes; i += 2) {
    t[i] = _mm512_unpacklo_epi32(r[i], r[i + 1]);
    t[i + 1] = _mm512_unpackhi_epi32(r[i], r[i + 1]);
  }
  // Chunk k of u[4g + m] holds word 4k + m of rows 4g .. 4g + 3.
  __m512i u[kLanes];
  for (std::size_t g = 0; g < kLanes; g += 4) {
    u[g] = _mm512_unpacklo_epi64(t[g], t[g + 2]);
    u[g + 1] = _mm512_unpackhi_epi64(t[g], t[g + 2]);
    u[g + 2] = _mm512_unpacklo_epi64(t[g + 1], t[g + 3]);
    u[g + 3] = _mm512_unpackhi_epi64(t[g + 1], t[g + 3]);
  }
  // Word 4k + m of every row: chunk k of u[m], u[4 + m], u[8 + m] and
  // u[12 + m], a 4 x 4 transpose of chunks.
  for (std::size_t m = 0; m < 4; ++m) {
    const __m512i v0 = _mm512_shuffle_i32x4(u[m], u[4 + m], 0x44);
    const __m512i v1 = _mm512_shuffle_i32x4(u[m], u[4 + m], 0xEE);
    const __m512i v2 = _mm512_shuffle_i32x4(u[8 + m], u[12 + m], 0x44);
    const __m512i v3 = _mm512_shuffle_i32x4(u[8 + m], u[12 + m], 0xEE);
    w[m] = avx_byte_swap(_mm512_shuffle_i32x4(v0, v2, 0x88));
    w[4 + m] = avx_byte_swap(_mm512_shuffle_i32x4(v0, v2, 0xDD));
    w[8 + m] = avx_byte_swap(_mm512_shuffle_i32x4(v1, v3, 0x88));
    w[12 + m] = avx_byte_swap(_mm512_shuffle_i32x4(v1, v3, 0xDD));
  }
}

/// Stores lane l's digest at out[l]: the inverse transpose of the eight
/// state registers, in three shuffle stages, then a byte swap.
TXCONC_AVX512_INLINE void avx_store(const __m512i* state,
                                    std::uint8_t* const* out) {
  __m512i t[8];
  for (std::size_t i = 0; i < 8; i += 2) {
    t[i] = _mm512_unpacklo_epi32(state[i], state[i + 1]);
    t[i + 1] = _mm512_unpackhi_epi32(state[i], state[i + 1]);
  }
  // Chunk k of u[m] / u[4 + m] holds words a..d / e..h of lane 4k + m.
  __m512i u[8];
  for (std::size_t g = 0; g < 8; g += 4) {
    u[g] = _mm512_unpacklo_epi64(t[g], t[g + 2]);
    u[g + 1] = _mm512_unpackhi_epi64(t[g], t[g + 2]);
    u[g + 2] = _mm512_unpacklo_epi64(t[g + 1], t[g + 3]);
    u[g + 3] = _mm512_unpackhi_epi64(t[g + 1], t[g + 3]);
  }
  const __m512i low = _mm512_set_epi64(11, 10, 3, 2, 9, 8, 1, 0);
  const __m512i high = _mm512_set_epi64(15, 14, 7, 6, 13, 12, 5, 4);
  for (std::size_t m = 0; m < 4; ++m) {
    // The digests of lanes m and 4 + m, then of lanes 8 + m and 12 + m.
    const __m512i d0 =
        avx_byte_swap(_mm512_permutex2var_epi64(u[m], low, u[4 + m]));
    const __m512i d1 =
        avx_byte_swap(_mm512_permutex2var_epi64(u[m], high, u[4 + m]));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out[m]),
                        _mm512_castsi512_si256(d0));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out[4 + m]),
                        _mm512_extracti64x4_epi64(d0, 1));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out[8 + m]),
                        _mm512_castsi512_si256(d1));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out[12 + m]),
                        _mm512_extracti64x4_epi64(d1, 1));
  }
}

TXCONC_AVX512_INLINE void avx_init(__m512i* state) {
  for (std::size_t j = 0; j < 8; ++j) {
    state[j] = _mm512_set1_epi32(static_cast<int>(kInitialState[j]));
  }
}

/// Sixteen messages of `blocks` padded blocks each, lane l's at in[l];
/// lane l's digest goes to out[l]. With kHash64 each is a 64-byte message
/// (blocks == 1) followed by the constant padding block, and with kTwice
/// each digest is hashed once more, its outer block built in registers.
/// Every input is loaded before any output is stored, so an out[l] may
/// overlap the inputs.
template <bool kHash64, bool kTwice>
TXCONC_AVX512 void avx_hash16(const std::uint8_t* const* in,
                              std::size_t blocks, std::uint8_t* const* out) {
  __m512i state[8];
  avx_init(state);
  const std::uint8_t* rows[kLanes];
  for (std::size_t l = 0; l < kLanes; ++l) rows[l] = in[l];
  for (std::size_t b = 0; b < blocks; ++b) {
    __m512i w[16];
    avx_message(rows, w);
    avx_block<false>(state, w);
    for (std::size_t l = 0; l < kLanes; ++l) rows[l] += 64;
  }
  if constexpr (kHash64) avx_block<true>(state, nullptr);
  if constexpr (kTwice) {
    // The digest's words are the outer block's first eight message words.
    __m512i w[16];
    for (std::size_t j = 0; j < 8; ++j) w[j] = state[j];
    w[8] = _mm512_set1_epi32(static_cast<int>(0x80000000u));
    for (std::size_t j = 9; j < 15; ++j) w[j] = _mm512_setzero_si512();
    w[15] = _mm512_set1_epi32(256);
    avx_init(state);
    avx_block<false>(state, w);
  }
  avx_store(state, out);
}

/// The whole groups of 16 among n 64-byte messages; returns how many
/// messages that was.
template <bool kTwice>
std::size_t avx_hash64_batch(const std::uint8_t* in, std::uint8_t* out,
                             std::size_t n) {
  const std::size_t whole = n - n % kLanes;
  for (std::size_t i = 0; i < whole; i += kLanes) {
    const std::uint8_t* lane_in[kLanes];
    std::uint8_t* lane_out[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l) {
      lane_in[l] = in + 64 * (i + l);
      lane_out[l] = out + 32 * (i + l);
    }
    avx_hash16<true, kTwice>(lane_in, 1, lane_out);
  }
  return whole;
}

#undef TXCONC_AVX512_INLINE
#undef TXCONC_AVX512

#endif  // __x86_64__

/// The kernel every default-constructed hasher uses, chosen once.
Sha256::Kernel selected_kernel() {
  static const Sha256::Kernel kernel = [] {
    const Sha256::Kernel hardware = Sha256::hardware_kernel();
    return hardware != nullptr ? hardware : &Sha256::portable_kernel;
  }();
  return kernel;
}

/// Whether the CPU has AVX512F and AVX512BW and the OS saves the opmask
/// and ZMM registers (XCR0 bits 1, 2, 5, 6 and 7) across context switches.
bool avx512_usable() {
#if defined(__x86_64__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  if ((ecx & bit_OSXSAVE) == 0) return false;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  if ((ebx & bit_AVX512F) == 0 || (ebx & bit_AVX512BW) == 0) return false;
  std::uint32_t xcr0 = 0;
  std::uint32_t xcr0_high = 0;
  __asm__("xgetbv" : "=a"(xcr0), "=d"(xcr0_high) : "c"(0));
  constexpr std::uint32_t kZmmState = 0xE6;
  return (xcr0 & kZmmState) == kZmmState;
#else
  return false;
#endif
}

/// The path the default batch functions use, chosen once.
Sha256::BatchPath selected_path() {
  static const Sha256::BatchPath path =
      avx512_usable()                        ? Sha256::BatchPath::kAvx512
      : Sha256::hardware_kernel() != nullptr ? Sha256::BatchPath::kShaNi
                                             : Sha256::BatchPath::kPortable;
  return path;
}

template <bool kTwice>
void hash64_batch_on([[maybe_unused]] Sha256::BatchPath path,
                     const std::uint8_t* in, std::uint8_t* out,
                     std::size_t n) {
#if defined(__x86_64__)
  if (path == Sha256::BatchPath::kAvx512) {
    const std::size_t done = avx_hash64_batch<kTwice>(in, out, n);
    in += 64 * done;
    out += 32 * done;
    n -= done;
  }
  // The rest on SHA-NI when the CPU has it.
  if (path != Sha256::BatchPath::kPortable &&
      selected_kernel() == &sha_ni_kernel) {
    ni_hash64_batch<kTwice>(in, out, n);
    return;
  }
#endif
  portable_hash64_batch<kTwice>(in, out, n);
}

void padded_batch_on(Sha256::BatchPath path, const std::uint8_t* in,
                     std::span<const std::uint32_t> blocks,
                     std::uint8_t* out) {
  // SHA-NI or portable, one message at a time.
  const Sha256::Kernel kernel = path == Sha256::BatchPath::kPortable
                                    ? &Sha256::portable_kernel
                                    : selected_kernel();
  const auto one = [kernel](const std::uint8_t* data, std::size_t count,
                            std::uint8_t* digest) {
    std::array<std::uint32_t, 8> state = kInitialState;
    kernel(state.data(), data, count);
    store_digest(state, digest);
  };
#if defined(__x86_64__)
  if (path == Sha256::BatchPath::kAvx512) {
    // One bucket per block count up to kBuckets; a bucket that fills runs
    // as a 16-lane group. Longer messages, and what the buckets hold at
    // the end, go one at a time.
    constexpr std::size_t kBuckets = 8;
    struct Bucket {
      const std::uint8_t* in[kLanes];
      std::uint8_t* out[kLanes];
      std::size_t size;
    };
    Bucket buckets[kBuckets];
    for (Bucket& bucket : buckets) bucket.size = 0;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      const std::size_t count = blocks[i];
      if (count == 0 || count > kBuckets) {
        one(in, count, out + 32 * i);
      } else {
        Bucket& bucket = buckets[count - 1];
        bucket.in[bucket.size] = in;
        bucket.out[bucket.size] = out + 32 * i;
        if (++bucket.size == kLanes) {
          avx_hash16<false, false>(bucket.in, count, bucket.out);
          bucket.size = 0;
        }
      }
      in += 64 * count;
    }
    for (std::size_t b = 0; b < kBuckets; ++b) {
      for (std::size_t l = 0; l < buckets[b].size; ++l) {
        one(buckets[b].in[l], b + 1, buckets[b].out[l]);
      }
    }
    return;
  }
#endif
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    one(in, blocks[i], out + 32 * i);
    in += 64 * blocks[i];
  }
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


bool Sha256::has_batch_path(BatchPath path) {
  switch (path) {
    case BatchPath::kPortable:
      return true;
    case BatchPath::kShaNi:
      return hardware_kernel() != nullptr;
    case BatchPath::kAvx512:
      return avx512_usable();
  }
  return false;
}

std::size_t Sha256::batch_lanes() {
  switch (selected_path()) {
    case BatchPath::kAvx512:
      return 16;
    case BatchPath::kShaNi:
      return 2;
    case BatchPath::kPortable:
      break;
  }
  return 1;
}

void Sha256::pad(std::uint8_t* message, std::size_t length) {
  const std::size_t end = 64 * padded_blocks(length);
  message[length] = 0x80;
  std::memset(message + length + 1, 0, end - 8 - length - 1);
  const std::uint64_t bits = static_cast<std::uint64_t>(length) * 8;
  for (std::size_t i = 0; i < 8; ++i) {
    message[end - 8 + i] = static_cast<std::uint8_t>(bits >> (56 - 8 * i));
  }
}

void Sha256::hash64_batch(const std::uint8_t* in, std::uint8_t* out,
                          std::size_t n) {
  hash64_batch_on<false>(selected_path(), in, out, n);
}

void Sha256::hash64_batch(BatchPath path, const std::uint8_t* in,
                          std::uint8_t* out, std::size_t n) {
  hash64_batch_on<false>(path, in, out, n);
}

void Sha256::hash64_twice_batch(const std::uint8_t* in, std::uint8_t* out,
                                std::size_t n) {
  hash64_batch_on<true>(selected_path(), in, out, n);
}

void Sha256::hash64_twice_batch(BatchPath path, const std::uint8_t* in,
                                std::uint8_t* out, std::size_t n) {
  hash64_batch_on<true>(path, in, out, n);
}

void Sha256::hash_padded_batch(const std::uint8_t* in,
                               std::span<const std::uint32_t> blocks,
                               std::uint8_t* out) {
  padded_batch_on(selected_path(), in, blocks, out);
}

void Sha256::hash_padded_batch(BatchPath path, const std::uint8_t* in,
                               std::span<const std::uint32_t> blocks,
                               std::uint8_t* out) {
  padded_batch_on(path, in, blocks, out);
}

}  // namespace txconc
