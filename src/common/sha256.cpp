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

std::uint32_t load_be32(const std::uint8_t* p) {
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

#if defined(__x86_64__)

// Intel SHA extensions: each sha256rnds2 runs two rounds, with the state
// split across two registers as ABEF and CDGH; sha256msg1/msg2 extend the
// message schedule four words at a time. Compiled for the extension by
// attribute, so the build flags stay generic; only called after CPUID
// says the CPU has it.
__attribute__((target("sha,sse4.1,ssse3"))) void sha_ni_kernel(
    std::uint32_t* state, const std::uint8_t* data, std::size_t blocks) {
  // Big-endian message words.
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  const auto* k = reinterpret_cast<const __m128i*>(kRoundConstants.data());

  const __m128i cdab = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];  // w[r % 4] holds schedule words 4r .. 4r+3
#pragma GCC unroll 16
    for (std::size_t r = 0; r < 16; ++r) {
      __m128i& words = w[r % 4];
      if (r < 4) {
        words = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * r)),
            byte_swap);
      } else {
        // W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16].
        const __m128i& prev = w[(r + 3) % 4];
        const __m128i s0 = _mm_sha256msg1_epu32(words, w[(r + 1) % 4]);
        const __m128i w7 = _mm_alignr_epi8(prev, w[(r + 2) % 4], 4);
        words = _mm_sha256msg2_epu32(_mm_add_epi32(s0, w7), prev);
      }
      const __m128i wk = _mm_add_epi32(words, _mm_loadu_si128(k + r));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#endif  // __x86_64__

/// The kernel every default-constructed hasher uses, chosen once.
Sha256::Kernel selected_kernel() {
  static const Sha256::Kernel kernel = [] {
    const Sha256::Kernel hardware = Sha256::hardware_kernel();
    return hardware != nullptr ? hardware : &Sha256::portable_kernel;
  }();
  return kernel;
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
    std::array<std::uint32_t, 64> w;
    for (std::size_t i = 0; i < 16; ++i) {
      w[i] = load_be32(data + 4 * i);
    }
    for (std::size_t i = 16; i < 64; ++i) {
      const std::uint32_t s0 = std::rotr(w[i - 15], 7) ^
                               std::rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = std::rotr(w[i - 2], 17) ^
                               std::rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (std::size_t i = 0; i < 64; ++i) {
      const std::uint32_t s1 =
          std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
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

void Sha256::update(std::span<const std::uint8_t> data) {
  // An empty span may carry a null pointer, which memcpy must not see.
  if (data.empty()) return;
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
  for (std::size_t i = 0; i < 8; ++i) {
    store_be32(digest.data() + 4 * i, state_[i]);
  }
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

}  // namespace txconc
