// Unit tests for src/common: codecs, SHA-256, identifiers, PRNG, stats.
#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <vector>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include "common/ascii_plot.h"
#include "common/bytes.h"
#include "common/csv.h"
#include "common/error.h"
#include "common/fmt.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/sha256.h"
#include "common/stats.h"

namespace txconc {
namespace {

Bytes ascii(const std::string& s) { return Bytes(s.begin(), s.end()); }

// ---------------------------------------------------------------- hex codecs

TEST(Bytes, HexRoundTrip) {
  const Bytes data = {0x00, 0x01, 0xab, 0xff, 0x10};
  EXPECT_EQ(to_hex(data), "0001abff10");
  EXPECT_EQ(from_hex("0001abff10"), data);
  EXPECT_EQ(from_hex("0001ABFF10"), data);
}

TEST(Bytes, HexEmpty) {
  EXPECT_EQ(to_hex({}), "");
  EXPECT_TRUE(from_hex("").empty());
}

TEST(Bytes, HexRejectsOddLength) {
  EXPECT_THROW(from_hex("abc"), ParseError);
}

TEST(Bytes, HexRejectsNonHex) {
  EXPECT_THROW(from_hex("zz"), ParseError);
  EXPECT_THROW(from_hex("0g"), ParseError);
}

// ------------------------------------------------------------- serialization

TEST(Bytes, WriterReaderRoundTrip) {
  ByteWriter w;
  w.u8(0x12);
  w.u16(0x3456);
  w.u32(0x789abcde);
  w.u64(0x0123456789abcdefULL);
  w.bytes(ascii("payload"));
  w.str("hello");
  const Bytes raw = {0xaa, 0xbb};
  w.raw(raw);

  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0x12);
  EXPECT_EQ(r.u16(), 0x3456);
  EXPECT_EQ(r.u32(), 0x789abcdeu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.bytes(), ascii("payload"));
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.raw(2), raw);
  EXPECT_TRUE(r.done());
}

TEST(Bytes, ReaderLittleEndian) {
  const Bytes raw = {0x01, 0x02, 0x03, 0x04};
  ByteReader r(raw);
  EXPECT_EQ(r.u32(), 0x04030201u);
}

TEST(Bytes, ReaderThrowsOnTruncation) {
  const Bytes raw = {0x01, 0x02};
  ByteReader r(raw);
  EXPECT_THROW(r.u32(), ParseError);
}

TEST(Bytes, ReaderThrowsOnOversizedLengthPrefix) {
  ByteWriter w;
  w.u32(1000);  // claims 1000 bytes follow
  ByteReader r(w.data());
  EXPECT_THROW(r.bytes(), ParseError);
}

// ------------------------------------------------------------------- SHA-256

TEST(Sha256, EmptyInput) {
  EXPECT_EQ(to_hex(Sha256::hash({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(Sha256::hash(ascii("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(to_hex(Sha256::hash(ascii(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const Bytes data = ascii("the quick brown fox jumps over the lazy dog!!");
  for (std::size_t split = 0; split <= data.size(); ++split) {
    Sha256 h;
    h.update(std::span(data).first(split));
    h.update(std::span(data).subspan(split));
    EXPECT_EQ(h.finalize(), Sha256::hash(data)) << "split=" << split;
  }
}

TEST(Sha256, DoubleHash) {
  EXPECT_EQ(to_hex(Sha256::hash_twice({})),
            "5df6e0e2761359d30a8275058e299fcc0381534545f55cf43e41983f5d4c9456");
}

TEST(Sha256, PaddingBoundaries) {
  // Lengths around the 55/56/63/64-byte padding edges.
  for (std::size_t len : {54u, 55u, 56u, 57u, 63u, 64u, 65u, 119u, 127u, 128u}) {
    const Bytes data(len, 0x5a);
    Sha256 h;
    for (std::size_t i = 0; i < len; ++i) {
      h.update(std::span(&data[i], 1));
    }
    EXPECT_EQ(h.finalize(), Sha256::hash(data)) << "len=" << len;
  }
}

// ------------------------------------------------ SHA-256 compression kernels

// Each kernel, called explicitly; the hardware one is null on a CPU
// without the SHA extensions.
struct NamedKernel {
  std::string name;
  Sha256::Kernel kernel;
};

// Without a printer gtest lists the parameter as its raw bytes, which
// hold heap and code addresses and so change from run to run; the
// discovered ctest names would then change with every build.
void PrintTo(const NamedKernel& named, std::ostream* os) { *os << named.name; }

class Sha256Kernel : public ::testing::TestWithParam<NamedKernel> {
 protected:
  void SetUp() override {
    if (GetParam().kernel == nullptr) {
      GTEST_SKIP() << "this CPU lacks the SHA, SSE4.1 or SSSE3 extension";
    }
  }

  Sha256::Digest hash(std::span<const std::uint8_t> data) const {
    Sha256 h(GetParam().kernel);
    h.update(data);
    return h.finalize();
  }
};

Sha256::Digest portable_hash(std::span<const std::uint8_t> data) {
  Sha256 h(&Sha256::portable_kernel);
  h.update(data);
  return h.finalize();
}

Bytes random_bytes(Rng& rng, std::size_t len) {
  Bytes data(len);
  for (std::uint8_t& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
  return data;
}

TEST_P(Sha256Kernel, Fips180Vectors) {
  EXPECT_EQ(to_hex(hash({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(to_hex(hash(ascii("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(to_hex(hash(ascii(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(to_hex(hash(Bytes(1'000'000, 'a'))),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
  EXPECT_EQ(to_hex(hash(hash({}))),
            "5df6e0e2761359d30a8275058e299fcc0381534545f55cf43e41983f5d4c9456");
}

TEST_P(Sha256Kernel, PaddingBoundaries) {
  // Lengths around the 55/56/63/64-byte padding edges, fed a byte at a
  // time (one kernel call per block) and in one piece (one call for all
  // full blocks).
  for (std::size_t len : {54u, 55u, 56u, 57u, 63u, 64u, 65u, 119u, 127u, 128u}) {
    const Bytes data(len, 0x5a);
    Sha256 h(GetParam().kernel);
    for (std::size_t i = 0; i < len; ++i) {
      h.update(std::span(&data[i], 1));
    }
    EXPECT_EQ(h.finalize(), portable_hash(data)) << "len=" << len;
    EXPECT_EQ(hash(data), portable_hash(data)) << "len=" << len;
  }
}

TEST_P(Sha256Kernel, IncrementalSplitsMatchOneShot) {
  Rng rng(21);
  for (int trial = 0; trial < 300; ++trial) {
    const Bytes data = random_bytes(rng, rng.uniform(400));
    const std::size_t a = rng.uniform(data.size() + 1);
    const std::size_t b = a + rng.uniform(data.size() - a + 1);
    Sha256 h(GetParam().kernel);
    h.update(std::span(data).first(a));
    h.update({});  // null data, often with a partly filled buffer
    h.update(std::span(data).subspan(a, b - a));
    h.update(std::span(data).subspan(b));
    EXPECT_EQ(h.finalize(), portable_hash(data))
        << "len=" << data.size() << " splits=" << a << "," << b;
  }
}

TEST_P(Sha256Kernel, MatchesPortableOnEveryLengthAndRandomLengths) {
  Rng rng(17);
  for (std::size_t len = 0; len <= 300; ++len) {
    const Bytes data = random_bytes(rng, len);
    ASSERT_EQ(hash(data), portable_hash(data)) << "len=" << len;
  }
  for (int trial = 0; trial < 500; ++trial) {
    const Bytes data = random_bytes(rng, rng.uniform(4097));
    ASSERT_EQ(hash(data), portable_hash(data)) << "len=" << data.size();
  }
}

Sha256::Digest digest_at(const std::uint8_t* out, std::size_t i) {
  Sha256::Digest d;
  std::copy_n(out + 32 * i, 32, d.begin());
  return d;
}

// A batch function under test: hash64_twice_batch when `twice`, else
// hash64_batch.
using Hash64Batch = std::function<void(bool twice, const std::uint8_t* in,
                                       std::uint8_t* out, std::size_t n)>;

// `batch` against one-shot hashes on `kernel`: random, all-zero and
// all-0xff messages, batch sizes around the two-lane pairing and the
// 16-lane groups, into a separate buffer and in place.
void expect_hash64_batches_match(Sha256::Kernel kernel,
                                 const Hash64Batch& batch) {
  const auto one_shot = [kernel](std::span<const std::uint8_t> data) {
    Sha256 h(kernel);
    h.update(data);
    return h.finalize();
  };
  Rng rng(29);
  for (const std::size_t n :
       {0u, 1u, 2u, 3u, 15u, 16u, 17u, 31u, 32u, 33u, 47u, 48u, 49u, 100u}) {
    for (const int fill : {-1, 0x00, 0xff}) {
      const Bytes in =
          fill < 0 ? random_bytes(rng, 64 * n)
                   : Bytes(64 * n, static_cast<std::uint8_t>(fill));
      Bytes once(32 * n);
      Bytes twice(32 * n);
      batch(false, in.data(), once.data(), n);
      batch(true, in.data(), twice.data(), n);
      Bytes once_in_place = in;
      Bytes twice_in_place = in;
      batch(false, once_in_place.data(), once_in_place.data(), n);
      batch(true, twice_in_place.data(), twice_in_place.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        const std::span<const std::uint8_t> message(in.data() + 64 * i, 64);
        const Sha256::Digest want_once = one_shot(message);
        const Sha256::Digest want_twice = one_shot(want_once);
        EXPECT_EQ(digest_at(once.data(), i), want_once)
            << "n=" << n << " i=" << i;
        EXPECT_EQ(digest_at(twice.data(), i), want_twice)
            << "n=" << n << " i=" << i;
        EXPECT_EQ(digest_at(once_in_place.data(), i), want_once)
            << "in place, n=" << n << " i=" << i;
        EXPECT_EQ(digest_at(twice_in_place.data(), i), want_twice)
            << "in place, n=" << n << " i=" << i;
      }
    }
  }
}

// The default batch functions, on whichever path this CPU selected,
// against each kernel's one-shot hashes.
TEST_P(Sha256Kernel, BatchesMatchOneShotHashes) {
  expect_hash64_batches_match(
      GetParam().kernel, [](bool twice, const std::uint8_t* in,
                            std::uint8_t* out, std::size_t n) {
        if (twice) {
          Sha256::hash64_twice_batch(in, out, n);
        } else {
          Sha256::hash64_batch(in, out, n);
        }
      });
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, Sha256Kernel,
    ::testing::Values(NamedKernel{"portable", &Sha256::portable_kernel},
                      NamedKernel{"hardware", Sha256::hardware_kernel()}),
    [](const ::testing::TestParamInfo<NamedKernel>& kernel_info) {
      return kernel_info.param.name;
    });

// The SHA-NI batch path runs the padding block of a 64-byte message from
// a compile-time schedule; it must be the one the portable kernel derives
// from the padding bytes.
TEST(Sha256, PaddingScheduleIsThePortableDerivation) {
  std::array<std::uint8_t, 64> padding{};
  padding[0] = 0x80;  // terminator
  padding[62] = 0x02;  // bit length 512, big-endian
  EXPECT_EQ(Sha256::padding_schedule(), Sha256::schedule(padding.data()));
}

// ------------------------------------------------------ SHA-256 batch paths

// Each batch path, called explicitly; a path the CPU lacks is skipped.
struct NamedPath {
  std::string name;
  Sha256::BatchPath path;
};

void PrintTo(const NamedPath& named, std::ostream* os) { *os << named.name; }

class Sha256Batch : public ::testing::TestWithParam<NamedPath> {
 protected:
  void SetUp() override {
    if (!Sha256::has_batch_path(GetParam().path)) {
      GTEST_SKIP() << "this CPU lacks the " << GetParam().name << " path";
    }
  }
};

// Messages padded end to end for hash_padded_batch, with their block
// counts.
struct PaddedBatch {
  Bytes blocks;
  std::vector<std::uint32_t> counts;
};

PaddedBatch pad_all(const std::vector<Bytes>& messages) {
  PaddedBatch batch;
  for (const Bytes& message : messages) {
    const std::size_t count = Sha256::padded_blocks(message.size());
    const std::size_t at = batch.blocks.size();
    batch.blocks.resize(at + 64 * count);
    std::copy(message.begin(), message.end(), batch.blocks.begin() + at);
    Sha256::pad(batch.blocks.data() + at, message.size());
    batch.counts.push_back(static_cast<std::uint32_t>(count));
  }
  return batch;
}

// hash_padded_batch on `path` against the portable one-shot hasher.
void expect_padded_batch_matches(Sha256::BatchPath path,
                                 const std::vector<Bytes>& messages) {
  const PaddedBatch batch = pad_all(messages);
  Bytes out(32 * messages.size());
  Sha256::hash_padded_batch(path, batch.blocks.data(), batch.counts,
                            out.data());
  for (std::size_t i = 0; i < messages.size(); ++i) {
    ASSERT_EQ(digest_at(out.data(), i), portable_hash(messages[i]))
        << "message " << i << ", " << messages[i].size() << " bytes";
  }
}

TEST_P(Sha256Batch, Hash64MatchesOneShot) {
  const Sha256::BatchPath path = GetParam().path;
  expect_hash64_batches_match(
      &Sha256::portable_kernel, [path](bool twice, const std::uint8_t* in,
                                       std::uint8_t* out, std::size_t n) {
        if (twice) {
          Sha256::hash64_twice_batch(path, in, out, n);
        } else {
          Sha256::hash64_batch(path, in, out, n);
        }
      });
}

TEST_P(Sha256Batch, PaddedMatchesPortableOnEveryLength) {
  Rng rng(31);
  // Every length 0-300 (one to five blocks) in one unsorted batch.
  std::vector<Bytes> messages;
  for (std::size_t len = 0; len <= 300; ++len) {
    messages.push_back(random_bytes(rng, len));
  }
  for (std::size_t i = messages.size(); i > 1; --i) {
    std::swap(messages[i - 1], messages[rng.uniform(i)]);
  }
  expect_padded_batch_matches(GetParam().path, messages);
}

TEST_P(Sha256Batch, PaddedMatchesPortableOnRandomLengths) {
  Rng rng(37);
  std::vector<Bytes> messages;
  for (int i = 0; i < 200; ++i) {
    messages.push_back(random_bytes(rng, rng.uniform(4097)));
  }
  expect_padded_batch_matches(GetParam().path, messages);
  // Groups of equal length up to eight blocks, so every block count the
  // 16-lane path groups runs as whole groups, plus a remainder.
  messages.clear();
  for (std::size_t count = 1; count <= 8; ++count) {
    const std::size_t len = 64 * count - 9 - rng.uniform(55);
    for (int i = 0; i < 17; ++i) messages.push_back(random_bytes(rng, len));
  }
  expect_padded_batch_matches(GetParam().path, messages);
}

// `size` bytes that end where a PROT_NONE page begins, so reading or
// writing one byte past them faults. Vector loads that over-read are
// invisible to AddressSanitizer; a guard page catches them in any build.
class GuardedBytes {
 public:
  explicit GuardedBytes(std::size_t size) {
    const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    mapped_ = ((size + page - 1) / page + 1) * page;
    void* const base = mmap(nullptr, mapped_, PROT_READ | PROT_WRITE,
                            MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED) throw std::runtime_error("mmap failed");
    base_ = static_cast<std::uint8_t*>(base);
    if (mprotect(base_ + mapped_ - page, page, PROT_NONE) != 0) {
      munmap(base_, mapped_);
      throw std::runtime_error("mprotect failed");
    }
    data_ = base_ + mapped_ - page - size;
  }
  GuardedBytes(const GuardedBytes&) = delete;
  GuardedBytes& operator=(const GuardedBytes&) = delete;
  ~GuardedBytes() { munmap(base_, mapped_); }

  std::uint8_t* data() const { return data_; }

 private:
  std::uint8_t* base_ = nullptr;
  std::uint8_t* data_ = nullptr;
  std::size_t mapped_ = 0;
};

TEST_P(Sha256Batch, StaysInsideItsBuffers) {
  const Sha256::BatchPath path = GetParam().path;
  Rng rng(41);
  for (const std::size_t n : {1u, 2u, 15u, 16u, 17u, 33u}) {
    const Bytes in = random_bytes(rng, 64 * n);
    Bytes want_once(32 * n);
    Bytes want_twice(32 * n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::span<const std::uint8_t> message(in.data() + 64 * i, 64);
      const Sha256::Digest once = Sha256::hash(message);
      const Sha256::Digest twice = Sha256::hash_twice(message);
      std::copy(once.begin(), once.end(), want_once.begin() + 32 * i);
      std::copy(twice.begin(), twice.end(), want_twice.begin() + 32 * i);
    }
    // The input against the guard page, then the output.
    const GuardedBytes guarded_in(in.size());
    std::copy(in.begin(), in.end(), guarded_in.data());
    Bytes out(32 * n);
    Sha256::hash64_batch(path, guarded_in.data(), out.data(), n);
    EXPECT_EQ(out, want_once) << "n=" << n;
    Sha256::hash64_twice_batch(path, guarded_in.data(), out.data(), n);
    EXPECT_EQ(out, want_twice) << "n=" << n;

    const GuardedBytes guarded_out(32 * n);
    Sha256::hash64_batch(path, in.data(), guarded_out.data(), n);
    EXPECT_TRUE(std::equal(want_once.begin(), want_once.end(),
                           guarded_out.data()))
        << "n=" << n;
    Sha256::hash64_twice_batch(path, in.data(), guarded_out.data(), n);
    EXPECT_TRUE(std::equal(want_twice.begin(), want_twice.end(),
                           guarded_out.data()))
        << "n=" << n;
  }

  // Padded messages: sixteen of one block count make a 16-lane group.
  for (const std::size_t len : {20u, 100u, 300u}) {
    std::vector<Bytes> messages;
    for (int i = 0; i < 17; ++i) messages.push_back(random_bytes(rng, len));
    const PaddedBatch batch = pad_all(messages);
    const GuardedBytes guarded_in(batch.blocks.size());
    std::copy(batch.blocks.begin(), batch.blocks.end(), guarded_in.data());
    const GuardedBytes guarded_out(32 * messages.size());
    Sha256::hash_padded_batch(path, guarded_in.data(), batch.counts,
                              guarded_out.data());
    for (std::size_t i = 0; i < messages.size(); ++i) {
      EXPECT_EQ(digest_at(guarded_out.data(), i), portable_hash(messages[i]))
          << "len=" << len << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BatchPaths, Sha256Batch,
    ::testing::Values(NamedPath{"portable", Sha256::BatchPath::kPortable},
                      NamedPath{"sha_ni", Sha256::BatchPath::kShaNi},
                      NamedPath{"avx512", Sha256::BatchPath::kAvx512}),
    [](const ::testing::TestParamInfo<NamedPath>& path_info) {
      return path_info.param.name;
    });

// The default batch width follows the CPU, read here independently of the
// library: 16 lanes whenever CPUID reports AVX-512F and AVX-512BW and
// XCR0 shows the OS saving opmask and ZMM state, else 2 on SHA-NI, else
// 1. A detection bug would keep the digests and silently drop the speed.
TEST(Sha256, BatchLanesFollowCpuid) {
  bool avx512 = false;
#if defined(__x86_64__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  const bool osxsave =
      __get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0 && (ecx & (1u << 27)) != 0;
  if (osxsave && __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0 &&
      (ebx & (1u << 16)) != 0 && (ebx & (1u << 30)) != 0) {
    std::uint32_t xcr0 = 0;
    std::uint32_t xcr0_high = 0;
    __asm__("xgetbv" : "=a"(xcr0), "=d"(xcr0_high) : "c"(0));
    avx512 = (xcr0 & 0xE6u) == 0xE6u;
  }
#endif
  const std::size_t want =
      avx512 ? 16 : Sha256::hardware_kernel() != nullptr ? 2 : 1;
  EXPECT_EQ(Sha256::batch_lanes(), want);
  EXPECT_EQ(Sha256::has_batch_path(Sha256::BatchPath::kAvx512), avx512);
  EXPECT_EQ(Sha256::has_batch_path(Sha256::BatchPath::kShaNi),
            Sha256::hardware_kernel() != nullptr);
}

// --------------------------------------------------------------- identifiers

TEST(Hash256, HexRoundTrip) {
  const Hash256 h = Hash256::from_seed(42);
  EXPECT_EQ(Hash256::from_hex(h.to_hex()), h);
  EXPECT_EQ(h.to_hex().size(), 64u);
  EXPECT_EQ(h.short_hex(), h.to_hex().substr(0, 4));
}

TEST(Hash256, FromSeedIsDeterministicAndDistinct) {
  EXPECT_EQ(Hash256::from_seed(7), Hash256::from_seed(7));
  EXPECT_NE(Hash256::from_seed(7), Hash256::from_seed(8));
}

TEST(Hash256, ZeroDetection) {
  Hash256 z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_FALSE(Hash256::from_seed(1).is_zero());
}

TEST(Hash256, RejectsWrongLength) {
  EXPECT_THROW(Hash256::from_hex("abcd"), ParseError);
}

TEST(Address, HexRoundTripWithPrefix) {
  const Address a = Address::from_seed(99);
  EXPECT_EQ(a.to_hex().substr(0, 2), "0x");
  EXPECT_EQ(a.to_hex().size(), 42u);
  EXPECT_EQ(Address::from_hex(a.to_hex()), a);
  EXPECT_EQ(Address::from_hex(a.to_hex().substr(2)), a);
}

TEST(Address, ContractDerivationDependsOnCreatorAndNonce) {
  const Address creator = Address::from_seed(1);
  const Address other = Address::from_seed(2);
  EXPECT_EQ(Address::derive_contract(creator, 0),
            Address::derive_contract(creator, 0));
  EXPECT_NE(Address::derive_contract(creator, 0),
            Address::derive_contract(creator, 1));
  EXPECT_NE(Address::derive_contract(creator, 0),
            Address::derive_contract(other, 0));
}

TEST(Address, ShortHexMatchesPaperStyle) {
  // Paper Figure 1 abbreviates addresses as 0x + 3 hex digits.
  const Address a = Address::from_seed(5);
  EXPECT_EQ(a.short_hex().size(), 5u);
  EXPECT_EQ(a.short_hex().substr(0, 2), "0x");
}

// ---------------------------------------------------------------------- fmt

TEST(Fmt, FormatsNumbersAndStrings) {
  EXPECT_EQ(strfmt("%d/%d", 3, 4), "3/4");
  EXPECT_EQ(strfmt("%.2f", 1.2345), "1.23");
  EXPECT_EQ(strfmt("%s!", std::string("hi")), "hi!");
}

// ---------------------------------------------------------------------- rng

TEST(Rng, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
  EXPECT_THROW(rng.uniform(0), UsageError);
}

TEST(Rng, UniformRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t v = rng.uniform_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformDoubleMeanNearHalf) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.uniform_double());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
  EXPECT_GE(s.min(), 0.0);
  EXPECT_LT(s.max(), 1.0);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Rng, ExponentialMean) {
  Rng rng(17);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.exponential(4.0));
  EXPECT_NEAR(s.mean(), 4.0, 0.1);
}

TEST(Rng, PoissonMeanSmallAndLarge) {
  Rng rng(19);
  RunningStats small;
  for (int i = 0; i < 50000; ++i) {
    small.add(static_cast<double>(rng.poisson(3.0)));
  }
  EXPECT_NEAR(small.mean(), 3.0, 0.1);

  RunningStats large;
  for (int i = 0; i < 50000; ++i) {
    large.add(static_cast<double>(rng.poisson(200.0)));
  }
  EXPECT_NEAR(large.mean(), 200.0, 1.0);
}

TEST(Rng, NormalMoments) {
  Rng rng(23);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, ForkIsIndependentOfParentProgress) {
  Rng parent(31);
  Rng fork_before = parent.fork(1);
  // fork() must not advance the parent.
  Rng parent_copy(31);
  EXPECT_EQ(parent.next_u64(), parent_copy.next_u64());
  // Same fork id at the original state yields the same stream.
  Rng parent2(31);
  Rng fork_again = parent2.fork(1);
  EXPECT_EQ(fork_before.next_u64(), fork_again.next_u64());
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(37);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// ------------------------------------------------------------------ sampling

TEST(ZipfSampler, PmfDecreasesWithRank) {
  const ZipfSampler zipf(100, 1.0);
  for (std::size_t r = 1; r < 100; ++r) {
    EXPECT_GE(zipf.pmf(r - 1), zipf.pmf(r));
  }
}

TEST(ZipfSampler, EmpiricalMatchesPmf) {
  const ZipfSampler zipf(50, 1.2);
  Rng rng(41);
  std::vector<int> counts(50, 0);
  const int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) ++counts[zipf.sample(rng)];
  for (std::size_t r : {std::size_t{0}, std::size_t{1}, std::size_t{10}}) {
    EXPECT_NEAR(counts[r] / static_cast<double>(kSamples), zipf.pmf(r), 0.01)
        << "rank " << r;
  }
}

TEST(ZipfSampler, HigherExponentConcentratesMore) {
  const ZipfSampler flat(1000, 0.5);
  const ZipfSampler steep(1000, 2.0);
  EXPECT_LT(flat.pmf(0), steep.pmf(0));
}

TEST(ZipfSampler, RejectsEmptyPopulation) {
  EXPECT_THROW(ZipfSampler(0, 1.0), UsageError);
}

TEST(WeightedSampler, RespectsWeights) {
  const WeightedSampler ws({1.0, 3.0, 0.0, 6.0});
  Rng rng(43);
  std::vector<int> counts(4, 0);
  const int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) ++counts[ws.sample(rng)];
  EXPECT_NEAR(counts[0] / static_cast<double>(kSamples), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(kSamples), 0.3, 0.01);
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[3] / static_cast<double>(kSamples), 0.6, 0.01);
}

TEST(WeightedSampler, RejectsDegenerateInputs) {
  EXPECT_THROW(WeightedSampler({}), UsageError);
  EXPECT_THROW(WeightedSampler({0.0, 0.0}), UsageError);
  EXPECT_THROW(WeightedSampler({1.0, -1.0}), UsageError);
}

// --------------------------------------------------------------------- stats

TEST(RunningStats, MatchesDirectComputation) {
  RunningStats s;
  const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
  double sum = 0.0;
  for (double x : xs) {
    s.add(x);
    sum += x;
  }
  const double mean = sum / xs.size();
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= xs.size() - 1;

  EXPECT_EQ(s.count(), xs.size());
  EXPECT_DOUBLE_EQ(s.sum(), sum);
  EXPECT_NEAR(s.mean(), mean, 1e-12);
  EXPECT_NEAR(s.variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 16.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(WeightedMean, WeightsApplied) {
  WeightedMean wm;
  wm.add(1.0, 1.0);
  wm.add(10.0, 3.0);
  EXPECT_DOUBLE_EQ(wm.mean(), 31.0 / 4.0);
  EXPECT_DOUBLE_EQ(wm.weight_sum(), 4.0);
}

TEST(WeightedMean, RejectsNegativeWeight) {
  WeightedMean wm;
  EXPECT_THROW(wm.add(1.0, -1.0), UsageError);
}

TEST(Quantiles, MedianAndExtremes) {
  Quantiles q;
  for (double v : {5.0, 1.0, 3.0, 2.0, 4.0}) q.add(v);
  EXPECT_DOUBLE_EQ(q.median(), 3.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.25), 2.0);
}

TEST(Quantiles, AddAfterQuantileResorts) {
  Quantiles q;
  for (double v : {3.0, 1.0, 2.0}) q.add(v);
  EXPECT_DOUBLE_EQ(q.median(), 2.0);
  // Values added after a quantile() call land unsorted in the tail.
  q.add(0.0);
  q.add(-1.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.0), -1.0);
  EXPECT_DOUBLE_EQ(q.median(), 1.0);
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 3.0);
}

TEST(Quantiles, ThrowsOnEmptyOrBadQ) {
  Quantiles q;
  EXPECT_THROW(q.quantile(0.5), UsageError);
  q.add(1.0);
  EXPECT_THROW(q.quantile(-0.1), UsageError);
  EXPECT_THROW(q.quantile(1.1), UsageError);
}

TEST(Bucketizer, WeightedAveragesPerBucket) {
  Bucketizer b(2, 0, 99);
  b.add(10, 1.0, 1.0);
  b.add(20, 3.0, 1.0);
  b.add(80, 10.0, 2.0);
  b.add(90, 40.0, 2.0);
  const auto series = b.series();
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0].value, 2.0);
  EXPECT_DOUBLE_EQ(series[0].weight, 2.0);
  EXPECT_DOUBLE_EQ(series[1].value, 25.0);
  EXPECT_DOUBLE_EQ(series[1].weight, 4.0);
  EXPECT_LT(series[0].position, series[1].position);
}

TEST(Bucketizer, SkipsEmptyBuckets) {
  Bucketizer b(10, 0, 999);
  b.add(500, 1.0, 1.0);
  EXPECT_EQ(b.series().size(), 1u);
}

TEST(Bucketizer, RejectsOutOfRangeHeights) {
  Bucketizer b(4, 100, 200);
  EXPECT_THROW(b.add(99, 1.0, 1.0), UsageError);
  EXPECT_THROW(b.add(201, 1.0, 1.0), UsageError);
  b.add(100, 1.0, 1.0);
  b.add(200, 1.0, 1.0);
  EXPECT_EQ(b.series().size(), 2u);
}

TEST(Bucketizer, RejectsDegenerateConstruction) {
  EXPECT_THROW(Bucketizer(0, 0, 10), UsageError);
  EXPECT_THROW(Bucketizer(4, 10, 5), UsageError);
}

// ----------------------------------------------------------------------- csv

TEST(Csv, WritesHeaderAndRows) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.header({"a", "b"});
  csv.row(std::vector<std::string>{"1", "two"});
  csv.row(std::vector<double>{3.5, 4.0});
  EXPECT_EQ(out.str(), "a,b\n1,two\n3.5,4\n");
  EXPECT_EQ(csv.rows_written(), 2u);
}

TEST(Csv, EscapesSpecialCharacters) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.header({"x"});
  csv.row(std::vector<std::string>{"a,b"});
  csv.row(std::vector<std::string>{"say \"hi\""});
  EXPECT_EQ(out.str(), "x\n\"a,b\"\n\"say \"\"hi\"\"\"\n");
}

TEST(Csv, EnforcesProtocol) {
  std::ostringstream out;
  CsvWriter csv(out);
  EXPECT_THROW(csv.row(std::vector<std::string>{"1"}), UsageError);
  csv.header({"a", "b"});
  EXPECT_THROW(csv.header({"again"}), UsageError);
  EXPECT_THROW(csv.row(std::vector<std::string>{"only-one"}), UsageError);
}

// ---------------------------------------------------------------------- plot

TEST(AsciiPlot, RendersSeriesAndLegend) {
  LabelledSeries s;
  s.label = "test-series";
  for (int i = 0; i < 20; ++i) {
    s.points.push_back({static_cast<double>(i), static_cast<double>(i % 5), 1.0});
  }
  PlotOptions opt;
  opt.title = "demo";
  const std::string plot = render_plot({s}, opt);
  EXPECT_NE(plot.find("demo"), std::string::npos);
  EXPECT_NE(plot.find("test-series"), std::string::npos);
  EXPECT_NE(plot.find('*'), std::string::npos);
}

TEST(AsciiPlot, HandlesEmptyInput) {
  const std::string plot = render_plot({}, PlotOptions{});
  EXPECT_NE(plot.find("(no data)"), std::string::npos);
}

TEST(ZipfSampler, SingleElementAlwaysRankZero) {
  const ZipfSampler zipf(1, 1.0);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(zipf.sample(rng), 0u);
  }
  EXPECT_DOUBLE_EQ(zipf.pmf(0), 1.0);
  EXPECT_THROW(zipf.pmf(1), UsageError);
}

TEST(WeightedSampler, SingleElement) {
  const WeightedSampler ws({5.0});
  Rng rng(1);
  EXPECT_EQ(ws.sample(rng), 0u);
}

TEST(AsciiPlot, FixedYBoundsClampOutliers) {
  LabelledSeries s;
  s.label = "clamped";
  s.points = {{0.0, -5.0, 1.0}, {1.0, 0.5, 1.0}, {2.0, 50.0, 1.0}};
  PlotOptions opt;
  opt.y_min = 0.0;
  opt.y_max = 1.0;
  const std::string plot = render_plot({s}, opt);
  // Renders without assertion and keeps the bounds in the axis labels.
  EXPECT_NE(plot.find('*'), std::string::npos);
}

TEST(AsciiPlot, LogScaleHandlesWideRanges) {
  LabelledSeries s;
  s.label = "wide";
  s.points = {{0.0, 1.0, 1.0}, {1.0, 10000.0, 1.0}};
  PlotOptions opt;
  opt.log_y = true;
  const std::string plot = render_plot({s}, opt);
  EXPECT_NE(plot.find('*'), std::string::npos);
}

}  // namespace
}  // namespace txconc
