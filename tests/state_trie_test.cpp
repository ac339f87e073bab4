// Tests for the authenticated state trie and its node integration.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>

#include "account/state.h"
#include "account/state_trie.h"
#include "common/rng.h"
#include "common/sha256.h"

namespace txconc::account {
namespace {

Address addr(std::uint64_t seed) { return Address::from_seed(seed); }
Hash256 digest(std::uint64_t seed) { return Hash256::from_seed(seed); }

TEST(StateTrie, EmptyRootIsStable) {
  StateTrie a;
  StateTrie b;
  EXPECT_EQ(a.root(), b.root());
  EXPECT_EQ(a.size(), 0u);
}

// Root bytes pinned from the uncompressed 48-level trie: the compact
// layout must reproduce them exactly.
TEST(StateTrie, GoldenRoots) {
  EXPECT_EQ(StateTrie().root().to_hex(),
            "7ba3ae4a417fe8545b142bc89f4adcd7ae13941cbab7750b83e9f0a66d16be64");
  StateDb state;
  for (std::uint64_t s = 1; s <= 1000; ++s) {
    state.set_balance(addr(s), 1000 + s);
    state.set_nonce(addr(s), s % 7);
  }
  state.set_storage(addr(3), 5, 50);
  EXPECT_EQ(build_state_trie(state).root().to_hex(),
            "dcc69ddcc44a54b8a18a76e647717debad0a18327d2bde931143e964c29d29c1");
}

TEST(StateTrie, UpdateChangesRootDeterministically) {
  StateTrie a;
  StateTrie b;
  const Hash256 empty_root = a.root();

  a.update(addr(1), digest(100));
  EXPECT_NE(a.root(), empty_root);
  EXPECT_EQ(a.size(), 1u);

  b.update(addr(1), digest(100));
  EXPECT_EQ(a.root(), b.root());

  // Different value, different root.
  b.update(addr(1), digest(101));
  EXPECT_NE(a.root(), b.root());
  EXPECT_EQ(b.size(), 1u);  // update, not insert
}

TEST(StateTrie, OrderIndependent) {
  StateTrie a;
  StateTrie b;
  for (std::uint64_t s = 0; s < 50; ++s) {
    a.update(addr(s), digest(s));
  }
  for (std::uint64_t s = 50; s-- > 0;) {
    b.update(addr(s), digest(s));
  }
  EXPECT_EQ(a.root(), b.root());
  EXPECT_EQ(a.size(), 50u);
}

TEST(StateTrie, EraseRestoresPriorRoot) {
  StateTrie trie;
  trie.update(addr(1), digest(1));
  const Hash256 one = trie.root();
  trie.update(addr(2), digest(2));
  trie.erase(addr(2));
  EXPECT_EQ(trie.root(), one);
  EXPECT_EQ(trie.size(), 1u);
  // Erasing an absent key is a no-op.
  trie.erase(addr(99));
  EXPECT_EQ(trie.root(), one);
}

TEST(StateTrie, ZeroDigestMeansErase) {
  StateTrie trie;
  const Hash256 empty_root = trie.root();
  trie.update(addr(1), digest(1));
  trie.update(addr(1), Hash256{});
  EXPECT_EQ(trie.root(), empty_root);
  EXPECT_EQ(trie.size(), 0u);
}

TEST(StateTrie, ProofsVerifyForMembersAndAbsence) {
  StateTrie trie;
  for (std::uint64_t s = 0; s < 20; ++s) {
    trie.update(addr(s), digest(s));
  }
  const Hash256 root = trie.root();

  // Membership.
  for (std::uint64_t s = 0; s < 20; ++s) {
    const StateTrie::Proof proof = trie.prove(addr(s));
    EXPECT_EQ(proof.leaf, digest(s));
    EXPECT_TRUE(StateTrie::verify(proof, root)) << s;
  }
  // Non-membership: absent addresses prove the empty leaf.
  const StateTrie::Proof absent = trie.prove(addr(999));
  EXPECT_TRUE(absent.leaf.is_zero());
  EXPECT_TRUE(StateTrie::verify(absent, root));
}

TEST(StateTrie, ForgedProofsFail) {
  StateTrie trie;
  trie.update(addr(1), digest(1));
  trie.update(addr(2), digest(2));
  const Hash256 root = trie.root();

  StateTrie::Proof proof = trie.prove(addr(1));
  // Wrong leaf value.
  StateTrie::Proof forged = proof;
  forged.leaf = digest(42);
  EXPECT_FALSE(StateTrie::verify(forged, root));
  // Wrong address (path mismatch).
  forged = proof;
  forged.address = addr(3);
  EXPECT_FALSE(StateTrie::verify(forged, root));
  // Tampered sibling.
  forged = proof;
  forged.siblings[5] = digest(7);
  EXPECT_FALSE(StateTrie::verify(forged, root));
  // Truncated proof.
  forged = proof;
  forged.siblings.pop_back();
  EXPECT_FALSE(StateTrie::verify(forged, root));
}

TEST(StateTrie, RandomChurnKeepsRootConsistent) {
  // Property: after any sequence of updates/erases, the root equals that
  // of a freshly built trie with the same final contents.
  Rng rng(7);
  StateTrie churned;
  std::unordered_map<std::uint64_t, Hash256> reference;
  for (int step = 0; step < 500; ++step) {
    const std::uint64_t key = rng.uniform(60);
    if (rng.bernoulli(0.3)) {
      churned.erase(addr(key));
      reference.erase(key);
    } else {
      const Hash256 value = digest(rng.next_u64());
      churned.update(addr(key), value);
      reference[key] = value;
    }
  }
  StateTrie fresh;
  for (const auto& [key, value] : reference) {
    fresh.update(addr(key), value);
  }
  EXPECT_EQ(churned.root(), fresh.root());
  EXPECT_EQ(churned.size(), reference.size());
  // Proofs over the churned layout, for members and absent keys alike.
  for (std::uint64_t key = 0; key < 70; ++key) {
    const StateTrie::Proof proof = churned.prove(addr(key));
    const auto it = reference.find(key);
    EXPECT_EQ(proof.leaf, it == reference.end() ? Hash256{} : it->second);
    EXPECT_TRUE(StateTrie::verify(proof, churned.root())) << key;
  }
}

TEST(StateTrie, BatchUpdateMatchesSingleUpdates) {
  StateTrie batched;
  StateTrie single;
  std::vector<StateTrie::Leaf> leaves;
  for (std::uint64_t s = 0; s < 200; ++s) {
    leaves.push_back({addr(s), digest(s)});
    single.update(addr(s), digest(s));
  }
  // Erasures ride in the same batch, an absent one included.
  leaves.push_back({addr(7), Hash256{}});
  leaves.push_back({addr(999), Hash256{}});
  single.erase(addr(7));
  single.erase(addr(999));
  batched.update(leaves);
  EXPECT_EQ(batched.root(), single.root());
  EXPECT_EQ(batched.size(), 199u);

  // Emptying the trie in one batch returns the empty root.
  for (StateTrie::Leaf& leaf : leaves) leaf.digest = Hash256{};
  batched.update(leaves);
  EXPECT_EQ(batched.root(), StateTrie().root());
  EXPECT_EQ(batched.size(), 0u);
}

// ------------------------------------------------ batched re-hash checks

/// The trie's key: the first 48 bits of SHA-256(address).
std::uint64_t key_of(const Address& a) {
  const Sha256::Digest h = Sha256::hash(a.bytes);
  std::uint64_t key = 0;
  for (unsigned i = 0; i < StateTrie::kDepth / 8; ++i) key = (key << 8) | h[i];
  return key;
}

Hash256 plain_combine(const Hash256& left, const Hash256& right) {
  Sha256 h;
  h.update(left.bytes);
  h.update(right.bytes);
  return Hash256{h.finalize()};
}

using KeyedLeaf = std::pair<std::uint64_t, Hash256>;

/// Hash of the uncompressed subtree at `depth` over `leaves` (key-sorted,
/// all sharing the subtree's prefix): every one of the 48 levels hashed
/// node by node on a plain Sha256 object, empty subtrees included.
Hash256 reference_subtree(std::span<const KeyedLeaf> leaves, unsigned depth) {
  if (leaves.empty()) {
    // empty[d]: the empty subtree at depth d.
    static const std::vector<Hash256> empty = [] {
      std::vector<Hash256> e(StateTrie::kDepth + 1);
      for (unsigned d = StateTrie::kDepth; d-- > 0;) {
        e[d] = plain_combine(e[d + 1], e[d + 1]);
      }
      return e;
    }();
    return empty[depth];
  }
  if (depth == StateTrie::kDepth) return leaves.front().second;
  // Keys sort by their bits, so the right subtree is a suffix.
  std::size_t split = 0;
  while (split < leaves.size() &&
         ((leaves[split].first >> (StateTrie::kDepth - 1 - depth)) & 1) == 0) {
    ++split;
  }
  return plain_combine(reference_subtree(leaves.first(split), depth + 1),
                       reference_subtree(leaves.subspan(split), depth + 1));
}

Hash256 reference_root(const std::map<std::uint64_t, Hash256>& contents) {
  std::vector<KeyedLeaf> leaves;
  for (const auto& [seed, value] : contents) {
    leaves.emplace_back(key_of(addr(seed)), value);
  }
  std::sort(leaves.begin(), leaves.end());
  return reference_subtree(leaves, 0);
}

// Seeded batches of inserts, updates and erasures (zero digests, absent
// addresses included). After each batch every touched address proves,
// through the single-lane lifted() path, against the batched root, and
// while the trie is small its root equals the uncompressed reference.
TEST(StateTrie, BatchedRehashMatchesProofsAndUncompressedReference) {
  Rng rng(101);
  StateTrie trie;
  std::map<std::uint64_t, Hash256> contents;
  std::size_t reference_checks = 0;
  for (int round = 0; round < 40; ++round) {
    std::vector<StateTrie::Leaf> batch;
    std::vector<std::uint64_t> touched;
    const std::size_t size = 1 + rng.uniform(48);
    for (std::size_t i = 0; i < size; ++i) {
      const std::uint64_t seed = rng.uniform(90);
      const Hash256 value =
          rng.bernoulli(0.3) ? Hash256{} : digest(rng.next_u64());
      batch.push_back({addr(seed), value});
      touched.push_back(seed);
      // Later leaves of a batch override earlier ones, as in update().
      if (value.is_zero()) {
        contents.erase(seed);
      } else {
        contents[seed] = value;
      }
    }
    trie.update(batch);
    ASSERT_EQ(trie.size(), contents.size()) << "round " << round;
    const Hash256 root = trie.root();
    for (const std::uint64_t seed : touched) {
      const StateTrie::Proof proof = trie.prove(addr(seed));
      const auto it = contents.find(seed);
      EXPECT_EQ(proof.leaf, it == contents.end() ? Hash256{} : it->second);
      EXPECT_TRUE(StateTrie::verify(proof, root))
          << "round " << round << " seed " << seed;
    }
    if (contents.size() <= 64) {
      EXPECT_EQ(root, reference_root(contents)) << "round " << round;
      ++reference_checks;
    }
  }
  EXPECT_GT(reference_checks, 10u);
}

TEST(StateTrie, SmallTriesMatchUncompressedReference) {
  StateTrie trie;
  std::map<std::uint64_t, Hash256> contents;
  EXPECT_EQ(trie.root(), reference_root(contents));
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    trie.update(addr(seed), digest(seed));
    contents[seed] = digest(seed);
    ASSERT_EQ(trie.root(), reference_root(contents)) << "leaves " << seed;
  }
}

TEST(StateTrie, BuildFromStateDbTracksState) {
  StateDb state;
  state.set_balance(addr(1), 100);
  state.set_balance(addr(2), 200);
  state.set_storage(addr(3), 5, 50);
  const Hash256 root1 = build_state_trie(state).root();

  // Same logical state, different construction order -> same root.
  StateDb state2;
  state2.set_storage(addr(3), 5, 50);
  state2.set_balance(addr(2), 200);
  state2.set_balance(addr(1), 100);
  EXPECT_EQ(build_state_trie(state2).root(), root1);

  // Any change moves the root.
  state.set_balance(addr(1), 101);
  EXPECT_NE(build_state_trie(state).root(), root1);

  // Touched-but-default accounts do not affect the root.
  StateDb state3;
  state3.set_balance(addr(1), 100);
  state3.set_balance(addr(2), 200);
  state3.set_storage(addr(3), 5, 50);
  state3.set_balance(addr(9), 0);  // default-state account
  EXPECT_EQ(build_state_trie(state3).root(), root1);
}

TEST(StateTrie, AccountProofAuthenticatesBalance) {
  // End-to-end light-client flow: prove an account's digest against the
  // committed root, then check the digest matches the claimed state.
  StateDb state;
  state.set_balance(addr(1), 12345);
  const StateTrie trie = build_state_trie(state);
  const StateTrie::Proof proof = trie.prove(addr(1));
  ASSERT_TRUE(StateTrie::verify(proof, trie.root()));
  EXPECT_EQ(proof.leaf, state.account_digest(addr(1)));
}

}  // namespace
}  // namespace txconc::account
