#include "chain/merkle.h"

#include <array>
#include <cstring>

#include "common/error.h"
#include "common/sha256.h"

namespace txconc::chain {

namespace {

static_assert(sizeof(Hash256) == 32, "a level must be packed digests");

/// Hashes the pairs of the n-node level at `level` into the (n + 1) / 2
/// nodes at `out`; an odd last node pairs with itself. `out` may equal
/// `level`: the level then reduces in place. Sets *mutated when a full
/// pair holds two equal siblings.
void hash_level(const Hash256* level, std::size_t n, Hash256* out,
                bool* mutated) {
  if (mutated != nullptr) {
    for (std::size_t i = 0; i + 1 < n; i += 2) {
      if (level[i] == level[i + 1]) *mutated = true;
    }
  }
  Sha256::hash64_twice_batch(reinterpret_cast<const std::uint8_t*>(level),
                             reinterpret_cast<std::uint8_t*>(out), n / 2);
  if (n % 2 == 1) {
    std::array<std::uint8_t, 64> pair;
    std::memcpy(pair.data(), level[n - 1].bytes.data(), 32);
    std::memcpy(pair.data() + 32, level[n - 1].bytes.data(), 32);
    Sha256::hash64_twice_batch(pair.data(), out[n / 2].bytes.data(), 1);
  }
}

}  // namespace

Hash256 merkle_root(std::span<const Hash256> leaves, bool* mutated) {
  if (mutated != nullptr) *mutated = false;
  if (leaves.empty()) return Hash256{};
  // One copy, reduced in place: level n's pairs overwrite its first half.
  std::vector<Hash256> level(leaves.begin(), leaves.end());
  for (std::size_t n = level.size(); n > 1; n = (n + 1) / 2) {
    hash_level(level.data(), n, level.data(), mutated);
  }
  return level[0];
}

MerkleTree::MerkleTree(std::span<const Hash256> leaves)
    : num_leaves_(leaves.size()) {
  levels_.emplace_back(leaves.begin(), leaves.end());
  if (levels_[0].empty()) {
    levels_[0].push_back(Hash256{});
    num_leaves_ = 0;
  }
  while (levels_.back().size() > 1) {
    const std::size_t n = levels_.back().size();
    std::vector<Hash256> next((n + 1) / 2);
    hash_level(levels_.back().data(), n, next.data(), nullptr);
    levels_.push_back(std::move(next));
  }
}

const Hash256& MerkleTree::root() const { return levels_.back()[0]; }

MerkleProof MerkleTree::prove(std::size_t index) const {
  if (index >= num_leaves_) {
    throw UsageError("MerkleTree::prove: index out of range");
  }
  MerkleProof proof;
  proof.index = index;
  std::size_t pos = index;
  for (std::size_t lvl = 0; lvl + 1 < levels_.size(); ++lvl) {
    const auto& level = levels_[lvl];
    const std::size_t sibling = pos ^ 1;
    proof.siblings.push_back(sibling < level.size() ? level[sibling]
                                                    : level[pos]);
    pos /= 2;
  }
  return proof;
}

bool MerkleTree::verify(const Hash256& leaf, const MerkleProof& proof,
                        const Hash256& root) {
  Hash256 acc = leaf;
  std::size_t pos = proof.index;
  for (const Hash256& sibling : proof.siblings) {
    std::array<std::uint8_t, 64> pair;
    std::memcpy(pair.data() + (pos % 2 == 0 ? 0 : 32), acc.bytes.data(), 32);
    std::memcpy(pair.data() + (pos % 2 == 0 ? 32 : 0), sibling.bytes.data(),
                32);
    Sha256::hash64_twice_batch(pair.data(), acc.bytes.data(), 1);
    pos /= 2;
  }
  return acc == root;
}

}  // namespace txconc::chain
