#include "chain/merkle.h"

#include "common/error.h"
#include "common/sha256.h"

namespace txconc::chain {

namespace {

Hash256 hash_pair(const Hash256& left, const Hash256& right) {
  Sha256 h;
  h.update(left.bytes);
  h.update(right.bytes);
  return Hash256{Sha256::hash(h.finalize())};
}

std::vector<Hash256> next_level(const std::vector<Hash256>& level) {
  std::vector<Hash256> out;
  out.reserve((level.size() + 1) / 2);
  for (std::size_t i = 0; i < level.size(); i += 2) {
    const Hash256& left = level[i];
    const Hash256& right = (i + 1 < level.size()) ? level[i + 1] : level[i];
    out.push_back(hash_pair(left, right));
  }
  return out;
}

}  // namespace

Hash256 merkle_root(std::span<const Hash256> leaves) {
  if (leaves.empty()) return Hash256{};
  // One copy, reduced in place: level n's pairs overwrite its first half.
  std::vector<Hash256> level(leaves.begin(), leaves.end());
  for (std::size_t n = level.size(); n > 1; n = (n + 1) / 2) {
    for (std::size_t i = 0; i < n; i += 2) {
      level[i / 2] = hash_pair(level[i], i + 1 < n ? level[i + 1] : level[i]);
    }
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
    levels_.push_back(next_level(levels_.back()));
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
    acc = (pos % 2 == 0) ? hash_pair(acc, sibling) : hash_pair(sibling, acc);
    pos /= 2;
  }
  return acc == root;
}

}  // namespace txconc::chain
