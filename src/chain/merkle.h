// Merkle trees over transaction ids (Bitcoin-style, with duplication of the
// odd last element at each level).
#pragma once

#include <span>
#include <vector>

#include "common/hash.h"

namespace txconc::chain {

/// Root of the merkle tree over the given leaves. An empty leaf set hashes
/// to the all-zero root.
///
/// Duplicating the odd last node makes [a, b, c] and [a, b, c, c] share a
/// root (CVE-2012-2459). When `mutated` is given, it is set to whether
/// any level pairs two equal siblings, which no list of distinct leaves
/// does; a ledger refuses such a list.
Hash256 merkle_root(std::span<const Hash256> leaves, bool* mutated = nullptr);

/// A membership proof: sibling hashes bottom-up plus the leaf position.
struct MerkleProof {
  std::vector<Hash256> siblings;
  std::size_t index = 0;
};

/// Full tree retaining all levels, able to produce proofs.
class MerkleTree {
 public:
  explicit MerkleTree(std::span<const Hash256> leaves);

  const Hash256& root() const;
  std::size_t num_leaves() const { return num_leaves_; }

  /// Proof for the leaf at `index`; throws UsageError when out of range.
  MerkleProof prove(std::size_t index) const;

  /// Check a proof against a root.
  static bool verify(const Hash256& leaf, const MerkleProof& proof,
                     const Hash256& root);

 private:
  std::vector<std::vector<Hash256>> levels_;  // levels_[0] = leaves
  std::size_t num_leaves_;
};

}  // namespace txconc::chain
