// Authenticated state commitments: a binary Merkle trie over account
// digests, giving blocks an Ethereum-style state root plus compact
// membership proofs.
//
// Keys are addresses (traversed bit-by-bit over the first kDepth bits of
// the address hash); leaves hold the account digest. Empty subtrees hash
// to known per-level constants. The trie is path-compressed: nodes exist
// only at leaves and branch points, so its size is O(accounts), and the
// empty runs of an edge are folded into the hash cached at the edge's top
// (DESIGN.md §18). The root is a function of the leaf set alone: it equals
// that of the uncompressed kDepth-level trie. An update hashes its leaves'
// keys as one batch, then re-hashes its stale nodes level by level, each
// level's independent hashes as one batch (DESIGN.md §22, §23).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "account/state.h"
#include "common/hash.h"

namespace txconc::account {

/// A sparse binary Merkle trie keyed by address.
class StateTrie {
 public:
  /// One leaf assignment; a zero digest erases the address.
  struct Leaf {
    Address address;
    Hash256 digest;
  };

  /// Insert or update the digest stored for an address.
  void update(const Address& addr, const Hash256& leaf_digest);

  /// Apply a batch of leaf assignments, then re-hash each node they
  /// touched once: the upper levels shared by the batch hash once, not
  /// once per leaf.
  void update(std::span<const Leaf> leaves);

  /// The 64-byte hashes the last update spent re-hashing its stale nodes.
  std::size_t last_update_hashes() const { return last_update_hashes_; }

  /// Remove an address (resets its leaf to the empty marker).
  void erase(const Address& addr);

  /// Root hash of the trie (the block header's state root).
  Hash256 root() const;

  std::size_t size() const { return size_; }

  /// Membership proof: sibling hashes from leaf to root.
  struct Proof {
    Address address;
    Hash256 leaf;
    std::vector<Hash256> siblings;  ///< Bottom-up.
  };

  /// Prove the digest stored for an address (the empty marker when the
  /// address is absent).
  Proof prove(const Address& addr) const;

  /// Verify a proof against a root.
  static bool verify(const Proof& proof, const Hash256& root);

  /// Trie depth in bits.
  static constexpr unsigned kDepth = 48;

 private:
  /// The first kDepth bits of SHA-256(address), most significant first.
  using Key = std::uint64_t;
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// A leaf (depth == kDepth) or a branch splitting on bit `depth`.
  struct Node {
    /// Subtree hash lifted to the top of the node's incoming edge: depth
    /// parent.depth + 1, or 0 for the root node.
    Hash256 hash;
    Hash256 digest;  ///< Leaves only.
    /// A leaf's key; for a branch, any key below it (the bits above
    /// `depth` are shared by the whole subtree).
    Key key = 0;
    std::uint32_t child[2] = {kNone, kNone};
    std::uint8_t depth = kDepth;
    bool stale = true;  ///< `hash` must be recomputed.
  };

  static const std::vector<Hash256>& empty_hashes();
  static Hash256 combine(const Hash256& left, const Hash256& right);
  static Key key_of(const Address& addr);
  /// The key in the first bytes of SHA-256(address).
  static Key key_from_digest(const std::uint8_t* digest);
  /// Number of leading key bits two keys share (kDepth when equal).
  static unsigned common_prefix(Key a, Key b);
  static unsigned bit(Key key, unsigned depth) {
    return static_cast<unsigned>(key >> (kDepth - 1 - depth)) & 1u;
  }

  std::uint32_t& link(std::uint32_t parent, unsigned side) {
    return parent == kNone ? root_ : nodes_[parent].child[side];
  }
  std::uint32_t new_node(Key key, unsigned depth);
  void mark_path_stale();

  /// A stale node on its way up, with the depth its hash is lifted to.
  struct Pending {
    std::uint32_t node;
    std::uint8_t top;
  };

  /// Structural edits; they mark the touched path stale, rehash() fixes it.
  void set(Key key, const Hash256& digest);
  void remove(Key key);
  /// Re-hash every stale node, one level per pass from the leaves up.
  void rehash();
  /// One level's joins and lifts (the nodes in active_), as batches.
  void hash_level(unsigned depth);
  /// The node's own subtree hash lifted from its depth up to `top`, one
  /// hash at a time: the reference prove() uses.
  Hash256 lifted(const Node& node, unsigned top) const;

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> free_;  // indices of released nodes
  std::vector<std::uint32_t> path_;  // scratch: the last edit's ancestors
  std::vector<Pending> joins_;       // scratch: stale branches, deepest first
  std::vector<Pending> active_;      // scratch: nodes hashing at this level
  std::uint32_t root_ = kNone;
  std::size_t size_ = 0;
  std::size_t last_update_hashes_ = 0;
};

/// Build the full state trie of a StateDb — O(accounts). The reference
/// the incremental node root (chain::AccountNode) is tested against.
StateTrie build_state_trie(const StateDb& state);

}  // namespace txconc::account
