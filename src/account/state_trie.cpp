#include "account/state_trie.h"

#include <array>
#include <bit>
#include <cstring>

namespace txconc::account {

namespace {

/// Leaf marker for absent/default accounts.
const Hash256 kEmptyLeaf{};

}  // namespace

const std::vector<Hash256>& StateTrie::empty_hashes() {
  // empty_hashes()[d] = hash of an empty subtree whose leaves sit d levels
  // below; [0] is the empty leaf itself.
  static const std::vector<Hash256> kEmpty = [] {
    std::vector<Hash256> out;
    out.push_back(kEmptyLeaf);
    for (unsigned d = 1; d <= kDepth; ++d) {
      out.push_back(combine(out.back(), out.back()));
    }
    return out;
  }();
  return kEmpty;
}

Hash256 StateTrie::combine(const Hash256& left, const Hash256& right) {
  std::array<std::uint8_t, 64> buf;
  std::memcpy(buf.data(), left.bytes.data(), 32);
  std::memcpy(buf.data() + 32, right.bytes.data(), 32);
  return Hash256::digest_of(buf);
}

StateTrie::Key StateTrie::key_of(const Address& addr) {
  // Traverse the bits of the address hash (uniform even for adversarially
  // chosen addresses).
  const Hash256 h = Hash256::digest_of(addr.bytes);
  Key key = 0;
  for (unsigned i = 0; i < kDepth / 8; ++i) key = (key << 8) | h.bytes[i];
  return key;
}

unsigned StateTrie::common_prefix(Key a, Key b) {
  // Keys fill the low kDepth bits of the word.
  return static_cast<unsigned>(std::countl_zero(a ^ b)) - (64 - kDepth);
}

Hash256 StateTrie::root() const {
  return root_ == kNone ? empty_hashes()[kDepth] : nodes_[root_].hash;
}

std::uint32_t StateTrie::new_node(Key key, unsigned depth) {
  std::uint32_t index;
  if (free_.empty()) {
    index = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  } else {
    index = free_.back();
    free_.pop_back();
    nodes_[index] = Node{};
  }
  nodes_[index].key = key;
  nodes_[index].depth = static_cast<std::uint8_t>(depth);
  return index;
}

void StateTrie::mark_path_stale() {
  for (const std::uint32_t index : path_) nodes_[index].stale = true;
}

void StateTrie::set(Key key, const Hash256& digest) {
  path_.clear();
  std::uint32_t parent = kNone;
  unsigned side = 0;
  std::uint32_t cur = root_;
  while (cur != kNone) {
    const Node& node = nodes_[cur];
    const unsigned common = common_prefix(node.key, key);
    if (common < node.depth) {
      // The key leaves the node's edge at bit `common`: split the edge
      // with a new branch there.
      const unsigned dir = bit(key, common);
      const std::uint32_t leaf = new_node(key, kDepth);
      nodes_[leaf].digest = digest;
      const std::uint32_t branch = new_node(key, common);
      nodes_[branch].child[dir] = leaf;
      nodes_[branch].child[1 - dir] = cur;
      nodes_[cur].stale = true;  // its edge now starts below the branch
      link(parent, side) = branch;
      ++size_;
      mark_path_stale();
      return;
    }
    path_.push_back(cur);
    if (node.depth == kDepth) {  // the key's own leaf
      nodes_[cur].digest = digest;
      mark_path_stale();
      return;
    }
    parent = cur;
    side = bit(key, node.depth);
    cur = node.child[side];
  }
  // Branches always hold two children, so only an empty trie ends here.
  const std::uint32_t leaf = new_node(key, kDepth);
  nodes_[leaf].digest = digest;
  root_ = leaf;
  ++size_;
}

void StateTrie::remove(Key key) {
  path_.clear();
  std::uint32_t grandparent = kNone;
  unsigned grand_side = 0;
  std::uint32_t parent = kNone;
  unsigned side = 0;
  std::uint32_t cur = root_;
  while (cur != kNone) {
    const Node& node = nodes_[cur];
    // Erasing an absent key is a no-op.
    if (common_prefix(node.key, key) < node.depth) return;
    if (node.depth == kDepth) break;
    path_.push_back(cur);
    grandparent = parent;
    grand_side = side;
    parent = cur;
    side = bit(key, node.depth);
    cur = node.child[side];
  }
  if (cur == kNone) return;
  free_.push_back(cur);
  --size_;
  if (parent == kNone) {
    root_ = kNone;
    return;
  }
  // The parent branch dissolves; the sibling's edge absorbs it.
  const std::uint32_t sibling = nodes_[parent].child[1 - side];
  link(grandparent, grand_side) = sibling;
  nodes_[sibling].stale = true;
  free_.push_back(parent);
  path_.pop_back();
  mark_path_stale();
}

Hash256 StateTrie::lifted(const Node& node, unsigned top) const {
  Hash256 h = node.depth == kDepth
                  ? node.digest
                  : combine(nodes_[node.child[0]].hash,
                            nodes_[node.child[1]].hash);
  const std::vector<Hash256>& empty = empty_hashes();
  for (unsigned depth = node.depth; depth-- > top;) {
    h = bit(node.key, depth) ? combine(empty[kDepth - depth - 1], h)
                             : combine(h, empty[kDepth - depth - 1]);
  }
  return h;
}

void StateTrie::rehash(std::uint32_t index, unsigned top) {
  Node& node = nodes_[index];  // rehash never allocates: stable reference
  if (!node.stale) return;
  if (node.depth < kDepth) {
    rehash(node.child[0], node.depth + 1u);
    rehash(node.child[1], node.depth + 1u);
  }
  node.hash = lifted(node, top);
  node.stale = false;
}

void StateTrie::update(const Address& addr, const Hash256& leaf_digest) {
  const Leaf leaf{addr, leaf_digest};
  update(std::span<const Leaf>(&leaf, 1));
}

void StateTrie::update(std::span<const Leaf> leaves) {
  for (const Leaf& leaf : leaves) {
    if (leaf.digest.is_zero()) {
      remove(key_of(leaf.address));
    } else {
      set(key_of(leaf.address), leaf.digest);
    }
  }
  if (root_ != kNone) rehash(root_, 0);
}

void StateTrie::erase(const Address& addr) { update(addr, kEmptyLeaf); }

StateTrie::Proof StateTrie::prove(const Address& addr) const {
  Proof proof;
  proof.address = addr;
  const Key key = key_of(addr);

  // Walk down, recording siblings; levels inside a compressed edge have
  // empty siblings, and a key that leaves an edge sees the edge's subtree
  // as its sibling from then on.
  std::vector<Hash256> top_down(kDepth);
  std::uint32_t cur = root_;
  for (unsigned depth = 0; depth < kDepth; ++depth) {
    const Hash256& empty = empty_hashes()[kDepth - depth - 1];
    if (cur == kNone) {
      top_down[depth] = empty;
      continue;
    }
    const Node& node = nodes_[cur];
    if (depth < node.depth) {
      if (bit(key, depth) == bit(node.key, depth)) {
        top_down[depth] = empty;
      } else {
        top_down[depth] = lifted(node, depth + 1);
        cur = kNone;
      }
      continue;
    }
    const unsigned dir = bit(key, depth);
    top_down[depth] = nodes_[node.child[1 - dir]].hash;
    cur = node.child[dir];
  }
  proof.leaf = cur != kNone ? nodes_[cur].digest : kEmptyLeaf;
  proof.siblings.assign(top_down.rbegin(), top_down.rend());
  return proof;
}

bool StateTrie::verify(const Proof& proof, const Hash256& root) {
  if (proof.siblings.size() != kDepth) return false;
  const Key key = key_of(proof.address);
  Hash256 acc = proof.leaf;
  for (unsigned level = 0; level < kDepth; ++level) {
    const unsigned depth = kDepth - 1 - level;  // depth of this step's bit
    acc = bit(key, depth) ? combine(proof.siblings[level], acc)
                          : combine(acc, proof.siblings[level]);
  }
  return acc == root;
}

StateTrie build_state_trie(const StateDb& state) {
  std::vector<StateTrie::Leaf> leaves;
  leaves.reserve(state.num_accounts());
  state.for_each_account([&](const Address& addr) {
    const Hash256 digest = state.account_digest(addr);
    if (!digest.is_zero()) leaves.push_back({addr, digest});
  });
  StateTrie trie;
  trie.update(leaves);
  return trie;
}

}  // namespace txconc::account
