#include "account/state_trie.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "common/sha256.h"

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
  return key_from_digest(Hash256::digest_of(addr.bytes).bytes.data());
}

StateTrie::Key StateTrie::key_from_digest(const std::uint8_t* digest) {
  // Traverse the bits of the address hash (uniform even for adversarially
  // chosen addresses).
  Key key = 0;
  for (unsigned i = 0; i < kDepth / 8; ++i) key = (key << 8) | digest[i];
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

void StateTrie::rehash() {
  // Collect the stale nodes; they form a subtree hanging from the root.
  // A stale leaf starts lifting from its digest; a stale branch joins its
  // children at its own depth, once they have reached it.
  joins_.clear();
  active_.clear();
  const auto collect = [this](std::uint32_t index, unsigned top) {
    Node& node = nodes_[index];
    if (!node.stale) return;
    if (node.depth < kDepth) {
      joins_.push_back({index, static_cast<std::uint8_t>(top)});
      return;
    }
    node.hash = node.digest;
    if (top == kDepth) {
      node.stale = false;
    } else {
      active_.push_back({index, static_cast<std::uint8_t>(top)});
    }
  };
  collect(root_, 0);
  for (std::size_t i = 0; i < joins_.size(); ++i) {
    const Node& branch = nodes_[joins_[i].node];
    collect(branch.child[0], branch.depth + 1u);
    collect(branch.child[1], branch.depth + 1u);
  }
  std::sort(joins_.begin(), joins_.end(),
            [this](const Pending& a, const Pending& b) {
              return nodes_[a.node].depth > nodes_[b.node].depth;
            });

  // Walk the levels bottom-up. At each, the joins of the branches there
  // and the lifts of the nodes passing through are independent, so they
  // hash as one batch; a node whose hash reaches its top drops out.
  std::size_t next_join = 0;
  for (unsigned depth = kDepth; depth-- > 0;) {
    for (; next_join < joins_.size() &&
           nodes_[joins_[next_join].node].depth == depth;
         ++next_join) {
      active_.push_back(joins_[next_join]);
    }
    hash_level(depth);
    last_update_hashes_ += active_.size();
    std::size_t kept = 0;
    for (const Pending& pending : active_) {
      if (pending.top == depth) {
        nodes_[pending.node].stale = false;
      } else {
        active_[kept++] = pending;
      }
    }
    active_.resize(kept);
  }
}

void StateTrie::hash_level(unsigned depth) {
  // Chunks of messages on the stack, hashed in place; whole 16-lane groups
  // except in the last chunk.
  constexpr std::size_t kChunk = 64;
  std::array<std::uint8_t, 64 * kChunk> chunk;
  const Hash256& empty = empty_hashes()[kDepth - depth - 1];
  for (std::size_t start = 0; start < active_.size(); start += kChunk) {
    const std::size_t n = std::min(kChunk, active_.size() - start);
    for (std::size_t i = 0; i < n; ++i) {
      const Node& node = nodes_[active_[start + i].node];
      const Hash256* left = &node.hash;  // lift through an empty right
      const Hash256* right = &empty;
      if (node.depth == depth) {  // a branch joins its children
        left = &nodes_[node.child[0]].hash;
        right = &nodes_[node.child[1]].hash;
      } else if (bit(node.key, depth) != 0) {  // lift through an empty left
        left = &empty;
        right = &node.hash;
      }
      std::memcpy(chunk.data() + 64 * i, left->bytes.data(), 32);
      std::memcpy(chunk.data() + 64 * i + 32, right->bytes.data(), 32);
    }
    Sha256::hash64_batch(chunk.data(), chunk.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      std::memcpy(nodes_[active_[start + i].node].hash.bytes.data(),
                  chunk.data() + 32 * i, 32);
    }
  }
}

void StateTrie::update(const Address& addr, const Hash256& leaf_digest) {
  const Leaf leaf{addr, leaf_digest};
  update(std::span<const Leaf>(&leaf, 1));
}

void StateTrie::update(std::span<const Leaf> leaves) {
  // The keys of a chunk of leaves hash as one batch of padded one-block
  // messages, on the stack; the leaves then apply in order.
  constexpr std::size_t kChunk = 64;
  static_assert(Sha256::padded_blocks(sizeof(Address)) == 1);
  std::array<std::uint8_t, 64 * kChunk> messages;
  std::array<std::uint8_t, 32 * kChunk> digests;
  std::array<std::uint32_t, kChunk> one_block;
  one_block.fill(1);
  for (std::size_t start = 0; start < leaves.size(); start += kChunk) {
    const std::size_t n = std::min(kChunk, leaves.size() - start);
    for (std::size_t i = 0; i < n; ++i) {
      std::uint8_t* const message = messages.data() + 64 * i;
      std::memcpy(message, leaves[start + i].address.bytes.data(),
                  sizeof(Address));
      Sha256::pad(message, sizeof(Address));
    }
    Sha256::hash_padded_batch(messages.data(),
                              std::span(one_block).first(n), digests.data());
    for (std::size_t i = 0; i < n; ++i) {
      const Leaf& leaf = leaves[start + i];
      const Key key = key_from_digest(digests.data() + 32 * i);
      if (leaf.digest.is_zero()) {
        remove(key);
      } else {
        set(key, leaf.digest);
      }
    }
  }
  last_update_hashes_ = 0;
  if (root_ != kNone) rehash();
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
