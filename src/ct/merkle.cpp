#include "ctwatch/ct/merkle.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>

#include "ctwatch/ct/tiled.hpp"

namespace ctwatch::ct {

namespace detail {
std::uint64_t merkle_split_point(std::uint64_t n) { return std::bit_floor(n - 1); }
}  // namespace detail

Digest leaf_hash(BytesView data) {
  crypto::Sha256 h;
  h.update(std::uint8_t{0x00}).update(data);
  return h.finish();
}

Digest node_hash(const Digest& left, const Digest& right) {
  // 0x01 || left || right is always 65 bytes, so its FIPS 180-4 padding
  // is a constant: 0x80, zeros, and the bit length 520 (0x0208) in the
  // last two bytes of the second block.
  std::uint8_t blocks[128] = {0x01};
  std::memcpy(blocks + 1, left.data(), left.size());
  std::memcpy(blocks + 33, right.data(), right.size());
  blocks[65] = 0x80;
  blocks[126] = 0x02;
  blocks[127] = 0x08;
  return crypto::Sha256::hash_padded(blocks, 2);
}

Digest empty_tree_root() { return crypto::Sha256::hash(BytesView{}); }

std::optional<RootAccumulator> RootAccumulator::from_frontier(std::vector<Digest> frontier,
                                                              std::uint64_t size) {
  if (frontier.size() != static_cast<std::size_t>(std::popcount(size))) return std::nullopt;
  RootAccumulator out;
  out.stack_ = std::move(frontier);
  out.size_ = size;
  return out;
}

Digest RootAccumulator::root() const {
  if (stack_.empty()) return empty_tree_root();
  Digest acc = stack_.back();
  for (std::size_t i = stack_.size() - 1; i-- > 0;) {
    acc = node_hash(stack_[i], acc);
  }
  return acc;
}

TileCascade::TileCascade() {
  for (unsigned level = 1; (kLeafCapacity >> (kTileHeight * level)) > 0; ++level) {
    const std::uint64_t entries = kLeafCapacity >> (kTileHeight * level);
    levels_.push_back(std::make_unique<AppendOnlyStore<Digest>>(
        kTileHeight, static_cast<std::size_t>((entries + kTileWidth - 1) / kTileWidth)));
  }
}

TileCascade::Staged TileCascade::stage(std::vector<Digest> leaves) const {
  if (leaves.size() > kLeafCapacity - size()) throw std::length_error("TileCascade: full");
  Staged staged;
  staged.base = accumulator_.size();
  staged.accumulator = accumulator_;
  for (const Digest& leaf : leaves) {
    staged.accumulator.add(leaf, [&staged](unsigned level, const Digest& root) {
      staged.completed.emplace_back(level, root);
    });
  }
  staged.root = staged.accumulator.root();
  staged.leaves = std::move(leaves);
  return staged;
}

void TileCascade::apply(const Staged& staged) {
  if (staged.base != accumulator_.size()) {
    throw std::logic_error("TileCascade::apply: staged from a stale base");
  }
  for (const auto& [level, root] : staged.completed) push(level, root);
  accumulator_ = staged.accumulator;
}

namespace {

/// What MerkleTree proves through: its leaf vector and its cascade.
auto tree_source(const std::vector<Digest>& leaves, const TileCascade& cascade) {
  return LogTileSource(cascade, leaves.size(),
                       [&leaves](std::uint64_t first, std::uint64_t) { return &leaves[first]; });
}

}  // namespace

std::uint64_t MerkleTree::append(const Digest& leaf) {
  const std::uint64_t index = leaves_.size();
  cascade_.append(leaf);
  leaves_.push_back(leaf);
  return index;
}

std::uint64_t MerkleTree::append_batch(std::span<const Digest> leaves) {
  const std::uint64_t first = leaves_.size();
  leaves_.reserve(leaves_.size() + leaves.size());
  for (const Digest& leaf : leaves) append(leaf);
  return first;
}

Digest MerkleTree::root_at(std::uint64_t n) const {
  if (n > size()) throw std::out_of_range("MerkleTree::root_at: beyond tree size");
  auto source = tree_source(leaves_, cascade_);
  return tiled_root(source, n);
}

std::vector<Digest> MerkleTree::inclusion_proof(std::uint64_t index,
                                                std::uint64_t tree_size) const {
  if (tree_size > size() || index >= tree_size) {
    throw std::out_of_range("MerkleTree::inclusion_proof: bad index/size");
  }
  auto source = tree_source(leaves_, cascade_);
  return tiled_inclusion_path(source, index, tree_size);
}

std::vector<Digest> MerkleTree::consistency_proof(std::uint64_t old_size,
                                                  std::uint64_t new_size) const {
  if (new_size > size() || old_size > new_size) {
    throw std::out_of_range("MerkleTree::consistency_proof: bad sizes");
  }
  auto source = tree_source(leaves_, cascade_);
  return tiled_consistency_path(source, old_size, new_size);
}

bool verify_inclusion(const Digest& leaf, std::uint64_t index, std::uint64_t tree_size,
                      const std::vector<Digest>& proof, const Digest& root) {
  if (tree_size == 0 || index >= tree_size) return false;
  std::uint64_t fn = index;
  std::uint64_t sn = tree_size - 1;
  Digest r = leaf;
  for (const Digest& p : proof) {
    if (sn == 0) return false;
    if ((fn & 1) == 1 || fn == sn) {
      r = node_hash(p, r);
      if ((fn & 1) == 0) {
        while ((fn & 1) == 0 && fn != 0) {
          fn >>= 1;
          sn >>= 1;
        }
      }
    } else {
      r = node_hash(r, p);
    }
    fn >>= 1;
    sn >>= 1;
  }
  return sn == 0 && r == root;
}

bool verify_consistency(std::uint64_t old_size, std::uint64_t new_size, const Digest& old_root,
                        const Digest& new_root, const std::vector<Digest>& proof) {
  if (old_size > new_size) return false;
  if (old_size == new_size) return proof.empty() && old_root == new_root;
  // Only the *real* empty tree is consistent with everything: a signed
  // size-0 head with any other root is an equivocation attempt, and
  // accepting it here would let such a head pair with every honest head
  // without ever failing a gossip challenge.
  if (old_size == 0) return proof.empty() && old_root == empty_tree_root();
  std::uint64_t fn = old_size - 1;
  std::uint64_t sn = new_size - 1;
  while (fn & 1) {
    fn >>= 1;
    sn >>= 1;
  }
  std::size_t cursor = 0;
  Digest fr, sr;
  if (fn != 0) {
    if (proof.empty()) return false;
    fr = sr = proof[cursor++];
  } else {
    fr = sr = old_root;
  }
  for (; cursor < proof.size(); ++cursor) {
    const Digest& c = proof[cursor];
    if (sn == 0) return false;
    if ((fn & 1) == 1 || fn == sn) {
      fr = node_hash(c, fr);
      sr = node_hash(c, sr);
      while ((fn & 1) == 0 && fn != 0) {
        fn >>= 1;
        sn >>= 1;
      }
    } else {
      sr = node_hash(sr, c);
    }
    fn >>= 1;
    sn >>= 1;
  }
  return fr == old_root && sr == new_root && sn == 0;
}

}  // namespace ctwatch::ct
