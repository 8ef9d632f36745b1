// RFC 6962 Merkle hash trees.
//
// Leaf hash:  MTH({d}) = SHA-256(0x00 || d)
// Node hash:  SHA-256(0x01 || left || right)
// Inclusion (audit) and consistency proofs follow RFC 6962 §2.1.
//
// The tree is what makes a CT log's append-only promise *checkable*: the
// auditor in this library verifies consistency between successive signed
// tree heads and the tests actively tamper with histories to confirm
// detection.
//
// Every log proves through one path: ct/tiled.hpp's tile-addressed math
// over resident (or paged) hash tiles, O(log n) per proof. The
// `merkle_*` templates below are the direct RFC 6962 recursion over a
// leaf accessor (index -> leaf hash), O(n) per proof; nothing in the
// library calls them any more — they stay as the reference oracle the
// tests, benches and ctbench's self-test diff the tiled path against.
#pragma once

#include <cstdint>
#include <optional>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ctwatch/ct/append_only_store.hpp"
#include "ctwatch/crypto/sha256.hpp"

namespace ctwatch::ct {

using crypto::Digest;

/// Hash of a leaf's serialized content.
Digest leaf_hash(BytesView data);
/// Interior node hash.
Digest node_hash(const Digest& left, const Digest& right);

/// SHA-256 of the empty string: the root of the empty tree per RFC 6962.
Digest empty_tree_root();

/// Tile geometry, shared by the accumulator's sink, the tiled proof math
/// and ctwatch::storage's pages: a tile is a perfect subtree of height 8.
inline constexpr unsigned kTileHeight = 8;
inline constexpr std::uint64_t kTileWidth = std::uint64_t{1} << kTileHeight;

namespace detail {
/// Largest power of two strictly less than n (n >= 2).
std::uint64_t merkle_split_point(std::uint64_t n);
}  // namespace detail

/// Reference oracle: MTH(D[begin:end]) over any leaf accessor
/// `leaf(index) -> Digest`, by recursion. Requires end > begin.
template <typename LeafFn>
Digest merkle_range_root(const LeafFn& leaf, std::uint64_t begin, std::uint64_t end) {
  const std::uint64_t n = end - begin;
  if (n == 1) return leaf(begin);
  const std::uint64_t k = detail::merkle_split_point(n);
  return node_hash(merkle_range_root(leaf, begin, begin + k),
                   merkle_range_root(leaf, begin + k, end));
}

/// MTH of the first `n` leaves; the empty-tree root when n == 0.
template <typename LeafFn>
Digest merkle_root_of(const LeafFn& leaf, std::uint64_t n) {
  if (n == 0) return empty_tree_root();
  return merkle_range_root(leaf, 0, n);
}

/// PATH(m, D[0:tree_size]) per RFC 6962 §2.1.1 — the audit path proving
/// leaf `index` is in the tree of size `tree_size`. The caller must have
/// bounds-checked index < tree_size <= leaf count.
template <typename LeafFn>
std::vector<Digest> merkle_inclusion_path(const LeafFn& leaf, std::uint64_t index,
                                          std::uint64_t tree_size) {
  // Iterative over the recursion, collecting siblings root-to-leaf.
  std::uint64_t begin = 0, end = tree_size, m = index;
  std::vector<Digest> reversed;
  while (end - begin > 1) {
    const std::uint64_t k = detail::merkle_split_point(end - begin);
    if (m < begin + k) {
      reversed.push_back(merkle_range_root(leaf, begin + k, end));
      end = begin + k;
    } else {
      reversed.push_back(merkle_range_root(leaf, begin, begin + k));
      begin += k;
    }
  }
  return {reversed.rbegin(), reversed.rend()};
}

/// PROOF(old_size, D[0:new_size]) per RFC 6962 §2.1.2. The caller must
/// have bounds-checked old_size <= new_size <= leaf count.
template <typename LeafFn>
std::vector<Digest> merkle_consistency_path(const LeafFn& leaf, std::uint64_t old_size,
                                            std::uint64_t new_size) {
  if (old_size == new_size || old_size == 0) return {};
  struct Helper {
    const LeafFn& leaf;
    std::vector<Digest> subproof(std::uint64_t m, std::uint64_t begin, std::uint64_t end,
                                 bool whole) const {
      const std::uint64_t n = end - begin;
      if (m == n) {
        if (whole) return {};
        return {merkle_range_root(leaf, begin, end)};
      }
      const std::uint64_t k = detail::merkle_split_point(n);
      std::vector<Digest> out;
      if (m <= k) {
        out = subproof(m, begin, begin + k, whole);
        out.push_back(merkle_range_root(leaf, begin + k, end));
      } else {
        out = subproof(m - k, begin + k, end, false);
        out.push_back(merkle_range_root(leaf, begin, begin + k));
      }
      return out;
    }
  };
  return Helper{leaf}.subproof(old_size, 0, new_size, true);
}

/// Incremental RFC 6962 root: the binary counter of perfect-subtree
/// hashes, one stack slot per set bit of the size. O(log n) amortized per
/// leaf, O(log n) per root readout, O(log n) space — the piece a
/// high-throughput sequencer needs without retaining a second copy of
/// every leaf.
class RootAccumulator {
 public:
  /// Folds one more leaf hash into the running root.
  void add(const Digest& leaf) {
    add(leaf, [](unsigned, const Digest&) {});
  }

  /// The same, also reporting `sink(level, root)` for every perfect
  /// subtree the merge completes whose height is a positive multiple of
  /// kTileHeight (level = height / kTileHeight). Those are exactly the
  /// tile entries at level >= 1, in order per level: the add() of leaf
  /// (e+1)·256^L - 1 reports level-L entry e. The merge computes them
  /// anyway, so the sink costs no hashing.
  template <typename Sink>
  void add(const Digest& leaf, Sink&& sink) {
    // Binary-counter merge: one stack entry per set bit of the new size.
    Digest acc = leaf;
    unsigned height = 0;
    for (std::uint64_t size = size_; size & 1; size >>= 1) {
      acc = node_hash(stack_.back(), acc);
      stack_.pop_back();
      if (++height % kTileHeight == 0) sink(height / kTileHeight, acc);
    }
    stack_.push_back(acc);
    ++size_;
  }

  [[nodiscard]] std::uint64_t size() const { return size_; }
  [[nodiscard]] Digest root() const;

  /// The frontier: the perfect-subtree hashes, largest subtree first —
  /// exactly one per set bit of size(). This is the whole mutable state
  /// of the accumulator; ctwatch::storage serializes it into checkpoint
  /// records so recovery restores the tree head in O(log n) instead of
  /// rehashing every leaf.
  [[nodiscard]] const std::vector<Digest>& frontier() const { return stack_; }

  /// Rebuilds an accumulator from a serialized frontier. Returns nullopt
  /// unless the hash count matches popcount(size) — the shape every
  /// valid frontier must have (the caller still owes a root check
  /// against a trusted STH before serving anything from it).
  static std::optional<RootAccumulator> from_frontier(std::vector<Digest> frontier,
                                                      std::uint64_t size);

 private:
  std::vector<Digest> stack_;  // perfect-subtree hashes, largest first
  std::uint64_t size_ = 0;
};

/// One log's Merkle state above level 0: the RootAccumulator plus every
/// completed tile entry of levels >= 1 (entry e of level L is the root of
/// leaves [e·256^L, (e+1)·256^L)), which the accumulator's sink yields at
/// no extra hashing. Each level is an AppendOnlyStore with one tile per
/// chunk, so a tile's run of entries is contiguous. One writer folds;
/// readers call level_size() and entries() without a lock. Every writer
/// call publishes the levels it touched before it returns, so an owner
/// that publishes its level-0 leaves afterwards (MerkleTree's vector,
/// LogStore's tail, LogService's chunked store) shows readers every tile
/// entry below any leaf count they see.
class TileCascade {
 public:
  /// Leaves a cascade holds: a default AppendOnlyStore's capacity (2^15
  /// chunks of 2^14), so it matches LogService's leaf store.
  static constexpr std::uint64_t kLeafCapacity = std::uint64_t{1} << 29;

  /// One fold, computed without touching the cascade.
  struct Staged {
    std::uint64_t base = 0;                              ///< size() it started from
    std::vector<Digest> leaves;                          ///< the leaves folded
    RootAccumulator accumulator;                         ///< the state after them
    std::vector<std::pair<unsigned, Digest>> completed;  ///< (level, entry), in order
    Digest root{};                                       ///< accumulator.root(), hashed once
    [[nodiscard]] std::uint64_t size() const { return accumulator.size(); }
  };

  /// One store per level a tree of kLeafCapacity leaves reaches.
  TileCascade();

  // Writer. append() is the serial fold (MerkleTree, recovery); stage()
  // folds on a copy and apply() makes that fold current, throwing
  // std::logic_error for a fold of a stale base. Folding past
  // kLeafCapacity throws std::length_error.
  void append(const Digest& leaf) {
    if (size() >= kLeafCapacity) throw std::length_error("TileCascade: full");
    accumulator_.add(leaf, [this](unsigned level, const Digest& root) { push(level, root); });
  }
  [[nodiscard]] Staged stage(std::vector<Digest> leaves) const;
  void apply(const Staged& staged);
  /// Recovery without the leaves: restore_entry() loads every upper entry
  /// a checkpoint implies (size >> 8·L of level L), then restore_frontier()
  /// adopts the checkpoint's frontier.
  void restore_entry(unsigned level, const Digest& root) { push(level, root); }
  void restore_frontier(RootAccumulator accumulator) { accumulator_ = std::move(accumulator); }

  [[nodiscard]] std::uint64_t size() const { return accumulator_.size(); }
  [[nodiscard]] Digest root() const { return accumulator_.root(); }
  [[nodiscard]] const RootAccumulator& accumulator() const { return accumulator_; }

  // Readers (any thread).
  [[nodiscard]] unsigned levels() const { return static_cast<unsigned>(levels_.size()); }
  [[nodiscard]] std::uint64_t level_size(unsigned level) const {
    return levels_[level - 1]->size();
  }
  /// Published entries [first, first + count) of `level` >= 1, inside one
  /// tile; nullptr when the level is absent or the run is not published.
  [[nodiscard]] const Digest* entries(unsigned level, std::uint64_t first,
                                      std::uint64_t count) const {
    if (level == 0 || level > levels() || first + count > level_size(level)) return nullptr;
    return &levels_[level - 1]->at(first);
  }

 private:
  void push(unsigned level, const Digest& root) {
    (void)levels_[level - 1]->append(root);  // kLeafCapacity bounds every level
    levels_[level - 1]->publish();
  }

  std::vector<std::unique_ptr<AppendOnlyStore<Digest>>> levels_;
  RootAccumulator accumulator_;
};

/// An append-only Merkle tree over pre-hashed leaves.
///
/// Appends are O(log n) amortized (one TileCascade fold each); proofs and
/// historic roots are O(log n), served by ct/tiled.hpp over the leaf
/// vector plus the cascade's upper levels.
class MerkleTree {
 public:
  /// Appends a leaf (already leaf-hashed) and returns its index.
  std::uint64_t append(const Digest& leaf);
  /// Convenience: hashes and appends raw leaf data.
  std::uint64_t append_data(BytesView data) { return append(leaf_hash(data)); }
  /// Bulk append: integrates a sealed batch of leaf hashes in one call and
  /// returns the index of the first. Equivalent to appending in order.
  std::uint64_t append_batch(std::span<const Digest> leaves);

  [[nodiscard]] std::uint64_t size() const { return leaves_.size(); }

  /// Root of the current tree. The empty tree's root is SHA-256 of the
  /// empty string, per RFC 6962.
  [[nodiscard]] Digest root() const { return cascade_.root(); }
  /// Root of the first `n` leaves (n <= size()).
  [[nodiscard]] Digest root_at(std::uint64_t n) const;

  /// Audit path proving leaf `index` is in the tree of size `tree_size`.
  [[nodiscard]] std::vector<Digest> inclusion_proof(std::uint64_t index,
                                                    std::uint64_t tree_size) const;
  /// Consistency proof between tree sizes `old_size` <= `new_size`.
  [[nodiscard]] std::vector<Digest> consistency_proof(std::uint64_t old_size,
                                                      std::uint64_t new_size) const;

  [[nodiscard]] const Digest& leaf(std::uint64_t index) const { return leaves_.at(index); }

 private:
  std::vector<Digest> leaves_;
  TileCascade cascade_;
};

/// Verifies an RFC 6962 inclusion proof.
bool verify_inclusion(const Digest& leaf, std::uint64_t index, std::uint64_t tree_size,
                      const std::vector<Digest>& proof, const Digest& root);

/// Verifies an RFC 6962 consistency proof.
bool verify_consistency(std::uint64_t old_size, std::uint64_t new_size, const Digest& old_root,
                        const Digest& new_root, const std::vector<Digest>& proof);

}  // namespace ctwatch::ct
