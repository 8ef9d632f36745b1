#include "ctwatch/ct/tiled.hpp"

namespace ctwatch::ct {

namespace {

/// MTH(D[index·2^j : (index+1)·2^j]) — a perfect subtree. One run of
/// one tile when the subtree is below the watermark (its root is a fold
/// of the 2^(j mod 8) adjacent level-(j/8) entries starting at
/// index·2^(j mod 8) — aligned to their own width, so they never
/// straddle a tile); recursion into the children when it is not.
Digest perfect_root(TileSource& source, unsigned j, std::uint64_t index) {
  const std::uint64_t first_leaf = index << j;
  if (first_leaf + (std::uint64_t{1} << j) <= source.paged_leaves()) {
    const std::uint64_t width = std::uint64_t{1} << (j % kTileHeight);
    TilePageView run;
    if (source.entries(j / kTileHeight, index * width, width, run)) {
      return fold_perfect(run.entries, width);
    }
    // The level is absent or still partial: one level down covers the
    // same subtree with two runs instead of one.
  }
  if (j == 0) return source.leaf(index);
  return node_hash(perfect_root(source, j - 1, 2 * index),
                   perfect_root(source, j - 1, 2 * index + 1));
}

}  // namespace

// Identical to the RFC 6962 recursion on a perfect range: the split
// point of 2^k is 2^(k-1).
Digest fold_perfect(const Digest* entries, std::uint64_t count) {
  if (count == 1) return entries[0];
  const std::uint64_t half = count / 2;
  return node_hash(fold_perfect(entries, half), fold_perfect(entries + half, half));
}

Digest tiled_range_root(TileSource& source, std::uint64_t begin, std::uint64_t end) {
  const std::uint64_t n = end - begin;
  if ((n & (n - 1)) == 0 && begin % n == 0) {
    // A perfect, aligned subtree: resolvable from tile entries directly.
    unsigned j = 0;
    while ((std::uint64_t{1} << j) < n) ++j;
    return perfect_root(source, j, begin >> j);
  }
  const std::uint64_t k = detail::merkle_split_point(n);
  return node_hash(tiled_range_root(source, begin, begin + k),
                   tiled_range_root(source, begin + k, end));
}

Digest tiled_root(TileSource& source, std::uint64_t n) {
  if (n == 0) return empty_tree_root();
  return tiled_range_root(source, 0, n);
}

std::vector<Digest> tiled_inclusion_path(TileSource& source, std::uint64_t index,
                                         std::uint64_t tree_size) {
  // The same iterative walk as merkle_inclusion_path, with each sibling
  // subtree root resolved through the tiles.
  std::uint64_t begin = 0, end = tree_size, m = index;
  std::vector<Digest> reversed;
  while (end - begin > 1) {
    const std::uint64_t k = detail::merkle_split_point(end - begin);
    if (m < begin + k) {
      reversed.push_back(tiled_range_root(source, begin + k, end));
      end = begin + k;
    } else {
      reversed.push_back(tiled_range_root(source, begin, begin + k));
      begin += k;
    }
  }
  return {reversed.rbegin(), reversed.rend()};
}

std::vector<Digest> tiled_consistency_path(TileSource& source, std::uint64_t old_size,
                                           std::uint64_t new_size) {
  if (old_size == new_size || old_size == 0) return {};
  struct Helper {
    TileSource& source;
    std::vector<Digest> subproof(std::uint64_t m, std::uint64_t begin, std::uint64_t end,
                                 bool whole) const {
      const std::uint64_t n = end - begin;
      if (m == n) {
        if (whole) return {};
        return {tiled_range_root(source, begin, end)};
      }
      const std::uint64_t k = detail::merkle_split_point(n);
      std::vector<Digest> out;
      if (m <= k) {
        out = subproof(m, begin, begin + k, whole);
        out.push_back(tiled_range_root(source, begin + k, end));
      } else {
        out = subproof(m - k, begin + k, end, false);
        out.push_back(tiled_range_root(source, begin, begin + k));
      }
      return out;
    }
  };
  return Helper{source}.subproof(old_size, 0, new_size, true);
}

}  // namespace ctwatch::ct
