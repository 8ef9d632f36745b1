// Differential parity: the tile-addressed proof math (ct/tiled.hpp) must
// be byte-identical to the RFC 6962 reference recursion (ct/merkle.hpp)
// for every tree size, watermark position, and page-availability shape —
// including trees that do not align to tile boundaries, proofs that
// straddle the paged/resident boundary, and sources whose upper-level
// pages are missing (forcing the recursion down to level 0). Also: the
// accumulator's sink yields exactly the upper tile entries, and a proof
// touches O(log n) tile entries.
#include <gtest/gtest.h>

#include <bit>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ctwatch/ct/merkle.hpp"
#include "ctwatch/ct/tiled.hpp"

namespace ctwatch::ct {
namespace {

constexpr std::uint64_t kTile = 256;

Digest leaf_of(std::uint64_t i) {
  return leaf_hash(to_bytes("tiled-parity-leaf-" + std::to_string(i)));
}

/// A TileSource over an in-memory leaf vector, shaped like the storage
/// layer's: level-0 pages cover exactly [0, watermark) with a partial
/// last page, upper-level pages exist only when FULL (256 entries), and
/// leaf() serves any index (the resident tail and nothing else in a
/// correctly-paged query — `strict_tail` asserts that).
class FakeTileSource : public TileSource {
 public:
  FakeTileSource(const std::vector<Digest>& leaves, std::uint64_t watermark,
                 bool drop_upper = false, bool strict_tail = false)
      : leaves_(leaves), watermark_(watermark), drop_upper_(drop_upper),
        strict_tail_(strict_tail) {
    // Entry e of level L is the root of leaves [e·256^L, (e+1)·256^L):
    // exactly fold_perfect over 256 entries of the level below.
    levels_.push_back(std::vector<Digest>(leaves.begin(),
                                          leaves.begin() + static_cast<std::ptrdiff_t>(watermark)));
    while (levels_.back().size() >= kTile) {
      const std::vector<Digest>& below = levels_.back();
      std::vector<Digest> up;
      for (std::size_t e = 0; e + kTile <= below.size(); e += kTile) {
        up.push_back(fold_perfect(below.data() + e, kTile));
      }
      if (up.empty()) break;
      levels_.push_back(std::move(up));
    }
  }

  [[nodiscard]] std::uint64_t paged_leaves() const override { return watermark_; }

  bool entries(unsigned level, std::uint64_t first, std::uint64_t count,
               TilePageView& out) override {
    ++page_requests_;
    if (level >= levels_.size()) return false;
    if (level > 0 && drop_upper_) return false;
    const std::vector<Digest>& row = levels_[level];
    const std::uint64_t page_first = first / kTile * kTile;
    if (page_first >= row.size()) return false;
    const std::uint64_t avail = std::min(kTile, row.size() - page_first);
    // Upper pages are only ever durable when full — a partial upper page
    // does not exist on disk, so the math must descend instead.
    if (level > 0 && avail < kTile) return false;
    if (avail < first - page_first + count) return false;
    out.entries = row.data() + first;
    out.count = count;
    return true;
  }

  Digest leaf(std::uint64_t index) override {
    ++leaf_requests_;
    if (strict_tail_) {
      // The math must never fall back to leaf() below the watermark: a
      // page request below it can only fail through corruption.
      EXPECT_GE(index, watermark_) << "tiled math read a paged leaf through the tail";
    }
    return leaves_[static_cast<std::size_t>(index)];
  }

  std::uint64_t page_requests() const { return page_requests_; }
  std::uint64_t leaf_requests() const { return leaf_requests_; }

 private:
  const std::vector<Digest>& leaves_;
  std::uint64_t watermark_;
  bool drop_upper_;
  bool strict_tail_;
  std::vector<std::vector<Digest>> levels_;
  std::uint64_t page_requests_ = 0;
  std::uint64_t leaf_requests_ = 0;
};

std::vector<Digest> make_leaves(std::uint64_t n) {
  std::vector<Digest> leaves;
  leaves.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) leaves.push_back(leaf_of(i));
  return leaves;
}

/// Watermarks worth testing for a tree of size n: fully paged, the tile
/// floor (the storage layer's invariant position), a non-aligned interior
/// cut, and fully resident.
std::vector<std::uint64_t> watermarks_for(std::uint64_t n) {
  std::vector<std::uint64_t> marks{n, n / kTile * kTile, n / 2, 0};
  std::sort(marks.begin(), marks.end());
  marks.erase(std::unique(marks.begin(), marks.end()), marks.end());
  return marks;
}

TEST(TiledProofTest, FoldPerfectMatchesRangeRoot) {
  const std::vector<Digest> leaves = make_leaves(512);
  const auto leaf_fn = [&](std::uint64_t i) -> const Digest& {
    return leaves[static_cast<std::size_t>(i)];
  };
  for (const std::uint64_t width : {1ull, 2ull, 4ull, 64ull, 256ull, 512ull}) {
    for (std::uint64_t begin = 0; begin + width <= leaves.size(); begin += width) {
      EXPECT_EQ(fold_perfect(leaves.data() + begin, width),
                merkle_range_root(leaf_fn, begin, begin + width))
          << "width=" << width << " begin=" << begin;
    }
  }
}

TEST(TiledProofTest, RootParityAcrossSizesAndWatermarks) {
  for (const std::uint64_t n : {1ull, 2ull, 3ull, 255ull, 256ull, 257ull, 511ull, 512ull,
                                513ull, 1000ull, 4095ull, 4096ull, 4097ull}) {
    const std::vector<Digest> leaves = make_leaves(n);
    const auto leaf_fn = [&](std::uint64_t i) -> const Digest& {
      return leaves[static_cast<std::size_t>(i)];
    };
    const Digest expected = merkle_root_of(leaf_fn, n);
    for (const std::uint64_t w : watermarks_for(n)) {
      FakeTileSource source(leaves, w, false, true);
      EXPECT_EQ(tiled_root(source, n), expected) << "n=" << n << " watermark=" << w;
    }
  }
}

TEST(TiledProofTest, InclusionParityAcrossSizesAndWatermarks) {
  std::mt19937_64 rng(0x711ED);
  for (const std::uint64_t n :
       {1ull, 2ull, 255ull, 256ull, 257ull, 511ull, 513ull, 1000ull, 4095ull, 4097ull}) {
    const std::vector<Digest> leaves = make_leaves(n);
    const auto leaf_fn = [&](std::uint64_t i) -> const Digest& {
      return leaves[static_cast<std::size_t>(i)];
    };
    const Digest root = merkle_root_of(leaf_fn, n);
    for (const std::uint64_t w : watermarks_for(n)) {
      FakeTileSource source(leaves, w, false, true);
      std::vector<std::uint64_t> indices{0, n - 1, n / 2};
      for (int i = 0; i < 4; ++i) indices.push_back(rng() % n);
      // Indices hugging the paged/resident boundary are the interesting
      // ones: their paths mix page entries and resident leaves.
      if (w > 0 && w < n) indices.insert(indices.end(), {w - 1, w});
      for (const std::uint64_t index : indices) {
        const std::vector<Digest> tiled = tiled_inclusion_path(source, index, n);
        EXPECT_EQ(tiled, merkle_inclusion_path(leaf_fn, index, n))
            << "n=" << n << " w=" << w << " index=" << index;
        EXPECT_TRUE(verify_inclusion(leaves[static_cast<std::size_t>(index)], index, n, tiled,
                                     root));
      }
    }
  }
}

TEST(TiledProofTest, ConsistencyParityAcrossSizesAndWatermarks) {
  std::mt19937_64 rng(0xC0515);
  for (const std::uint64_t n : {2ull, 256ull, 257ull, 512ull, 1000ull, 4097ull}) {
    const std::vector<Digest> leaves = make_leaves(n);
    const auto leaf_fn = [&](std::uint64_t i) -> const Digest& {
      return leaves[static_cast<std::size_t>(i)];
    };
    for (const std::uint64_t w : watermarks_for(n)) {
      FakeTileSource source(leaves, w, false, true);
      std::vector<std::uint64_t> olds{1, n / 2, n - 1, n};
      for (int i = 0; i < 3; ++i) olds.push_back(1 + rng() % n);
      if (w > 0 && w < n) olds.push_back(w);
      for (const std::uint64_t old_size : olds) {
        EXPECT_EQ(tiled_consistency_path(source, old_size, n),
                  merkle_consistency_path(leaf_fn, old_size, n))
            << "n=" << n << " w=" << w << " old=" << old_size;
      }
    }
  }
}

TEST(TiledProofTest, StaleTreeSizeProvesAgainstNewerWatermark) {
  // A checkpoint racing a query can advance the watermark past the tree
  // size being proven (a stale snapshot). Append-only Merkle: the perfect
  // subtrees of the old tree are unchanged, so parity must hold.
  const std::uint64_t n = 1500;
  const std::vector<Digest> leaves = make_leaves(n);
  const auto leaf_fn = [&](std::uint64_t i) -> const Digest& {
    return leaves[static_cast<std::size_t>(i)];
  };
  FakeTileSource source(leaves, n, false, true);  // watermark covers ALL leaves
  for (const std::uint64_t stale : {1ull, 255ull, 256ull, 700ull, 1499ull}) {
    EXPECT_EQ(tiled_inclusion_path(source, stale / 2, stale),
              merkle_inclusion_path(leaf_fn, stale / 2, stale))
        << "stale=" << stale;
    EXPECT_EQ(tiled_consistency_path(source, stale, n),
              merkle_consistency_path(leaf_fn, stale, n))
        << "stale=" << stale;
  }
}

TEST(TiledProofTest, MissingUpperPagesFallThroughByteIdentically) {
  // 66000 leaves > 256² so a full level-1 page exists; dropping every
  // upper page forces the recursion to resolve the same subtrees from
  // level-0 pages — more fetches, identical bytes.
  const std::uint64_t n = 66000;
  const std::vector<Digest> leaves = make_leaves(n);
  const auto leaf_fn = [&](std::uint64_t i) -> const Digest& {
    return leaves[static_cast<std::size_t>(i)];
  };
  FakeTileSource with_upper(leaves, n, false, true);
  FakeTileSource without_upper(leaves, n, true, true);
  const std::vector<Digest> expected = merkle_inclusion_path(leaf_fn, 70000 / 2, n);
  EXPECT_EQ(tiled_inclusion_path(with_upper, 70000 / 2, n), expected);
  EXPECT_EQ(tiled_inclusion_path(without_upper, 70000 / 2, n), expected);
  // The upper pages are what keep the fetch count logarithmic.
  EXPECT_LT(with_upper.page_requests(), without_upper.page_requests());
  EXPECT_EQ(tiled_root(without_upper, n), merkle_root_of(leaf_fn, n));
}

TEST(TiledProofTest, ProofsTouchLogarithmicallyManyPages) {
  // 65536 leaves: 256 full level-0 tiles AND a full level-1 page, so
  // every perfect path node of ≥256 leaves resolves from one level-1
  // fetch instead of walking its level-0 tiles. The 16-node inclusion
  // path must cost O(path length) page requests (counting failed
  // higher-level probes), nowhere near the 256 tiles the tree spans.
  const std::uint64_t n = 65536;
  const std::vector<Digest> leaves = make_leaves(n);
  FakeTileSource source(leaves, n, false, true);
  (void)tiled_inclusion_path(source, 30000, n);
  EXPECT_LE(source.page_requests(), 40u);
  EXPECT_EQ(source.leaf_requests(), 0u);  // nothing resident: no tail reads
}

TEST(TiledProofTest, AccumulatorSinkYieldsEveryUpperTileEntry) {
  // Past 256² so a level-2 entry completes, and not a tile multiple.
  const std::uint64_t n = 65536 + 3 * kTile + 5;
  const std::vector<Digest> leaves = make_leaves(n);
  const auto leaf_fn = [&](std::uint64_t i) -> const Digest& {
    return leaves[static_cast<std::size_t>(i)];
  };

  // Single appends: each entry arrives with the leaf that completes it.
  TileCascade single;
  RootAccumulator acc;
  for (std::uint64_t i = 0; i < n; ++i) {
    acc.add(leaves[static_cast<std::size_t>(i)]);
    single.append(leaves[static_cast<std::size_t>(i)]);
    for (unsigned level = 1; level <= single.levels(); ++level) {
      ASSERT_EQ(single.level_size(level), (i + 1) >> (8 * level))
          << "level " << level << " after leaf " << i;
    }
  }
  ASSERT_EQ(single.level_size(3), 0u);  // n reaches two levels
  for (unsigned level = 1; level <= 2; ++level) {
    const std::uint64_t width = std::uint64_t{1} << (8 * level);
    for (std::uint64_t e = 0; e < single.level_size(level); ++e) {
      EXPECT_EQ(*single.entries(level, e, 1), merkle_range_root(leaf_fn, e * width,
                                                                (e + 1) * width))
          << "level " << level << " entry " << e;
    }
  }
  EXPECT_EQ(single.accumulator().frontier(), acc.frontier());

  // Batch appends, staged without touching the cascade and applied after
  // (the sequencer's and LogStore::commit_batch's shape): the same
  // entries, and the staged root matches the oracle at every batch
  // boundary. A fold staged from a stale base is refused.
  TileCascade batched;
  const std::uint64_t shapes[] = {1, 7, 255, 256, 257, 1000, 4096};
  for (std::uint64_t next = 0, s = 0; next < n; ++s) {
    const std::uint64_t count = std::min(shapes[s % std::size(shapes)], n - next);
    const std::vector<Digest> slice(leaves.begin() + static_cast<std::ptrdiff_t>(next),
                                    leaves.begin() + static_cast<std::ptrdiff_t>(next + count));
    const TileCascade::Staged staged = batched.stage(slice);
    ASSERT_EQ(staged.base, next);
    ASSERT_EQ(staged.leaves, slice);
    ASSERT_EQ(batched.size(), next);  // staging changed nothing
    batched.apply(staged);
    EXPECT_THROW(batched.apply(staged), std::logic_error);
    next += count;
    ASSERT_EQ(batched.size(), next);
    if (next <= 2048 || next == n) {
      EXPECT_EQ(staged.root, merkle_root_of(leaf_fn, next)) << "size " << next;
      EXPECT_EQ(batched.root(), staged.root);
    }
  }
  for (unsigned level = 1; level <= 2; ++level) {
    ASSERT_EQ(batched.level_size(level), single.level_size(level));
    for (std::uint64_t e = 0; e < single.level_size(level); ++e) {
      EXPECT_EQ(*batched.entries(level, e, 1), *single.entries(level, e, 1));
    }
  }
  EXPECT_EQ(batched.accumulator().frontier(), acc.frontier());
}

/// Counts the tile entries (and fallback leaves) one proof reads.
class CountingTileSource : public TileSource {
 public:
  explicit CountingTileSource(TileSource& inner) : inner_(inner) {}

  [[nodiscard]] std::uint64_t paged_leaves() const override { return inner_.paged_leaves(); }
  bool entries(unsigned level, std::uint64_t first, std::uint64_t count,
               TilePageView& out) override {
    if (!inner_.entries(level, first, count, out)) return false;
    touched_ += count;
    return true;
  }
  Digest leaf(std::uint64_t index) override {
    ++touched_;
    return inner_.leaf(index);
  }

  std::uint64_t take_touched() { return std::exchange(touched_, 0); }

 private:
  TileSource& inner_;
  std::uint64_t touched_ = 0;
};

TEST(TiledProofTest, ProofsTouchLogarithmicallyManyEntries) {
  // The deterministic O(log n) gate: a proof reads at most one run of at
  // most 255 entries per tile level for its perfect siblings, and as much
  // again for the one imperfect subtree on the right edge.
  constexpr std::uint64_t kMax = 1000000;
  std::vector<Digest> leaves(kMax);
  for (std::uint64_t i = 0; i < kMax; ++i) {
    for (unsigned b = 0; b < 8; ++b) leaves[i][b] = static_cast<std::uint8_t>(i >> (8 * b));
  }
  const std::vector<std::uint64_t> sizes{1000, 4097, 65537, 100003, 999999, kMax};
  TileCascade upper;
  std::vector<Digest> roots;
  for (const Digest& leaf : leaves) {
    upper.append(leaf);
    if (std::find(sizes.begin(), sizes.end(), upper.size()) != sizes.end()) {
      roots.push_back(upper.root());
    }
  }
  LogTileSource resident(upper, leaves.size(), [&leaves](std::uint64_t first, std::uint64_t) {
    return &leaves[static_cast<std::size_t>(first)];
  });
  CountingTileSource source(resident);
  std::mt19937_64 rng(0x10C);
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    const std::uint64_t n = sizes[s];
    unsigned tile_levels = 0;
    while ((std::uint64_t{1} << (8 * tile_levels)) < n) ++tile_levels;
    const std::uint64_t bound = 2 * 256 * tile_levels + 2 * std::bit_width(n - 1);
    for (const std::uint64_t index : {std::uint64_t{0}, n / 3, n / 2, n - 1, rng() % n}) {
      const std::vector<Digest> path = tiled_inclusion_path(source, index, n);
      EXPECT_LE(source.take_touched(), bound) << "inclusion of " << index << " at " << n;
      EXPECT_TRUE(verify_inclusion(leaves[static_cast<std::size_t>(index)], index, n, path,
                                   roots[s]));
    }
    for (std::size_t o = 0; o < s; ++o) {
      const std::vector<Digest> proof = tiled_consistency_path(source, sizes[o], n);
      EXPECT_LE(source.take_touched(), bound) << "consistency " << sizes[o] << " -> " << n;
      EXPECT_TRUE(verify_consistency(sizes[o], n, roots[o], roots[s], proof));
    }
    for (const std::uint64_t old_size : {std::uint64_t{1}, n / 2 + 1, n - 1, 1 + rng() % n}) {
      (void)tiled_consistency_path(source, old_size, n);
      EXPECT_LE(source.take_touched(), bound) << "consistency " << old_size << " -> " << n;
    }
    EXPECT_EQ(tiled_root(source, n), roots[s]);
  }
}

}  // namespace
}  // namespace ctwatch::ct
