// Tile-addressed RFC 6962 proof math — the one proof path, O(log n).
//
// Every log in the library proves here: MerkleTree over its leaf vector,
// LogService over its chunked leaf store (or, below a paged-reads
// boundary, the storage tile cache). The hashes live in 256-wide tiles:
// level 0 holds leaf hashes, and entry e of level L is the root of the
// perfect subtree over leaves [e·256^L, (e+1)·256^L) — the entries the
// RootAccumulator's sink reports as it appends. Instead of rebuilding
// every sibling subtree from the leaves (the O(n) recursion merkle.hpp
// keeps as the reference oracle), this header short-circuits every
// perfect subtree that tile entries already name:
//
//   MTH(D[i·2^j : (i+1)·2^j])  =  fold of 2^(j mod 8) adjacent entries
//                                 of level j/8 — one run of one tile —
//
// so an inclusion path at size n resolves from ~log2(n) tile runs of at
// most 128 entries each. When a subtree is not covered (it crosses the
// source's watermark, or a level is absent), the recursion falls
// through to the children and ultimately to TileSource::leaf — which is
// why the output is byte-identical to merkle_* by construction: every
// short-circuit replaces a subtree root with the same value the
// recursion would have computed.
//
// TileSource is the seam between this math and where the hashes live:
// the storage adapter pins cache pages for the source's lifetime and
// counts page fetches for the proof_page_fetches histogram.
#pragma once

#include <cstdint>
#include <vector>

#include "ctwatch/ct/merkle.hpp"

namespace ctwatch::ct {

using crypto::Digest;

/// A borrowed run of adjacent tile entries. Valid for as long as the
/// TileSource that produced it (sources pin pages they hand out).
struct TilePageView {
  const Digest* entries = nullptr;
  std::uint64_t count = 0;
};

/// Where tiled proofs get their hashes. One source per query (cheap,
/// stack-constructed); implementations pin every page they return until
/// they are destroyed, so views stay valid across the whole proof.
class TileSource {
 public:
  virtual ~TileSource() = default;

  /// Leaves whose tiles the source serves — the whole tree for a
  /// resident source, the paged prefix for a storage one. Captured once
  /// per query by the implementation; the math only consults entries()
  /// for subtrees entirely below this watermark.
  [[nodiscard]] virtual std::uint64_t paged_leaves() const = 0;

  /// Entries [first, first + count) of `level`, if available. The run
  /// never straddles a tile: count is a power of two below kTileWidth and
  /// first is a multiple of it. Returning false is always safe — the math
  /// recurses into the level below instead (absent upper level, stale
  /// partial page).
  virtual bool entries(unsigned level, std::uint64_t first, std::uint64_t count,
                       TilePageView& out) = 0;

  /// Fallback leaf accessor for any index the tiles cannot serve (the
  /// resident tail, or — if a level-0 page vanished below the watermark —
  /// an error the implementation may surface by throwing).
  virtual Digest leaf(std::uint64_t index) = 0;
};

/// A TileSource over resident hashes: level 0 is `leaves`, level L >= 1
/// is `upper.levels[L-1]`, and the watermark is the whole vector. What
/// MerkleTree proves through.
class ResidentTileSource final : public TileSource {
 public:
  ResidentTileSource(const std::vector<Digest>& leaves, const TileLevels& upper)
      : leaves_(leaves), upper_(upper) {}

  [[nodiscard]] std::uint64_t paged_leaves() const override { return leaves_.size(); }
  bool entries(unsigned level, std::uint64_t first, std::uint64_t count,
               TilePageView& out) override;
  Digest leaf(std::uint64_t index) override { return leaves_[static_cast<std::size_t>(index)]; }

 private:
  const std::vector<Digest>& leaves_;
  const TileLevels& upper_;
};

/// Root of the balanced tree over `count` adjacent perfect-subtree roots
/// (count a power of two; count == 1 returns the entry itself). The fold
/// the tile cascade and the proof math share: entry i of a level-L tile
/// is fold_perfect over 256 entries of the level below.
Digest fold_perfect(const Digest* entries, std::uint64_t count);

/// MTH(D[begin:end]) — byte-identical to merkle_range_root.
Digest tiled_range_root(TileSource& source, std::uint64_t begin, std::uint64_t end);

/// MTH of the first n leaves (empty-tree root when n == 0) — byte-identical
/// to merkle_root_of.
Digest tiled_root(TileSource& source, std::uint64_t n);

/// PATH(m, D[0:tree_size]) — byte-identical to merkle_inclusion_path.
/// The caller must have bounds-checked index < tree_size.
std::vector<Digest> tiled_inclusion_path(TileSource& source, std::uint64_t index,
                                         std::uint64_t tree_size);

/// PROOF(old_size, D[0:new_size]) — byte-identical to
/// merkle_consistency_path. The caller must have bounds-checked
/// old_size <= new_size.
std::vector<Digest> tiled_consistency_path(TileSource& source, std::uint64_t old_size,
                                           std::uint64_t new_size);

}  // namespace ctwatch::ct
