// Tile-addressed RFC 6962 proof math — the one proof path, O(log n).
//
// Every log in the library proves here. Level 0 comes from the log's own
// leaves (MerkleTree's vector, LogService's chunked leaf store or, below
// a paged-reads boundary, the storage tile cache), and levels >= 1 from
// the log's one ct::TileCascade (merkle.hpp) — the store's, when the log
// is storage-backed. The hashes live in 256-wide tiles: level 0 holds
// leaf hashes, and entry e of level L is the root of the perfect subtree
// over leaves [e·256^L, (e+1)·256^L) — the entries the RootAccumulator's
// sink reports as it appends. Instead of rebuilding every sibling subtree
// from the leaves (the O(n) recursion merkle.hpp keeps as the reference
// oracle), this header short-circuits every perfect subtree that tile
// entries already name:
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
#include <stdexcept>
#include <utility>
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

/// The TileSource of one log: levels >= 1 from its TileCascade, level 0
/// from `level0(first, count)` — a pointer to that run of leaf hashes, or
/// nullptr — below the watermark `leaves`. leaf() reads level 0 too and
/// throws std::runtime_error when the run is unavailable.
template <typename Level0>
class LogTileSource final : public TileSource {
 public:
  LogTileSource(const TileCascade& cascade, std::uint64_t leaves, Level0 level0)
      : cascade_(cascade), leaves_(leaves), level0_(std::move(level0)) {}

  [[nodiscard]] std::uint64_t paged_leaves() const override { return leaves_; }
  bool entries(unsigned level, std::uint64_t first, std::uint64_t count,
               TilePageView& out) override {
    const Digest* run = level > 0                  ? cascade_.entries(level, first, count)
                        : first + count <= leaves_ ? level0_(first, count)
                                                   : nullptr;
    if (run == nullptr) return false;
    out = {run, count};
    return true;
  }
  Digest leaf(std::uint64_t index) override {
    TilePageView run;
    if (!entries(0, index, 1, run)) throw std::runtime_error("tiled: leaf hash unavailable");
    return *run.entries;
  }

 private:
  const TileCascade& cascade_;
  std::uint64_t leaves_;
  Level0 level0_;
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
