// The out-of-core tile read path: directory + sharded LRU page cache.
//
// TileDirectory maps (level, tile index) -> byte offset in tiles.seg.
// Recovery builds it with one streaming CRC scan of the segment (the
// append-only last-wins layout means later pages supersede earlier ones);
// the writer extends it at each checkpoint, AFTER the pages it references
// are fsync'd — a directory entry always points at durable, CRC-valid
// bytes, which is what lets readers pread without coordinating with the
// writer.
//
// TileCache is a sharded, ref-counted LRU over those pages:
//
//   * get(level, tile, min_count) returns a pinned shared_ptr page — the
//     page stays valid while any reference is held, even if the LRU
//     evicts it meanwhile (eviction drops the cache's reference; the
//     memory is freed when the last reader lets go). No reader ever
//     observes a page being reused under it.
//   * a cached page whose count is below min_count is stale — a partial
//     tail tile superseded by a fuller rewrite — and is reloaded through
//     the directory (which always names the newest page).
//   * every load CRC-verifies the page (decode_tile_page) and checks it
//     is the page the directory promised; any mismatch returns null and
//     the caller surfaces corruption.
//   * shards bound lock contention: key -> shard by hash; each shard is
//     an independent mutex + LRU list + map with budget/shard bytes.
//
// Observability: storage.tile_cache.{hits,misses,evictions} counters,
// {bytes,pinned} gauges, and a fetch-latency histogram — all live on
// /metrics via the global registry.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "ctwatch/ct/tiled.hpp"
#include "ctwatch/storage/tiles.hpp"

namespace ctwatch::storage {

/// (level, tile) -> location in tiles.seg. Thread-safe: readers look up
/// on cache misses; the single writer records at checkpoint time.
class TileDirectory {
 public:
  struct Location {
    std::uint64_t offset = 0;  ///< byte offset of the page in tiles.seg
    std::uint32_t count = 0;   ///< entries in that page
  };

  [[nodiscard]] std::optional<Location> lookup(unsigned level, std::uint64_t tile) const;

  /// Records (or supersedes — last wins) one page. Writer only, and only
  /// after the page's bytes are durable.
  void record(unsigned level, std::uint64_t tile, std::uint64_t offset, std::uint32_t count);

  /// Leaves covered by level-0 pages: the paged/resident boundary the
  /// proof math short-circuits against. Monotone; published by the
  /// writer after the covering checkpoint is durable.
  [[nodiscard]] std::uint64_t paged_leaves() const {
    return paged_leaves_.load(std::memory_order_acquire);
  }
  void set_paged_leaves(std::uint64_t leaves) {
    paged_leaves_.store(leaves, std::memory_order_release);
  }

  /// Full level-L pages recorded so far (the writer's cascade cursor).
  [[nodiscard]] std::uint64_t pages_at_level(unsigned level) const;
  [[nodiscard]] unsigned levels() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::vector<Location>> levels_;  ///< dense per level, offset+1 (0 = absent)
  std::atomic<std::uint64_t> paged_leaves_{0};
};

struct TileCacheOptions {
  std::size_t byte_budget = std::size_t{64} << 20;  ///< across all shards
  unsigned shards = 8;
};

class TileCache {
 public:
  using PagePtr = std::shared_ptr<const TilePage>;

  TileCache(std::shared_ptr<const RandomReadFile> file,
            std::shared_ptr<const TileDirectory> directory, TileCacheOptions options);
  ~TileCache();

  TileCache(const TileCache&) = delete;
  TileCache& operator=(const TileCache&) = delete;

  /// The page at (level, tile) holding at least `min_count` entries,
  /// pinned. Null when the directory has no (sufficient) page or the
  /// load fails CRC/IO — the caller decides whether that is a recursion
  /// fallthrough (upper levels) or corruption (level 0 below the
  /// watermark).
  PagePtr get(unsigned level, std::uint64_t tile, std::uint64_t min_count);

  [[nodiscard]] const TileDirectory& directory() const { return *directory_; }

  // --- stats (also exported as obs metrics) ---
  [[nodiscard]] std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// Bytes currently held by the cache's own references.
  [[nodiscard]] std::uint64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }
  /// Page references currently handed out and not yet released.
  [[nodiscard]] std::int64_t pinned() const { return pinned_.load(std::memory_order_relaxed); }

 private:
  struct Shard {
    std::mutex mu;
    std::list<std::uint64_t> lru;  ///< most recent at front
    struct Entry {
      std::shared_ptr<const TilePage> page;
      std::list<std::uint64_t>::iterator pos;
    };
    std::unordered_map<std::uint64_t, Entry> pages;
    std::size_t bytes = 0;
  };

  [[nodiscard]] PagePtr pin(std::shared_ptr<const TilePage> page);
  [[nodiscard]] std::shared_ptr<const TilePage> load(unsigned level, std::uint64_t tile,
                                                     const TileDirectory::Location& loc);

  std::shared_ptr<const RandomReadFile> file_;
  std::shared_ptr<const TileDirectory> directory_;
  std::size_t shard_budget_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::int64_t> pinned_{0};
};

/// Bridges ct::TileSource (the tiled proof math) to a TileCache plus a
/// resident-tail accessor. One per query, stack-constructed: every page
/// it returns stays pinned until the source dies, so TilePageViews are
/// valid across the whole proof; the paged watermark is snapshotted at
/// construction so a concurrent checkpoint cannot shear one query.
///
/// `tail(i)` serves any index the pages cannot — the unsealed resident
/// tail. The math only reaches it for i at or past the watermark (or
/// after a page *below* the watermark failed to load, which the tail fn
/// should surface by throwing: the httpd layer maps that to a 500).
class PagedLeafSource : public ct::TileSource {
 public:
  using TailFn = std::function<crypto::Digest(std::uint64_t)>;

  PagedLeafSource(TileCache& cache, std::uint64_t paged_leaves, TailFn tail)
      : cache_(cache), paged_(paged_leaves), tail_(std::move(tail)) {}

  [[nodiscard]] std::uint64_t paged_leaves() const override { return paged_; }
  bool entries(unsigned level, std::uint64_t first, std::uint64_t count,
               ct::TilePageView& out) override;
  crypto::Digest leaf(std::uint64_t index) override { return tail_(index); }

  /// Distinct pages fetched from the cache so far — what one proof cost.
  [[nodiscard]] std::uint64_t page_fetches() const { return fetches_; }

 private:
  TileCache& cache_;
  std::uint64_t paged_;
  TailFn tail_;
  std::unordered_map<std::uint64_t, TileCache::PagePtr> held_;  ///< pins per (level,tile)
  std::uint64_t fetches_ = 0;
};

}  // namespace ctwatch::storage
