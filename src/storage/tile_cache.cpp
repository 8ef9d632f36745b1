#include "ctwatch/storage/tile_cache.hpp"

#include <utility>

#include "ctwatch/obs/metrics.hpp"

namespace ctwatch::storage {

namespace {

struct CacheMetrics {
  obs::Counter& hits = obs::Registry::global().counter("storage.tile_cache.hits");
  obs::Counter& misses = obs::Registry::global().counter("storage.tile_cache.misses");
  obs::Counter& evictions = obs::Registry::global().counter("storage.tile_cache.evictions");
  obs::Gauge& bytes = obs::Registry::global().gauge("storage.tile_cache.bytes");
  obs::Gauge& pinned = obs::Registry::global().gauge("storage.tile_cache.pinned");
  obs::LogLinearHistogram& fetch_us =
      obs::Registry::global().latency("storage.tile_cache.fetch_us");
};

CacheMetrics& metrics() {
  static CacheMetrics m;
  return m;
}

constexpr std::uint64_t cache_key(unsigned level, std::uint64_t tile) {
  // Tile indices are < 2^48 for any conceivable tree (256^6 leaves);
  // levels fit the top 16 bits.
  return (static_cast<std::uint64_t>(level) << 48) ^ tile;
}

/// Resident cost of one cached page: the page struct plus its hash array.
std::size_t page_bytes(const TilePage& page) {
  return sizeof(TilePage) + page.leaves.size() * sizeof(crypto::Digest);
}

}  // namespace

std::optional<TileDirectory::Location> TileDirectory::lookup(unsigned level,
                                                             std::uint64_t tile) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (level >= levels_.size()) return std::nullopt;
  const auto& row = levels_[level];
  if (tile >= row.size()) return std::nullopt;
  const Location& loc = row[static_cast<std::size_t>(tile)];
  if (loc.count == 0) return std::nullopt;
  return Location{loc.offset - 1, loc.count};
}

void TileDirectory::record(unsigned level, std::uint64_t tile, std::uint64_t offset,
                           std::uint32_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  if (level >= levels_.size()) levels_.resize(level + 1);
  auto& row = levels_[level];
  if (tile >= row.size()) row.resize(static_cast<std::size_t>(tile) + 1);
  row[static_cast<std::size_t>(tile)] = Location{offset + 1, count};
}

std::uint64_t TileDirectory::pages_at_level(unsigned level) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (level >= levels_.size()) return 0;
  // Pages are recorded densely from tile 0 upward; the row's size is the
  // page count as long as every slot is populated (recovery enforces it).
  return levels_[level].size();
}

unsigned TileDirectory::levels() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<unsigned>(levels_.size());
}

TileCache::TileCache(std::shared_ptr<const RandomReadFile> file,
                     std::shared_ptr<const TileDirectory> directory, TileCacheOptions options)
    : file_(std::move(file)), directory_(std::move(directory)) {
  const unsigned shards = options.shards == 0 ? 1 : options.shards;
  shard_budget_ = options.byte_budget / shards;
  if (shard_budget_ < kTilePageBytes) shard_budget_ = kTilePageBytes;
  shards_.reserve(shards);
  for (unsigned i = 0; i < shards; ++i) shards_.push_back(std::make_unique<Shard>());
}

TileCache::~TileCache() {
  metrics().bytes.add(-static_cast<std::int64_t>(bytes_.load(std::memory_order_relaxed)));
}

std::shared_ptr<const TilePage> TileCache::load(unsigned level, std::uint64_t tile,
                                                const TileDirectory::Location& loc) {
  obs::ScopedTimer timer(metrics().fetch_us);
  Bytes raw(kTilePageBytes);
  const IoResult io = file_->read_at(loc.offset, raw.data(), raw.size());
  if (io.error != IoError::none) return nullptr;
  std::optional<TilePage> page = decode_tile_page(BytesView{raw.data(), raw.size()});
  if (!page.has_value()) return nullptr;
  // The directory promised this exact page; a mismatch means the offset
  // points at some other (valid) page — corruption, not staleness.
  if (page->level != level || page->tile_index != tile || page->count < loc.count) {
    return nullptr;
  }
  return std::make_shared<const TilePage>(std::move(*page));
}

TileCache::PagePtr TileCache::pin(std::shared_ptr<const TilePage> page) {
  if (!page) return nullptr;
  pinned_.fetch_add(1, std::memory_order_relaxed);
  metrics().pinned.add(1);
  std::atomic<std::int64_t>* pinned = &pinned_;
  // Aliasing ctor + custom deleter: the returned pointer shares the
  // page's lifetime but its release decrements the pin gauges.
  return PagePtr(
      std::shared_ptr<void>(nullptr,
                            [page, pinned](void*) {
                              pinned->fetch_sub(1, std::memory_order_relaxed);
                              metrics().pinned.add(-1);
                            }),
      page.get());
}

TileCache::PagePtr TileCache::get(unsigned level, std::uint64_t tile, std::uint64_t min_count) {
  const std::uint64_t key = cache_key(level, tile);
  Shard& shard = *shards_[key % shards_.size()];

  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.pages.find(key);
    if (it != shard.pages.end() && it->second.page->count >= min_count) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.pos);
      hits_.fetch_add(1, std::memory_order_relaxed);
      metrics().hits.inc();
      return pin(it->second.page);
    }
  }

  misses_.fetch_add(1, std::memory_order_relaxed);
  metrics().misses.inc();

  const std::optional<TileDirectory::Location> loc = directory_->lookup(level, tile);
  if (!loc.has_value() || loc->count < min_count) return nullptr;

  // Load outside the shard lock: a pread stall must not serialize every
  // reader hashing to this shard.
  std::shared_ptr<const TilePage> page = load(level, tile, *loc);
  if (!page) return nullptr;

  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.pages.find(key);
  if (it != shard.pages.end()) {
    // Racing loader won, or a stale partial page sits cached: keep the
    // fuller of the two (last-wins semantics carried into memory).
    if (it->second.page->count >= page->count) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.pos);
      return pin(it->second.page);
    }
    const std::size_t old_bytes = page_bytes(*it->second.page);
    shard.bytes -= old_bytes;
    bytes_.fetch_sub(old_bytes, std::memory_order_relaxed);
    metrics().bytes.add(-static_cast<std::int64_t>(old_bytes));
    shard.lru.erase(it->second.pos);
    shard.pages.erase(it);
  }

  const std::size_t cost = page_bytes(*page);
  shard.lru.push_front(key);
  shard.pages.emplace(key, Shard::Entry{page, shard.lru.begin()});
  shard.bytes += cost;
  bytes_.fetch_add(cost, std::memory_order_relaxed);
  metrics().bytes.add(static_cast<std::int64_t>(cost));

  while (shard.bytes > shard_budget_ && shard.lru.size() > 1) {
    const std::uint64_t victim = shard.lru.back();
    auto vit = shard.pages.find(victim);
    const std::size_t victim_bytes = page_bytes(*vit->second.page);
    shard.bytes -= victim_bytes;
    bytes_.fetch_sub(victim_bytes, std::memory_order_relaxed);
    metrics().bytes.add(-static_cast<std::int64_t>(victim_bytes));
    shard.lru.pop_back();
    shard.pages.erase(vit);  // pinned readers keep their shared_ptr alive
    evictions_.fetch_add(1, std::memory_order_relaxed);
    metrics().evictions.inc();
  }

  return pin(page);
}

bool PagedLeafSource::entries(unsigned level, std::uint64_t first, std::uint64_t count,
                              ct::TilePageView& out) {
  const std::uint64_t tile = first / kTileLeaves;
  const std::uint64_t offset = first % kTileLeaves;
  const std::uint64_t key = cache_key(level, tile);
  auto it = held_.find(key);
  if (it == held_.end() || it->second->count < offset + count) {
    TileCache::PagePtr fetched = cache_.get(level, tile, offset + count);
    if (!fetched) return false;
    ++fetches_;
    it = held_.insert_or_assign(key, std::move(fetched)).first;
  }
  out.entries = it->second->leaves.data() + offset;
  out.count = count;
  return true;
}

}  // namespace ctwatch::storage
