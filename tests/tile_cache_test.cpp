// The out-of-core read path: TileDirectory last-wins lookups, the
// sharded ref-counted TileCache (hit/miss/eviction accounting, pinned
// pages surviving eviction, stale-partial-page refresh, fail-closed
// corruption), SegmentReader sparse-indexed windows, LogStore recovery
// residency bounds (O(WAL tail), both verify modes), LogService paged
// read mode parity against the resident path (proofs straddling the
// paged/resident boundary byte-identically), and concurrent readers
// hammering a deliberately tiny cache while the writer checkpoints —
// the test TSAN gates.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "ctwatch/ct/merkle.hpp"
#include "ctwatch/ct/tiled.hpp"
#include "ctwatch/logsvc/service.hpp"
#include "ctwatch/storage/codec.hpp"
#include "ctwatch/storage/file.hpp"
#include "ctwatch/storage/log_store.hpp"
#include "ctwatch/storage/segment_reader.hpp"
#include "ctwatch/storage/tile_cache.hpp"
#include "ctwatch/storage/tiles.hpp"
#include "ctwatch/storage/wal.hpp"

namespace ctwatch::storage {
namespace {

using namespace std::chrono_literals;

struct TempDir {
  std::string path;
  explicit TempDir(const std::string& tag) {
    std::string tmpl = "ctwatch_" + tag + ".XXXXXX";
    path = ::mkdtemp(tmpl.data());
    EXPECT_FALSE(path.empty());
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

crypto::Digest digest_of(const std::string& s) { return crypto::Sha256::hash(to_bytes(s)); }

DurableEntry test_entry(std::uint64_t index) {
  DurableEntry entry;
  entry.index = index;
  entry.timestamp_ms = 1000 + index;
  entry.leaf_hash = digest_of("leaf-" + std::to_string(index));
  entry.fingerprint = digest_of("fp-" + std::to_string(index));
  entry.issuer_cn = "CA " + std::to_string(index % 3);
  entry.has_body = false;
  return entry;
}

ct::SignedTreeHead test_sth(const ct::RootAccumulator& acc, std::uint64_t ts) {
  ct::SignedTreeHead sth;
  sth.tree_size = acc.size();
  sth.timestamp_ms = ts;
  sth.root_hash = acc.root();
  sth.signature.scheme = crypto::SignatureScheme::hmac_sha256_simulated;
  sth.signature.data = to_bytes("sth-sig-" + std::to_string(acc.size()));
  return sth;
}

/// Commits one sealed batch of `count` entries extending the store.
void commit_batch_of(LogStore& store, std::uint64_t count) {
  BatchCommit batch;
  ct::RootAccumulator probe = store.cascade().accumulator();
  for (std::uint64_t i = 0; i < count; ++i) {
    DurableEntry entry = test_entry(store.tree_size() + i);
    probe.add(entry.leaf_hash);
    batch.entries.push_back(std::move(entry));
  }
  batch.sth = test_sth(probe, batch.entries.back().timestamp_ms);
  batch.seal_seq = store.seal_seq() + 1;
  ASSERT_TRUE(store.commit_batch(batch).ok());
}

/// A tiles.seg built by hand: `pages` are (level, tile, first_leaf_ordinal,
/// count) tuples encoded in order; returns the shared read handle.
struct TileFixture {
  std::unique_ptr<Env> env;
  std::shared_ptr<TileDirectory> directory = std::make_shared<TileDirectory>();
  std::shared_ptr<RandomReadFile> read;
  std::vector<crypto::Digest> leaves;

  explicit TileFixture(const std::string& dir, std::uint64_t leaf_count) {
    Env::Options options;
    options.dir = dir;
    env = Env::open(options);
    EXPECT_NE(env, nullptr);
    for (std::uint64_t i = 0; i < leaf_count; ++i) {
      leaves.push_back(digest_of("tile-leaf-" + std::to_string(i)));
    }
  }

  /// Appends one page, records it in the directory, returns its offset.
  std::uint64_t append_page(File& file, unsigned level, std::uint64_t tile,
                            const crypto::Digest* entries, std::uint32_t count,
                            bool record = true) {
    const std::uint64_t offset = file.size();
    Bytes page;
    encode_tile_page(page, tile, entries, count, level);
    EXPECT_TRUE(file.append(page).ok());
    if (record) directory->record(level, tile, offset, count);
    return offset;
  }
};

// ---------------------------------------------------------------------------
// TileDirectory + TileCache
// ---------------------------------------------------------------------------

TEST(StorageTileCacheTest, DirectoryLastWinsAndWatermark) {
  TileDirectory directory;
  EXPECT_FALSE(directory.lookup(0, 0).has_value());
  directory.record(0, 0, 0, 100);
  directory.record(0, 0, kTilePageBytes, 256);  // supersedes
  directory.record(1, 0, 2 * kTilePageBytes, 256);
  const auto loc = directory.lookup(0, 0);
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->offset, kTilePageBytes);
  EXPECT_EQ(loc->count, 256u);
  EXPECT_TRUE(directory.lookup(1, 0).has_value());
  EXPECT_FALSE(directory.lookup(0, 1).has_value());
  EXPECT_FALSE(directory.lookup(2, 0).has_value());
  EXPECT_EQ(directory.levels(), 2u);
  EXPECT_EQ(directory.pages_at_level(0), 1u);

  EXPECT_EQ(directory.paged_leaves(), 0u);
  directory.set_paged_leaves(256);
  EXPECT_EQ(directory.paged_leaves(), 256u);
}

TEST(StorageTileCacheTest, HitMissEvictionAndPinnedPagesSurvive) {
  TempDir dir("cache");
  TileFixture fx(dir.path, 3 * kTileLeaves);
  auto tiles = fx.env->open_append("tiles.seg", 0);
  ASSERT_NE(tiles, nullptr);
  for (std::uint64_t t = 0; t < 3; ++t) {
    fx.append_page(*tiles, 0, t, fx.leaves.data() + t * kTileLeaves, kTileLeaves);
  }
  ASSERT_TRUE(tiles->sync().ok());  // preads only see synced bytes
  fx.read = fx.env->open_read("tiles.seg");
  ASSERT_NE(fx.read, nullptr);

  TileCacheOptions options;
  options.byte_budget = 3 * kTilePageBytes;  // ~2 pages once struct overhead counts
  options.shards = 1;
  TileCache cache(fx.read, fx.directory, options);

  TileCache::PagePtr p0 = cache.get(0, 0, kTileLeaves);
  ASSERT_NE(p0, nullptr);
  EXPECT_EQ(p0->leaves[5], fx.leaves[5]);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.pinned(), 1);

  ASSERT_NE(cache.get(0, 1, kTileLeaves), nullptr);
  ASSERT_NE(cache.get(0, 0, kTileLeaves), nullptr);  // hit, moves tile 0 to front
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.evictions(), 0u);

  // Tile 2 overflows the budget: the LRU victim is tile 1.
  ASSERT_NE(cache.get(0, 2, kTileLeaves), nullptr);
  EXPECT_EQ(cache.evictions(), 1u);
  const std::uint64_t misses_before = cache.misses();
  ASSERT_NE(cache.get(0, 1, kTileLeaves), nullptr);  // reload
  EXPECT_EQ(cache.misses(), misses_before + 1);

  // The pinned page survived every eviction above: its bytes are intact
  // no matter what the cache did, and releasing it drops the pin count.
  EXPECT_EQ(p0->leaves[255], fx.leaves[255]);
  p0.reset();
  EXPECT_EQ(cache.pinned(), 0);
  EXPECT_GT(cache.bytes(), 0u);
}

TEST(StorageTileCacheTest, StalePartialPageRefreshesThroughDirectory) {
  TempDir dir("stale");
  TileFixture fx(dir.path, kTileLeaves);
  auto tiles = fx.env->open_append("tiles.seg", 0);
  ASSERT_NE(tiles, nullptr);
  fx.append_page(*tiles, 0, 0, fx.leaves.data(), 100);
  ASSERT_TRUE(tiles->sync().ok());
  fx.read = fx.env->open_read("tiles.seg");
  TileCache cache(fx.read, fx.directory, TileCacheOptions{});

  ASSERT_NE(cache.get(0, 0, 100), nullptr);
  EXPECT_EQ(cache.get(0, 0, 101), nullptr);  // the directory has no such page

  // The writer supersedes the partial page (checkpoint grew the tile) and
  // publishes it: the cached 100-entry page is now stale for deeper asks.
  fx.append_page(*tiles, 0, 0, fx.leaves.data(), 200);
  ASSERT_TRUE(tiles->sync().ok());
  TileCache::PagePtr fuller = cache.get(0, 0, 150);
  ASSERT_NE(fuller, nullptr);
  EXPECT_EQ(fuller->count, 200u);
  EXPECT_EQ(fuller->leaves[199], fx.leaves[199]);
  // And a shallow ask now serves the refreshed page from cache.
  TileCache::PagePtr shallow = cache.get(0, 0, 50);
  ASSERT_NE(shallow, nullptr);
  EXPECT_EQ(shallow->count, 200u);
}

TEST(StorageTileCacheTest, CorruptOrMismatchedPagesFailClosed) {
  TempDir dir("corruptpage");
  TileFixture fx(dir.path, kTileLeaves);
  auto tiles = fx.env->open_append("tiles.seg", 0);
  ASSERT_NE(tiles, nullptr);
  const std::uint64_t good = fx.append_page(*tiles, 0, 0, fx.leaves.data(), kTileLeaves);
  // A well-framed page is at `good`; garbage follows it.
  const std::uint64_t garbage = tiles->size();
  ASSERT_TRUE(tiles->append(Bytes(kTilePageBytes, 0xAB)).ok());
  ASSERT_TRUE(tiles->sync().ok());
  fx.read = fx.env->open_read("tiles.seg");
  TileCache cache(fx.read, fx.directory, TileCacheOptions{});

  // Directory points a tile at garbage bytes: CRC fails, the get fails
  // closed instead of serving junk hashes.
  fx.directory->record(0, 1, garbage, 10);
  EXPECT_EQ(cache.get(0, 1, 1), nullptr);
  // Directory points tile 9 at tile 0's (valid) page: the page identity
  // check refuses — a wrong offset is corruption, not staleness.
  fx.directory->record(0, 9, good, 1);
  EXPECT_EQ(cache.get(0, 9, 1), nullptr);
  // The honestly-recorded page still serves.
  EXPECT_NE(cache.get(0, 0, kTileLeaves), nullptr);
}

// ---------------------------------------------------------------------------
// SegmentReader
// ---------------------------------------------------------------------------

TEST(StorageSegmentReaderTest, ReadsWindowsFromSparseMarks) {
  TempDir dir("segread");
  Env::Options eo;
  eo.dir = dir.path;
  auto env = Env::open(eo);
  auto seg = env->open_append("entries.seg", 0);
  ASSERT_NE(seg, nullptr);

  constexpr std::uint64_t kCount = 200;
  std::vector<std::uint64_t> offsets;
  Bytes image;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    offsets.push_back(image.size());
    wal_frame(image, RecordType::entry, encode_entry(test_entry(i)));
  }
  ASSERT_TRUE(seg->append(image).ok());
  ASSERT_TRUE(seg->sync().ok());

  SegmentReader reader(env->open_read("entries.seg"), 8);
  for (std::uint64_t i = 0; i < kCount; i += 8) reader.add_mark(i, offsets[i]);
  reader.set_coverage(kCount, image.size());
  EXPECT_EQ(reader.entries(), kCount);

  std::vector<DurableEntry> out;
  ASSERT_EQ(reader.read(0, 10, out), IoError::none);
  ASSERT_EQ(out.size(), 10u);
  EXPECT_EQ(out[9].index, 9u);
  EXPECT_EQ(out[9].leaf_hash, test_entry(9).leaf_hash);

  // A window between marks: seek to mark 56, skip to 61.
  out.clear();
  ASSERT_EQ(reader.read(61, 5, out), IoError::none);
  ASSERT_EQ(out.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(out[i].index, 61 + i);

  out.clear();
  ASSERT_EQ(reader.read(kCount - 3, 3, out), IoError::none);
  EXPECT_EQ(out.size(), 3u);
  // Beyond coverage is the caller's bug, surfaced hard.
  EXPECT_EQ(reader.read(kCount - 3, 4, out), IoError::corrupt);
  EXPECT_EQ(reader.read(kCount, 1, out), IoError::corrupt);
  // Zero-count is a no-op, not an error.
  EXPECT_EQ(reader.read(kCount, 0, out), IoError::none);
}

TEST(StorageSegmentReaderTest, CorruptFrameSurfacesAsCorrupt) {
  TempDir dir("segcorrupt");
  Env::Options eo;
  eo.dir = dir.path;
  auto env = Env::open(eo);
  auto seg = env->open_append("entries.seg", 0);
  ASSERT_NE(seg, nullptr);
  Bytes image;
  std::vector<std::uint64_t> offsets;
  for (std::uint64_t i = 0; i < 20; ++i) {
    offsets.push_back(image.size());
    wal_frame(image, RecordType::entry, encode_entry(test_entry(i)));
  }
  image[offsets[10] + 12] ^= 0x01;  // flip a byte inside frame 10's payload
  ASSERT_TRUE(seg->append(image).ok());
  ASSERT_TRUE(seg->sync().ok());

  SegmentReader reader(env->open_read("entries.seg"), 4);
  for (std::uint64_t i = 0; i < 20; i += 4) reader.add_mark(i, offsets[i]);
  reader.set_coverage(20, image.size());

  std::vector<DurableEntry> out;
  ASSERT_EQ(reader.read(0, 10, out), IoError::none);  // stops before the damage
  out.clear();
  EXPECT_EQ(reader.read(10, 1, out), IoError::corrupt);
  out.clear();
  // A scan that must pass THROUGH the corrupt frame also refuses, even
  // when the requested records are intact further on.
  EXPECT_EQ(reader.read(9, 3, out), IoError::corrupt);
  out.clear();
  // Windows entirely behind a later mark never touch the damage.
  EXPECT_EQ(reader.read(12, 4, out), IoError::none);
  EXPECT_EQ(out.size(), 4u);
}

// ---------------------------------------------------------------------------
// LogStore: out-of-core recovery + paged reads
// ---------------------------------------------------------------------------

TEST(StoragePagedStoreTest, RecoveryKeepsOnlyTheWalTailResident) {
  TempDir dir("tailbound");
  LogStoreOptions options;
  options.dir = dir.path;
  options.checkpoint_interval_batches = 0;
  std::vector<crypto::Digest> leaves;
  for (std::uint64_t i = 0; i < 607; ++i) leaves.push_back(test_entry(i).leaf_hash);
  {
    LogStore::Open open = LogStore::open(options);
    ASSERT_NE(open.store, nullptr) << open.detail;
    for (int b = 0; b < 12; ++b) commit_batch_of(*open.store, 50);  // 600 leaves
    ASSERT_TRUE(open.store->checkpoint().ok());
    commit_batch_of(*open.store, 7);  // the WAL tail
    open.store->env().crash_now();
  }

  for (const auto verify : {LogStoreOptions::Verify::full, LogStoreOptions::Verify::structural}) {
    SCOPED_TRACE(verify == LogStoreOptions::Verify::full ? "full" : "structural");
    LogStoreOptions reopen = options;
    reopen.recovery_verify = verify;
    LogStore::Open recovered = LogStore::open(reopen);
    ASSERT_NE(recovered.store, nullptr) << recovered.detail;
    LogStore& store = *recovered.store;
    EXPECT_EQ(store.tree_size(), 607u);
    EXPECT_EQ(store.recovery().checkpoint_tree_size, 600u);
    EXPECT_EQ(store.paged_leaves(), 600u);
    EXPECT_EQ(store.paged_entries(), 600u);
    ASSERT_EQ(store.wal_tail().size(), 7u);
    EXPECT_EQ(store.wal_tail()[0].index, 600u);

    // THE out-of-core invariant: residency is the checkpoint's partial
    // tile plus the WAL tail — never the 600-leaf checkpointed prefix.
    EXPECT_EQ(store.tail_base(), 512u);  // 600 floored to the tile grid
    EXPECT_EQ(store.resident_leaves(), 95u);  // 607 - 512
    EXPECT_LT(store.resident_leaves(), store.recovery().checkpoint_tree_size);
    EXPECT_EQ(store.tail_leaf(606), leaves[606]);
    EXPECT_EQ(store.tail_leaf(512), leaves[512]);

    // stream_paged_leaves walks the durable prefix in page chunks.
    std::vector<crypto::Digest> streamed;
    ASSERT_EQ(store.stream_paged_leaves(
                  0, 600,
                  [&](std::uint64_t first, const crypto::Digest* hashes, std::uint64_t n) {
                    EXPECT_EQ(first, streamed.size());
                    streamed.insert(streamed.end(), hashes, hashes + n);
                    return true;
                  }),
              IoError::none);
    ASSERT_EQ(streamed.size(), 600u);
    for (std::uint64_t i = 0; i < 600; ++i) EXPECT_EQ(streamed[i], leaves[i]);
    // Early stop is a success, not an error.
    std::uint64_t chunks = 0;
    ASSERT_EQ(store.stream_paged_leaves(0, 600,
                                        [&](std::uint64_t, const crypto::Digest*, std::uint64_t) {
                                          return ++chunks < 2;
                                        }),
              IoError::none);
    EXPECT_EQ(chunks, 2u);

    // Tiled proofs through the store's own leaf source are byte-identical
    // to the resident recursion over the same leaves.
    const auto leaf_fn = [&](std::uint64_t i) -> const crypto::Digest& {
      return leaves[static_cast<std::size_t>(i)];
    };
    for (const std::uint64_t index : {0ull, 255ull, 511ull, 512ull, 599ull, 606ull}) {
      PagedLeafSource source = store.leaf_source();
      EXPECT_EQ(ct::tiled_inclusion_path(source, index, 607),
                ct::merkle_inclusion_path(leaf_fn, index, 607))
          << "index=" << index;
    }
    {
      PagedLeafSource source = store.leaf_source();
      EXPECT_EQ(ct::tiled_root(source, 607), store.cascade().accumulator().root());
    }

    // Crash instead of closing: no checkpoint runs, the next verify mode
    // (and the writable reopen below) sees the identical disk image.
    store.env().crash_now();
  }

  // The store keeps working after out-of-core recovery: the tile cascade
  // cursor was rebuilt, so further commits and checkpoints are sound.
  LogStore::Open writable = LogStore::open(options);
  ASSERT_NE(writable.store, nullptr) << writable.detail;
  commit_batch_of(*writable.store, 1);
  ASSERT_TRUE(writable.store->checkpoint().ok());
  EXPECT_EQ(writable.store->paged_leaves(), 608u);
  EXPECT_EQ(writable.store->tail_base(), 512u);
  EXPECT_EQ(writable.store->resident_leaves(), 96u);
  ASSERT_TRUE(writable.store->close().ok());
}

// ---------------------------------------------------------------------------
// LogService paged reads
// ---------------------------------------------------------------------------

logsvc::Config service_config(const std::string& name, LogStore* store) {
  logsvc::Config config;
  config.name = name;
  config.scheme = crypto::SignatureScheme::hmac_sha256_simulated;
  config.merge_delay = 200us;
  config.store_bodies = false;
  config.storage = store;
  return config;
}

ct::SignedEntry entry_of(const std::string& tag, std::uint64_t n) {
  ct::SignedEntry entry;
  entry.type = ct::EntryType::x509_entry;
  entry.data = to_bytes(tag + "-" + std::to_string(n));
  return entry;
}

ct::SubmitResult submit_wait(logsvc::LogService& service, const std::string& tag,
                             std::uint64_t n) {
  std::promise<ct::SubmitResult> promise;
  auto future = promise.get_future();
  const ct::SubmitStatus status = service.submit(
      entry_of(tag, n), digest_of(tag + "-fp-" + std::to_string(n)), "Paged CA",
      SimTime::parse("2018-04-01"),
      [&promise](const ct::SubmitResult& outcome) { promise.set_value(outcome); });
  if (status != ct::SubmitStatus::ok) return ct::SubmitResult{status, 0, std::nullopt};
  return future.get();
}

TEST(StoragePagedServiceTest, PagedReadsMatchResidentPathAcrossTheBoundary) {
  TempDir dir("pagedsvc");
  LogStoreOptions options;
  options.dir = dir.path;
  options.checkpoint_interval_batches = 0;  // one checkpoint, at stop()
  std::vector<crypto::Digest> leaves;
  constexpr std::uint64_t kCheckpointed = 600;
  constexpr std::uint64_t kLive = 50;
  {
    LogStore::Open open = LogStore::open(options);
    ASSERT_NE(open.store, nullptr) << open.detail;
    logsvc::LogService service(service_config("Paged Log", open.store.get()));
    for (std::uint64_t i = 0; i < kCheckpointed; ++i) {
      const ct::SubmitResult outcome = submit_wait(service, "gen1", i);
      ASSERT_EQ(outcome.status, ct::SubmitStatus::ok);
      ASSERT_EQ(outcome.index, i);
      leaves.push_back(service.leaf_hash_at(i));
    }
    service.stop();  // checkpoints: all 600 become paged
    ASSERT_TRUE(open.store->close().ok());
  }

  LogStore::Open open = LogStore::open(options);
  ASSERT_NE(open.store, nullptr) << open.detail;
  EXPECT_EQ(open.store->paged_entries(), kCheckpointed);
  EXPECT_TRUE(open.store->wal_tail().empty());

  logsvc::Config config = service_config("Paged Log", open.store.get());
  logsvc::LogService service(config);
  EXPECT_EQ(service.resident_base(), kCheckpointed);
  EXPECT_EQ(service.tree_size(), kCheckpointed);

  // Live submissions past the boundary: proofs now straddle paged pages
  // and the resident tail.
  for (std::uint64_t i = 0; i < kLive; ++i) {
    const ct::SubmitResult outcome = submit_wait(service, "gen2", i);
    ASSERT_EQ(outcome.status, ct::SubmitStatus::ok);
    ASSERT_EQ(outcome.index, kCheckpointed + i);
    leaves.push_back(service.leaf_hash_at(kCheckpointed + i));
  }
  const std::uint64_t size = kCheckpointed + kLive;
  ASSERT_EQ(service.tree_size(), size);

  // Ground truth: the resident recursion over the recorded leaf hashes.
  const auto leaf_fn = [&](std::uint64_t i) -> const crypto::Digest& {
    return leaves[static_cast<std::size_t>(i)];
  };
  const ct::SignedTreeHead sth = service.get_sth();
  EXPECT_EQ(sth.tree_size, size);
  EXPECT_EQ(sth.root_hash, ct::merkle_root_of(leaf_fn, size));

  for (const std::uint64_t index :
       {std::uint64_t{0}, std::uint64_t{300}, std::uint64_t{511}, std::uint64_t{512},
        kCheckpointed - 1, kCheckpointed, size - 1}) {
    const std::vector<crypto::Digest> proof = service.inclusion_proof(index, size);
    EXPECT_EQ(proof, ct::merkle_inclusion_path(leaf_fn, index, size)) << "index=" << index;
    EXPECT_TRUE(ct::verify_inclusion(leaves[static_cast<std::size_t>(index)], index, size, proof,
                                     sth.root_hash));
  }
  for (const std::uint64_t old_size :
       {std::uint64_t{1}, std::uint64_t{123}, std::uint64_t{512}, kCheckpointed, size}) {
    EXPECT_EQ(service.consistency_proof(old_size, size),
              ct::merkle_consistency_path(leaf_fn, old_size, size))
        << "old=" << old_size;
  }
  // Stale-size proofs (old snapshots) keep working below the boundary.
  EXPECT_EQ(service.inclusion_proof(42, 500), ct::merkle_inclusion_path(leaf_fn, 42, 500));

  // leaf_hash_at serves both sides of the boundary.
  EXPECT_EQ(service.leaf_hash_at(0), leaves[0]);
  EXPECT_EQ(service.leaf_hash_at(kCheckpointed - 1), leaves[kCheckpointed - 1]);
  EXPECT_EQ(service.leaf_hash_at(size - 1), leaves[size - 1]);
  EXPECT_THROW((void)service.leaf_hash_at(size), std::out_of_range);

  // get-entries: paged-only, straddling, resident-only, clamped.
  std::vector<ct::LogEntry> records = service.get_entries(0, 5);
  ASSERT_EQ(records.size(), 5u);
  EXPECT_EQ(records[4].index, 4u);
  records = service.get_entries(kCheckpointed - 10, 20);
  ASSERT_EQ(records.size(), 20u);
  for (std::uint64_t i = 0; i < 20; ++i) {
    EXPECT_EQ(records[i].index, kCheckpointed - 10 + i);
  }
  EXPECT_EQ(records[9].fingerprint, digest_of("gen1-fp-" + std::to_string(kCheckpointed - 1)));
  EXPECT_EQ(records[10].fingerprint, digest_of("gen2-fp-0"));
  records = service.get_entries(size - 3, 100);
  EXPECT_EQ(records.size(), 3u);  // clamped at the published size
  EXPECT_TRUE(service.get_entries(size, 10).empty());

  // get-proof-by-hash: the resident map answers tail hashes immediately;
  // the first paged-hash lookup pays the lazy streaming rebuild.
  EXPECT_EQ(service.leaf_index_of(leaves[kCheckpointed + 3]), kCheckpointed + 3);
  EXPECT_EQ(service.leaf_index_of(leaves[42]), 42u);
  EXPECT_EQ(service.leaf_index_of(leaves[599]), 599u);
  EXPECT_EQ(service.leaf_index_of(digest_of("never-integrated")), std::nullopt);

  service.stop();
}

TEST(StoragePagedServiceTest, ConcurrentReadersSurviveEvictionChurn) {
  // TSAN target: readers resolve tiled proofs through a cache whose
  // budget holds ~one page (every get is an eviction fight) while the
  // writer keeps committing and checkpointing — directory records, index
  // marks, and the paged watermark all advance under the readers.
  TempDir dir("churn");
  LogStoreOptions options;
  options.dir = dir.path;
  options.checkpoint_interval_batches = 0;
  options.tile_cache_bytes = 2 * kTilePageBytes;
  options.tile_cache_shards = 1;
  LogStore::Open open = LogStore::open(options);
  ASSERT_NE(open.store, nullptr) << open.detail;
  LogStore& store = *open.store;

  constexpr std::uint64_t kBase = 1024;  // 4 full tiles
  for (int b = 0; b < 16; ++b) commit_batch_of(store, kBase / 16);
  ASSERT_TRUE(store.checkpoint().ok());
  ASSERT_EQ(store.paged_leaves(), kBase);
  std::vector<crypto::Digest> leaves;
  for (std::uint64_t i = 0; i < kBase; ++i) leaves.push_back(test_entry(i).leaf_hash);
  ct::RootAccumulator base_acc;
  for (const crypto::Digest& leaf : leaves) base_acc.add(leaf);
  const crypto::Digest base_root = base_acc.root();

  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (unsigned t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      std::mt19937_64 rng(0xCAFE + t);
      for (int iter = 0; iter < 150 && !failed.load(); ++iter) {
        const std::uint64_t index = rng() % kBase;
        // Proofs pinned at the pre-churn size touch only durable pages:
        // the tail fn must never fire.
        PagedLeafSource source(store.tile_cache(), kBase, [&](std::uint64_t) -> crypto::Digest {
          failed.store(true);
          return {};
        });
        const std::vector<crypto::Digest> proof =
            ct::tiled_inclusion_path(source, index, kBase);
        if (!ct::verify_inclusion(leaves[static_cast<std::size_t>(index)], index, kBase, proof,
                                  base_root)) {
          failed.store(true);
        }
        std::vector<DurableEntry> out;
        if (store.read_entries(index, 1, out) != IoError::none || out.size() != 1 ||
            out[0].index != index) {
          failed.store(true);
        }
      }
    });
  }
  // The writer: more batches, each followed by a checkpoint that appends
  // pages, republishes directory entries, and advances the watermark.
  for (int b = 0; b < 20; ++b) {
    commit_batch_of(store, 16);
    ASSERT_TRUE(store.checkpoint().ok());
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_FALSE(failed.load());
  EXPECT_FALSE(store.failed());
  EXPECT_GT(store.tile_cache().evictions(), 0u);
  EXPECT_EQ(store.tile_cache().pinned(), 0);
  ASSERT_TRUE(store.close().ok());
}

}  // namespace
}  // namespace ctwatch::storage
