// ctwatch::storage — the durable, crash-recoverable backing store:
// CRC32C vectors, WAL framing and torn-tail semantics, checksummed tile
// pages, the Env's deterministic crash model, LogStore commit /
// checkpoint / recovery (including every recovery edge the design calls
// out: empty WAL, unsealed entries, torn tails, crash before the first
// seal, crashes inside the checkpoint protocol, double reopen), and the
// LogService integration — adoption, verbatim STH republication, fail-stop
// storage_error completions, and orderly-stop durability.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <future>
#include <string>
#include <vector>

#include "ctwatch/ct/merkle.hpp"
#include "ctwatch/ct/sct.hpp"
#include "ctwatch/logsvc/service.hpp"
#include "ctwatch/storage/codec.hpp"
#include "ctwatch/storage/crc32c.hpp"
#include "ctwatch/storage/file.hpp"
#include "ctwatch/storage/log_store.hpp"
#include "ctwatch/storage/tiles.hpp"
#include "ctwatch/storage/wal.hpp"

namespace ctwatch::storage {
namespace {

using namespace std::chrono_literals;

/// A throwaway directory under the build tree, removed on scope exit.
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

// ---------------------------------------------------------------------------
// CRC32C
// ---------------------------------------------------------------------------

TEST(StorageCrc32cTest, KnownVectors) {
  // RFC 3720 B.4 test vectors for CRC32C (Castagnoli).
  const Bytes check = to_bytes("123456789");
  EXPECT_EQ(crc32c(check), 0xE3069283u);
  const Bytes zeros(32, 0x00);
  EXPECT_EQ(crc32c(zeros), 0x8A9136AAu);
  const Bytes ones(32, 0xFF);
  EXPECT_EQ(crc32c(ones), 0x62A8AB43u);
}

TEST(StorageCrc32cTest, SeedChainingMatchesOneShot) {
  const Bytes data = to_bytes("hello, durable world");
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const std::uint32_t first = crc32c(BytesView{data.data(), split});
    const std::uint32_t chained = crc32c(BytesView{data.data() + split, data.size() - split}, first);
    EXPECT_EQ(chained, crc32c(data)) << "split at " << split;
  }
}

TEST(StorageCrc32cTest, MaskRoundTripsAndDiffers) {
  for (const std::uint32_t crc : {0u, 1u, 0xDEADBEEFu, 0xFFFFFFFFu}) {
    EXPECT_EQ(crc32c_unmask(crc32c_mask(crc)), crc);
    EXPECT_NE(crc32c_mask(crc), crc);  // the point of masking CRCs of CRCs
  }
}

// ---------------------------------------------------------------------------
// WAL framing
// ---------------------------------------------------------------------------

TEST(StorageWalTest, RoundTripsRecordsInOrder) {
  Bytes image;
  wal_frame(image, RecordType::entry, to_bytes("alpha"));
  wal_frame(image, RecordType::seal, to_bytes("beta"));
  wal_frame(image, RecordType::checkpoint, Bytes{});

  const WalScan scan = wal_scan(image);
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.valid_bytes, image.size());
  EXPECT_EQ(scan.torn_bytes, 0u);
  EXPECT_EQ(scan.records[0].type, RecordType::entry);
  EXPECT_EQ(ctwatch::to_string(scan.records[0].payload), "alpha");
  EXPECT_EQ(scan.records[1].type, RecordType::seal);
  EXPECT_EQ(ctwatch::to_string(scan.records[1].payload), "beta");
  EXPECT_EQ(scan.records[2].type, RecordType::checkpoint);
  EXPECT_TRUE(scan.records[2].payload.empty());
}

TEST(StorageWalTest, TornTailKeepsEveryByteCountOfPrefix) {
  Bytes image;
  wal_frame(image, RecordType::entry, to_bytes("kept"));
  const std::size_t first_frame = image.size();
  wal_frame(image, RecordType::entry, to_bytes("torn away"));

  // Every possible torn length of the second frame: scan keeps exactly
  // the first record and reports the rest as torn.
  for (std::size_t keep = 0; keep < image.size() - first_frame; ++keep) {
    const WalScan scan = wal_scan(BytesView{image.data(), first_frame + keep});
    ASSERT_EQ(scan.records.size(), 1u) << "torn length " << keep;
    EXPECT_EQ(scan.valid_bytes, first_frame);
    EXPECT_EQ(scan.torn_bytes, keep);
  }
}

TEST(StorageWalTest, CorruptionStopsTheTrustedPrefix) {
  Bytes image;
  wal_frame(image, RecordType::entry, to_bytes("one"));
  const std::size_t first_frame = image.size();
  wal_frame(image, RecordType::entry, to_bytes("two"));
  wal_frame(image, RecordType::entry, to_bytes("three"));

  Bytes corrupted = image;
  corrupted[first_frame + 9] ^= 0x01;  // flip a payload byte of record two
  const WalScan scan = wal_scan(corrupted);
  ASSERT_EQ(scan.records.size(), 1u);  // record three is unreachable by design
  EXPECT_EQ(scan.valid_bytes, first_frame);

  Bytes zero_len = image;
  zero_len.resize(first_frame);
  for (int i = 0; i < 9; ++i) zero_len.push_back(0x00);  // zero length header
  EXPECT_EQ(wal_scan(zero_len).records.size(), 1u);

  Bytes unknown_type = image;
  unknown_type[first_frame + 8] = 0x7F;  // valid length, unknown record type
  // CRC covers the type byte, so this also fails the CRC — but even a
  // recomputed CRC would stop at the unknown type.
  EXPECT_EQ(wal_scan(unknown_type).records.size(), 1u);
}

// ---------------------------------------------------------------------------
// Tile pages
// ---------------------------------------------------------------------------

TEST(StorageTileTest, PageRoundTripsFullAndPartial) {
  std::vector<crypto::Digest> leaves;
  for (int i = 0; i < 300; ++i) leaves.push_back(digest_of("leaf" + std::to_string(i)));

  Bytes full;
  encode_tile_page(full, 0, leaves.data(), kTileLeaves);
  ASSERT_EQ(full.size(), kTilePageBytes);
  const std::optional<TilePage> full_page = decode_tile_page(full);
  ASSERT_TRUE(full_page.has_value());
  EXPECT_EQ(full_page->tile_index, 0u);
  EXPECT_EQ(full_page->count, kTileLeaves);
  EXPECT_EQ(full_page->leaves[255], leaves[255]);

  Bytes partial;
  encode_tile_page(partial, 1, leaves.data() + kTileLeaves, 44);
  ASSERT_EQ(partial.size(), kTilePageBytes);  // fixed stride regardless of count
  const std::optional<TilePage> partial_page = decode_tile_page(partial);
  ASSERT_TRUE(partial_page.has_value());
  EXPECT_EQ(partial_page->tile_index, 1u);
  EXPECT_EQ(partial_page->count, 44u);
  EXPECT_EQ(partial_page->leaves[43], leaves[299]);

  Bytes corrupt = full;
  corrupt[100] ^= 0x01;
  EXPECT_FALSE(decode_tile_page(corrupt).has_value());
}

TEST(StorageTileTest, LastPageWinsAndGapsAreCorrupt) {
  std::vector<crypto::Digest> leaves;
  for (int i = 0; i < 400; ++i) leaves.push_back(digest_of("t" + std::to_string(i)));

  // The append-only segment: tile 0 full, then tile 1 written at 100
  // leaves, then again (superseding) at 144.
  Bytes segment;
  encode_tile_page(segment, 0, leaves.data(), kTileLeaves);
  encode_tile_page(segment, 1, leaves.data() + kTileLeaves, 100);
  encode_tile_page(segment, 1, leaves.data() + kTileLeaves, 144);

  const TileLoad load = load_tiles(segment, segment.size(), kTileLeaves + 144);
  EXPECT_EQ(load.error, IoError::none);
  ASSERT_EQ(load.leaves.size(), kTileLeaves + 144);
  EXPECT_EQ(load.leaves[kTileLeaves + 143], leaves[kTileLeaves + 143]);
  EXPECT_EQ(load.pages_read, 3u);

  // Asking beyond what the pages cover is a coverage failure.
  EXPECT_EQ(load_tiles(segment, segment.size(), kTileLeaves + 145).error, IoError::corrupt);
  // A limit that cuts the superseding page falls back to the older one.
  const TileLoad older = load_tiles(segment, 2 * kTilePageBytes, kTileLeaves + 100);
  EXPECT_EQ(older.error, IoError::none);
  ASSERT_EQ(older.leaves.size(), kTileLeaves + 100);
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

TEST(StorageCodecTest, EntryRoundTripsWithAndWithoutBody) {
  DurableEntry entry;
  entry.index = 42;
  entry.timestamp_ms = 1522540800000ULL;
  entry.leaf_hash = digest_of("leaf");
  entry.fingerprint = digest_of("fp");
  entry.issuer_cn = "Example CA";
  entry.has_body = true;
  entry.entry.type = ct::EntryType::precert_entry;
  entry.entry.data = to_bytes("tbs-bytes");
  entry.entry.issuer_key_hash = digest_of("ikh");

  const Bytes encoded = encode_entry(entry);
  const std::optional<DurableEntry> decoded = decode_entry(encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->index, 42u);
  EXPECT_EQ(decoded->timestamp_ms, entry.timestamp_ms);
  EXPECT_EQ(decoded->leaf_hash, entry.leaf_hash);
  EXPECT_EQ(decoded->fingerprint, entry.fingerprint);
  EXPECT_EQ(decoded->issuer_cn, "Example CA");
  ASSERT_TRUE(decoded->has_body);
  EXPECT_EQ(decoded->entry.type, ct::EntryType::precert_entry);
  EXPECT_EQ(decoded->entry.data, entry.entry.data);
  EXPECT_EQ(decoded->entry.issuer_key_hash, entry.entry.issuer_key_hash);

  entry.has_body = false;
  const Bytes slim = encode_entry(entry);
  EXPECT_LT(slim.size(), encoded.size());
  const std::optional<DurableEntry> slim_decoded = decode_entry(slim);
  ASSERT_TRUE(slim_decoded.has_value());
  EXPECT_FALSE(slim_decoded->has_body);

  // Strictness: truncation and trailing garbage both refuse.
  EXPECT_FALSE(decode_entry(BytesView{encoded.data(), encoded.size() - 1}).has_value());
  Bytes padded = encoded;
  padded.push_back(0x00);
  EXPECT_FALSE(decode_entry(padded).has_value());
}

TEST(StorageCodecTest, SealAndCheckpointRoundTrip) {
  SealRecord seal;
  seal.first_index = 7;
  seal.seal_seq = 3;
  seal.sth.tree_size = 9;
  seal.sth.timestamp_ms = 1234;
  seal.sth.root_hash = digest_of("root");
  seal.sth.signature.scheme = crypto::SignatureScheme::hmac_sha256_simulated;
  seal.sth.signature.data = to_bytes("sig");
  const std::optional<SealRecord> seal2 = decode_seal(encode_seal(seal));
  ASSERT_TRUE(seal2.has_value());
  EXPECT_EQ(seal2->first_index, 7u);
  EXPECT_EQ(seal2->seal_seq, 3u);
  EXPECT_EQ(seal2->sth, seal.sth);

  // first_index beyond tree_size is structurally impossible.
  seal.first_index = 10;
  EXPECT_FALSE(decode_seal(encode_seal(seal)).has_value());

  CheckpointRecord cp;
  cp.sth = seal.sth;
  cp.frontier = {digest_of("f1"), digest_of("f2")};
  cp.seal_seq = 3;
  cp.last_timestamp_ms = 1234;
  cp.tile_bytes = 8208;
  cp.entry_bytes = 555;
  const std::optional<CheckpointRecord> cp2 = decode_checkpoint(encode_checkpoint(cp));
  ASSERT_TRUE(cp2.has_value());
  EXPECT_EQ(cp2->sth, cp.sth);
  EXPECT_EQ(cp2->frontier, cp.frontier);
  EXPECT_EQ(cp2->tile_bytes, 8208u);
  EXPECT_EQ(cp2->entry_bytes, 555u);
}

// ---------------------------------------------------------------------------
// Env crash model
// ---------------------------------------------------------------------------

TEST(StorageEnvTest, SyncMakesBytesDurableAcrossCrash) {
  TempDir dir("env");
  chaos::FaultInjector chaos(1);
  Env::Options options;
  options.dir = dir.path;
  options.chaos = &chaos;
  auto env = Env::open(options);
  ASSERT_NE(env, nullptr);

  auto file = env->open_append("a.log", 0);
  ASSERT_NE(file, nullptr);
  ASSERT_TRUE(file->append(to_bytes("durable")).ok());
  ASSERT_TRUE(file->sync().ok());
  ASSERT_TRUE(file->append(to_bytes("maybe-lost")).ok());
  EXPECT_EQ(file->durable_size(), 7u);
  EXPECT_EQ(file->size(), 17u);

  env->crash_now();
  EXPECT_TRUE(env->crashed());
  EXPECT_EQ(file->append(to_bytes("x")).error, IoError::crashed);
  EXPECT_EQ(file->sync().error, IoError::crashed);

  // What survived: the synced prefix, plus a deterministic prefix of the
  // unsynced tail (same seed -> same draw).
  const std::uint64_t on_disk = env->file_size("a.log");
  EXPECT_GE(on_disk, 7u);
  EXPECT_LE(on_disk, 17u);

  // Reopening through a fresh Env is what recovery sees.
  auto env2 = Env::open(options);
  ASSERT_NE(env2, nullptr);
  Bytes contents;
  ASSERT_TRUE(env2->read_file("a.log", contents).ok());
  EXPECT_EQ(contents.size(), on_disk);
  EXPECT_EQ(ctwatch::to_string(BytesView{contents.data(), 7}), "durable");
}

TEST(StorageEnvTest, CrashPointFiresAtExactWriteOrdinal) {
  TempDir dir("envord");
  chaos::FaultInjector chaos(7);
  chaos::FaultPlan plan;
  plan.outages = {{3, std::uint64_t(1) << 62}};  // crash at the 4th physical op
  plan.outage_kind = chaos::FaultKind::error;
  chaos.plan("storage.crash", plan);

  Env::Options options;
  options.dir = dir.path;
  options.chaos = &chaos;
  auto env = Env::open(options);
  ASSERT_NE(env, nullptr);
  auto file = env->open_append("b.log", 0);
  ASSERT_NE(file, nullptr);
  EXPECT_TRUE(file->append(to_bytes("0")).ok());  // op 0
  EXPECT_TRUE(file->append(to_bytes("1")).ok());  // op 1
  EXPECT_TRUE(file->sync().ok());                 // op 2
  EXPECT_FALSE(env->crashed());
  EXPECT_EQ(file->append(to_bytes("2")).error, IoError::crashed);  // op 3: kill
  EXPECT_TRUE(env->crashed());
  EXPECT_EQ(env->file_size("b.log"), 2u);  // the synced bytes survived
}

TEST(StorageEnvTest, InjectedWriteFaultFailsWithoutCrashing) {
  TempDir dir("envio");
  chaos::FaultInjector chaos(7);
  chaos::FaultPlan plan;
  plan.outages = {{1, 2}};  // exactly the second physical op fails
  plan.outage_kind = chaos::FaultKind::error;
  chaos.plan("storage.write", plan);

  Env::Options options;
  options.dir = dir.path;
  options.chaos = &chaos;
  auto env = Env::open(options);
  auto file = env->open_append("c.log", 0);
  ASSERT_NE(file, nullptr);
  EXPECT_TRUE(file->append(to_bytes("ok")).ok());
  EXPECT_EQ(file->append(to_bytes("fails")).error, IoError::io);
  EXPECT_FALSE(env->crashed());
  EXPECT_TRUE(file->append(to_bytes("ok-again")).ok());
  EXPECT_TRUE(file->sync().ok());
  EXPECT_EQ(env->file_size("c.log"), 10u);  // the faulted append left no bytes
}

// ---------------------------------------------------------------------------
// LogStore
// ---------------------------------------------------------------------------

ct::SignedTreeHead test_sth(const ct::RootAccumulator& acc, std::uint64_t ts) {
  // Tests that drive LogStore directly do not need a real signer: the
  // store treats the signature as opaque committed bytes.
  ct::SignedTreeHead sth;
  sth.tree_size = acc.size();
  sth.timestamp_ms = ts;
  sth.root_hash = acc.root();
  sth.signature.scheme = crypto::SignatureScheme::hmac_sha256_simulated;
  sth.signature.data = to_bytes("sth-sig-" + std::to_string(acc.size()));
  return sth;
}

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

/// Commits `count` one-entry batches starting at the store's current size.
void commit_entries(LogStore& store, std::uint64_t count) {
  for (std::uint64_t i = 0; i < count; ++i) {
    BatchCommit batch;
    batch.entries = {test_entry(store.tree_size())};
    ct::RootAccumulator probe = store.cascade().accumulator();
    probe.add(batch.entries[0].leaf_hash);
    batch.sth = test_sth(probe, batch.entries[0].timestamp_ms);
    batch.seal_seq = store.seal_seq() + 1;
    ASSERT_TRUE(store.commit_batch(batch).ok()) << "batch " << i;
  }
}

TEST(StorageLogStoreTest, FreshOpenIsEmpty) {
  TempDir dir("fresh");
  LogStoreOptions options;
  options.dir = dir.path;
  LogStore::Open open = LogStore::open(options);
  ASSERT_NE(open.store, nullptr) << open.detail;
  EXPECT_TRUE(open.store->recovery().opened_fresh);
  EXPECT_EQ(open.store->tree_size(), 0u);
  EXPECT_FALSE(open.store->durable_sth().has_value());
  EXPECT_EQ(open.store->paged_entries(), 0u);
  EXPECT_TRUE(open.store->wal_tail().empty());

  // Close with nothing committed, reopen: still fresh-equivalent (an
  // empty WAL is not an error, and no checkpoint was manufactured).
  ASSERT_TRUE(open.store->close().ok());
  open.store.reset();
  LogStore::Open again = LogStore::open(options);
  ASSERT_NE(again.store, nullptr) << again.detail;
  EXPECT_EQ(again.store->tree_size(), 0u);
  EXPECT_FALSE(again.store->durable_sth().has_value());
}

TEST(StorageLogStoreTest, CrashRecoveryReplaysWalToLastSeal) {
  TempDir dir("replay");
  LogStoreOptions options;
  options.dir = dir.path;
  options.checkpoint_interval_batches = 0;  // keep everything in the WAL
  LogStore::Open open = LogStore::open(options);
  ASSERT_NE(open.store, nullptr) << open.detail;
  commit_entries(*open.store, 5);
  const ct::SignedTreeHead committed = *open.store->durable_sth();

  // SIGKILL, not close: no checkpoint happens.
  open.store->env().crash_now();
  open.store.reset();

  LogStore::Open reopened = LogStore::open(options);
  ASSERT_NE(reopened.store, nullptr) << reopened.detail;
  EXPECT_EQ(reopened.store->tree_size(), 5u);
  EXPECT_EQ(reopened.store->recovery().checkpoint_tree_size, 0u);
  EXPECT_EQ(reopened.store->recovery().replayed_batches, 5u);
  EXPECT_EQ(reopened.store->recovery().replayed_entries, 5u);
  EXPECT_EQ(reopened.store->recovery().discarded_unsealed, 0u);
  ASSERT_TRUE(reopened.store->durable_sth().has_value());
  // The committed head comes back verbatim — signature bytes included.
  EXPECT_EQ(*reopened.store->durable_sth(), committed);
  // No checkpoint ever ran, so nothing is paged: every recovered entry
  // is WAL tail.
  EXPECT_EQ(reopened.store->paged_entries(), 0u);
  const std::vector<DurableEntry>& entries = reopened.store->wal_tail();
  ASSERT_EQ(entries.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(entries[i].index, i);
    EXPECT_EQ(entries[i].leaf_hash, test_entry(i).leaf_hash);
  }
}

TEST(StorageLogStoreTest, CheckpointBoundsReplayAndSurvivesCrash) {
  TempDir dir("ckpt");
  LogStoreOptions options;
  options.dir = dir.path;
  options.checkpoint_interval_batches = 2;
  LogStore::Open open = LogStore::open(options);
  ASSERT_NE(open.store, nullptr) << open.detail;
  commit_entries(*open.store, 5);  // checkpoints after batches 2 and 4
  const ct::SignedTreeHead committed = *open.store->durable_sth();
  open.store->env().crash_now();
  open.store.reset();

  LogStore::Open reopened = LogStore::open(options);
  ASSERT_NE(reopened.store, nullptr) << reopened.detail;
  EXPECT_EQ(reopened.store->tree_size(), 5u);
  EXPECT_EQ(reopened.store->recovery().checkpoint_tree_size, 4u);
  EXPECT_EQ(reopened.store->recovery().replayed_batches, 1u);
  EXPECT_EQ(*reopened.store->durable_sth(), committed);
  // The checkpointed prefix is paged (entries.seg), only the post-
  // checkpoint batch is resident as WAL tail.
  EXPECT_EQ(reopened.store->paged_entries(), 4u);
  ASSERT_EQ(reopened.store->wal_tail().size(), 1u);
  EXPECT_EQ(reopened.store->wal_tail()[0].index, 4u);
  std::vector<DurableEntry> paged;
  ASSERT_EQ(reopened.store->read_entries(0, 4, paged), IoError::none);
  ASSERT_EQ(paged.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(paged[i].index, i);
    EXPECT_EQ(paged[i].leaf_hash, test_entry(i).leaf_hash);
  }
}

TEST(StorageLogStoreTest, UnsealedEntriesAreDiscardedAndCounted) {
  TempDir dir("unsealed");
  LogStoreOptions options;
  options.dir = dir.path;
  options.checkpoint_interval_batches = 0;
  {
    LogStore::Open open = LogStore::open(options);
    ASSERT_NE(open.store, nullptr) << open.detail;
    commit_entries(*open.store, 2);
    open.store->env().crash_now();
  }
  // Simulate the crash landing after entry frames hit disk but before
  // their seal: append two entry frames with NO seal record, fsync'd.
  {
    Env::Options env_options;
    env_options.dir = dir.path;
    auto env = Env::open(env_options);
    ASSERT_NE(env, nullptr);
    auto wal = env->open_append("wal.log", env->file_size("wal.log"));
    ASSERT_NE(wal, nullptr);
    ASSERT_TRUE(wal_append(*wal, RecordType::entry, encode_entry(test_entry(2))).ok());
    ASSERT_TRUE(wal_append(*wal, RecordType::entry, encode_entry(test_entry(3))).ok());
    ASSERT_TRUE(wal->sync().ok());
  }
  LogStore::Open reopened = LogStore::open(options);
  ASSERT_NE(reopened.store, nullptr) << reopened.detail;
  EXPECT_EQ(reopened.store->tree_size(), 2u);  // never serves unsealed entries
  EXPECT_EQ(reopened.store->recovery().discarded_unsealed, 2u);
  // The unsealed frames were truncated away: a further reopen replays a
  // clean WAL with nothing to discard.
  reopened.store->env().crash_now();
  reopened.store.reset();
  LogStore::Open again = LogStore::open(options);
  ASSERT_NE(again.store, nullptr) << again.detail;
  EXPECT_EQ(again.store->tree_size(), 2u);
  EXPECT_EQ(again.store->recovery().discarded_unsealed, 0u);
}

TEST(StorageLogStoreTest, TornWalTailIsTruncated) {
  TempDir dir("torn");
  LogStoreOptions options;
  options.dir = dir.path;
  options.checkpoint_interval_batches = 0;
  {
    LogStore::Open open = LogStore::open(options);
    ASSERT_NE(open.store, nullptr) << open.detail;
    commit_entries(*open.store, 3);
    open.store->env().crash_now();
  }
  {
    Env::Options env_options;
    env_options.dir = dir.path;
    auto env = Env::open(env_options);
    auto wal = env->open_append("wal.log", env->file_size("wal.log"));
    ASSERT_NE(wal, nullptr);
    // Length field 0xFFFFFFFF: framing garbage, instantly torn.
    const Bytes garbage = {0xFF, 0xFF, 0xFF, 0xFF, 0x12, 0x34, 0x56, 0x78, 0x9A};
    ASSERT_TRUE(wal->append(garbage).ok());
    ASSERT_TRUE(wal->sync().ok());
  }
  const std::uint64_t dirty_size = [&] {
    Env::Options env_options;
    env_options.dir = dir.path;
    return Env::open(env_options)->file_size("wal.log");
  }();
  LogStore::Open reopened = LogStore::open(options);
  ASSERT_NE(reopened.store, nullptr) << reopened.detail;
  EXPECT_EQ(reopened.store->tree_size(), 3u);
  EXPECT_GT(reopened.store->recovery().wal_torn_bytes, 0u);
  // Truncated on disk, not just ignored.
  Env::Options env_options;
  env_options.dir = dir.path;
  EXPECT_LT(Env::open(env_options)->file_size("wal.log"), dirty_size);
}

TEST(StorageLogStoreTest, CrashBeforeFirstSealRecoversEmpty) {
  TempDir dir("firstseal");
  chaos::FaultInjector chaos(11);
  chaos::FaultPlan plan;
  plan.outages = {{0, std::uint64_t(1) << 62}};  // crash at the very first op
  plan.outage_kind = chaos::FaultKind::error;
  chaos.plan("storage.crash", plan);
  LogStoreOptions options;
  options.dir = dir.path;
  options.chaos = &chaos;
  {
    LogStore::Open open = LogStore::open(options);
    ASSERT_NE(open.store, nullptr) << open.detail;
    BatchCommit batch;
    batch.entries = {test_entry(0)};
    ct::RootAccumulator probe;
    probe.add(batch.entries[0].leaf_hash);
    batch.sth = test_sth(probe, 1000);
    batch.seal_seq = 1;
    EXPECT_EQ(open.store->commit_batch(batch).error, IoError::crashed);
    EXPECT_TRUE(open.store->failed());
  }
  LogStoreOptions clean;
  clean.dir = dir.path;
  LogStore::Open reopened = LogStore::open(clean);
  ASSERT_NE(reopened.store, nullptr) << reopened.detail;
  EXPECT_EQ(reopened.store->tree_size(), 0u);
  EXPECT_FALSE(reopened.store->durable_sth().has_value());
}

TEST(StorageLogStoreTest, EveryCheckpointCrashWindowRecovers) {
  // Sweep the crash ordinal across the whole checkpoint protocol (tile
  // append, entry append, two segment fsyncs, manifest append + fsync,
  // WAL reset): whatever step the kill lands on, reopen must reproduce
  // the committed tree exactly — from the new checkpoint, or from the
  // old one plus WAL replay.
  for (std::uint64_t crash_at = 0; crash_at < 10; ++crash_at) {
    TempDir dir("ckptwin");
    ct::SignedTreeHead committed;
    {
      LogStoreOptions options;
      options.dir = dir.path;
      options.checkpoint_interval_batches = 0;
      LogStore::Open open = LogStore::open(options);
      ASSERT_NE(open.store, nullptr) << open.detail;
      commit_entries(*open.store, 3);
      committed = *open.store->durable_sth();
      open.store->env().crash_now();  // discard this instance, keep the dir
    }
    {
      // The op ordinal is Env-wide and this reopen is a fresh Env whose
      // recovery only reads, so checkpoint ops start at ordinal 0.
      chaos::FaultInjector chaos(13);
      chaos::FaultPlan plan;
      plan.outages = {{crash_at, std::uint64_t(1) << 62}};
      plan.outage_kind = chaos::FaultKind::error;
      chaos.plan("storage.crash", plan);
      LogStoreOptions options;
      options.dir = dir.path;
      options.checkpoint_interval_batches = 0;
      options.chaos = &chaos;
      LogStore::Open open = LogStore::open(options);
      ASSERT_NE(open.store, nullptr) << open.detail;
      ASSERT_EQ(open.store->tree_size(), 3u);
      const IoResult io = open.store->checkpoint();
      if (!io.ok()) { EXPECT_EQ(io.error, IoError::crashed); }
    }
    LogStoreOptions clean;
    clean.dir = dir.path;
    clean.checkpoint_interval_batches = 0;
    LogStore::Open reopened = LogStore::open(clean);
    ASSERT_NE(reopened.store, nullptr) << "crash_at=" << crash_at << ": " << reopened.detail;
    EXPECT_EQ(reopened.store->tree_size(), 3u) << "crash_at=" << crash_at;
    ASSERT_TRUE(reopened.store->durable_sth().has_value());
    EXPECT_EQ(*reopened.store->durable_sth(), committed) << "crash_at=" << crash_at;
    std::vector<DurableEntry> entries;
    ASSERT_EQ(reopened.store->read_entries(0, reopened.store->paged_entries(), entries),
              IoError::none);
    for (const DurableEntry& tail : reopened.store->wal_tail()) entries.push_back(tail);
    ASSERT_EQ(entries.size(), 3u) << "crash_at=" << crash_at;
    for (std::uint64_t i = 0; i < 3; ++i) {
      EXPECT_EQ(entries[i].leaf_hash, test_entry(i).leaf_hash) << "crash_at=" << crash_at;
    }
  }
}

TEST(StorageLogStoreTest, DoubleReopenIsIdempotent) {
  TempDir dir("twice");
  LogStoreOptions options;
  options.dir = dir.path;
  options.checkpoint_interval_batches = 2;
  {
    LogStore::Open open = LogStore::open(options);
    ASSERT_NE(open.store, nullptr) << open.detail;
    commit_entries(*open.store, 5);
    open.store->env().crash_now();
  }
  RecoveryReport first_report;
  ct::SignedTreeHead first_sth;
  {
    LogStore::Open first = LogStore::open(options);
    ASSERT_NE(first.store, nullptr) << first.detail;
    first_report = first.store->recovery();
    first_sth = *first.store->durable_sth();
    first.store->env().crash_now();  // destroy without writing anything
  }
  LogStore::Open second = LogStore::open(options);
  ASSERT_NE(second.store, nullptr) << second.detail;
  EXPECT_EQ(second.store->tree_size(), first_report.tree_size);
  EXPECT_EQ(second.store->recovery().checkpoint_tree_size, first_report.checkpoint_tree_size);
  EXPECT_EQ(second.store->recovery().replayed_batches, first_report.replayed_batches);
  EXPECT_EQ(second.store->recovery().discarded_unsealed, 0u);
  EXPECT_EQ(*second.store->durable_sth(), first_sth);
}

TEST(StorageLogStoreTest, CorruptTilePageRefusesToOpen) {
  TempDir dir("corrupt");
  LogStoreOptions options;
  options.dir = dir.path;
  options.checkpoint_interval_batches = 1;  // checkpoint every batch
  {
    LogStore::Open open = LogStore::open(options);
    ASSERT_NE(open.store, nullptr) << open.detail;
    commit_entries(*open.store, 3);
    ASSERT_TRUE(open.store->close().ok());
  }
  // Flip one leaf byte inside the LIVE tile page (the last-written one —
  // earlier pages of tile 0 are superseded and may legally be skipped).
  {
    const std::string path = dir.path + "/tiles.seg";
    ASSERT_EQ(std::filesystem::file_size(path), 3 * kTilePageBytes);
    const long damage_at = static_cast<long>(2 * kTilePageBytes + 20);
    FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, damage_at, SEEK_SET), 0);
    const int c = std::fgetc(f);
    ASSERT_EQ(std::fseek(f, damage_at, SEEK_SET), 0);
    std::fputc(c ^ 0x01, f);
    std::fclose(f);
  }
  LogStore::Open reopened = LogStore::open(options);
  EXPECT_EQ(reopened.store, nullptr);
  EXPECT_EQ(reopened.error, IoError::corrupt);
  EXPECT_FALSE(reopened.detail.empty());
}

TEST(StorageLogStoreTest, MismatchedBatchRefusedBeforeAnyWrite) {
  TempDir dir("refuse");
  LogStoreOptions options;
  options.dir = dir.path;
  LogStore::Open open = LogStore::open(options);
  ASSERT_NE(open.store, nullptr) << open.detail;

  BatchCommit batch;
  batch.entries = {test_entry(0)};
  ct::RootAccumulator probe;
  probe.add(batch.entries[0].leaf_hash);
  batch.sth = test_sth(probe, 1000);
  batch.sth.root_hash = digest_of("not-the-root");  // lie about the root
  batch.seal_seq = 1;
  EXPECT_EQ(open.store->commit_batch(batch).error, IoError::corrupt);
  EXPECT_FALSE(open.store->failed());  // a refused batch does not poison
  EXPECT_EQ(open.store->env().write_ops(), 0u);  // and wrote nothing

  batch.entries[0].index = 5;  // non-contiguous
  batch.sth = test_sth(probe, 1000);
  EXPECT_EQ(open.store->commit_batch(batch).error, IoError::corrupt);
  commit_entries(*open.store, 1);  // the store still works
  EXPECT_EQ(open.store->tree_size(), 1u);
}

// A staged commit is checked by comparison against the fold the caller
// staged: a fold of a stale base, an entry whose leaf hash is not the
// staged leaf, and an STH whose root is not the staged root are each
// refused as corrupt before any write, and none poisons the store.
TEST(StorageLogStoreTest, StagedCommitRefusesStaleBaseForeignLeafAndForeignRoot) {
  TempDir dir("staged");
  LogStoreOptions options;
  options.dir = dir.path;
  LogStore::Open open = LogStore::open(options);
  ASSERT_NE(open.store, nullptr) << open.detail;
  LogStore& store = *open.store;
  commit_entries(store, 2);

  const auto batch_of = [&store](const DurableEntry& entry,
                                 const ct::TileCascade::Staged& staged) {
    BatchCommit batch;
    batch.entries = {entry};
    batch.sth = test_sth(staged.accumulator, entry.timestamp_ms);
    batch.seal_seq = store.seal_seq() + 1;
    return batch;
  };
  // Staged at size 2, then made stale by a commit through the staged path.
  const ct::TileCascade::Staged stale = store.cascade().stage({test_entry(3).leaf_hash});
  const ct::TileCascade::Staged fresh2 = store.cascade().stage({test_entry(2).leaf_hash});
  ASSERT_TRUE(store.commit_batch(batch_of(test_entry(2), fresh2), fresh2).ok());
  ASSERT_EQ(store.tree_size(), 3u);
  EXPECT_EQ(store.cascade().root(), fresh2.root);

  Bytes wal_before;
  ASSERT_TRUE(store.env().read_file("wal.log", wal_before).ok());
  const std::uint64_t ops_before = store.env().write_ops();
  const auto expect_refused = [&](const BatchCommit& batch, const ct::TileCascade::Staged& staged,
                                  const char* what) {
    EXPECT_EQ(store.commit_batch(batch, staged).error, IoError::corrupt) << what;
    Bytes wal_after;
    ASSERT_TRUE(store.env().read_file("wal.log", wal_after).ok());
    EXPECT_EQ(wal_after, wal_before) << what;
    EXPECT_EQ(store.env().write_ops(), ops_before) << what;
    EXPECT_FALSE(store.failed()) << what;
    EXPECT_EQ(store.tree_size(), 3u) << what;
  };

  // 1. Stale base: the entry (index 3) extends the tree and is the staged
  // leaf, and the STH is the staged fold's, but the fold began at size 2.
  ASSERT_EQ(stale.base, 2u);
  expect_refused(batch_of(test_entry(3), stale), stale, "stale base");

  // 2. Foreign leaf: the staged fold and its STH are right, the entry's
  // leaf hash is not the one that was folded.
  const ct::TileCascade::Staged staged = store.cascade().stage({test_entry(3).leaf_hash});
  DurableEntry foreign = test_entry(3);
  foreign.leaf_hash = digest_of("not-the-leaf");
  expect_refused(batch_of(foreign, staged), staged, "foreign leaf");

  // 3. Foreign root: entries and fold agree, the STH signs another root.
  BatchCommit lying = batch_of(test_entry(3), staged);
  lying.sth.root_hash = digest_of("not-the-root");
  expect_refused(lying, staged, "foreign root");

  // The honest batch still commits, and the cascade is the staged fold.
  ASSERT_TRUE(store.commit_batch(batch_of(test_entry(3), staged), staged).ok());
  EXPECT_EQ(store.tree_size(), 4u);
  EXPECT_EQ(store.cascade().root(), staged.root);
  EXPECT_EQ(store.cascade().accumulator().frontier(), staged.accumulator.frontier());
}

TEST(StorageLogStoreTest, IoFaultPoisonsFailStop) {
  TempDir dir("poison");
  chaos::FaultInjector chaos(17);
  chaos::FaultPlan plan;
  plan.outages = {{2, 3}};  // the second batch's WAL append fails
  plan.outage_kind = chaos::FaultKind::error;
  chaos.plan("storage.write", plan);
  LogStoreOptions options;
  options.dir = dir.path;
  options.chaos = &chaos;
  options.checkpoint_interval_batches = 0;
  LogStore::Open open = LogStore::open(options);
  ASSERT_NE(open.store, nullptr) << open.detail;
  commit_entries(*open.store, 1);  // ops 0 (append) + 1 (fsync)

  BatchCommit batch;
  batch.entries = {test_entry(1)};
  ct::RootAccumulator probe = open.store->cascade().accumulator();
  probe.add(batch.entries[0].leaf_hash);
  batch.sth = test_sth(probe, 2000);
  batch.seal_seq = 2;
  EXPECT_EQ(open.store->commit_batch(batch).error, IoError::io);  // op 2 faulted
  EXPECT_TRUE(open.store->failed());
  EXPECT_EQ(open.store->last_error(), IoError::io);
  // Fail-stop: the same batch is refused with the sticky error, the
  // in-memory image still shows only the durable prefix.
  EXPECT_EQ(open.store->commit_batch(batch).error, IoError::io);
  EXPECT_EQ(open.store->tree_size(), 1u);
  EXPECT_EQ(open.store->checkpoint().error, IoError::io);
  open.store.reset();

  LogStoreOptions clean;
  clean.dir = dir.path;
  LogStore::Open reopened = LogStore::open(clean);
  ASSERT_NE(reopened.store, nullptr) << reopened.detail;
  EXPECT_EQ(reopened.store->tree_size(), 1u);  // batch 2 was never durable
}

// ---------------------------------------------------------------------------
// LogService integration
// ---------------------------------------------------------------------------

logsvc::Config service_config(const std::string& name, LogStore* store) {
  logsvc::Config config;
  config.name = name;
  config.scheme = crypto::SignatureScheme::hmac_sha256_simulated;
  config.merge_delay = 500us;
  config.storage = store;
  return config;
}

ct::SignedEntry entry_of(std::uint64_t n) {
  ct::SignedEntry entry;
  entry.type = ct::EntryType::x509_entry;
  entry.data = to_bytes("entry-" + std::to_string(n));
  return entry;
}

ct::SubmitResult submit_wait(logsvc::LogService& service, std::uint64_t n) {
  std::promise<ct::SubmitResult> promise;
  auto future = promise.get_future();
  const ct::SubmitStatus status = service.submit(
      entry_of(n), digest_of("fp-" + std::to_string(n)), "Test CA",
      SimTime::parse("2018-04-01"),
      [&promise](const ct::SubmitResult& outcome) { promise.set_value(outcome); });
  if (status != ct::SubmitStatus::ok) return ct::SubmitResult{status, 0, std::nullopt};
  return future.get();
}

TEST(StorageServiceTest, OrderlyStopThenReopenLosesNoSealedEntry) {
  TempDir dir("svc");
  ct::SignedTreeHead committed;
  std::vector<crypto::Digest> leaf_hashes;
  {
    LogStoreOptions options;
    options.dir = dir.path;
    LogStore::Open open = LogStore::open(options);
    ASSERT_NE(open.store, nullptr) << open.detail;
    logsvc::LogService service(service_config("Durable Log", open.store.get()));
    for (std::uint64_t i = 0; i < 8; ++i) {
      const ct::SubmitResult outcome = submit_wait(service, i);
      ASSERT_EQ(outcome.status, ct::SubmitStatus::ok);
      leaf_hashes.push_back(service.leaf_hash_at(outcome.index));
    }
    committed = service.get_sth();
    service.stop();  // checkpoints the store
    ASSERT_TRUE(open.store->close().ok());
  }
  {
    LogStoreOptions options;
    options.dir = dir.path;
    LogStore::Open open = LogStore::open(options);
    ASSERT_NE(open.store, nullptr) << open.detail;
    // Orderly stop left a checkpoint: nothing replays from the WAL.
    EXPECT_EQ(open.store->recovery().replayed_batches, 0u);
    EXPECT_EQ(open.store->recovery().discarded_unsealed, 0u);
    logsvc::LogService service(service_config("Durable Log", open.store.get()));
    // The recovered head is the committed head, byte for byte — the
    // signature was NOT regenerated.
    EXPECT_EQ(service.get_sth(), committed);
    EXPECT_EQ(service.tree_size(), 8u);
    for (std::uint64_t i = 0; i < 8; ++i) {
      EXPECT_EQ(service.leaf_hash_at(i), leaf_hashes[i]);
      EXPECT_TRUE(ct::verify_inclusion(service.leaf_hash_at(i), i, 8,
                                       service.inclusion_proof(i, 8), committed.root_hash));
    }
    // Dedup state survived: resubmitting entry 3 re-issues index 3.
    const ct::SubmitResult dup = submit_wait(service, 3);
    ASSERT_EQ(dup.status, ct::SubmitStatus::ok);
    EXPECT_EQ(dup.index, 3u);
    EXPECT_EQ(service.tree_size(), 8u);  // the tree did not grow
  }
}

TEST(StorageServiceTest, KillRecoverServesOnlyDurableState) {
  TempDir dir("kill");
  std::vector<ct::SignedTreeHead> chain;
  {
    LogStoreOptions options;
    options.dir = dir.path;
    options.checkpoint_interval_batches = 0;
    LogStore::Open open = LogStore::open(options);
    ASSERT_NE(open.store, nullptr) << open.detail;
    logsvc::LogService service(service_config("Durable Log", open.store.get()));
    for (std::uint64_t i = 0; i < 6; ++i) {
      ASSERT_EQ(submit_wait(service, i).status, ct::SubmitStatus::ok);
      chain.push_back(service.get_sth());
    }
    open.store->env().crash_now();  // SIGKILL mid-flight
    // The poisoned store fail-stops new work while reads keep serving.
    const ct::SubmitResult refused = submit_wait(service, 99);
    EXPECT_EQ(refused.status, ct::SubmitStatus::storage_error);
    EXPECT_EQ(service.get_sth().tree_size, 6u);  // last durable head
    EXPECT_GE(service.storage_failures(), 1u);
  }
  {
    LogStoreOptions options;
    options.dir = dir.path;
    LogStore::Open open = LogStore::open(options);
    ASSERT_NE(open.store, nullptr) << open.detail;
    logsvc::LogService service(service_config("Durable Log", open.store.get()));
    const ct::SignedTreeHead recovered = service.get_sth();
    EXPECT_EQ(recovered, chain.back());
    // The recovered chain is consistent with every pre-crash head.
    for (const ct::SignedTreeHead& old : chain) {
      EXPECT_TRUE(ct::verify_consistency(
          old.tree_size, recovered.tree_size, old.root_hash, recovered.root_hash,
          service.consistency_proof(old.tree_size, recovered.tree_size)));
    }
  }
}

TEST(StorageServiceTest, WrongLogNameRefusesAdoption) {
  TempDir dir("wrongkey");
  {
    LogStoreOptions options;
    options.dir = dir.path;
    LogStore::Open open = LogStore::open(options);
    ASSERT_NE(open.store, nullptr) << open.detail;
    logsvc::LogService service(service_config("Log A", open.store.get()));
    ASSERT_EQ(submit_wait(service, 1).status, ct::SubmitStatus::ok);
    service.stop();
    ASSERT_TRUE(open.store->close().ok());
  }
  LogStoreOptions options;
  options.dir = dir.path;
  LogStore::Open open = LogStore::open(options);
  ASSERT_NE(open.store, nullptr) << open.detail;
  // A different name derives a different key: the recovered STH cannot
  // verify, and serving a head another key signed would be unprovable.
  EXPECT_THROW(logsvc::LogService(service_config("Log B", open.store.get())),
               std::runtime_error);
}

TEST(StorageServiceTest, StorageErrorCompletionsNeverLoseSubmitters) {
  TempDir dir("svcfail");
  chaos::FaultInjector chaos(19);
  chaos::FaultPlan plan;
  plan.outages = {{0, std::uint64_t(1) << 62}};  // every physical op fails
  plan.outage_kind = chaos::FaultKind::error;
  chaos.plan("storage.write", plan);
  LogStoreOptions options;
  options.dir = dir.path;
  options.chaos = &chaos;
  LogStore::Open open = LogStore::open(options);
  ASSERT_NE(open.store, nullptr) << open.detail;
  logsvc::LogService service(service_config("Durable Log", open.store.get()));
  for (std::uint64_t i = 0; i < 3; ++i) {
    const ct::SubmitResult outcome = submit_wait(service, i);
    EXPECT_EQ(outcome.status, ct::SubmitStatus::storage_error);
    EXPECT_FALSE(outcome.sct.has_value());
  }
  EXPECT_EQ(service.tree_size(), 0u);
  EXPECT_EQ(service.get_sth().tree_size, 0u);  // the signed empty tree
  EXPECT_EQ(service.storage_failures(), 3u);
}

}  // namespace
}  // namespace ctwatch::storage
