// Durable, crash-recoverable log storage for a CT log service.
//
// On-disk layout (all inside one directory, all through storage::Env so
// the deterministic crash model applies):
//
//   wal.log      — CRC-framed entry + seal records since the last
//                  checkpoint. fsyncing a batch's seal frame IS the
//                  durability commit point.
//   tiles.seg    — fixed-size checksummed tile pages of leaf hashes and
//                  interior hashes (append-only, last page wins per
//                  (level, tile index); upper levels only written full).
//   entries.seg  — CRC-framed entry records, the full integrated log
//                  (appended at checkpoint time from the WAL's batches).
//   manifest.log — CRC-framed checkpoint records; the newest valid one
//                  anchors recovery. Written *after* the segment files
//                  are fsync'd, and the WAL is reset only after the
//                  manifest is fsync'd, so every crash window recovers.
//
// Memory model: the store is OUT OF CORE. Only the unsealed tail is
// resident — the leaves past the last checkpoint's tile floor plus the
// WAL's replayed entries — together with the log's ct::TileCascade (the
// accumulator and the upper tile levels, 1/255 of the leaf hashes: the
// O(log n) proof path's working set, which a storage-backed LogService
// stages on and proves through); everything checkpointed is served by pread
// through a sharded tile cache (leaf hashes, proof subtree roots) and a
// sparse-indexed segment reader (entry records). Recovery streams the
// segments in O(page) memory, so reopening a store costs O(WAL tail)
// residency regardless of tree size.
//
// Recovery (LogStore::open on an existing directory):
//   1. scan the manifest, take the newest valid checkpoint;
//   2. stream tiles.seg, CRC-validating every page into a (level, tile)
//      -> offset directory; require complete level-0 coverage of the
//      checkpointed tree and complete full upper pages;
//   3. verify the checkpoint *cryptographically*: in `full` mode every
//      leaf hash is re-folded (streaming, O(page) memory) — the
//      accumulator's sink yields every upper tile entry on the way, each
//      completed upper page must equal the persisted one, and the root +
//      frontier must equal the checkpoint's; in `structural` mode the
//      frontier is restored directly (O(log n)) after its shape and root
//      are checked, and the upper levels load from their pages — for
//      reopening huge stores where a full refold is a deliberate,
//      flagged tradeoff;
//   4. stream entries.seg, CRC-checking frames and seeding the sparse
//      entry index (full mode also cross-checks each record against the
//      tile leaves);
//   5. replay the WAL: entries stage by index, each seal folds its batch
//      and must reproduce the sealed root hash exactly; entries after
//      the last durable seal are discarded, visibly;
//   6. truncate torn tails so the garbage can never be re-read.
//
// Failure semantics are fail-stop: the first IO error (real or injected)
// poisons the store — every later commit refuses with the sticky error,
// so a leaf index is never written twice into the WAL and the in-memory
// tree can keep serving the last durable state read-only.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ctwatch/ct/merkle.hpp"
#include "ctwatch/ct/sct.hpp"
#include "ctwatch/storage/codec.hpp"
#include "ctwatch/storage/file.hpp"
#include "ctwatch/storage/segment_reader.hpp"
#include "ctwatch/storage/tile_cache.hpp"

namespace ctwatch::storage {

struct LogStoreOptions {
  std::string dir;
  /// Optional fault seams (not owned; nullptr disables chaos).
  chaos::FaultInjector* chaos = nullptr;
  std::string chaos_prefix = "storage";
  /// Checkpoint (tile flush + manifest record + WAL reset) every N
  /// committed batches. 0 means only on close()/explicit checkpoint().
  std::uint32_t checkpoint_interval_batches = 32;
  /// Seeds the crash model's deterministic torn-tail draws.
  std::uint64_t torn_seed = 0x7061676563616368ULL;

  /// How hard recovery re-verifies the checkpoint. `full` re-folds every
  /// leaf (O(n) time, O(page) memory). `structural` restores the frontier
  /// and trusts page CRCs (O(tail) time) — for reopening stores whose
  /// full refold was already done by the writer that checkpointed them.
  enum class Verify { full, structural };
  Verify recovery_verify = Verify::full;

  /// Byte budget / sharding for the tile page cache (the read path's
  /// only O(size)-free memory knob).
  std::size_t tile_cache_bytes = std::size_t{64} << 20;
  unsigned tile_cache_shards = 8;
  /// One entry-segment index mark per this many records.
  std::uint64_t entry_index_stride = 64;
};

/// What open() found and did. Every field is also exposed as obs metrics.
struct RecoveryReport {
  bool opened_fresh = false;          ///< no prior state on disk
  std::uint64_t tree_size = 0;        ///< recovered tree size
  std::uint64_t checkpoint_tree_size = 0;  ///< size at the manifest anchor
  std::uint64_t replayed_batches = 0;      ///< WAL seals applied
  std::uint64_t replayed_entries = 0;      ///< WAL entries applied
  std::uint64_t discarded_unsealed = 0;    ///< entries with no durable seal
  std::uint64_t wal_torn_bytes = 0;        ///< truncated from wal.log
  std::uint64_t manifest_torn_bytes = 0;   ///< truncated from manifest.log
  std::uint64_t stale_wal_records = 0;     ///< pre-checkpoint frames skipped
  std::uint64_t tile_pages_scanned = 0;    ///< pages CRC-checked in tiles.seg
  std::uint64_t tile_pages_invalid = 0;    ///< superseded/garbage pages skipped
  std::uint64_t recovery_us = 0;
};

/// One sealed batch, handed to commit_batch(). The STH must be signed
/// already: storage persists it verbatim so recovery can serve the exact
/// bytes that were committed (re-signing after a crash would fork the
/// log's own history).
struct BatchCommit {
  std::vector<DurableEntry> entries;  ///< indices contiguous from tree_size()
  ct::SignedTreeHead sth;             ///< tree_size == old size + entries
  std::uint64_t seal_seq = 0;
};

class LogStore {
 public:
  struct Open {
    std::unique_ptr<LogStore> store;  ///< null on failure
    IoError error = IoError::none;
    std::string detail;               ///< human-readable failure context
  };

  /// Opens (creating or recovering) the store. Never throws; a corrupt
  /// or unreadable directory comes back as {nullptr, error, detail}.
  static Open open(LogStoreOptions options);
  ~LogStore();

  LogStore(const LogStore&) = delete;
  LogStore& operator=(const LogStore&) = delete;

  /// Makes one sealed batch durable: entry frames + seal frame into the
  /// WAL, then fsync. On ok, the batch survives any crash. `staged` is the
  /// batch's fold on cascade() (LogService stages once and signs its STH
  /// over `staged.root`; the one-argument form stages it here). Before
  /// writing a byte the commit checks, by comparison only, that the
  /// entries extend the tree from `staged.base` == tree_size() and are the
  /// staged leaves, and that the staged size and root are the STH's; a
  /// mismatch is a caller bug surfaced as IoError::corrupt, not a disk
  /// write. Once durable, the staged fold is applied to cascade().
  /// May run a checkpoint afterwards per checkpoint_interval_batches; a
  /// checkpoint failure after a successful commit still returns ok (the
  /// batch IS durable) but poisons the store for later commits.
  IoResult commit_batch(const BatchCommit& batch, const ct::TileCascade::Staged& staged);
  IoResult commit_batch(const BatchCommit& batch);

  /// Flushes tiles + entry segment, appends a manifest checkpoint, and
  /// resets the WAL. Safe at any batch boundary. On success the resident
  /// tail shrinks to the last partial tile — everything else is paged.
  IoResult checkpoint();

  /// Checkpoint + release write handles. The store refuses writes after;
  /// the read path (tile cache, entry reader) keeps serving.
  IoResult close();

  /// True once any IO error has latched; the sticky error explains why.
  [[nodiscard]] bool failed() const { return last_error_ != IoError::none; }
  [[nodiscard]] IoError last_error() const { return last_error_; }

  [[nodiscard]] std::uint64_t tree_size() const { return cascade_.size(); }
  [[nodiscard]] std::uint64_t seal_seq() const { return seal_seq_; }
  [[nodiscard]] const RecoveryReport& recovery() const { return recovery_; }

  /// The last durable STH (nullopt on a fresh, still-empty store).
  [[nodiscard]] const std::optional<ct::SignedTreeHead>& durable_sth() const { return sth_; }
  /// The log's Merkle cascade: the accumulator and every upper tile entry
  /// (levels >= 1) of the tree_size()-leaf tree, resident. Recovery and
  /// commit_batch build it; a storage-backed LogService stages its seals
  /// on it and its readers prove through it while commits publish.
  [[nodiscard]] const ct::TileCascade& cascade() const { return cascade_; }
  [[nodiscard]] std::uint64_t last_timestamp_ms() const { return last_timestamp_ms_; }

  // --- the paged read path ---

  /// Leaves covered by durable, directory-published tile pages. Proofs
  /// resolve subtrees below this watermark from the cache; [tail_base,
  /// tree_size) is resident.
  [[nodiscard]] std::uint64_t paged_leaves() const { return directory_->paged_leaves(); }
  /// Entry records servable from entries.seg: [0, paged_entries).
  [[nodiscard]] std::uint64_t paged_entries() const { return reader_->entries(); }
  /// First resident leaf index (tile floor of the persistence watermark).
  [[nodiscard]] std::uint64_t tail_base() const { return tail_base_; }
  /// Resident leaf hashes — the O(tail) bound tests assert on.
  [[nodiscard]] std::uint64_t resident_leaves() const { return tail_leaves_.size(); }
  /// Leaf hash at `index` (must be >= tail_base()). Paged indices go
  /// through the cache or stream_paged_leaves instead.
  [[nodiscard]] crypto::Digest tail_leaf(std::uint64_t index) const {
    return tail_leaves_.at(static_cast<std::size_t>(index - tail_base_));
  }

  [[nodiscard]] TileCache& tile_cache() { return *cache_; }
  [[nodiscard]] SegmentReader& entry_reader() { return *reader_; }

  /// Decodes entries [start, start+count) of entries.seg into `out`
  /// (appended). Only the paged prefix: start+count <= paged_entries().
  IoError read_entries(std::uint64_t start, std::uint64_t count,
                       std::vector<DurableEntry>& out) const {
    return reader_->read(start, count, out);
  }

  /// The WAL-tail entries recovery replayed — [checkpoint_tree_size,
  /// tree_size at open), the only entries not yet in entries.seg.
  /// O(WAL tail), never O(tree).
  [[nodiscard]] const std::vector<DurableEntry>& wal_tail() const { return wal_tail_entries_; }
  /// Destructive variant: the service adopts them once, at startup.
  std::vector<DurableEntry> take_wal_tail() { return std::move(wal_tail_entries_); }

  /// Streams leaf hashes [begin, end) (end <= paged_leaves()) through
  /// `fn` in tile-page chunks: fn(first_index, hashes, count). `fn`
  /// returning false stops the stream early (still IoError::none).
  IoError stream_paged_leaves(
      std::uint64_t begin, std::uint64_t end,
      const std::function<bool(std::uint64_t, const crypto::Digest*, std::uint64_t)>& fn);

  /// A proof source over this store's pages + resident tail. Valid while
  /// the store lives; construct one per query.
  [[nodiscard]] PagedLeafSource leaf_source();

  /// The underlying Env — harnesses use it for the crash hook
  /// (Env::crash_now) and the write-op ordinal clock (Env::write_ops).
  [[nodiscard]] Env& env() { return *env_; }

 private:
  LogStore(LogStoreOptions options, std::unique_ptr<Env> env)
      : options_(std::move(options)), env_(std::move(env)) {}

  /// Recovery pipeline (see file comment). Fills every member; returns
  /// none on success, with `detail` explaining any failure.
  IoError recover(std::string& detail);

  IoResult fail_with(IoError error);

  /// One tile page appended this checkpoint, to publish post-sync.
  struct PendingTile {
    unsigned level;
    std::uint64_t tile;
    std::uint64_t offset;
    std::uint32_t count;
  };
  IoResult write_dirty_tiles(std::vector<PendingTile>& written);
  /// Appends every not-yet-written full upper page whose leaves lie
  /// within the first `leaves` leaves, lowest level first.
  IoResult write_upper_pages(std::uint64_t leaves, std::vector<PendingTile>& written,
                             Bytes& page);

  LogStoreOptions options_;
  std::unique_ptr<Env> env_;
  std::unique_ptr<File> wal_;
  std::unique_ptr<File> tiles_;
  std::unique_ptr<File> entries_;
  std::unique_ptr<File> manifest_;

  IoError last_error_ = IoError::none;
  bool closed_ = false;

  ct::TileCascade cascade_;
  std::vector<crypto::Digest> tail_leaves_;  ///< [tail_base_, tree_size)
  std::uint64_t tail_base_ = 0;              ///< tile floor of the watermark
  std::optional<ct::SignedTreeHead> sth_;
  std::uint64_t seal_seq_ = 0;
  std::uint64_t last_timestamp_ms_ = 0;

  std::uint64_t tiles_persisted_leaves_ = 0;  ///< leaves covered by tiles.seg
  /// Full upper pages already written per level (index 0 unused) — the
  /// checkpoint's cursor into cascade_.
  std::vector<std::uint64_t> upper_written_;
  Bytes entry_frames_pending_;  ///< framed entry records awaiting entries.seg
  /// (index, offset within entry_frames_pending_) for every future index
  /// mark — only indices at the stride, so O(pending / stride).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> pending_entry_marks_;
  std::uint32_t batches_since_checkpoint_ = 0;

  /// Read-path state. The directory and cache are shared with any
  /// outstanding PagedLeafSource pins.
  std::shared_ptr<TileDirectory> directory_;
  std::shared_ptr<const RandomReadFile> tile_read_;
  std::shared_ptr<const RandomReadFile> entry_read_;
  std::unique_ptr<TileCache> cache_;
  std::unique_ptr<SegmentReader> reader_;

  RecoveryReport recovery_;
  std::vector<DurableEntry> wal_tail_entries_;  ///< replayed, not yet in entries.seg
};

}  // namespace ctwatch::storage
