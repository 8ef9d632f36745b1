#include "ctwatch/storage/log_store.hpp"

#include <algorithm>
#include <chrono>
#include <map>

#include "ctwatch/ct/tiled.hpp"
#include "ctwatch/obs/obs.hpp"
#include "ctwatch/storage/tiles.hpp"
#include "ctwatch/storage/wal.hpp"

namespace ctwatch::storage {

namespace {

constexpr const char* kWalFile = "wal.log";
constexpr const char* kTileFile = "tiles.seg";
constexpr const char* kEntryFile = "entries.seg";
constexpr const char* kManifestFile = "manifest.log";

/// Highest tile level that can hold a full page: full pages exist at
/// level L only once the tree reaches 256^(L+1) leaves, and 256^8 > 2^64.
constexpr unsigned kMaxTileLevel = 6;

struct StoreMetrics {
  obs::Counter& commits = obs::Registry::global().counter("storage.commits");
  obs::Counter& committed_entries = obs::Registry::global().counter("storage.committed_entries");
  obs::Counter& checkpoints = obs::Registry::global().counter("storage.checkpoints");
  obs::Counter& recoveries = obs::Registry::global().counter("storage.recoveries");
  obs::Counter& replayed_entries = obs::Registry::global().counter("storage.replayed_entries");
  obs::Counter& discarded_unsealed = obs::Registry::global().counter("storage.discarded_unsealed");
  obs::Counter& failures = obs::Registry::global().counter("storage.failures");
  obs::LogLinearHistogram& commit_us = obs::Registry::global().latency("storage.commit_us");
  obs::LogLinearHistogram& recovery_us = obs::Registry::global().latency("storage.recovery_us");
};

StoreMetrics& store_metrics() {
  static StoreMetrics metrics;
  return metrics;
}

std::uint64_t frame_size(const WalRecord& record) { return 9 + record.payload.size(); }

/// Full (256-entry) pages that must exist at `level` for a tree of
/// `tree_size` leaves: floor(tree_size / 256^(level+1)).
std::uint64_t full_pages_at(unsigned level, std::uint64_t tree_size) {
  return tree_size >> (8 * (level + 1));
}

}  // namespace

LogStore::Open LogStore::open(LogStoreOptions options) {
  Open out;
  Env::Options env_options;
  env_options.dir = options.dir;
  env_options.chaos = options.chaos;
  env_options.chaos_prefix = options.chaos_prefix;
  env_options.torn_seed = options.torn_seed;
  IoError env_error = IoError::none;
  std::unique_ptr<Env> env = Env::open(std::move(env_options), &env_error);
  if (env == nullptr) {
    out.error = env_error;
    out.detail = "cannot open storage directory " + options.dir;
    return out;
  }
  auto store = std::unique_ptr<LogStore>(new LogStore(std::move(options), std::move(env)));
  std::string detail;
  const IoError error = store->recover(detail);
  if (error != IoError::none) {
    out.error = error;
    out.detail = std::move(detail);
    return out;
  }
  store_metrics().recoveries.inc();
  out.store = std::move(store);
  return out;
}

LogStore::~LogStore() {
  if (!closed_) (void)close();
}

IoError LogStore::recover(std::string& detail) {
  const auto started = std::chrono::steady_clock::now();
  // Every refusal names its cause in `detail`.
  const auto refuse = [&detail](IoError error, const char* why) {
    detail = why;
    return error;
  };
  const auto corrupt = [&refuse](const char* why) { return refuse(IoError::corrupt, why); };

  // 1. Manifest: newest valid checkpoint record anchors everything else.
  Bytes manifest_img;
  if (!env_->read_file(kManifestFile, manifest_img).ok()) {
    return refuse(IoError::io, "cannot read manifest");
  }
  const WalScan manifest_scan = wal_scan(manifest_img);
  std::optional<CheckpointRecord> cp;
  std::uint64_t manifest_valid_bytes = 0;
  for (const WalRecord& record : manifest_scan.records) {
    if (record.type != RecordType::checkpoint) break;  // foreign frame: stop trusting
    std::optional<CheckpointRecord> decoded = decode_checkpoint(record.payload);
    if (!decoded.has_value()) break;  // framed but malformed: treat as torn
    cp = std::move(decoded);
    manifest_valid_bytes += frame_size(record);
  }
  recovery_.manifest_torn_bytes = manifest_img.size() - manifest_valid_bytes;

  const std::uint64_t cp_tree_size = cp.has_value() ? cp->sth.tree_size : 0;
  const std::uint64_t cp_tile_bytes = cp.has_value() ? cp->tile_bytes : 0;
  const std::uint64_t cp_entry_bytes = cp.has_value() ? cp->entry_bytes : 0;
  recovery_.checkpoint_tree_size = cp_tree_size;
  if (cp_tree_size > ct::TileCascade::kLeafCapacity) {
    return corrupt("checkpointed tree exceeds the cascade's leaf capacity");
  }

  const std::uint64_t tile_disk_bytes = env_->file_size(kTileFile);
  const std::uint64_t entry_disk_bytes = env_->file_size(kEntryFile);
  if (tile_disk_bytes < cp_tile_bytes) {
    return corrupt("tile segment shorter than the checkpoint's coverage");
  }
  if (entry_disk_bytes < cp_entry_bytes) {
    return corrupt("entry segment shorter than the checkpoint's coverage");
  }

  // 2. Tile directory: one streaming CRC scan of the checkpointed prefix
  // (garbage past cp_tile_bytes is never parsed). Later pages supersede
  // earlier ones for the same (level, tile).
  directory_ = std::make_shared<TileDirectory>();
  const std::uint64_t tiles_needed = (cp_tree_size + kTileLeaves - 1) / kTileLeaves;
  std::shared_ptr<RandomReadFile> tile_scan;
  if (cp_tile_bytes > 0) {
    tile_scan = env_->open_read(kTileFile);
    if (tile_scan == nullptr) return refuse(IoError::io, "cannot read tile segment");
    constexpr std::uint64_t kScanPages = 128;
    Bytes chunk;
    for (std::uint64_t pos = 0; pos + kTilePageBytes <= cp_tile_bytes;) {
      const std::uint64_t pages =
          std::min<std::uint64_t>(kScanPages, (cp_tile_bytes - pos) / kTilePageBytes);
      chunk.resize(static_cast<std::size_t>(pages * kTilePageBytes));
      if (!tile_scan->read_at(pos, chunk.data(), chunk.size()).ok()) {
        return refuse(IoError::io, "cannot read tile segment");
      }
      for (std::uint64_t p = 0; p < pages; ++p) {
        ++recovery_.tile_pages_scanned;
        const std::optional<TilePage> page =
            decode_tile_page(BytesView{chunk.data() + p * kTilePageBytes, kTilePageBytes});
        if (!page.has_value()) {
          ++recovery_.tile_pages_invalid;
          continue;  // fixed stride: one bad page never desynchronizes the rest
        }
        const std::uint64_t offset = pos + p * kTilePageBytes;
        if (page->level == 0) {
          if (page->tile_index >= tiles_needed) continue;  // beyond this checkpoint's tree
        } else {
          // Upper pages are only ever written full; anything else here is
          // stale garbage the last-wins rule will never need.
          if (page->level > kMaxTileLevel || page->count != kTileLeaves) continue;
          if (page->tile_index >= full_pages_at(page->level, cp_tree_size)) continue;
        }
        directory_->record(page->level, page->tile_index, offset,
                           static_cast<std::uint32_t>(page->count));
      }
      pos += pages * kTilePageBytes;
    }
  }

  // Strict coverage: every level-0 tile below the checkpointed size, and
  // every full upper page the writer's cascade must have produced.
  // Checkpointed pages were fsync'd before the manifest record that
  // references them, so a crash cannot produce a gap — only disk damage.
  for (std::uint64_t t = 0; t < tiles_needed; ++t) {
    const std::uint64_t want = std::min<std::uint64_t>(kTileLeaves, cp_tree_size - t * kTileLeaves);
    const std::optional<TileDirectory::Location> loc = directory_->lookup(0, t);
    if (!loc.has_value() || loc->count < want) {
      return corrupt("tile segment does not cover the checkpointed tree");
    }
  }
  for (unsigned level = 1; level <= kMaxTileLevel; ++level) {
    const std::uint64_t full = full_pages_at(level, cp_tree_size);
    if (full == 0) break;
    for (std::uint64_t t = 0; t < full; ++t) {
      const std::optional<TileDirectory::Location> loc = directory_->lookup(level, t);
      if (!loc.has_value() || loc->count != kTileLeaves) {
        return corrupt("tile segment is missing upper-level pages");
      }
    }
  }

  // One-page loader for the verification passes below.
  Bytes page_buf(kTilePageBytes);
  const auto load_page = [&](unsigned level, std::uint64_t tile) -> std::optional<TilePage> {
    const std::optional<TileDirectory::Location> loc = directory_->lookup(level, tile);
    if (!loc.has_value()) return std::nullopt;
    if (!tile_scan->read_at(loc->offset, page_buf.data(), page_buf.size()).ok()) {
      return std::nullopt;
    }
    std::optional<TilePage> page = decode_tile_page(page_buf);
    if (page.has_value() && (page->level != level || page->tile_index != tile)) return std::nullopt;
    return page;
  };

  // 3. Cryptographic verification + cascade-state rebuild.
  upper_written_.assign(kMaxTileLevel + 2, 0);
  if (options_.recovery_verify == LogStoreOptions::Verify::full) {
    // Stream every level-0 page once, folding all leaves into the
    // cascade. Each upper page the fold completes must equal the
    // persisted one. O(page) memory beyond the upper levels, O(n) time.
    for (std::uint64_t t = 0; t < tiles_needed; ++t) {
      const std::optional<TilePage> page = load_page(0, t);
      const std::uint64_t want =
          std::min<std::uint64_t>(kTileLeaves, cp_tree_size - t * kTileLeaves);
      if (!page.has_value() || page->count < want) {
        return corrupt("tile segment does not cover the checkpointed tree");
      }
      for (std::uint64_t i = 0; i < want; ++i) cascade_.append(page->leaves[i]);
      for (unsigned level = 1; level <= cascade_.levels(); ++level) {
        for (std::uint64_t& tile = upper_written_[level];
             (tile + 1) * kTileLeaves <= cascade_.level_size(level); ++tile) {
          const std::optional<TilePage> upper = load_page(level, tile);
          if (!upper.has_value() ||
              !std::equal(upper->leaves.begin(), upper->leaves.end(),
                          cascade_.entries(level, tile * kTileLeaves, kTileLeaves))) {
            return corrupt("upper tile page disagrees with the leaves below it");
          }
        }
      }
    }
    if (cp.has_value()) {
      if (cascade_.root() != cp->sth.root_hash) {
        return corrupt("checkpointed root hash does not match the tile leaves");
      }
      if (cascade_.accumulator().frontier() != cp->frontier) {
        return corrupt("checkpointed frontier does not match the tile leaves");
      }
    }
  } else if (cp.has_value()) {
    // Structural: restore the frontier in O(log n) after checking its
    // shape reproduces the checkpointed root. Page CRCs still vouch for
    // the tiles; the full refold was this checkpoint writer's job.
    std::optional<ct::RootAccumulator> restored =
        ct::RootAccumulator::from_frontier(cp->frontier, cp_tree_size);
    if (!restored.has_value()) return corrupt("checkpointed frontier has the wrong shape");
    if (restored->root() != cp->sth.root_hash) {
      return corrupt("checkpointed root hash does not match its frontier");
    }
    // Rebuild the upper levels: full pages load as persisted (no
    // hashing), and each level's partial entries fold from the level
    // below — at most 255 page folds per level.
    for (unsigned level = 1; level <= cascade_.levels(); ++level) {
      const std::uint64_t entries_here = cp_tree_size >> (8 * level);
      if (entries_here == 0) break;
      const std::uint64_t full = entries_here >> 8;
      upper_written_[level] = full;
      for (std::uint64_t t = 0; t < full; ++t) {
        const std::optional<TilePage> page = load_page(level, t);
        if (!page.has_value() || page->count != kTileLeaves) {
          return corrupt("tile segment is missing upper-level pages");
        }
        for (const crypto::Digest& entry : page->leaves) cascade_.restore_entry(level, entry);
      }
      for (std::uint64_t i = full * kTileLeaves; i < entries_here; ++i) {
        const std::optional<TilePage> below = load_page(level - 1, i);
        if (!below.has_value() || below->count != kTileLeaves) {
          return corrupt("tile segment does not cover the checkpointed tree");
        }
        cascade_.restore_entry(level, ct::fold_perfect(below->leaves.data(), kTileLeaves));
      }
    }
    cascade_.restore_frontier(std::move(*restored));
  }
  if (cp.has_value()) {
    sth_ = cp->sth;
    seal_seq_ = cp->seal_seq;
    last_timestamp_ms_ = cp->last_timestamp_ms;
  }

  // Resident tail seed: the leaves of the last, possibly partial tile.
  tail_base_ = cp_tree_size / kTileLeaves * kTileLeaves;
  if (cp_tree_size > tail_base_) {
    const std::optional<TilePage> tail_page = load_page(0, cp_tree_size / kTileLeaves);
    if (!tail_page.has_value() || tail_page->count < cp_tree_size - tail_base_) {
      return corrupt("tile segment does not cover the checkpointed tree");
    }
    tail_leaves_.assign(tail_page->leaves.begin(),
                        tail_page->leaves.begin() +
                            static_cast<std::ptrdiff_t>(cp_tree_size - tail_base_));
  }

  // 4. Entry segment: stream the checkpointed prefix, CRC-checking every
  // frame and seeding one index mark per stride. Full mode also decodes
  // each record and cross-checks it against the tile leaves.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> entry_marks;
  std::uint64_t entry_frames = 0;
  if (cp_entry_bytes > 0) {
    const std::shared_ptr<RandomReadFile> entry_scan = env_->open_read(kEntryFile);
    if (entry_scan == nullptr) return refuse(IoError::io, "cannot read entry segment");
    FrameCursor cursor(*entry_scan, 0, cp_entry_bytes);
    RecordType type{};
    Bytes payload;
    std::optional<TilePage> cross_page;  // current level-0 page, full mode
    for (;;) {
      const std::uint64_t at = cursor.offset();
      const FrameCursor::Status status = cursor.next(type, payload);
      if (status == FrameCursor::Status::end) break;
      if (status == FrameCursor::Status::io) {
        return refuse(IoError::io, "cannot read entry segment");
      }
      if (status == FrameCursor::Status::corrupt) {
        return corrupt("entry segment corrupt inside the checkpointed prefix");
      }
      if (type != RecordType::entry) return corrupt("entry segment holds a non-entry frame");
      if (entry_frames >= cp_tree_size) {
        return corrupt("entry segment disagrees with the tile leaves");
      }
      if (entry_frames % options_.entry_index_stride == 0) {
        entry_marks.emplace_back(entry_frames, at);
      }
      if (options_.recovery_verify == LogStoreOptions::Verify::full) {
        const std::optional<DurableEntry> entry =
            decode_entry(BytesView{payload.data(), payload.size()});
        if (!entry.has_value()) return corrupt("entry segment frame does not decode");
        crypto::Digest leaf;
        if (entry_frames >= tail_base_) {
          leaf = tail_leaves_[static_cast<std::size_t>(entry_frames - tail_base_)];
        } else {
          const std::uint64_t tile = entry_frames / kTileLeaves;
          if (!cross_page.has_value() || cross_page->tile_index != tile) {
            cross_page = load_page(0, tile);
            if (!cross_page.has_value()) {
              return corrupt("tile segment does not cover the checkpointed tree");
            }
          }
          leaf = cross_page->leaves[static_cast<std::size_t>(entry_frames % kTileLeaves)];
        }
        if (entry->index != entry_frames || entry->leaf_hash != leaf) {
          return corrupt("entry segment disagrees with the tile leaves");
        }
      }
      ++entry_frames;
    }
  }
  if (entry_frames != cp_tree_size) {
    return corrupt("entry segment does not cover the checkpointed tree");
  }

  // 5. WAL replay: every durable seal re-folds its batch and must
  // reproduce the sealed root. Entries after the last durable seal are
  // unsealed submissions — discarded, visibly. O(WAL tail) memory: this
  // is the only part of recovery that retains per-entry state.
  Bytes wal_img;
  if (!env_->read_file(kWalFile, wal_img).ok()) return refuse(IoError::io, "cannot read wal");
  const WalScan wal = wal_scan(wal_img);
  std::map<std::uint64_t, DurableEntry> staged;
  std::uint64_t committed_wal_bytes = 0;  // offset after the last applied/stale seal
  std::uint64_t offset = 0;
  for (const WalRecord& record : wal.records) {
    const std::uint64_t offset_after = offset + frame_size(record);
    if (record.type == RecordType::entry) {
      std::optional<DurableEntry> entry = decode_entry(record.payload);
      if (!entry.has_value()) break;  // framed but malformed: stop trusting here
      if (entry->index < cascade_.size()) {
        ++recovery_.stale_wal_records;  // re-covered by the checkpoint
      } else {
        staged[entry->index] = std::move(*entry);
      }
    } else if (record.type == RecordType::seal) {
      std::optional<SealRecord> seal = decode_seal(record.payload);
      if (!seal.has_value()) break;
      if (seal->sth.tree_size <= cascade_.size()) {
        ++recovery_.stale_wal_records;  // the checkpoint already covers it
        committed_wal_bytes = offset_after;
      } else {
        if (seal->sth.tree_size > ct::TileCascade::kLeafCapacity) {
          return corrupt("durable seal exceeds the cascade's leaf capacity");
        }
        // A missing entry or a root mismatch fails the whole open, so the
        // cascade folds each entry as it is gathered.
        std::vector<DurableEntry> batch;
        for (std::uint64_t i = cascade_.size(); i < seal->sth.tree_size; ++i) {
          auto it = staged.find(i);
          if (it == staged.end()) {
            return corrupt("durable seal references entries the wal does not hold");
          }
          cascade_.append(it->second.leaf_hash);
          batch.push_back(std::move(it->second));
          staged.erase(it);
        }
        if (cascade_.root() != seal->sth.root_hash) {
          return corrupt("durable seal's root hash does not match its entries");
        }
        for (DurableEntry& entry : batch) {
          tail_leaves_.push_back(entry.leaf_hash);
          last_timestamp_ms_ = std::max(last_timestamp_ms_, entry.timestamp_ms);
          if (entry.index % options_.entry_index_stride == 0) {
            pending_entry_marks_.emplace_back(entry.index, entry_frames_pending_.size());
          }
          wal_frame(entry_frames_pending_, RecordType::entry, encode_entry(entry));
          wal_tail_entries_.push_back(std::move(entry));
        }
        last_timestamp_ms_ = std::max(last_timestamp_ms_, seal->sth.timestamp_ms);
        sth_ = seal->sth;
        seal_seq_ = seal->seal_seq;
        ++recovery_.replayed_batches;
        recovery_.replayed_entries += batch.size();
        committed_wal_bytes = offset_after;
      }
    } else {
      break;  // a checkpoint frame inside the wal: foreign, stop trusting
    }
    offset = offset_after;
  }
  recovery_.discarded_unsealed = staged.size();
  recovery_.wal_torn_bytes = wal_img.size() - committed_wal_bytes;

  // 6. Reopen for appending, truncating every torn/unsealed tail so the
  // garbage can never be re-read as data.
  IoError file_error = IoError::none;
  wal_ = env_->open_append(kWalFile, committed_wal_bytes, &file_error);
  if (wal_ == nullptr) return refuse(file_error, "cannot reopen wal");
  tiles_ = env_->open_append(kTileFile, cp_tile_bytes, &file_error);
  if (tiles_ == nullptr) return refuse(file_error, "cannot reopen tile segment");
  entries_ = env_->open_append(kEntryFile, cp_entry_bytes, &file_error);
  if (entries_ == nullptr) return refuse(file_error, "cannot reopen entry segment");
  manifest_ = env_->open_append(kManifestFile, manifest_valid_bytes, &file_error);
  if (manifest_ == nullptr) return refuse(file_error, "cannot reopen manifest");
  tiles_persisted_leaves_ = cp_tree_size;

  // 7. Stand up the read path (the append opens above created any
  // missing files, so these handles always resolve).
  tile_read_ = env_->open_read(kTileFile, &file_error);
  if (tile_read_ == nullptr) return refuse(file_error, "cannot open tile segment for reading");
  entry_read_ = env_->open_read(kEntryFile, &file_error);
  if (entry_read_ == nullptr) return refuse(file_error, "cannot open entry segment for reading");
  cache_ = std::make_unique<TileCache>(
      tile_read_, directory_,
      TileCacheOptions{options_.tile_cache_bytes, options_.tile_cache_shards});
  reader_ = std::make_unique<SegmentReader>(entry_read_, options_.entry_index_stride);
  for (const auto& [index, mark_offset] : entry_marks) reader_->add_mark(index, mark_offset);
  reader_->set_coverage(cp_tree_size, cp_entry_bytes);
  directory_->set_paged_leaves(cp_tree_size);

  recovery_.opened_fresh = manifest_img.empty() && wal_img.empty() && tile_disk_bytes == 0 &&
                           entry_disk_bytes == 0;
  recovery_.tree_size = cascade_.size();
  recovery_.recovery_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(std::chrono::steady_clock::now() -
                                                            started)
          .count());
  StoreMetrics& metrics = store_metrics();
  metrics.replayed_entries.inc(recovery_.replayed_entries);
  metrics.discarded_unsealed.inc(recovery_.discarded_unsealed);
  metrics.recovery_us.observe(static_cast<double>(recovery_.recovery_us));
  obs::flight_note("storage.recovered", recovery_.tree_size);
  return IoError::none;
}

IoResult LogStore::fail_with(IoError error) {
  if (last_error_ == IoError::none) {
    last_error_ = error;
    store_metrics().failures.inc();
    obs::flight_note("storage.failed", static_cast<std::uint64_t>(error));
  }
  return IoResult::fail(error);
}

IoResult LogStore::commit_batch(const BatchCommit& batch) {
  std::vector<crypto::Digest> leaves;
  leaves.reserve(batch.entries.size());
  for (const DurableEntry& entry : batch.entries) leaves.push_back(entry.leaf_hash);
  if (leaves.size() > ct::TileCascade::kLeafCapacity - cascade_.size()) {
    return IoResult::fail(IoError::corrupt);  // a fold the cascade cannot hold
  }
  return commit_batch(batch, cascade_.stage(std::move(leaves)));
}

IoResult LogStore::commit_batch(const BatchCommit& batch, const ct::TileCascade::Staged& staged) {
  if (failed()) return IoResult::fail(last_error_);
  if (closed_) return IoResult::fail(IoError::io);
  if (batch.entries.empty()) return IoResult::fail(IoError::corrupt);

  // Validate before writing a byte: the batch must extend the tree
  // contiguously, be the fold the caller staged, and carry that fold's
  // signed size and root. Comparisons only — the fold is not repeated. A
  // mismatch is a caller bug; surfacing it here keeps garbage out of the
  // WAL.
  const std::uint64_t first = cascade_.size();
  if (staged.base != first || staged.leaves.size() != batch.entries.size()) {
    return IoResult::fail(IoError::corrupt);
  }
  for (std::size_t i = 0; i < batch.entries.size(); ++i) {
    if (batch.entries[i].index != first + i || batch.entries[i].leaf_hash != staged.leaves[i]) {
      return IoResult::fail(IoError::corrupt);
    }
  }
  if (batch.sth.tree_size != staged.size() || batch.sth.root_hash != staged.root) {
    return IoResult::fail(IoError::corrupt);
  }

  obs::ScopedTimer timer(store_metrics().commit_us);
  Bytes frames;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> marks;  // (index, rel offset)
  for (const DurableEntry& entry : batch.entries) {
    if (entry.index % options_.entry_index_stride == 0) {
      marks.emplace_back(entry.index, frames.size());
    }
    wal_frame(frames, RecordType::entry, encode_entry(entry));
  }
  const std::size_t entry_frame_bytes = frames.size();
  wal_frame(frames, RecordType::seal,
            encode_seal(SealRecord{first, batch.seal_seq, batch.sth}));
  IoResult io = wal_->append(frames);
  if (!io.ok()) return fail_with(io.error);
  io = wal_->sync();
  if (!io.ok()) return fail_with(io.error);

  // The batch is durable; apply it to the in-memory image. The entry
  // frames (not the seal) also queue for the entry segment, which the
  // next checkpoint appends and fsyncs.
  const std::size_t rel_base = entry_frames_pending_.size();
  entry_frames_pending_.insert(entry_frames_pending_.end(), frames.begin(),
                               frames.begin() + static_cast<std::ptrdiff_t>(entry_frame_bytes));
  for (const auto& [index, rel] : marks) pending_entry_marks_.emplace_back(index, rel_base + rel);
  for (const DurableEntry& entry : batch.entries) {
    tail_leaves_.push_back(entry.leaf_hash);
    last_timestamp_ms_ = std::max(last_timestamp_ms_, entry.timestamp_ms);
  }
  cascade_.apply(staged);
  sth_ = batch.sth;
  seal_seq_ = batch.seal_seq;
  last_timestamp_ms_ = std::max(last_timestamp_ms_, batch.sth.timestamp_ms);
  StoreMetrics& metrics = store_metrics();
  metrics.commits.inc();
  metrics.committed_entries.inc(batch.entries.size());

  ++batches_since_checkpoint_;
  if (options_.checkpoint_interval_batches != 0 &&
      batches_since_checkpoint_ >= options_.checkpoint_interval_batches) {
    // A checkpoint failure cannot un-commit the batch: report ok, but the
    // store is poisoned for every later write.
    (void)checkpoint();
  }
  return IoResult::success();
}

IoResult LogStore::write_upper_pages(std::uint64_t leaves, std::vector<PendingTile>& written,
                                     Bytes& page) {
  const unsigned levels = std::min(cascade_.levels(), kMaxTileLevel);
  for (unsigned level = 1; level <= levels; ++level) {
    const std::uint64_t tile = upper_written_[level];
    // Page `tile` of `level` covers leaves up to (tile + 1) * 256^(level + 1).
    if ((tile + 1) << (8 * (level + 1)) > leaves) break;
    page.clear();
    encode_tile_page(page, tile, cascade_.entries(level, tile * kTileLeaves, kTileLeaves),
                     kTileLeaves, level);
    const std::uint64_t at = tiles_->size();
    const IoResult io = tiles_->append(page);
    if (!io.ok()) return io;
    written.push_back(PendingTile{level, tile, at, static_cast<std::uint32_t>(kTileLeaves)});
    ++upper_written_[level];
  }
  return IoResult::success();
}

IoResult LogStore::write_dirty_tiles(std::vector<PendingTile>& written) {
  const std::uint64_t tree = cascade_.size();
  if (tree <= tiles_persisted_leaves_) return IoResult::success();
  Bytes page;
  for (std::uint64_t t = tiles_persisted_leaves_ / kTileLeaves; t * kTileLeaves < tree; ++t) {
    const std::uint64_t begin = t * kTileLeaves;
    const std::uint64_t count = std::min<std::uint64_t>(kTileLeaves, tree - begin);
    const crypto::Digest* src =
        tail_leaves_.data() + static_cast<std::ptrdiff_t>(begin - tail_base_);
    page.clear();
    encode_tile_page(page, t, src, count);
    const std::uint64_t at = tiles_->size();
    const IoResult io = tiles_->append(page);
    if (!io.ok()) return io;
    written.push_back(PendingTile{0, t, at, static_cast<std::uint32_t>(count)});
    if (count == kTileLeaves) {
      // The tile just became full: any upper page it completes follows it
      // (each page is written exactly once across the store's life).
      const IoResult upper = write_upper_pages(begin + kTileLeaves, written, page);
      if (!upper.ok()) return upper;
    }
  }
  return IoResult::success();
}

IoResult LogStore::checkpoint() {
  if (failed()) return IoResult::fail(last_error_);
  if (closed_) return IoResult::fail(IoError::io);
  if (!sth_.has_value()) return IoResult::success();  // nothing to anchor yet
  if (batches_since_checkpoint_ == 0 && entry_frames_pending_.empty() &&
      cascade_.size() == tiles_persisted_leaves_) {
    return IoResult::success();  // the manifest already covers this state
  }

  // Segments first, fsync'd before the manifest frame that references
  // them; the WAL is reset only after the manifest frame is durable.
  // Every crash window between these steps recovers: an older manifest
  // anchor plus the still-present WAL reproduce the same tree.
  std::vector<PendingTile> tiles_written;
  IoResult io = write_dirty_tiles(tiles_written);
  if (!io.ok()) return fail_with(io.error);
  const std::uint64_t entry_seg_base = entries_->size();
  if (!entry_frames_pending_.empty()) {
    io = entries_->append(entry_frames_pending_);
    if (!io.ok()) return fail_with(io.error);
  }
  io = tiles_->sync();
  if (!io.ok()) return fail_with(io.error);
  io = entries_->sync();
  if (!io.ok()) return fail_with(io.error);

  CheckpointRecord record;
  record.sth = *sth_;
  record.frontier = cascade_.accumulator().frontier();
  record.seal_seq = seal_seq_;
  record.last_timestamp_ms = last_timestamp_ms_;
  record.tile_bytes = tiles_->size();
  record.entry_bytes = entries_->size();
  io = wal_append(*manifest_, RecordType::checkpoint, encode_checkpoint(record));
  if (!io.ok()) return fail_with(io.error);
  io = manifest_->sync();
  if (!io.ok()) return fail_with(io.error);

  // The wal's batches are all behind the manifest now: reset it.
  wal_.reset();
  io = env_->remove(kWalFile);
  if (!io.ok()) return fail_with(io.error);
  IoError file_error = IoError::none;
  wal_ = env_->open_append(kWalFile, 0, &file_error);
  if (wal_ == nullptr) return fail_with(file_error);

  // Publish the read-path state only now, when every byte it names is
  // durable: the directory serves preads, so it must never point at
  // bytes still in the writer's buffer.
  for (const PendingTile& tile : tiles_written) {
    directory_->record(tile.level, tile.tile, tile.offset, tile.count);
  }
  for (const auto& [index, rel] : pending_entry_marks_) {
    reader_->add_mark(index, entry_seg_base + rel);
  }
  reader_->set_coverage(cascade_.size(), entries_->size());
  directory_->set_paged_leaves(cascade_.size());
  tiles_persisted_leaves_ = cascade_.size();

  // Trim the resident tail to the last (possibly partial) tile: leaves
  // covered by fsync'd pages never also live resident.
  const std::uint64_t new_base = tiles_persisted_leaves_ / kTileLeaves * kTileLeaves;
  if (new_base > tail_base_) {
    tail_leaves_.erase(tail_leaves_.begin(),
                       tail_leaves_.begin() + static_cast<std::ptrdiff_t>(new_base - tail_base_));
    tail_base_ = new_base;
  }
  wal_tail_entries_.clear();
  wal_tail_entries_.shrink_to_fit();
  entry_frames_pending_.clear();
  pending_entry_marks_.clear();
  batches_since_checkpoint_ = 0;
  store_metrics().checkpoints.inc();
  return IoResult::success();
}

IoError LogStore::stream_paged_leaves(
    std::uint64_t begin, std::uint64_t end,
    const std::function<bool(std::uint64_t, const crypto::Digest*, std::uint64_t)>& fn) {
  end = std::min(end, paged_leaves());
  for (std::uint64_t at = begin; at < end;) {
    const std::uint64_t tile = at / kTileLeaves;
    const std::uint64_t stop = std::min(end, (tile + 1) * kTileLeaves);
    const TileCache::PagePtr page = cache_->get(0, tile, stop - tile * kTileLeaves);
    if (!page) return IoError::corrupt;
    if (!fn(at, page->leaves.data() + (at - tile * kTileLeaves), stop - at)) {
      return IoError::none;
    }
    at = stop;
  }
  return IoError::none;
}

PagedLeafSource LogStore::leaf_source() {
  return PagedLeafSource(*cache_, paged_leaves(), [this](std::uint64_t index) {
    return tail_leaf(index);  // throws std::out_of_range below tail_base
  });
}

IoResult LogStore::close() {
  if (closed_) return IoResult::success();
  IoResult io = IoResult::success();
  if (!failed()) io = checkpoint();
  closed_ = true;
  wal_.reset();
  tiles_.reset();
  entries_.reset();
  manifest_.reset();
  return io;
}

}  // namespace ctwatch::storage
