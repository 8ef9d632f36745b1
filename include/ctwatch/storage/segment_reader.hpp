// Sparse-indexed entry reads from entries.seg, without residency.
//
// The entry segment is a WAL-framed append stream of DurableEntry
// records in index order. Frames are variable length (issuer CNs,
// optional bodies), so random access needs an index — but a dense one
// would be another O(n) resident structure. Instead:
//
//   * FrameCursor streams frames from any byte offset, validating each
//     with the exact wal_scan rules (length sanity, CRC, known type),
//     through a fixed-size pread buffer — recovery scans the whole
//     segment in O(buffer) memory, and point reads scan only the gap
//     from the nearest index mark.
//   * SegmentReader keeps one (entry index -> byte offset) mark per
//     `index_stride` frames (64 by default: ~16 B per 64 entries, a few
//     MiB per 10⁹). read(start, count) seeks to the floor mark and
//     decodes forward, skipping at most stride-1 frames. Its buffer spans
//     only the bytes up to the first mark at or past start + count, so a
//     32-entry read preads a few KiB, not the cursor's full buffer.
//
// The index grows append-only: recovery seeds it for the checkpointed
// prefix, the writer extends it at each checkpoint after fsync. Readers
// and the writer synchronize on one mutex around the mark vector; the
// preads themselves are lock-free.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "ctwatch/storage/codec.hpp"
#include "ctwatch/storage/file.hpp"
#include "ctwatch/storage/wal.hpp"

namespace ctwatch::storage {

/// Streams WAL frames from a RandomReadFile byte range via buffered
/// preads. Single-threaded use; construct per scan.
class FrameCursor {
 public:
  enum class Status {
    ok,       ///< a frame was produced
    end,      ///< clean end of the range
    corrupt,  ///< invalid frame (bad length/CRC/type) before range end
    io,       ///< pread failure
  };

  /// Scans [begin, end) of `file`. The range must end on a frame
  /// boundary for Status::end — a trailing partial frame is `corrupt`
  /// (callers scanning durable, checkpoint-covered bytes treat that as
  /// hard corruption; WAL-tail semantics stay in wal_scan).
  static constexpr std::size_t kMaxBufferBytes = std::size_t{1} << 20;

  FrameCursor(const RandomReadFile& file, std::uint64_t begin, std::uint64_t end,
              std::size_t buffer_bytes = kMaxBufferBytes);

  /// Advances to the next frame. On `ok`, `type` and `payload` describe
  /// it; `payload` is valid until the next call.
  Status next(RecordType& type, Bytes& payload);

  /// Byte offset of the frame `next` would read — i.e. just past the
  /// last frame returned.
  [[nodiscard]] std::uint64_t offset() const { return next_frame_; }

 private:
  /// Ensures [next_frame_, next_frame_+n) is in buffer_; false on IO error.
  bool ensure(std::size_t n);

  const RandomReadFile& file_;
  std::uint64_t end_;
  std::uint64_t next_frame_;    ///< absolute offset of the next frame
  std::uint64_t buffer_base_ = 0;
  Bytes buffer_;
  std::size_t buffer_cap_;
};

/// Random access to DurableEntry records by index. Thread-safe.
class SegmentReader {
 public:
  SegmentReader(std::shared_ptr<const RandomReadFile> file, std::uint64_t index_stride = 64);

  /// Registers "entry `index` starts at byte `offset`". Marks must
  /// arrive in increasing index order (recovery, then checkpoints).
  void add_mark(std::uint64_t index, std::uint64_t offset);

  /// Extends the readable prefix: `entries` records occupying the first
  /// `bytes` of the segment are durable. Published after fsync.
  void set_coverage(std::uint64_t entries, std::uint64_t bytes);

  [[nodiscard]] std::uint64_t entries() const;
  [[nodiscard]] std::uint64_t index_stride() const { return stride_; }

  /// Decodes entries [start, start+count) into `out` (appended).
  /// Returns IoError::none on success; `corrupt` on any framing/decode/
  /// index mismatch inside the covered range; `io` on pread failure.
  /// Ranges beyond coverage() are the caller's bug -> corrupt.
  IoError read(std::uint64_t start, std::uint64_t count,
               std::vector<DurableEntry>& out) const;

  /// Decodes entries [start, start+count) in index order, handing each
  /// to `fn` instead of collecting them: a whole-prefix pass in
  /// O(buffer) memory. Same errors as read().
  IoError scan(std::uint64_t start, std::uint64_t count,
               const std::function<void(DurableEntry&)>& fn) const;

 private:
  struct Mark {
    std::uint64_t index;
    std::uint64_t offset;
  };

  std::shared_ptr<const RandomReadFile> file_;
  std::uint64_t stride_;
  mutable std::mutex mu_;
  std::vector<Mark> marks_;        ///< sorted by index
  std::uint64_t entries_ = 0;      ///< covered entry count
  std::uint64_t bytes_ = 0;        ///< covered byte count
};

}  // namespace ctwatch::storage
