#include "ctwatch/storage/segment_reader.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "ctwatch/storage/crc32c.hpp"

namespace ctwatch::storage {

namespace {

std::uint32_t read_u32be(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) << 24 | static_cast<std::uint32_t>(p[1]) << 16 |
         static_cast<std::uint32_t>(p[2]) << 8 | static_cast<std::uint32_t>(p[3]);
}

}  // namespace

FrameCursor::FrameCursor(const RandomReadFile& file, std::uint64_t begin, std::uint64_t end,
                         std::size_t buffer_bytes)
    : file_(file), end_(end), next_frame_(begin), buffer_cap_(buffer_bytes) {
  if (buffer_cap_ < 4096) buffer_cap_ = 4096;
}

bool FrameCursor::ensure(std::size_t n) {
  const std::uint64_t have_end = buffer_base_ + buffer_.size();
  if (next_frame_ >= buffer_base_ && next_frame_ + n <= have_end) return true;
  const std::uint64_t want = std::min<std::uint64_t>(
      end_ - next_frame_, std::max<std::uint64_t>(n, buffer_cap_));
  buffer_.resize(static_cast<std::size_t>(want));
  buffer_base_ = next_frame_;
  if (want == 0) return true;
  return file_.read_at(next_frame_, buffer_.data(), buffer_.size()).error == IoError::none;
}

FrameCursor::Status FrameCursor::next(RecordType& type, Bytes& payload) {
  if (next_frame_ == end_) return Status::end;
  if (next_frame_ + 9 > end_) return Status::corrupt;  // header can't fit
  if (!ensure(9)) return Status::io;
  const std::uint8_t* header = buffer_.data() + (next_frame_ - buffer_base_);
  const std::uint32_t length = read_u32be(header);
  if (length == 0 || length > kMaxRecordBytes) return Status::corrupt;
  if (next_frame_ + 8 + length > end_) return Status::corrupt;  // runs past range
  if (!ensure(8 + static_cast<std::size_t>(length))) return Status::io;
  const std::uint8_t* frame = buffer_.data() + (next_frame_ - buffer_base_);
  const std::uint32_t stored_crc = crc32c_unmask(read_u32be(frame + 4));
  const BytesView body{frame + 8, length};
  if (crc32c(body) != stored_crc) return Status::corrupt;
  const std::uint8_t type_byte = body[0];
  if (type_byte != static_cast<std::uint8_t>(RecordType::entry) &&
      type_byte != static_cast<std::uint8_t>(RecordType::seal) &&
      type_byte != static_cast<std::uint8_t>(RecordType::checkpoint)) {
    return Status::corrupt;
  }
  type = static_cast<RecordType>(type_byte);
  payload.assign(body.begin() + 1, body.end());
  next_frame_ += 8 + length;
  return Status::ok;
}

SegmentReader::SegmentReader(std::shared_ptr<const RandomReadFile> file,
                             std::uint64_t index_stride)
    : file_(std::move(file)), stride_(index_stride == 0 ? 1 : index_stride) {}

void SegmentReader::add_mark(std::uint64_t index, std::uint64_t offset) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!marks_.empty() && marks_.back().index >= index) return;  // monotone only
  marks_.push_back(Mark{index, offset});
}

void SegmentReader::set_coverage(std::uint64_t entries, std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_ = std::max(entries_, entries);
  bytes_ = std::max(bytes_, bytes);
}

std::uint64_t SegmentReader::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_;
}

IoError SegmentReader::read(std::uint64_t start, std::uint64_t count,
                            std::vector<DurableEntry>& out) const {
  return scan(start, count, [&out](DurableEntry& entry) { out.push_back(std::move(entry)); });
}

IoError SegmentReader::scan(std::uint64_t start, std::uint64_t count,
                            const std::function<void(DurableEntry&)>& fn) const {
  if (count == 0) return IoError::none;
  const std::uint64_t stop = start + count;
  std::uint64_t cursor_index = 0;
  std::uint64_t cursor_offset = 0;
  std::uint64_t span_end = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop > entries_) return IoError::corrupt;
    // Floor mark: the last mark at or below `start`. Marks are sorted.
    auto it = std::upper_bound(marks_.begin(), marks_.end(), start,
                               [](std::uint64_t s, const Mark& m) { return s < m.index; });
    if (it != marks_.begin()) {
      cursor_index = std::prev(it)->index;
      cursor_offset = std::prev(it)->offset;
    }
    // The frames [cursor_index, stop) end at or before the first mark
    // at or past `stop` (a frame boundary), and within coverage.
    it = std::lower_bound(it, marks_.end(), stop,
                          [](const Mark& m, std::uint64_t s) { return m.index < s; });
    span_end = it != marks_.end() ? std::min(it->offset, bytes_) : bytes_;
  }

  FrameCursor cursor(*file_, cursor_offset, span_end,
                     static_cast<std::size_t>(std::min<std::uint64_t>(
                         span_end - cursor_offset, FrameCursor::kMaxBufferBytes)));
  RecordType type{};
  Bytes payload;
  while (cursor_index < stop) {
    switch (cursor.next(type, payload)) {
      case FrameCursor::Status::ok:
        break;
      case FrameCursor::Status::io:
        return IoError::io;
      default:
        return IoError::corrupt;  // end-before-expected counts too
    }
    if (type != RecordType::entry) return IoError::corrupt;
    if (cursor_index >= start) {
      std::optional<DurableEntry> entry = decode_entry(BytesView{payload.data(), payload.size()});
      if (!entry.has_value() || entry->index != cursor_index) return IoError::corrupt;
      fn(*entry);
    }
    ++cursor_index;
  }
  return IoError::none;
}

}  // namespace ctwatch::storage
