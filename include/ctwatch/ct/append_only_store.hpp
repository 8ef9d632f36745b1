// ctwatch::ct — append-only store with wait-free readers.
//
// The storage that lets get-sth / proof / get-entries traffic run without
// ever touching a log's write path. One writer (the sequencer) appends
// into fixed-size chunks and release-publishes the element count once a
// batch is sealed; any number of readers acquire-load the count and then
// address elements below it directly. Elements below the published size
// are immutable, chunks never move (no reallocation, ever), so a reader
// holds no lock and is never invalidated. ct::TileCascade (merkle.hpp)
// keeps its upper tile levels in such stores, and ct::DigestIndex
// (ct/digest_index.hpp) is the hash index over one.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>

namespace ctwatch::ct {

/// Why a bounded append was refused, item untouched: `full` at capacity,
/// `closed` at teardown (logsvc's BoundedQueue only).
enum class PushResult : std::uint8_t { ok, full, closed };

/// Single-writer / multi-reader append-only sequence of T.
///
/// Writer protocol: any number of append() calls, then one publish().
/// Readers must bound their accesses by size() (or by a tree size derived
/// from it, e.g. a published STH); at(i) for i < size() is race-free.
template <typename T>
class AppendOnlyStore {
 public:
  explicit AppendOnlyStore(std::size_t chunk_bits = 14, std::size_t max_chunks = std::size_t(1) << 15)
      : chunk_bits_(chunk_bits),
        chunk_mask_((std::size_t(1) << chunk_bits) - 1),
        max_chunks_(max_chunks),
        chunks_(std::make_unique<std::atomic<T*>[]>(max_chunks)) {}

  ~AppendOnlyStore() {
    for (std::size_t c = 0; c < max_chunks_; ++c) {
      T* chunk = chunks_[c].load(std::memory_order_relaxed);
      if (chunk == nullptr) continue;
      const std::uint64_t first = static_cast<std::uint64_t>(c) << chunk_bits_;
      std::destroy_n(chunk, static_cast<std::size_t>(
                                std::min<std::uint64_t>(chunk_mask_ + 1, write_pos_ - first)));
      ::operator delete(chunk);
    }
  }

  AppendOnlyStore(const AppendOnlyStore&) = delete;
  AppendOnlyStore& operator=(const AppendOnlyStore&) = delete;

  /// Writer only. Appends one element; not visible to readers until
  /// publish(). Returns PushResult::full (the same typed refusal the
  /// BoundedQueue gives) once every chunk slot is used — capacity is a
  /// resource condition the sequencer must surface per-submission, not an
  /// exception tearing through the seal loop.
  [[nodiscard]] PushResult append(T value) {
    const std::size_t chunk_index = static_cast<std::size_t>(write_pos_ >> chunk_bits_);
    if (chunk_index >= max_chunks_) return PushResult::full;
    T* chunk = chunks_[chunk_index].load(std::memory_order_relaxed);
    if (chunk == nullptr) {
      // Raw storage: elements are constructed as they are appended, so a
      // chunk is resident only as far as it is filled.
      chunk = static_cast<T*>(::operator new(sizeof(T) << chunk_bits_));
      chunks_[chunk_index].store(chunk, std::memory_order_release);
    }
    ::new (static_cast<void*>(chunk + (write_pos_ & chunk_mask_))) T(std::move(value));
    ++write_pos_;
    return PushResult::ok;
  }

  /// Total element capacity (chunks never grow past max_chunks).
  [[nodiscard]] std::uint64_t capacity() const {
    return static_cast<std::uint64_t>(max_chunks_) << chunk_bits_;
  }

  /// Writer only. Release-publishes everything appended so far; the
  /// elements become immutable and visible to readers.
  void publish() { size_.store(write_pos_, std::memory_order_release); }

  /// Writer only: elements appended (published or not).
  [[nodiscard]] std::uint64_t write_pos() const { return write_pos_; }

  /// Published element count (reader fence).
  [[nodiscard]] std::uint64_t size() const { return size_.load(std::memory_order_acquire); }

  /// Element i; the caller must have established i < size().
  [[nodiscard]] const T& at(std::uint64_t i) const {
    const T* chunk =
        chunks_[static_cast<std::size_t>(i >> chunk_bits_)].load(std::memory_order_acquire);
    return chunk[i & chunk_mask_];
  }

 private:
  const std::size_t chunk_bits_;
  const std::size_t chunk_mask_;
  const std::size_t max_chunks_;
  std::unique_ptr<std::atomic<T*>[]> chunks_;
  std::uint64_t write_pos_ = 0;          // writer-private
  std::atomic<std::uint64_t> size_{0};   // published watermark
};

}  // namespace ctwatch::ct
