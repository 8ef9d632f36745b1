// ctwatch::logsvc — bounded multi-producer queue with fail-fast overload.
//
// The backpressure primitive of the service layer: producers never block.
// When the queue is at capacity, try_push returns `full` immediately and
// the caller surfaces `overloaded` — the Nimbus lesson (a log that keeps
// absorbing submissions past its capacity ends up issuing bad SCTs)
// turned into an explicit API contract. The single consumer (the
// sequencer) drains in batches and can wait with a deadline, which is how
// the merge-delay window is implemented.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <vector>

#include "ctwatch/ct/append_only_store.hpp"

namespace ctwatch::logsvc {

/// Why a push was refused — "full" is backpressure the producer should
/// surface as overload; "closed" is teardown the producer should surface
/// as shutdown. Conflating the two misattributes teardown races as
/// overload in the metrics. The same type the append-only stores return.
using ct::PushResult;

/// Bounded MPSC queue. Producers call try_push from any thread; the one
/// consumer uses wait_nonempty/wait_nonempty_until + drain. close() wakes
/// the consumer and makes further pushes fail; items already queued are
/// still drainable so shutdown can be graceful.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}

  /// Fail-fast push; on `full`/`closed` the item is untouched.
  PushResult try_push(T&& item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return PushResult::closed;
      if (items_.size() >= capacity_) return PushResult::full;
      items_.push_back(std::move(item));
    }
    nonempty_.notify_one();
    return PushResult::ok;
  }

  /// Moves up to `max_items` into `out` (appended). Never blocks.
  std::size_t drain(std::vector<T>& out, std::size_t max_items) {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t moved = 0;
    while (moved < max_items && !items_.empty()) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
      ++moved;
    }
    return moved;
  }

  /// Blocks until items are available or the queue is closed. Returns true
  /// when items are available (even after close — drain them), false when
  /// closed and empty (the consumer's exit signal).
  bool wait_nonempty() {
    std::unique_lock<std::mutex> lock(mu_);
    nonempty_.wait(lock, [&] { return !items_.empty() || closed_; });
    return !items_.empty();
  }

  /// As wait_nonempty, but also gives up at `deadline` (returning false if
  /// still empty). Used to cap the merge-delay window.
  bool wait_nonempty_until(std::chrono::steady_clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    nonempty_.wait_until(lock, deadline, [&] { return !items_.empty() || closed_; });
    return !items_.empty();
  }

  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    nonempty_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  [[nodiscard]] std::size_t depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable nonempty_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace ctwatch::logsvc
