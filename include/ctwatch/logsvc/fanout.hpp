// ctwatch::logsvc — streaming fanout to subscribers.
//
// `ct::CtLog::subscribe` calls subscribers synchronously from the submit
// path, so one slow consumer stalls the log. Here every subscriber gets a
// bounded ring and its own dispatch thread; the sequencer's publish() is
// a try_push that never blocks. A full ring drops the event for that
// subscriber and counts it — lag is explicit and observable instead of
// propagating backwards into SCT issuance.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ctwatch/crypto/sha256.hpp"
#include "ctwatch/logsvc/queue.hpp"
#include "ctwatch/obs/trace.hpp"

namespace ctwatch::logsvc {

/// What a subscriber sees per integrated entry: enough to follow the log
/// (and verify inclusion later) without shipping certificate bodies.
struct StreamEvent {
  std::uint64_t index = 0;
  std::uint64_t timestamp_ms = 0;
  crypto::Digest leaf_hash{};
  crypto::Digest fingerprint{};
  std::string issuer_cn;
  /// Causal link to the submission's span tree: dispatch spans opened
  /// under this context parent to the sequencer's per-entry span.
  obs::TraceContext trace{};
  /// When publish() offered the event; dispatch latency measures from it.
  std::chrono::steady_clock::time_point published_at{};
};

class StreamFanout {
 public:
  using Callback = std::function<void(const StreamEvent&)>;

  /// `buffer_capacity` is the per-subscriber ring depth.
  explicit StreamFanout(std::size_t buffer_capacity) : capacity_(buffer_capacity) {}
  ~StreamFanout() { stop(); }

  StreamFanout(const StreamFanout&) = delete;
  StreamFanout& operator=(const StreamFanout&) = delete;

  /// Registers a consumer and spawns its dispatch thread. `name` labels
  /// diagnostics only.
  void subscribe(std::string name, Callback callback);

  /// Sequencer side: offers the event to every subscriber. Never blocks;
  /// full rings drop and count.
  void publish(const StreamEvent& event);

  /// Closes all rings, lets dispatchers drain what is buffered, joins.
  void stop();

  [[nodiscard]] std::uint64_t delivered() const {
    return delivered_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::size_t subscriber_count() const;

 private:
  struct Subscriber {
    std::string name;
    Callback callback;
    BoundedQueue<StreamEvent> ring;
    std::thread dispatcher;

    Subscriber(std::string n, Callback cb, std::size_t capacity)
        : name(std::move(n)), callback(std::move(cb)), ring(capacity) {}
  };

  void dispatch_loop(Subscriber& subscriber);

  const std::size_t capacity_;
  mutable std::mutex mu_;  // guards subscribers_ (publish vs subscribe)
  std::vector<std::unique_ptr<Subscriber>> subscribers_;
  bool stopped_ = false;
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace ctwatch::logsvc
