// ctwatch::obs — flight recorder: the last N events per thread, always on.
//
// Metrics aggregate and spans need the tracer enabled; neither answers
// "what was the process doing right before it went wrong?". The flight
// recorder does: every thread owns a fixed-size ring of small events
// (static-string name + two integer payloads + timestamp), recorded
// wait-free with a handful of relaxed atomics — cheap enough to leave on
// in production builds. The rings are only read when something breaks:
//
//   * a failing gtest assertion (tests install a listener),
//   * a chaos-injected anomaly (the injector notes every fault), or
//   * a signal (install_signal_handler dumps on SIGUSR1/SIGABRT with
//     async-signal-safe writes).
//
// Entries use a per-event seqlock (odd while mid-write) so a dump racing
// a writer skips torn entries instead of reporting garbage, and the whole
// structure stays data-race-free under TSAN. Rings outlive their threads
// (they are leaked like the metrics registry), so a post-mortem dump
// still sees what an exited worker last did.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace ctwatch::obs {

/// One recorded event, as a dump reads it back.
struct FlightEvent {
  std::uint64_t ts_us = 0;      ///< tracer epoch microseconds
  std::uint64_t thread_id = 0;  ///< per-process ordinal (same space as spans)
  std::uint64_t seq = 0;        ///< global record order (total order across threads)
  const char* name = "";        ///< static string: "component.event"
  std::uint64_t a = 0;          ///< payload, event-specific
  std::uint64_t b = 0;          ///< payload, event-specific
};

class FlightRecorder {
 public:
  /// Events retained per thread.
  static constexpr std::size_t kRingSize = 256;

  static FlightRecorder& global();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Wait-free on the recording thread. `name` must be a string literal
  /// (or otherwise outlive the process) — it is stored by pointer.
  void record(const char* name, std::uint64_t a = 0, std::uint64_t b = 0);

  /// Merged view across all thread rings, ordered by global sequence; at
  /// most `last_n` newest events (0 = everything retained). Torn entries
  /// (a writer mid-store) are skipped.
  [[nodiscard]] std::vector<FlightEvent> snapshot(std::size_t last_n = 0) const;

  /// Human-readable dump of snapshot(last_n), one event per line.
  [[nodiscard]] std::string dump_text(std::size_t last_n = 64) const;

  /// Writes dump_text to stderr, bracketed with `reason`. The plain
  /// variant allocates; the signal path uses write(2) directly.
  void dump_to_stderr(const char* reason) const;

  /// Installs a handler on SIGUSR1 and SIGABRT that dumps the recorder to
  /// stderr with async-signal-safe writes, then restores the previous
  /// disposition (for SIGABRT) and re-raises. Idempotent.
  static void install_signal_handler();

  /// Events recorded since process start (including overwritten ones).
  [[nodiscard]] std::uint64_t recorded() const {
    return next_seq_.load(std::memory_order_relaxed) - 1;
  }

  /// Drops all retained events (tests). Threads keep their rings.
  void clear();

 private:
  /// Threads that can register a ring; later threads fall back to the
  /// overflow ring (shared, still race-free — slots are atomic).
  static constexpr std::size_t kMaxRings = 512;

  // One ring slot. The seqlock makes a concurrent dump skip a slot that a
  // writer is mid-way through instead of reading a torn event.
  struct Slot {
    std::atomic<std::uint64_t> guard{0};  // odd = write in progress
    std::atomic<std::uint64_t> ts_us{0};
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uintptr_t> name{0};
    std::atomic<std::uint64_t> a{0};
    std::atomic<std::uint64_t> b{0};
  };

  struct ThreadRing {
    std::uint64_t thread_id = 0;
    std::atomic<std::uint64_t> head{0};  // next write position
    Slot slots[kRingSize];
  };

  FlightRecorder() = default;
  ThreadRing& ring_for_this_thread();
  void dump_signal_safe(const char* reason) const;  // write(2)-only path
  friend void flight_recorder_signal_dump(int);

  std::atomic<bool> enabled_{true};
  std::atomic<std::uint64_t> next_seq_{1};
  // Lock-free append-only registry so the signal path can walk it without
  // taking a lock. Rings are leaked: they outlive their threads.
  std::atomic<ThreadRing*> rings_[kMaxRings] = {};
  std::atomic<std::size_t> ring_count_{0};
};

/// Convenience: FlightRecorder::global().record(...).
inline void flight_note(const char* name, std::uint64_t a = 0, std::uint64_t b = 0) {
  FlightRecorder::global().record(name, a, b);
}

}  // namespace ctwatch::obs
