#include "ctwatch/obs/flight.hpp"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <sstream>

#include <unistd.h>

#include "ctwatch/obs/trace.hpp"

namespace ctwatch::obs {

namespace {

// Set once by install_signal_handler; read from signal context, where a
// magic-static would not be safe to construct.
FlightRecorder* g_signal_recorder = nullptr;
struct sigaction g_previous_abrt = {};

}  // namespace

void flight_recorder_signal_dump(int signo) {
  if (g_signal_recorder != nullptr) {
    g_signal_recorder->dump_signal_safe(signo == SIGABRT ? "SIGABRT" : "SIGUSR1");
  }
  if (signo == SIGABRT) {
    // Restore whatever was installed before us and re-raise so the abort
    // still terminates (or reaches the prior handler).
    sigaction(SIGABRT, &g_previous_abrt, nullptr);
    raise(SIGABRT);
  }
}

FlightRecorder& FlightRecorder::global() {
  // Leaked for the same reason as Registry::global(): worker threads may
  // record during static teardown.
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

FlightRecorder::ThreadRing& FlightRecorder::ring_for_this_thread() {
  thread_local ThreadRing* ring = [this]() -> ThreadRing* {
    const std::size_t index = ring_count_.fetch_add(1, std::memory_order_relaxed);
    if (index >= kMaxRings) {
      // Past capacity every extra thread shares the last ring; events stay
      // race-free (atomic slots), attribution degrades gracefully.
      return rings_[kMaxRings - 1].load(std::memory_order_acquire);
    }
    auto* fresh = new ThreadRing();
    fresh->thread_id = this_thread_ordinal();
    rings_[index].store(fresh, std::memory_order_release);
    return fresh;
  }();
  return *ring;
}

void FlightRecorder::record(const char* name, std::uint64_t a, std::uint64_t b) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  ThreadRing& ring = ring_for_this_thread();
  const std::uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t pos = ring.head.load(std::memory_order_relaxed);
  Slot& slot = ring.slots[pos % kRingSize];
  // Seqlock write: guard goes odd, fields land, guard goes even. The
  // conservative orderings keep this correct (and TSAN-clean) even when a
  // dump races the writer; this path only runs at decision points (seals,
  // faults, rejections), never per-submission.
  const std::uint64_t guard = slot.guard.load(std::memory_order_relaxed);
  slot.guard.store(guard + 1, std::memory_order_seq_cst);
  slot.ts_us.store(Tracer::global().now_us(), std::memory_order_relaxed);
  slot.seq.store(seq, std::memory_order_relaxed);
  slot.name.store(reinterpret_cast<std::uintptr_t>(name), std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
  slot.guard.store(guard + 2, std::memory_order_seq_cst);
  ring.head.store(pos + 1, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::snapshot(std::size_t last_n) const {
  std::vector<FlightEvent> events;
  const std::size_t rings = std::min(ring_count_.load(std::memory_order_acquire), kMaxRings);
  for (std::size_t r = 0; r < rings; ++r) {
    const ThreadRing* ring = rings_[r].load(std::memory_order_acquire);
    if (ring == nullptr) continue;  // registration in flight
    for (const Slot& slot : ring->slots) {
      const std::uint64_t before = slot.guard.load(std::memory_order_seq_cst);
      if (before == 0 || (before & 1) != 0) continue;  // empty or mid-write
      FlightEvent event;
      event.ts_us = slot.ts_us.load(std::memory_order_relaxed);
      event.seq = slot.seq.load(std::memory_order_relaxed);
      event.name = reinterpret_cast<const char*>(slot.name.load(std::memory_order_relaxed));
      event.a = slot.a.load(std::memory_order_relaxed);
      event.b = slot.b.load(std::memory_order_relaxed);
      event.thread_id = ring->thread_id;
      const std::uint64_t after = slot.guard.load(std::memory_order_seq_cst);
      if (after != before) continue;  // torn: overwritten while reading
      if (event.seq == 0 || event.name == nullptr) continue;
      events.push_back(event);
    }
  }
  std::sort(events.begin(), events.end(),
            [](const FlightEvent& a, const FlightEvent& b) { return a.seq < b.seq; });
  if (last_n != 0 && events.size() > last_n) {
    events.erase(events.begin(), events.end() - static_cast<std::ptrdiff_t>(last_n));
  }
  return events;
}

std::string FlightRecorder::dump_text(std::size_t last_n) const {
  std::ostringstream out;
  for (const FlightEvent& event : snapshot(last_n)) {
    char line[192];
    std::snprintf(line, sizeof line, "#%-8llu t=%-12llu tid=%-4llu %-32s a=%llu b=%llu\n",
                  static_cast<unsigned long long>(event.seq),
                  static_cast<unsigned long long>(event.ts_us),
                  static_cast<unsigned long long>(event.thread_id), event.name,
                  static_cast<unsigned long long>(event.a),
                  static_cast<unsigned long long>(event.b));
    out << line;
  }
  return out.str();
}

void FlightRecorder::dump_to_stderr(const char* reason) const {
  std::fprintf(stderr, "--- flight recorder (%s): last events ---\n%s--- end flight recorder ---\n",
               reason, dump_text().c_str());
}

void FlightRecorder::dump_signal_safe(const char* reason) const {
  // Signal context: no allocation, no locks, no streams — snprintf into a
  // stack buffer and write(2). Torn slots are skipped exactly as in
  // snapshot(); ordering is per-ring only (good enough post mortem).
  char line[192];
  int n = std::snprintf(line, sizeof line, "--- flight recorder (%s) ---\n", reason);
  (void)!write(STDERR_FILENO, line, static_cast<std::size_t>(n));
  const std::size_t rings = std::min(ring_count_.load(std::memory_order_acquire), kMaxRings);
  for (std::size_t r = 0; r < rings; ++r) {
    const ThreadRing* ring = rings_[r].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    for (const Slot& slot : ring->slots) {
      const std::uint64_t before = slot.guard.load(std::memory_order_seq_cst);
      if (before == 0 || (before & 1) != 0) continue;
      const std::uint64_t seq = slot.seq.load(std::memory_order_relaxed);
      const std::uint64_t ts = slot.ts_us.load(std::memory_order_relaxed);
      const auto* name = reinterpret_cast<const char*>(slot.name.load(std::memory_order_relaxed));
      const std::uint64_t a = slot.a.load(std::memory_order_relaxed);
      const std::uint64_t b = slot.b.load(std::memory_order_relaxed);
      if (slot.guard.load(std::memory_order_seq_cst) != before || name == nullptr) continue;
      n = std::snprintf(line, sizeof line, "#%llu t=%llu tid=%llu %s a=%llu b=%llu\n",
                        static_cast<unsigned long long>(seq),
                        static_cast<unsigned long long>(ts),
                        static_cast<unsigned long long>(ring->thread_id), name,
                        static_cast<unsigned long long>(a), static_cast<unsigned long long>(b));
      (void)!write(STDERR_FILENO, line, static_cast<std::size_t>(n));
    }
  }
  n = std::snprintf(line, sizeof line, "--- end flight recorder ---\n");
  (void)!write(STDERR_FILENO, line, static_cast<std::size_t>(n));
}

void FlightRecorder::install_signal_handler() {
  static bool installed = [] {
    g_signal_recorder = &global();
    struct sigaction action = {};
    action.sa_handler = flight_recorder_signal_dump;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;
    sigaction(SIGUSR1, &action, nullptr);
    sigaction(SIGABRT, &action, &g_previous_abrt);
    return true;
  }();
  (void)installed;
}

void FlightRecorder::clear() {
  const std::size_t rings = std::min(ring_count_.load(std::memory_order_acquire), kMaxRings);
  for (std::size_t r = 0; r < rings; ++r) {
    ThreadRing* ring = rings_[r].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    for (Slot& slot : ring->slots) {
      const std::uint64_t guard = slot.guard.load(std::memory_order_relaxed);
      slot.guard.store(guard + 1, std::memory_order_seq_cst);
      slot.seq.store(0, std::memory_order_relaxed);
      slot.name.store(0, std::memory_order_relaxed);
      slot.guard.store(guard + 2, std::memory_order_seq_cst);
    }
  }
}

}  // namespace ctwatch::obs
