// ctwatch::obs — metrics registry.
//
// Monotonic counters, gauges, and log-linear latency histograms with
// quantile readout, held in a process-global registry. Handles are
// pre-registered once (name lookup under a mutex) and then shared; after
// that a hot-path event costs one relaxed atomic RMW (a counter's lands
// in the calling thread's own cell). The registry renders as a human
// table, as JSON — the machine-readable source of truth the bench
// binaries snapshot next to their artifact output — and as Prometheus
// text.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "ctwatch/obs/histogram.hpp"

namespace ctwatch::obs {

/// logfmt/Prometheus-safe metric name: [a-zA-Z_] first, then
/// [a-zA-Z0-9_.], non-empty. Dots are the ctwatch namespace separator
/// (rendered as '_' in Prometheus exposition). Debug builds assert this
/// on every registry registration.
[[nodiscard]] bool is_valid_metric_name(std::string_view name);

/// JSON string-body escaping (quotes not included): `"` and `\`, the short
/// escapes \b \f \n \r \t, any other control character as \u00XX. The
/// one escaper behind the metrics JSON, chrome traces and httpd.
[[nodiscard]] std::string json_escape(std::string_view raw);

namespace detail {
/// This thread's Counter cell, assigned round-robin on first use.
inline constexpr std::size_t kNoCounterCell = ~std::size_t{0};
inline thread_local std::size_t counter_cell = kNoCounterCell;
std::size_t assign_counter_cell();
}  // namespace detail

/// Monotonically increasing event count. Thread-safe; increments are
/// relaxed — totals are exact, ordering against other metrics is not.
/// Each thread adds into one of kCells cache-line cells (threads take
/// cells round-robin), so threads counting the same event on every name
/// or query do not fight over one line; value() sums the cells.
class Counter {
 public:
  static constexpr std::size_t kCells = 8;

  void inc(std::uint64_t n = 1) {
    std::size_t cell = detail::counter_cell;
    if (cell == detail::kNoCounterCell) cell = detail::counter_cell = detail::assign_counter_cell();
    cells_[cell].value.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Cell& cell : cells_) total += cell.value.load(std::memory_order_relaxed);
    return total;
  }
  void reset() {
    for (Cell& cell : cells_) cell.value.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Cell, kCells> cells_;
};

/// A value that goes up and down (current simulated day, queue depth, ...).
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Times a scope and records microseconds into a latency histogram.
class ScopedTimer {
 public:
  explicit ScopedTimer(LogLinearHistogram& hist)
      : hist_(&hist), start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    hist_->observe(std::chrono::duration<double, std::micro>(elapsed).count());
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  LogLinearHistogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

/// Name -> metric. Lookup is mutexed; returned references live for the
/// process, so modules resolve their handles once in a local static.
class Registry {
 public:
  static Registry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Auto-ranging log-linear histogram — the one distribution type: O(1)
  /// record, mergeable, no bounds to choose. Rendered in the "histograms"
  /// section of every output.
  LogLinearHistogram& latency(const std::string& name);

  /// Human-readable table, one metric per line, sorted by name.
  [[nodiscard]] std::string render_text() const;
  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,mean,
  /// p50,p90,p99}}} with names sorted.
  [[nodiscard]] std::string render_json() const;
  /// Prometheus text exposition (version 0.0.4): names with dots mapped
  /// to underscores and prefixed "ctwatch_", histograms rendered as
  /// summaries (quantile-labelled samples plus _sum/_count). What the
  /// ExpoServer serves at /metrics.
  [[nodiscard]] std::string render_prometheus() const;
  /// Zeroes every metric; handles stay valid. Intended for tests.
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LogLinearHistogram>> latencies_;
};

}  // namespace ctwatch::obs
