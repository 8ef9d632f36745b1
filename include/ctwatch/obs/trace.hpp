// ctwatch::obs — tracing spans with causal cross-thread context.
//
// RAII scoped timers with parent/child nesting tracked per thread. The
// global Tracer is off by default (a Span then costs one relaxed load);
// when enabled — via the API or the CTWATCH_TRACE environment variable —
// finished spans are collected and exportable two ways:
//
//   * chrome_trace_json(): the Trace Event Format, loadable directly in
//     chrome://tracing or Perfetto. Spans whose parent finished on a
//     different thread additionally emit *flow events* (ph "s"/"f"), so
//     work-steals and batch hand-offs render as arrows; and
//   * aggregate_table(): per-span-name count / total / mean / max, the
//     quick "where did the time go" view.
//
// Causality across threads is explicit: every span belongs to a trace
// (the root span mints the trace id) and `current_context()` snapshots
// this thread's (trace id, innermost span id). A captured TraceContext
// restored on another thread via ContextScope makes spans opened there
// children of the capturing span — that is how par::TaskPool carries a
// submission's trace into its workers and logsvc threads one submission
// through submit -> sequencer -> fanout as a single span tree.
//
// Span names should be low-cardinality string literals ("sim.timeline.run");
// variable data belongs in metrics or log fields, not span names.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace ctwatch::obs {

/// One finished span. Timestamps are microseconds since the first use of
/// the tracer in this process (steady clock).
struct SpanRecord {
  std::string name;
  std::uint64_t start_us = 0;
  std::uint64_t duration_us = 0;
  std::uint64_t thread_id = 0;  ///< small per-process ordinal, 1-based
  std::uint64_t trace_id = 0;   ///< 1-based; every span in one causal tree shares it
  std::uint32_t id = 0;         ///< 1-based; 0 is "no span"
  std::uint32_t parent_id = 0;  ///< 0 for roots
};

/// A point in a trace that children elsewhere can attach to: the trace id
/// plus the span that will become their parent. Copyable, trivially
/// small — capture it into a task, restore it with ContextScope.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint32_t parent_span = 0;

  [[nodiscard]] bool active() const { return trace_id != 0; }
};

/// Snapshot of the calling thread's trace position ({0,0} when no span is
/// open or tracing is disabled).
[[nodiscard]] TraceContext current_context();

/// This thread's small 1-based ordinal — the `tid` spans and flight
/// events are stamped with. Assigned on first use, stable for the
/// thread's lifetime.
[[nodiscard]] std::uint64_t this_thread_ordinal();

/// Restores a captured TraceContext on this thread for the scope's
/// lifetime: spans opened inside become children of ctx.parent_span in
/// ctx.trace_id. Saves and restores whatever context the thread had.
class ContextScope {
 public:
  explicit ContextScope(const TraceContext& ctx);
  ~ContextScope();
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  std::uint64_t saved_trace_ = 0;
  std::uint32_t saved_span_ = 0;
};

/// A cross-thread parent->child edge derived from a span set: the child
/// started on a different thread than its parent finished on. These are
/// exactly the edges chrome_trace_json renders as flow arrows.
struct FlowLink {
  std::uint32_t parent_id = 0;
  std::uint32_t child_id = 0;
  std::uint64_t trace_id = 0;
};

/// Cross-thread links in `spans` (parent must be present in the set),
/// ordered by child id. Unit-testable without parsing the JSON export.
[[nodiscard]] std::vector<FlowLink> flow_links(const std::vector<SpanRecord>& spans);

class Tracer {
 public:
  static Tracer& global();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void record(SpanRecord record);
  [[nodiscard]] std::vector<SpanRecord> spans() const;
  /// The most recent `limit` finished spans (all when limit == 0).
  [[nodiscard]] std::vector<SpanRecord> recent_spans(std::size_t limit) const;
  [[nodiscard]] std::string chrome_trace_json() const;
  [[nodiscard]] std::string aggregate_table() const;
  /// Writes chrome_trace_json() to `path`; false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;
  void clear();

  // Internal plumbing for Span; not part of the public surface.
  std::uint32_t next_span_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  std::uint64_t next_trace_id() { return next_trace_.fetch_add(1, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t now_us() const;

 private:
  Tracer();  // reads CTWATCH_TRACE

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint32_t> next_id_{1};
  std::atomic<std::uint64_t> next_trace_{1};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span: opens on construction, records on destruction. Nesting is
/// derived from a thread-local stack of live span ids; the trace id is
/// inherited from the thread's context (a root span mints a fresh one).
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// The context a child captured now would attach to: (trace, this span).
  /// {0,0} when tracing was disabled at construction.
  [[nodiscard]] TraceContext context() const;

 private:
  const char* name_;
  std::uint64_t start_us_ = 0;
  std::uint64_t trace_id_ = 0;
  std::uint64_t saved_trace_ = 0;
  std::uint32_t id_ = 0;
  std::uint32_t parent_id_ = 0;
  bool active_ = false;
};

}  // namespace ctwatch::obs

/// Opens a span covering the rest of the enclosing scope.
#define CTWATCH_SPAN_CONCAT2(a, b) a##b
#define CTWATCH_SPAN_CONCAT(a, b) CTWATCH_SPAN_CONCAT2(a, b)
#define CTWATCH_SPAN(name) \
  ::ctwatch::obs::Span CTWATCH_SPAN_CONCAT(ctwatch_span_, __LINE__)(name)
