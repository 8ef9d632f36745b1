#include "ctwatch/obs/trace.hpp"

#include "ctwatch/obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <unordered_map>

namespace ctwatch::obs {

namespace {

// Per-thread nesting state: the innermost live span, the trace it belongs
// to, and a small ordinal used as the chrome-trace tid.
thread_local std::uint32_t tls_current_span = 0;
thread_local std::uint64_t tls_current_trace = 0;

}  // namespace

TraceContext current_context() { return {tls_current_trace, tls_current_span}; }

std::uint64_t this_thread_ordinal() {
  static std::atomic<std::uint64_t> next{1};
  thread_local std::uint64_t ordinal = next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

ContextScope::ContextScope(const TraceContext& ctx)
    : saved_trace_(tls_current_trace), saved_span_(tls_current_span) {
  if (ctx.active()) {
    tls_current_trace = ctx.trace_id;
    tls_current_span = ctx.parent_span;
  }
}

ContextScope::~ContextScope() {
  tls_current_trace = saved_trace_;
  tls_current_span = saved_span_;
}

std::vector<FlowLink> flow_links(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint32_t, const SpanRecord*> by_id;
  by_id.reserve(spans.size());
  for (const SpanRecord& span : spans) by_id.emplace(span.id, &span);
  std::vector<FlowLink> links;
  for (const SpanRecord& span : spans) {
    if (span.parent_id == 0) continue;
    const auto it = by_id.find(span.parent_id);
    if (it == by_id.end()) continue;
    if (it->second->thread_id != span.thread_id) {
      links.push_back({span.parent_id, span.id, span.trace_id});
    }
  }
  std::sort(links.begin(), links.end(),
            [](const FlowLink& a, const FlowLink& b) { return a.child_id < b.child_id; });
  return links;
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {
  if (const char* env = std::getenv("CTWATCH_TRACE"); env != nullptr && env[0] != '\0' &&
                                                      !(env[0] == '0' && env[1] == '\0')) {
    enabled_.store(true, std::memory_order_relaxed);
  }
}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::now_us() const {
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count());
}

void Tracer::record(SpanRecord record) {
  std::lock_guard lock(mu_);
  spans_.push_back(std::move(record));
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard lock(mu_);
  return spans_;
}

std::vector<SpanRecord> Tracer::recent_spans(std::size_t limit) const {
  std::lock_guard lock(mu_);
  if (limit == 0 || limit >= spans_.size()) return spans_;
  return {spans_.end() - static_cast<std::ptrdiff_t>(limit), spans_.end()};
}

std::string Tracer::chrome_trace_json() const {
  std::vector<SpanRecord> spans;
  {
    std::lock_guard lock(mu_);
    spans = spans_;
  }
  std::unordered_map<std::uint32_t, const SpanRecord*> by_id;
  by_id.reserve(spans.size());
  for (const SpanRecord& span : spans) by_id.emplace(span.id, &span);

  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& span : spans) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << json_escape(span.name) << "\",\"cat\":\"ctwatch\",\"ph\":\"X\""
        << ",\"ts\":" << span.start_us << ",\"dur\":" << span.duration_us
        << ",\"pid\":1,\"tid\":" << span.thread_id << ",\"args\":{\"id\":" << span.id
        << ",\"parent\":" << span.parent_id << ",\"trace\":" << span.trace_id << "}}";
  }
  // Cross-thread parent->child edges as flow events: an "s" (start) on the
  // parent's slice, an "f" (finish, binding point "e" = enclosing slice)
  // on the child's. chrome://tracing draws them as arrows — a stolen task
  // or a batch hand-off becomes visible scheduling, not inference.
  for (const SpanRecord& span : spans) {
    if (span.parent_id == 0) continue;
    const auto it = by_id.find(span.parent_id);
    if (it == by_id.end() || it->second->thread_id == span.thread_id) continue;
    const SpanRecord& parent = *it->second;
    const std::uint64_t start_ts = std::min(parent.start_us, span.start_us);
    const std::uint64_t finish_ts = std::max(span.start_us, start_ts);
    out << ",{\"name\":\"handoff\",\"cat\":\"ctwatch.flow\",\"ph\":\"s\",\"id\":" << span.id
        << ",\"ts\":" << start_ts << ",\"pid\":1,\"tid\":" << parent.thread_id << "}"
        << ",{\"name\":\"handoff\",\"cat\":\"ctwatch.flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":"
        << span.id << ",\"ts\":" << finish_ts << ",\"pid\":1,\"tid\":" << span.thread_id << "}";
  }
  out << "]}";
  return out.str();
}

std::string Tracer::aggregate_table() const {
  struct Agg {
    std::uint64_t count = 0;
    std::uint64_t total_us = 0;
    std::uint64_t max_us = 0;
  };
  std::map<std::string, Agg> by_name;
  {
    std::lock_guard lock(mu_);
    for (const SpanRecord& span : spans_) {
      Agg& agg = by_name[span.name];
      ++agg.count;
      agg.total_us += span.duration_us;
      agg.max_us = std::max(agg.max_us, span.duration_us);
    }
  }
  std::ostringstream out;
  char line[160];
  std::snprintf(line, sizeof line, "%-36s %10s %14s %12s %12s\n", "span", "count", "total_ms",
                "mean_us", "max_us");
  out << line;
  for (const auto& [name, agg] : by_name) {
    std::snprintf(line, sizeof line, "%-36s %10llu %14.3f %12.1f %12llu\n", name.c_str(),
                  static_cast<unsigned long long>(agg.count),
                  static_cast<double>(agg.total_us) / 1000.0,
                  static_cast<double>(agg.total_us) / static_cast<double>(agg.count),
                  static_cast<unsigned long long>(agg.max_us));
    out << line;
  }
  return out.str();
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << chrome_trace_json();
  return static_cast<bool>(out);
}

void Tracer::clear() {
  std::lock_guard lock(mu_);
  spans_.clear();
}

Span::Span(const char* name) : name_(name) {
  Tracer& tracer = Tracer::global();
  if (!tracer.enabled()) return;
  active_ = true;
  id_ = tracer.next_span_id();
  parent_id_ = tls_current_span;
  saved_trace_ = tls_current_trace;
  trace_id_ = saved_trace_ != 0 ? saved_trace_ : tracer.next_trace_id();
  tls_current_span = id_;
  tls_current_trace = trace_id_;
  start_us_ = tracer.now_us();
}

Span::~Span() {
  if (!active_) return;
  Tracer& tracer = Tracer::global();
  SpanRecord record;
  record.name = name_;
  record.start_us = start_us_;
  record.duration_us = tracer.now_us() - start_us_;
  record.thread_id = this_thread_ordinal();
  record.trace_id = trace_id_;
  record.id = id_;
  record.parent_id = parent_id_;
  tls_current_span = parent_id_;
  tls_current_trace = saved_trace_;
  tracer.record(std::move(record));
}

TraceContext Span::context() const {
  if (!active_) return {};
  return {trace_id_, id_};
}

}  // namespace ctwatch::obs
