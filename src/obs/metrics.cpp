#include "ctwatch/obs/metrics.hpp"

#include "ctwatch/obs/obs.hpp"

#include <cassert>
#include <cctype>
#include <cstdio>
#include <sstream>

namespace ctwatch::obs {

namespace {

std::string format_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

// "logsvc.queue_wait_us" -> "ctwatch_logsvc_queue_wait_us". Prometheus
// names admit [a-zA-Z0-9_:]; our only other charset member is '.'.
std::string prometheus_name(const std::string& name) {
  std::string out = "ctwatch_";
  out.reserve(out.size() + name.size());
  for (char c : name) out += (c == '.') ? '_' : c;
  return out;
}

}  // namespace

std::string json_escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
        break;
    }
  }
  return out;
}

bool is_valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  const char first = name.front();
  if (!(std::isalpha(static_cast<unsigned char>(first)) || first == '_')) return false;
  for (char c : name) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.')) return false;
  }
  return true;
}

Registry& Registry::global() {
  // Intentionally leaked: worker threads (ctwatch::par's global pool) may
  // still be incrementing counters while function-local statics are torn
  // down at exit. A heap singleton with no destructor call means metric
  // storage outlives every thread; the OS reclaims it at process end.
  static Registry* registry = new Registry();
  return *registry;
}

std::size_t detail::assign_counter_cell() {
  static std::atomic<std::size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) % Counter::kCells;
}

Counter& Registry::counter(const std::string& name) {
  assert(is_valid_metric_name(name));
  std::lock_guard lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  assert(is_valid_metric_name(name));
  std::lock_guard lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

LogLinearHistogram& Registry::latency(const std::string& name) {
  assert(is_valid_metric_name(name));
  std::lock_guard lock(mu_);
  auto& slot = latencies_[name];
  if (!slot) slot = std::make_unique<LogLinearHistogram>();
  return *slot;
}

std::string Registry::render_text() const {
  std::lock_guard lock(mu_);
  std::ostringstream out;
  for (const auto& [name, c] : counters_) {
    out << name << " = " << c->value() << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    out << name << " = " << g->value() << "\n";
  }
  for (const auto& [name, h] : latencies_) {
    out << name << " count=" << h->count() << " mean=" << format_number(h->mean())
        << " p50=" << format_number(h->quantile(0.50))
        << " p90=" << format_number(h->quantile(0.90))
        << " p99=" << format_number(h->quantile(0.99)) << "\n";
  }
  return out.str();
}

std::string Registry::render_json() const {
  std::lock_guard lock(mu_);
  std::ostringstream out;
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(name) << "\":" << c->value();
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(name) << "\":" << g->value();
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : latencies_) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(name) << "\":{\"count\":" << h->count()
        << ",\"sum\":" << format_number(h->sum()) << ",\"mean\":" << format_number(h->mean())
        << ",\"p50\":" << format_number(h->quantile(0.50))
        << ",\"p90\":" << format_number(h->quantile(0.90))
        << ",\"p99\":" << format_number(h->quantile(0.99)) << "}";
  }
  out << "}}";
  return out.str();
}

std::string Registry::render_prometheus() const {
  std::lock_guard lock(mu_);
  std::ostringstream out;
  for (const auto& [name, c] : counters_) {
    const std::string prom = prometheus_name(name);
    out << "# TYPE " << prom << " counter\n" << prom << " " << c->value() << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    const std::string prom = prometheus_name(name);
    out << "# TYPE " << prom << " gauge\n" << prom << " " << g->value() << "\n";
  }
  // Distributions render as precomputed summaries: quantile-labelled
  // samples plus _sum/_count, the format scrapers accept without needing
  // our bucket layout.
  for (const auto& [name, h] : latencies_) {
    const std::string prom = prometheus_name(name);
    out << "# TYPE " << prom << " summary\n";
    out << prom << "{quantile=\"0.5\"} " << format_number(h->quantile(0.50)) << "\n";
    out << prom << "{quantile=\"0.9\"} " << format_number(h->quantile(0.90)) << "\n";
    out << prom << "{quantile=\"0.99\"} " << format_number(h->quantile(0.99)) << "\n";
    out << prom << "_sum " << format_number(h->sum()) << "\n";
    out << prom << "_count " << h->count() << "\n";
  }
  return out.str();
}

void Registry::reset() {
  std::lock_guard lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : latencies_) h->reset();
}

void preregister_pipeline_metrics() {
  Registry& registry = Registry::global();
  for (const char* name : {
           "ct.log.submissions", "ct.log.accepted", "ct.log.rejected_invalid",
           "ct.log.overload_rejections", "ct.log.dedup_hits",
           "sim.timeline.issued", "sim.timeline.log_submissions", "sim.timeline.overloaded",
           "sim.timeline.ca_days",
           "monitor.connections", "monitor.sct.cert", "monitor.sct.tls", "monitor.sct.ocsp",
           "monitor.sct.valid", "monitor.sct.invalid", "monitor.cert_cache.hits",
           "monitor.cert_cache.misses",
           "dns.resolver.queries", "dns.resolver.answered", "dns.resolver.nxdomain",
           "dns.resolver.no_data", "dns.resolver.chain_too_long",
           "enum.funnel.candidates", "enum.funnel.test_replies", "enum.funnel.control_replies",
           "enum.funnel.confirmed", "enum.funnel.novel",
           "namepool.label_intern.hits", "namepool.name_intern.hits",
           "namepool.name_intern.misses",
           "par.tasks", "par.steals", "par.idle_ns",
       }) {
    registry.counter(name);
  }
  registry.gauge("sim.timeline.day");
  registry.gauge("namepool.bytes");
  registry.gauge("namepool.labels");
  registry.gauge("namepool.names");
  registry.gauge("par.workers");
  registry.gauge("par.imbalance.census");
  registry.gauge("par.imbalance.funnel");
  // Latencies: the CtLog Merkle integration step, then the per-stage
  // submission latencies of one certificate's journey (queue wait -> batch
  // merge delay -> STH sign -> fanout dispatch); enum.* mirror the §4
  // funnel stages.
  for (const char* name : {
           "ct.log.merkle_integrate_us",
           "logsvc.queue_wait_us", "logsvc.merge_delay_us", "logsvc.sign_us",
           "logsvc.fanout_dispatch_us", "logsvc.submit_us",
           "enum.funnel.stage_us", "multilog.submit_wall_us",
       }) {
    registry.latency(name);
  }
}

}  // namespace ctwatch::obs
