#include "ctwatch/chaos/fault.hpp"

#include <cmath>

#include "ctwatch/obs/obs.hpp"
#include "ctwatch/util/rng.hpp"

namespace ctwatch::chaos {

namespace {

struct ChaosMetrics {
  obs::Counter& evaluations = obs::Registry::global().counter("chaos.evaluations");
  obs::Counter& faults = obs::Registry::global().counter("chaos.faults");
  obs::Counter& errors = obs::Registry::global().counter("chaos.errors");
  obs::Counter& timeouts = obs::Registry::global().counter("chaos.timeouts");
  obs::LogLinearHistogram& latency_us =
      obs::Registry::global().latency("chaos.injected_latency_us");
};

ChaosMetrics& chaos_metrics() {
  static ChaosMetrics metrics;
  return metrics;
}

// FNV-1a, implemented here rather than std::hash so the (seed, name, i)
// determinism contract holds across standard libraries.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

double to_unit(std::uint64_t x) { return static_cast<double>(x >> 11) * 0x1.0p-53; }

thread_local StreamScope* tl_scope = nullptr;

}  // namespace

StreamScope::StreamScope(std::uint64_t stream_id) : stream_id_(stream_id), prev_(tl_scope) {
  tl_scope = this;
}

StreamScope::~StreamScope() { tl_scope = prev_; }

StreamScope* StreamScope::current() { return tl_scope; }

void FaultInjector::plan(const std::string& point, FaultPlan plan) {
  std::lock_guard<std::mutex> lock(mu_);
  point_for_locked(point).plan = std::make_shared<const FaultPlan>(std::move(plan));
}

FaultInjector::Point& FaultInjector::point_for_locked(const std::string& name) {
  auto& slot = points_[name];
  if (!slot) {
    slot = std::make_unique<Point>();
    slot->name_hash = fnv1a(name);
    slot->plan = std::make_shared<const FaultPlan>();  // healthy default
  }
  return *slot;
}

FaultDecision FaultInjector::evaluate(const std::string& point, std::uint64_t now_us) {
  Point* state = nullptr;
  std::shared_ptr<const FaultPlan> plan_ref;
  {
    // Snapshot the plan pointer under the lock: plan() may race evaluate()
    // from another thread, and points_ may rehash under insertion.
    std::lock_guard<std::mutex> lock(mu_);
    state = &point_for_locked(point);
    plan_ref = state->plan;
  }
  const FaultPlan& plan = *plan_ref;
  // The global ordinal always advances (it backs evaluations()); inside a
  // StreamScope the draw is instead keyed to (stream id, local ordinal),
  // making it independent of how concurrent chunks interleave.
  const std::uint64_t ordinal = state->ordinal.fetch_add(1, std::memory_order_relaxed);

  // The point's stream: four independent uniform draws per ordinal, each
  // a pure function of (seed, name, ordinal) — plus the scope's stream id
  // when one is active.
  std::uint64_t stream = seed_ ^ state->name_hash;
  if (StreamScope* scope = StreamScope::current()) {
    std::uint64_t id_state = scope->stream_id() ^ 0xd1b54a32d192ed03ULL;
    stream ^= splitmix64(id_state);
    stream += 0x9e3779b97f4a7c15ULL * (scope->next_ordinal(state->name_hash) + 1);
  } else {
    stream += 0x9e3779b97f4a7c15ULL * (ordinal + 1);
  }
  const double u_error = to_unit(splitmix64(stream));
  const double u_kind = to_unit(splitmix64(stream));
  const double u_jitter = to_unit(splitmix64(stream));
  const double u_tail = to_unit(splitmix64(stream));

  FaultDecision decision;
  decision.latency_us = plan.latency_base_us;
  if (plan.latency_jitter_us > 0) {
    decision.latency_us +=
        static_cast<std::uint64_t>(u_jitter * static_cast<double>(plan.latency_jitter_us + 1));
  }
  if (plan.latency_exp_mean_us > 0.0) {
    decision.latency_us +=
        static_cast<std::uint64_t>(-plan.latency_exp_mean_us * std::log(1.0 - u_tail));
  }

  bool in_outage = false;
  for (const OutageWindow& window : plan.outages) {
    if (window.contains(now_us)) {
      in_outage = true;
      break;
    }
  }
  if (in_outage) {
    decision.kind = plan.outage_kind;
  } else if (u_error < plan.error_probability) {
    decision.kind = u_kind < plan.timeout_fraction ? FaultKind::timeout : FaultKind::error;
  }

  ChaosMetrics& metrics = chaos_metrics();
  metrics.evaluations.inc();
  metrics.latency_us.observe(static_cast<double>(decision.latency_us));
  if (decision.faulted()) {
    state->faults.fetch_add(1, std::memory_order_relaxed);
    metrics.faults.inc();
    (decision.kind == FaultKind::timeout ? metrics.timeouts : metrics.errors).inc();
    // Anomalies land in the flight recorder: a post-mortem dump shows
    // which injected fault preceded the failure, with its point ordinal.
    obs::flight_note("chaos.fault", ordinal, static_cast<std::uint64_t>(decision.kind));
  }
  return decision;
}

std::uint64_t FaultInjector::evaluations(const std::string& point) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = points_.find(point);
  return it != points_.end() ? it->second->ordinal.load(std::memory_order_relaxed) : 0;
}

std::uint64_t FaultInjector::faults(const std::string& point) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = points_.find(point);
  return it != points_.end() ? it->second->faults.load(std::memory_order_relaxed) : 0;
}

void FaultInjector::reset_ordinals() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, point] : points_) {
    point->ordinal.store(0, std::memory_order_relaxed);
    point->faults.store(0, std::memory_order_relaxed);
  }
}

}  // namespace ctwatch::chaos
