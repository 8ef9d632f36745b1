#include "ctwatch/logsvc/multilog.hpp"

#include <algorithm>
#include <queue>
#include <tuple>

#include "ctwatch/obs/obs.hpp"

namespace ctwatch::logsvc {

namespace {

struct MultiLogMetrics {
  obs::Counter& submissions = obs::Registry::global().counter("multilog.submissions");
  obs::Counter& quorum = obs::Registry::global().counter("multilog.quorum");
  obs::Counter& degraded = obs::Registry::global().counter("multilog.degraded");
  obs::Counter& failed = obs::Registry::global().counter("multilog.failed");
  obs::Counter& attempts = obs::Registry::global().counter("multilog.attempts");
  obs::Counter& retries = obs::Registry::global().counter("multilog.retries");
  obs::Counter& hedges = obs::Registry::global().counter("multilog.hedges");
  obs::Counter& breaker_trips = obs::Registry::global().counter("multilog.breaker_trips");
  obs::LogLinearHistogram& quorum_latency_us =
      obs::Registry::global().latency("multilog.quorum_latency_us");
  // Wall-clock cost of running one submission's virtual-time event loop
  // (quorum_latency_us above is simulated time; this is compute time).
  obs::LogLinearHistogram& submit_wall_us =
      obs::Registry::global().latency("multilog.submit_wall_us");
};

MultiLogMetrics& multilog_metrics() {
  static MultiLogMetrics metrics;
  return metrics;
}

}  // namespace

MultiLogSubmitter::MultiLogSubmitter(std::vector<LogTarget*> targets, MultiLogOptions options)
    : options_(options), jitter_rng_(options.jitter_seed) {
  targets_.reserve(targets.size());
  for (LogTarget* target : targets) {
    targets_.push_back(TargetState{target, CircuitBreaker(options_.breaker)});
  }
}

std::uint64_t MultiLogSubmitter::breaker_trips() const {
  std::uint64_t total = 0;
  for (const TargetState& state : targets_) total += state.breaker.trips();
  return total;
}

SubmitReport MultiLogSubmitter::submit(std::uint64_t submission_id, std::uint64_t start_us) {
  CTWATCH_SPAN("multilog.submit");
  obs::ScopedTimer wall_timer(multilog_metrics().submit_wall_us);
  enum class EventType : std::uint8_t { completion, hedge_check, retry };
  struct Event {
    std::uint64_t time;
    std::uint64_t seq;  // tie-break: event creation order, deterministic
    EventType type;
    std::size_t target;
    bool success;
    std::uint64_t launched_at;  // completion/hedge_check: when the attempt started
  };
  auto later = [](const Event& a, const Event& b) {
    return std::tie(a.time, a.seq) > std::tie(b.time, b.seq);
  };
  std::priority_queue<Event, std::vector<Event>, decltype(later)> events(later);

  struct PerTarget {
    std::size_t attempts = 0;
    bool in_flight = false;
    bool sct = false;
    bool retry_scheduled = false;
    std::uint64_t launched_at = 0;
  };
  std::vector<PerTarget> per(targets_.size());

  SubmitReport report;
  const std::uint64_t trips_before = breaker_trips();
  const std::uint64_t deadline = start_us + options_.deadline_us;
  std::uint64_t seq = 0;
  std::size_t scts = 0;
  std::size_t in_flight = 0;
  bool resolved = false;
  std::uint64_t resolved_at = deadline;

  // Launches one attempt against target i at `now`; the target's verdict
  // is known immediately but surfaces as a completion event at the
  // attempt's virtual latency (timeouts surface at attempt_timeout_us —
  // the client waits its full patience to learn nothing).
  auto launch = [&](std::size_t i, std::uint64_t now) {
    PerTarget& pt = per[i];
    const AttemptResult result = targets_[i].target->attempt(submission_id, now);
    ++pt.attempts;
    pt.in_flight = true;
    pt.launched_at = now;
    ++in_flight;
    ++report.attempts;

    bool success = false;
    std::uint64_t completes_at = 0;
    if (result.fault == chaos::FaultKind::timeout ||
        (result.ok() && result.latency_us >= options_.attempt_timeout_us)) {
      // Lost request, or an SCT too slow to wait for: both are timeouts
      // from where the client stands.
      ++report.timeouts;
      completes_at = now + options_.attempt_timeout_us;
    } else if (result.fault == chaos::FaultKind::error) {
      ++report.errors;
      completes_at = now + std::min(result.latency_us, options_.attempt_timeout_us);
    } else {
      success = true;
      completes_at = now + result.latency_us;
    }
    events.push(Event{completes_at, seq++, EventType::completion, i, success, now});
    if (options_.hedge_after_us > 0 && options_.hedge_after_us < options_.attempt_timeout_us) {
      events.push(
          Event{now + options_.hedge_after_us, seq++, EventType::hedge_check, i, false, now});
    }
  };

  // Picks the best eligible target (fewest attempts, then lowest index —
  // spread across fresh logs before retrying a flaky one) and launches
  // it. Open breakers veto candidates; each veto is counted.
  auto launch_best = [&](std::uint64_t now) -> bool {
    std::size_t best = targets_.size();
    std::size_t best_attempts = options_.max_attempts_per_log;
    for (std::size_t i = 0; i < targets_.size(); ++i) {
      const PerTarget& pt = per[i];
      if (pt.sct || pt.in_flight || pt.retry_scheduled) continue;
      if (pt.attempts >= options_.max_attempts_per_log) continue;
      if (pt.attempts < best_attempts) {
        best_attempts = pt.attempts;
        best = i;
      }
    }
    if (best == targets_.size()) return false;
    if (!targets_[best].breaker.allow(now)) {
      ++report.breaker_skips;
      // The best candidate is fused out; try the next-best eligible one.
      std::size_t fallback = targets_.size();
      std::size_t fallback_attempts = options_.max_attempts_per_log;
      for (std::size_t i = 0; i < targets_.size(); ++i) {
        const PerTarget& pt = per[i];
        if (i == best || pt.sct || pt.in_flight || pt.retry_scheduled) continue;
        if (pt.attempts >= options_.max_attempts_per_log) continue;
        if (pt.attempts < fallback_attempts && targets_[i].breaker.allow(now)) {
          fallback_attempts = pt.attempts;
          fallback = i;
          break;  // allow() reserves half-open probes: take the first grant
        }
      }
      if (fallback == targets_.size()) return false;
      launch(fallback, now);
      return true;
    }
    launch(best, now);
    return true;
  };

  auto backoff_delay = [&](std::size_t attempts_made) -> std::uint64_t {
    double delay = static_cast<double>(options_.backoff_base_us);
    for (std::size_t i = 1; i < attempts_made; ++i) delay *= options_.backoff_factor;
    if (options_.backoff_jitter > 0.0) {
      const double spread = (jitter_rng_.uniform() * 2.0 - 1.0) * options_.backoff_jitter;
      delay *= 1.0 + spread;
    }
    return static_cast<std::uint64_t>(std::max(delay, 1.0));
  };

  // Initial fan-out: one attempt per quorum slot.
  for (std::size_t k = 0; k < options_.quorum; ++k) {
    if (!launch_best(start_us)) break;
  }

  while (!events.empty()) {
    const Event event = events.top();
    events.pop();
    const std::uint64_t now = event.time;
    PerTarget& pt = per[event.target];

    switch (event.type) {
      case EventType::completion: {
        pt.in_flight = false;
        --in_flight;
        // Breakers always learn the outcome, even for attempts resolving
        // after the deadline or after quorum — the client observed it.
        if (event.success) {
          targets_[event.target].breaker.record_success();
        } else {
          targets_[event.target].breaker.record_failure(now);
        }
        if (resolved || now > deadline) break;
        if (event.success) {
          pt.sct = true;
          ++scts;
          if (scts >= options_.quorum) {
            resolved = true;
            resolved_at = now;
          }
          break;
        }
        // Failed attempt: schedule a backoff retry on the same log if it
        // has budget, and pull in a replacement log if the quorum cannot
        // be met by what is still in flight.
        if (pt.attempts < options_.max_attempts_per_log) {
          const std::uint64_t delay = backoff_delay(pt.attempts);
          if (now + delay < deadline) {
            pt.retry_scheduled = true;
            events.push(Event{now + delay, seq++, EventType::retry, event.target, false, now});
          }
        }
        if (scts + in_flight < options_.quorum) launch_best(now);
        break;
      }
      case EventType::hedge_check: {
        if (resolved || now > deadline) break;
        // Only hedge if the very attempt this check was scheduled for is
        // still the one in flight (it has not completed or been retried).
        if (pt.in_flight && pt.launched_at == event.launched_at && scts < options_.quorum) {
          if (launch_best(now)) ++report.hedges;
        }
        break;
      }
      case EventType::retry: {
        pt.retry_scheduled = false;
        if (resolved || now > deadline) break;
        if (pt.sct || pt.in_flight || pt.attempts >= options_.max_attempts_per_log) break;
        if (!targets_[event.target].breaker.allow(now)) {
          ++report.breaker_skips;
          break;
        }
        ++report.retries;
        launch(event.target, now);
        break;
      }
    }
  }

  report.scts = scts;
  if (scts >= options_.quorum) {
    report.outcome = QuorumOutcome::quorum;
    report.latency_us = resolved_at - start_us;
  } else {
    report.outcome =
        scts >= options_.degraded_floor ? QuorumOutcome::degraded : QuorumOutcome::failed;
    report.latency_us = options_.deadline_us;
  }

  MultiLogMetrics& metrics = multilog_metrics();
  metrics.submissions.inc();
  metrics.attempts.inc(report.attempts);
  metrics.retries.inc(report.retries);
  metrics.hedges.inc(report.hedges);
  metrics.breaker_trips.inc(breaker_trips() - trips_before);
  ++totals_.submissions;
  totals_.attempts += report.attempts;
  totals_.retries += report.retries;
  totals_.hedges += report.hedges;
  totals_.timeouts += report.timeouts;
  totals_.errors += report.errors;
  totals_.breaker_skips += report.breaker_skips;
  switch (report.outcome) {
    case QuorumOutcome::quorum:
      ++totals_.quorum;
      metrics.quorum.inc();
      metrics.quorum_latency_us.observe(static_cast<double>(report.latency_us));
      break;
    case QuorumOutcome::degraded:
      ++totals_.degraded;
      metrics.degraded.inc();
      break;
    case QuorumOutcome::failed:
      ++totals_.failed;
      metrics.failed.inc();
      break;
  }
  return report;
}

}  // namespace ctwatch::logsvc
