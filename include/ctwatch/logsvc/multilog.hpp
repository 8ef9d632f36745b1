// ctwatch::logsvc — resilient multi-log submission.
//
// Real CAs do not trust one log: Chrome's CT policy demands SCTs from
// multiple independent logs, and the log ecosystem churns (outages,
// disqualifications, the Nimbus incident). So a CA submits each chain to
// N logs to gather K SCTs, and keeps making progress while some of those
// logs misbehave. This is that client:
//
//   submit(chain) ──> pick K targets (skipping open circuit breakers)
//        │                 │
//        │                 ├─ attempt times out / errors ──> exponential
//        │                 │   backoff + jitter, retry (bounded), breaker
//        │                 │   counts consecutive failures ──> open
//        │                 ├─ attempt slow past the hedge threshold ──>
//        │                 │   launch one extra log in parallel
//        │                 └─ SCT arrives ──> count toward the quorum
//        │
//        └─ resolves, always: `quorum` (K SCTs inside the deadline),
//           `degraded` (fewer than K but at least `degraded_floor` — the
//           counted K−1 case), or `failed`. Never silence.
//
// The whole engine runs on *virtual time*: attempts are discrete events
// whose latency comes from the targets (chaos-plan driven for
// SimulatedLogTarget), so a run over millions of submissions is exact,
// fast, and bit-for-bit reproducible from the seeds. Circuit breakers
// persist across submissions — an outage trips them and later
// submissions route around the dead log until its cooldown probe heals.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ctwatch/chaos/fault.hpp"
#include "ctwatch/util/rng.hpp"

namespace ctwatch::logsvc {

/// Per-log circuit breaker: closed → (N consecutive failures) → open →
/// (cooldown elapses) → half-open, which admits exactly one probe; the
/// probe's outcome closes or reopens the circuit. All times are virtual.
class CircuitBreaker {
 public:
  enum class State : std::uint8_t { closed, open, half_open };

  struct Options {
    int failure_threshold = 3;  ///< consecutive failures that trip the breaker
    std::uint64_t open_cooldown_us = 500'000;  ///< open → half-open delay
  };

  CircuitBreaker() = default;
  explicit CircuitBreaker(Options options) : options_(options) {}

  /// The state as of `now_us` (open circuits age into half_open lazily).
  [[nodiscard]] State state(std::uint64_t now_us) const {
    if (state_ == State::open && now_us >= opened_at_us_ + options_.open_cooldown_us) {
      return State::half_open;
    }
    return state_;
  }

  /// May a request be sent now? half_open admits a single in-flight probe.
  bool allow(std::uint64_t now_us) {
    switch (state(now_us)) {
      case State::closed:
        return true;
      case State::open:
        return false;
      case State::half_open:
        if (probe_in_flight_) return false;
        state_ = State::half_open;
        probe_in_flight_ = true;
        return true;
    }
    return false;
  }

  void record_success() {
    state_ = State::closed;
    consecutive_failures_ = 0;
    probe_in_flight_ = false;
  }

  void record_failure(std::uint64_t now_us) {
    if (state(now_us) == State::half_open) {
      // The probe failed: straight back to open, cooldown restarts.
      probe_in_flight_ = false;
      trip(now_us);
      return;
    }
    if (++consecutive_failures_ >= options_.failure_threshold) trip(now_us);
  }

  [[nodiscard]] std::uint64_t trips() const { return trips_; }
  [[nodiscard]] const Options& options() const { return options_; }

 private:
  void trip(std::uint64_t now_us) {
    state_ = State::open;
    opened_at_us_ = now_us;
    consecutive_failures_ = 0;
    ++trips_;
  }

  Options options_;
  State state_ = State::closed;
  int consecutive_failures_ = 0;
  bool probe_in_flight_ = false;
  std::uint64_t opened_at_us_ = 0;
  std::uint64_t trips_ = 0;
};

/// What one attempt against one log produced, in virtual time.
struct AttemptResult {
  chaos::FaultKind fault = chaos::FaultKind::none;  ///< none == an SCT came back
  std::uint64_t latency_us = 0;  ///< service latency of this attempt

  [[nodiscard]] bool ok() const { return fault == chaos::FaultKind::none; }
};

/// A submission target: one CT log as the multi-log client sees it.
class LogTarget {
 public:
  virtual ~LogTarget() = default;
  [[nodiscard]] virtual const std::string& name() const = 0;
  /// One submission attempt at virtual time `now_us`. Deterministic
  /// implementations must derive the outcome only from their own state
  /// and (submission_id, now_us).
  virtual AttemptResult attempt(std::uint64_t submission_id, std::uint64_t now_us) = 0;
};

/// A chaos-plan-driven log: outcome and latency come from evaluating the
/// injector's fault point, so a fleet of these is scripted entirely by
/// `FaultPlan`s (error rates, latency distributions, outage windows).
class SimulatedLogTarget final : public LogTarget {
 public:
  SimulatedLogTarget(std::string name, chaos::FaultInjector& injector, std::string point)
      : name_(std::move(name)), injector_(&injector), point_(std::move(point)) {}

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] const std::string& point() const { return point_; }

  AttemptResult attempt(std::uint64_t /*submission_id*/, std::uint64_t now_us) override {
    const chaos::FaultDecision decision = injector_->evaluate(point_, now_us);
    return AttemptResult{decision.kind, decision.latency_us};
  }

 private:
  std::string name_;
  chaos::FaultInjector* injector_;
  std::string point_;
};

enum class QuorumOutcome : std::uint8_t {
  quorum,    ///< gathered K SCTs inside the deadline
  degraded,  ///< fewer than K but at least degraded_floor — counted, usable
  failed,    ///< below the floor — counted failure
};

struct MultiLogOptions {
  std::size_t quorum = 2;          ///< K: SCTs needed for full compliance
  std::size_t degraded_floor = 1;  ///< fewer SCTs than K but >= this => degraded
  std::uint64_t deadline_us = 2'000'000;      ///< per-submission budget
  std::uint64_t attempt_timeout_us = 250'000; ///< give up on one attempt after this
  std::uint64_t hedge_after_us = 60'000;      ///< hedge an extra log past this
  std::size_t max_attempts_per_log = 3;       ///< 1 initial + retries
  std::uint64_t backoff_base_us = 20'000;     ///< first retry delay
  double backoff_factor = 2.0;                ///< exponential growth per retry
  double backoff_jitter = 0.25;               ///< +/- fraction of the delay
  CircuitBreaker::Options breaker{};
  std::uint64_t jitter_seed = 0x0b5e55edULL;  ///< backoff-jitter stream seed
};

/// How one submission resolved. Every submit() returns exactly one of
/// these — the zero-lost-completions contract.
struct SubmitReport {
  QuorumOutcome outcome = QuorumOutcome::failed;
  std::size_t scts = 0;            ///< SCTs gathered
  std::uint64_t latency_us = 0;    ///< virtual time from start to resolution
  std::uint64_t attempts = 0;      ///< attempts launched (initial + retry + hedge)
  std::uint64_t retries = 0;       ///< re-attempts after a failure
  std::uint64_t hedges = 0;        ///< extra logs launched for latency
  std::uint64_t timeouts = 0;      ///< attempts lost to timeouts
  std::uint64_t errors = 0;        ///< attempts answered with an error
  std::uint64_t breaker_skips = 0; ///< launch candidates vetoed by open breakers
};

/// Running totals across submissions (the goodput view).
struct MultiLogTotals {
  std::uint64_t submissions = 0;
  std::uint64_t quorum = 0;
  std::uint64_t degraded = 0;
  std::uint64_t failed = 0;
  std::uint64_t attempts = 0;
  std::uint64_t retries = 0;
  std::uint64_t hedges = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t errors = 0;
  std::uint64_t breaker_skips = 0;

  /// Every submission resolved to quorum/degraded/failed — never silence.
  [[nodiscard]] std::uint64_t resolved() const { return quorum + degraded + failed; }
  [[nodiscard]] double goodput() const {
    return submissions == 0 ? 0.0
                            : static_cast<double>(quorum) / static_cast<double>(submissions);
  }
};

/// The multi-log submission client. Single-threaded by design: the event
/// engine advances virtual time deterministically, which is what makes
/// a run reproducible counter-for-counter from its fault seed
/// (MultiLogTest.IdenticalSeedsGiveIdenticalTotals).
class MultiLogSubmitter {
 public:
  /// Targets are borrowed; breakers are created per target.
  MultiLogSubmitter(std::vector<LogTarget*> targets, MultiLogOptions options = {});

  /// Submits one chain starting at virtual time `start_us`; returns when
  /// the submission resolves (in virtual time). Breaker state carries
  /// over to the next call.
  SubmitReport submit(std::uint64_t submission_id, std::uint64_t start_us);

  [[nodiscard]] const MultiLogTotals& totals() const { return totals_; }
  [[nodiscard]] const MultiLogOptions& options() const { return options_; }
  [[nodiscard]] std::size_t target_count() const { return targets_.size(); }
  [[nodiscard]] const CircuitBreaker& breaker(std::size_t i) const { return targets_[i].breaker; }
  [[nodiscard]] std::uint64_t breaker_trips() const;

 private:
  struct TargetState {
    LogTarget* target = nullptr;
    CircuitBreaker breaker;
  };

  std::vector<TargetState> targets_;
  MultiLogOptions options_;
  MultiLogTotals totals_;
  Rng jitter_rng_;
};

}  // namespace ctwatch::logsvc
