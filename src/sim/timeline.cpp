#include "ctwatch/sim/timeline.hpp"

#include <chrono>
#include <cmath>

#include "ctwatch/obs/obs.hpp"
#include "ctwatch/par/parallel.hpp"

namespace ctwatch::sim {

namespace {

struct TimelineMetrics {
  obs::Counter& issued = obs::Registry::global().counter("sim.timeline.issued");
  obs::Counter& log_submissions = obs::Registry::global().counter("sim.timeline.log_submissions");
  obs::Counter& overloaded = obs::Registry::global().counter("sim.timeline.overloaded");
  obs::Counter& ca_days = obs::Registry::global().counter("sim.timeline.ca_days");
  obs::Gauge& day = obs::Registry::global().gauge("sim.timeline.day");
  // Wall time per run spent in each step (header comment): how much of
  // the timeline is still serial.
  obs::LogLinearHistogram& draw_us = obs::Registry::global().latency("sim.timeline.draw_us");
  obs::LogLinearHistogram& prepare_us =
      obs::Registry::global().latency("sim.timeline.prepare_us");
  obs::LogLinearHistogram& integrate_us =
      obs::Registry::global().latency("sim.timeline.integrate_us");
};

TimelineMetrics& timeline_metrics() {
  static TimelineMetrics metrics;
  return metrics;
}

// Certificates drawn before one parallel prepare: enough to keep every
// worker busy, few enough that the two batches in flight (about a
// kilobyte per certificate) stay a small, fixed share of memory.
constexpr std::size_t kPrepareBatch = 1024;
// Certificates per prepare task.
constexpr std::size_t kPrepareGrain = 8;

/// A drawn issuance: all the timeline's request depends on.
struct Draw {
  SimTime when;
  std::uint64_t serial = 0;
};

/// One CA's prepared issuances, in draw order, and the logs they go to.
struct PreparedBatch {
  std::vector<ct::CtLog*> logs;
  std::vector<PreChainSubmission> submissions;
};

IssuanceRequest timeline_request(const Draw& draw, const std::vector<ct::CtLog*>& logs) {
  IssuanceRequest request;
  request.subject_cn = "site-" + std::to_string(draw.serial) + ".example.org";
  request.sans = {x509::SanEntry::dns(request.subject_cn)};
  request.not_before = draw.when;
  request.not_after = draw.when + 90 * 86400;
  request.logs = logs;
  return request;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

const std::vector<CaTimeline>& standard_timeline() {
  // Real-world certs/day per phase; shapes target Fig. 1a/1b. The final
  // phases starting 2018-03 model the pre-deadline jump.
  static const std::vector<CaTimeline> timeline = {
      {"DigiCert",
       {{"2015-01-10", "2016-06-01", 20000},
        {"2016-06-01", "2017-10-01", 40000},
        {"2017-10-01", "2018-03-01", 80000},
        {"2018-03-01", "2018-05-01", 250000}}},
      {"Comodo",
       {{"2016-03-01", "2017-04-01", 10000, true},
        {"2017-04-01", "2018-03-01", 30000, true},
        {"2018-03-01", "2018-05-01", 400000}}},
      {"GlobalSign",
       {{"2016-01-15", "2017-10-01", 8000, true},
        {"2017-10-01", "2018-03-01", 15000},
        {"2018-03-01", "2018-05-01", 60000}}},
      {"StartCom",
       {{"2016-02-01", "2017-06-01", 5000, true}}},
      {"Symantec",
       {{"2015-09-01", "2017-12-01", 15000},
        {"2017-12-01", "2018-05-01", 5000}}},
      {"Let's Encrypt",
       {{"2018-03-08", "2018-05-01", 2200000}}},
      // The small CAs of the §3.4 incidents: token volumes.
      {"TeliaSonera", {{"2017-06-01", "2018-05-01", 400}}},
      {"D-TRUST", {{"2017-09-01", "2018-05-01", 300}}},
      {"NetLock", {{"2017-11-01", "2018-05-01", 200}}},
  };
  return timeline;
}

TimelineSimulator::TimelineSimulator(Ecosystem& ecosystem, TimelineOptions options)
    : ecosystem_(&ecosystem), options_(std::move(options)) {}

TimelineStats TimelineSimulator::run() {
  CTWATCH_SPAN("sim.timeline.run");
  TimelineMetrics& metrics = timeline_metrics();
  TimelineStats stats;
  Rng& rng = ecosystem_->rng();
  const std::int64_t sim_start = SimTime::parse(options_.start).day_index();
  const std::int64_t sim_end = SimTime::parse(options_.end).day_index();
  const auto run_start = std::chrono::steady_clock::now();
  double prepare_s = 0;
  double integrate_s = 0;

  std::vector<Draw> drawn;
  drawn.reserve(kPrepareBatch);
  // The batch prepared last, integrated while the next one prepares. The
  // two swap roles each round, so their storage is allocated once.
  PreparedBatch ready;
  PreparedBatch next;

  // Step 3 for a prepared batch: submit serially in draw order. Step 4 is
  // skipped: the timeline's analyses read only the logs.
  const auto integrate = [&](PreparedBatch& batch) {
    const auto start = std::chrono::steady_clock::now();
    for (PreChainSubmission& pre_chain : batch.submissions) {
      const SubmissionOutcome outcome = CertificateAuthority::submit(pre_chain, batch.logs);
      ++stats.issued;
      stats.log_submissions += batch.logs.size();
      stats.overloaded += outcome.failed_logs.size();
      metrics.issued.inc();
      metrics.log_submissions.inc(batch.logs.size());
      metrics.overloaded.inc(outcome.failed_logs.size());
    }
    batch.submissions.clear();
    integrate_s += seconds_since(start);
  };

  for (const CaTimeline& schedule : standard_timeline()) {
    CTWATCH_SPAN("sim.timeline.ca");
    CertificateAuthority& ca = ecosystem_->ca(schedule.ca);
    const std::vector<ct::CtLog*> logs = ecosystem_->logs_of(schedule.ca);
    Rng ca_rng = rng.fork();
    std::uint64_t ca_drawn = 0;

    // Step 2 for everything drawn so far, launched on the pool while the
    // caller integrates the batch prepared before it. Preparing reads only
    // the CA's and the logs' keys and configs; integrating writes only the
    // logs' trees, entries and capacity counters.
    const auto issue_drawn = [&] {
      next.logs = logs;
      next.submissions.resize(drawn.size());
      const par::ChunkPlan plan = par::ChunkPlan::over(drawn.size(), kPrepareGrain);
      par::TaskGroup group(plan.chunks > 1 ? par::TaskPool::global() : nullptr);
      auto start = std::chrono::steady_clock::now();
      for (std::size_t c = 0; c < plan.chunks; ++c) {
        group.run([&ca, &drawn, &next, range = plan.chunk(c)] {
          for (std::size_t i = range.begin; i < range.end; ++i) {
            next.submissions[i] =
                ca.prepare(timeline_request(drawn[i], next.logs), drawn[i].when, drawn[i].serial)
                    .pre_chain;
          }
        });
      }
      prepare_s += seconds_since(start);
      try {
        integrate(ready);
      } catch (...) {
        // The prepare tasks reference this frame: let them finish first.
        try {
          group.wait();
        } catch (...) {
        }
        throw;
      }
      start = std::chrono::steady_clock::now();
      group.wait();
      prepare_s += seconds_since(start);
      std::swap(ready, next);
      drawn.clear();
    };

    // Step 1: the schedule's draws, serial and in order.
    for (const IssuancePhase& phase : schedule.phases) {
      const std::int64_t begin = std::max(sim_start, SimTime::parse(phase.start).day_index());
      const std::int64_t end = std::min(sim_end, SimTime::parse(phase.end).day_index());
      for (std::int64_t day = begin; day < end; ++day) {
        metrics.day.set(day);
        metrics.ca_days.inc();
        double expected = phase.certs_per_day * options_.scale;
        if (phase.bursty) {
          // Irregular batch behaviour: most days idle, occasional spikes
          // carrying the same average volume.
          if (ca_rng.chance(0.8)) continue;
          expected *= 5.0;
        }
        // Integer count with stochastic rounding of the fractional part.
        auto count = static_cast<std::uint64_t>(expected);
        if (ca_rng.uniform() < expected - std::floor(expected)) ++count;

        if (count > 0) {
          obs::log_debug("sim.timeline", "day simulated",
                         {{"ca", schedule.ca},
                          {"date", SimTime{day * 86400}.date_string()},
                          {"certs", count}});
        }

        for (std::uint64_t i = 0; i < count; ++i) {
          const SimTime when =
              SimTime{day * 86400 + static_cast<std::int64_t>(ca_rng.below(86400))};
          drawn.push_back({when, ca.next_serial()});
          ++ca_drawn;
          if (drawn.size() == kPrepareBatch) issue_drawn();
        }
      }
    }
    issue_drawn();
    obs::log_info("sim.timeline", "ca schedule complete",
                  {{"ca", schedule.ca}, {"issued", ca_drawn}});
  }
  integrate(ready);
  metrics.prepare_us.observe(prepare_s * 1e6);
  metrics.integrate_us.observe(integrate_s * 1e6);
  metrics.draw_us.observe((seconds_since(run_start) - prepare_s - integrate_s) * 1e6);
  obs::log_info("sim.timeline", "timeline complete",
                {{"issued", stats.issued},
                 {"log_submissions", stats.log_submissions},
                 {"overloaded", stats.overloaded},
                 {"scale", options_.scale}});
  return stats;
}

}  // namespace ctwatch::sim
