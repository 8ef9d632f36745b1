// Chaos goodput harness for the K-of-N multi-log submission client.
//
// Runs the MultiLogSubmitter over a matrix of chaos plans — a healthy
// baseline, the acceptance scenario (10% error rate on every log plus one
// full log outage), and a heavy-failure plan — and reports goodput
// (quorum submissions / total), SCT-quorum latency percentiles, and the
// counted degradation outcomes as JSON. Everything runs on virtual time
// from fixed seeds, so two invocations print identical counters — the
// reproducibility contract the chaos module exists for.
//
//   ./chaos_goodput --submissions=2000 --seed=0xc7a05
//
// Exit code is non-zero if any submission fails to resolve (a lost
// completion) or the acceptance scenario's goodput drops below 95%.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ctwatch/chaos/chaos.hpp"
#include "ctwatch/logsvc/logsvc.hpp"

namespace {

using namespace ctwatch;

struct Options {
  std::uint64_t submissions = 2000;
  std::uint64_t seed = 0xc7a05ULL;
  std::size_t logs = 3;
  std::size_t quorum = 2;
};

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return std::strncmp(arg, prefix, n) == 0 ? arg + n : nullptr;
    };
    if (const char* v = value("--submissions="))
      options.submissions = std::strtoull(v, nullptr, 0);
    else if (const char* v = value("--seed="))
      options.seed = std::strtoull(v, nullptr, 0);
    else if (const char* v = value("--logs="))
      options.logs = static_cast<std::size_t>(std::strtoull(v, nullptr, 0));
    else if (const char* v = value("--quorum="))
      options.quorum = static_cast<std::size_t>(std::strtoull(v, nullptr, 0));
    else
      std::fprintf(stderr, "chaos_goodput: ignoring unknown argument %s\n", arg);
  }
  return options;
}

/// One row of the plan matrix: how every log in the fleet misbehaves.
struct Scenario {
  const char* name;
  double error_probability = 0.0;
  double timeout_fraction = 0.5;
  /// Index of a log taken down for the first half of the run, or -1.
  int outage_log = -1;
  bool enforce_goodput_floor = false;  ///< the ISSUE acceptance gate
};

struct ScenarioResult {
  logsvc::MultiLogTotals totals;
  std::uint64_t breaker_trips = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

ScenarioResult run_scenario(const Scenario& scenario, const Options& options) {
  // A fresh injector per scenario keeps every row independent and exactly
  // reproducible from (seed, plan) alone.
  chaos::FaultInjector injector(options.seed);
  std::vector<std::unique_ptr<logsvc::SimulatedLogTarget>> logs;
  std::vector<logsvc::LogTarget*> targets;
  const std::uint64_t pace_us = 3'000'000;  // virtual gap between submissions
  for (std::size_t i = 0; i < options.logs; ++i) {
    chaos::FaultPlan plan;
    plan.error_probability = scenario.error_probability;
    plan.timeout_fraction = scenario.timeout_fraction;
    plan.latency_base_us = 10'000;
    plan.latency_jitter_us = 10'000;
    plan.latency_exp_mean_us = 5'000.0;
    if (scenario.outage_log == static_cast<int>(i)) {
      plan.outages.push_back(
          chaos::OutageWindow{0, options.submissions * pace_us / 2});
      plan.outage_kind = chaos::FaultKind::timeout;
    }
    const std::string point = "goodput.log" + std::to_string(i);
    injector.plan(point, plan);
    logs.push_back(std::make_unique<logsvc::SimulatedLogTarget>("log" + std::to_string(i),
                                                                injector, point));
    targets.push_back(logs.back().get());
  }

  logsvc::MultiLogOptions multilog;
  multilog.quorum = options.quorum;
  multilog.degraded_floor = options.quorum > 0 ? options.quorum - 1 : 0;
  multilog.jitter_seed = options.seed ^ 0x5eedULL;
  logsvc::MultiLogSubmitter submitter(targets, multilog);

  // Latency percentiles over quorum submissions, on virtual time. One
  // registry histogram per scenario so rows do not bleed into each other.
  obs::LogLinearHistogram& latencies = obs::Registry::global().latency(
      std::string("chaos_goodput.") + scenario.name + ".quorum_latency_us");
  latencies.reset();
  for (std::uint64_t s = 0; s < options.submissions; ++s) {
    const logsvc::SubmitReport report = submitter.submit(s, s * pace_us);
    if (report.outcome == logsvc::QuorumOutcome::quorum) {
      latencies.observe(static_cast<double>(report.latency_us));
    }
  }

  ScenarioResult result;
  result.totals = submitter.totals();
  result.breaker_trips = submitter.breaker_trips();
  result.p50_us = latencies.quantile(0.50);
  result.p99_us = latencies.quantile(0.99);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  bench::banner("chaos goodput: K-of-N multi-log submission under injected faults",
                "deterministic virtual-time fleet; identical seeds print identical counters");

  const Scenario scenarios[] = {
      {"baseline", 0.0, 0.5, -1, false},
      // The ISSUE acceptance gate: 10% error rate on every log plus one
      // log fully down for half the run; goodput must hold >= 95%.
      {"errors10_outage1", 0.10, 0.5, 2, true},
      {"heavy", 0.35, 0.5, 1, false},
  };

  std::printf("fleet: %zu logs, quorum %zu, %" PRIu64 " submissions, seed 0x%" PRIx64 "\n\n",
              options.logs, options.quorum, options.submissions, options.seed);
  std::printf("%-18s %9s %9s %9s %9s %8s %8s %10s %10s\n", "scenario", "quorum", "degraded",
              "failed", "retries", "hedges", "trips", "p50_ms", "p99_ms");

  bool lost_completions = false;
  bool floor_violated = false;
  bench::Json scenarios_json;
  for (const Scenario& scenario : scenarios) {
    const ScenarioResult result = run_scenario(scenario, options);
    const logsvc::MultiLogTotals& totals = result.totals;
    if (totals.resolved() != totals.submissions) lost_completions = true;
    if (scenario.enforce_goodput_floor && totals.goodput() < 0.95) floor_violated = true;

    std::printf("%-18s %9" PRIu64 " %9" PRIu64 " %9" PRIu64 " %9" PRIu64 " %8" PRIu64
                " %8" PRIu64 " %10.2f %10.2f\n",
                scenario.name, totals.quorum, totals.degraded, totals.failed, totals.retries,
                totals.hedges, result.breaker_trips, result.p50_us / 1000.0,
                result.p99_us / 1000.0);

    scenarios_json.field(
        scenario.name,
        bench::Json()
            .field("goodput", totals.goodput())
            .field("quorum", totals.quorum)
            .field("degraded", totals.degraded)
            .field("failed", totals.failed)
            .field("resolved", totals.resolved())
            .field("attempts", totals.attempts)
            .field("retries", totals.retries)
            .field("hedges", totals.hedges)
            .field("timeouts", totals.timeouts)
            .field("errors", totals.errors)
            .field("breaker_skips", totals.breaker_skips)
            .field("breaker_trips", result.breaker_trips)
            .field("quorum_latency_us", bench::Json()
                                            .field("p50", result.p50_us, 1)
                                            .field("p99", result.p99_us, 1)));
  }
  std::printf("\n");
  bench::emit_result("chaos_goodput",
                     bench::Json()
                         .field("submissions", options.submissions)
                         .field("logs", options.logs)
                         .field("quorum", options.quorum),
                     bench::Json()
                         .field("scenarios", scenarios_json)
                         .field("lost_completions", lost_completions)
                         .field("goodput_floor_met", !floor_violated));
  if (lost_completions) std::fprintf(stderr, "FAIL: some submissions never resolved\n");
  if (floor_violated) {
    std::fprintf(stderr, "FAIL: acceptance scenario goodput below the 95%% floor\n");
  }

  bench::dump_metrics_snapshot(bench::metrics_snapshot_path(argv[0]));
  return (lost_completions || floor_violated) ? 1 : 0;
}
