// Detection-latency study for aggregation-based STH gossip against a
// split-view (equivocating) log.
//
// One log identity serves two divergent Merkle histories; monitors are
// partitioned across the faces and pollinate signed tree heads along a
// gossip topology, with optional aggregation points passively observing
// the STHs fetched by the peers they cover (Dahlberg et al.). The sweep
// crosses fanout x aggregation coverage x partition shape and reports,
// per leg, whether the equivocation was caught and in how many rounds
// (rounds are 60 virtual seconds apart on the simulated clock).
//
// Every verdict is re-verified cryptographically HERE, from the log's
// public key and the carried evidence — a detection the harness cannot
// independently confirm counts as a failure, not a success. Honest-log
// legs run the same topologies under heavy chaos (fetch losses, link
// outages, dropped challenges) and must never produce a verdict.
//
//   ./gossip_detect --monitors=12 --fork=8 --rounds=40 --strict
//
// --strict gates the adversarial floor: every full-coverage leg must
// detect with verifiable evidence, the no-coverage split control must
// NOT detect (partitions stay mutually invisible), and the honest legs
// must stay verdict-free. Exit codes: 2 = missed detection, 3 = bad or
// unverifiable evidence, 4 = false positive on an honest log.

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ctwatch/chaos/fault.hpp"
#include "ctwatch/gossip/gossip.hpp"
#include "ctwatch/logsvc/logsvc.hpp"

namespace {

using namespace ctwatch;
using namespace std::chrono_literals;

struct Options {
  std::uint64_t monitors = 12;
  std::uint64_t fork = 8;
  std::uint64_t rounds = 40;  ///< per-leg round budget
  std::uint64_t seed = 0x905519ULL;
  bool strict = false;
};

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return std::strncmp(arg, prefix, n) == 0 ? arg + n : nullptr;
    };
    if (const char* v = value("--monitors="))
      options.monitors = std::strtoull(v, nullptr, 0);
    else if (const char* v = value("--fork="))
      options.fork = std::strtoull(v, nullptr, 0);
    else if (const char* v = value("--rounds="))
      options.rounds = std::strtoull(v, nullptr, 0);
    else if (const char* v = value("--seed="))
      options.seed = std::strtoull(v, nullptr, 0);
    else if (std::strcmp(arg, "--strict") == 0)
      options.strict = true;
    else
      std::fprintf(stderr, "gossip_detect: ignoring unknown argument %s\n", arg);
  }
  if (options.monitors < 4) options.monitors = 4;
  return options;
}

const SimTime kNow = SimTime::parse("2018-04-01");

SimTime at_round(std::uint64_t round) {
  return SimTime{kNow.unix_seconds() + static_cast<std::int64_t>(round) * 60};
}

enum class Shape { split, bridge, isolated };

const char* shape_name(Shape shape) {
  switch (shape) {
    case Shape::split: return "split";
    case Shape::bridge: return "bridge";
    case Shape::isolated: return "isolated";
  }
  return "?";
}

/// Independent re-verification of a verdict: both signatures under the
/// log's key, plus either a same-size root conflict or the log's own
/// proof failing verify_consistency. The detector is not trusted.
bool evidence_verifies(const gossip::SplitViewDetected& detection, BytesView public_key) {
  if (!ct::verify_sth(detection.sth_a, public_key)) return false;
  if (!ct::verify_sth(detection.sth_b, public_key)) return false;
  if (detection.same_size) {
    return detection.sth_a.tree_size == detection.sth_b.tree_size &&
           detection.sth_a.root_hash != detection.sth_b.root_hash && detection.proof.empty();
  }
  const ct::SignedTreeHead& old_sth =
      detection.sth_a.tree_size <= detection.sth_b.tree_size ? detection.sth_a : detection.sth_b;
  const ct::SignedTreeHead& new_sth =
      detection.sth_a.tree_size <= detection.sth_b.tree_size ? detection.sth_b : detection.sth_a;
  return old_sth.tree_size != new_sth.tree_size &&
         !ct::verify_consistency(old_sth.tree_size, new_sth.tree_size, old_sth.root_hash,
                                 new_sth.root_hash, detection.proof);
}

/// Peers split evenly across the faces; edges per `shape`:
///   split    — one clique per side, no cross edges
///   bridge   — split plus a single left[0]-right[0] cross edge
///   isolated — split with left[0] stranded (no gossip edges at all)
/// Coverage places one aggregation point over the first
/// round(coverage * monitors) peers, alternating sides — the in-network
/// vantage that straddles the partition when the topology does not.
struct Leg {
  gossip::GossipNet* net = nullptr;
  std::vector<std::size_t> left;
  std::vector<std::size_t> right;
};

Leg build_leg(gossip::GossipNet& net, gossip::LogView& left_view, gossip::LogView& right_view,
              std::uint64_t monitors, Shape shape, double coverage) {
  Leg leg;
  leg.net = &net;
  for (std::uint64_t i = 0; i < monitors / 2; ++i) leg.left.push_back(net.add_peer(left_view));
  for (std::uint64_t i = 0; i < monitors - monitors / 2; ++i)
    leg.right.push_back(net.add_peer(right_view));

  const std::size_t left_start = shape == Shape::isolated ? 1 : 0;
  for (std::size_t a = left_start; a < leg.left.size(); ++a)
    for (std::size_t b = a + 1; b < leg.left.size(); ++b) net.connect(leg.left[a], leg.left[b]);
  for (std::size_t a = 0; a < leg.right.size(); ++a)
    for (std::size_t b = a + 1; b < leg.right.size(); ++b) net.connect(leg.right[a], leg.right[b]);
  if (shape == Shape::bridge) net.connect(leg.left[0], leg.right[0]);

  const auto covered = static_cast<std::size_t>(coverage * static_cast<double>(monitors) + 0.5);
  if (covered > 0) {
    const std::size_t aggregator = net.add_aggregator(left_view);
    for (std::size_t i = 0; i < covered; ++i) {
      const auto& side = i % 2 == 0 ? leg.left : leg.right;
      const std::size_t index = i / 2;
      if (index < side.size()) net.cover(aggregator, side[index]);
    }
  }
  return leg;
}

struct LegResult {
  bool detected = false;
  std::uint64_t detect_round = 0;  ///< 0 when undetected
  bool evidence_ok = true;         ///< every verdict independently re-verified
  gossip::NetStats stats;
};

LegResult run_adversarial_leg(const Options& options, std::size_t fanout, double coverage,
                              Shape shape) {
  gossip::EquivocationPlan plan;
  plan.base.name = "Detect Equivocator";
  plan.base.scheme = crypto::SignatureScheme::hmac_sha256_simulated;
  plan.base.merge_delay = 500us;
  plan.fork_index = options.fork;
  gossip::EquivocatingLog log(plan);
  log.grow(options.fork * 2, kNow);  // both faces past the fork, equal sizes

  gossip::NetConfig net_config;
  net_config.fanout = fanout;
  net_config.seed = options.seed ^ (static_cast<std::uint64_t>(shape) << 8) ^ fanout;
  gossip::GossipNet net(net_config, log.public_key());
  build_leg(net, log.view(gossip::Side::left), log.view(gossip::Side::right), options.monitors,
            shape, coverage);

  LegResult result;
  for (std::uint64_t round = 1; round <= options.rounds && !net.detected(); ++round) {
    net.step(at_round(round));
  }
  result.detected = net.detected();
  result.stats = net.stats();
  if (result.detected) {
    result.detect_round = net.detections().front().round;
    obs::Registry::global().latency("gossip.detect_rounds")
        .observe(static_cast<double>(result.detect_round));
    for (const gossip::SplitViewDetected& detection : net.detections()) {
      if (!evidence_verifies(detection, log.public_key())) result.evidence_ok = false;
    }
  }
  return result;
}

/// Same topology, honest log, heavy chaos: fetch/challenge losses plus a
/// mid-run outage window on a band of gossip links. The log grows every
/// round, so actors continually reconcile stale/fresh head pairs — any
/// verdict here is a false positive.
LegResult run_honest_leg(const Options& options, std::size_t fanout, Shape shape) {
  logsvc::Config config;
  config.name = "Detect Honest";
  config.scheme = crypto::SignatureScheme::hmac_sha256_simulated;
  config.merge_delay = 500us;
  logsvc::LogService honest(config);
  gossip::ServiceView view(honest);

  chaos::FaultInjector injector(options.seed * 2654435761ULL + fanout);
  chaos::FaultPlan flaky;
  flaky.error_probability = 0.4;
  flaky.timeout_fraction = 0.5;
  flaky.latency_base_us = 1000;
  flaky.latency_jitter_us = 4000;
  injector.plan("gossip.fetch", flaky);
  injector.plan("gossip.challenge", flaky);
  chaos::FaultPlan outage = flaky;
  outage.outages.push_back({static_cast<std::uint64_t>(at_round(4).unix_seconds()) * 1'000'000,
                            static_cast<std::uint64_t>(at_round(10).unix_seconds()) * 1'000'000});
  for (std::uint64_t a = 0; a < options.monitors; ++a) {
    injector.plan("gossip.link." + std::to_string(a) + "-" + std::to_string(a + 1), outage);
  }

  gossip::NetConfig net_config;
  net_config.fanout = fanout;
  net_config.seed = options.seed + 17;
  net_config.chaos = &injector;
  gossip::GossipNet net(net_config, honest.public_key());
  build_leg(net, view, view, options.monitors, shape, /*coverage=*/1.0);

  LegResult result;
  for (std::uint64_t round = 1; round <= options.rounds; ++round) {
    std::promise<void> sealed;
    auto wait = sealed.get_future();
    const ct::SubmitStatus status = honest.submit(
        ct::SignedEntry{ct::EntryType::x509_entry, to_bytes("h-" + std::to_string(round)), {}},
        crypto::Sha256::hash(to_bytes("hfp-" + std::to_string(round))), "CA", at_round(round),
        [&sealed](const ct::SubmitResult&) { sealed.set_value(); });
    if (status == ct::SubmitStatus::ok) wait.get();
    net.step(at_round(round));
  }
  result.detected = net.detected();
  result.stats = net.stats();
  for (const gossip::SplitViewDetected& detection : net.detections()) {
    // Evidence from an honest log cannot verify; record it if it does.
    if (evidence_verifies(detection, honest.public_key())) result.evidence_ok = false;
  }
  return result;
}

bench::Json leg_metrics(const LegResult& result) {
  bench::Json metrics;
  metrics.field("detected", result.detected)
      .field("detect_round", result.detect_round)
      .field("evidence_ok", result.evidence_ok)
      .field("sths_fetched", result.stats.sths_fetched)
      .field("sths_gossiped", result.stats.sths_gossiped)
      .field("sths_accepted", result.stats.sths_accepted)
      .field("forged_dropped", result.stats.forged_dropped)
      .field("challenges_run", result.stats.challenges_run)
      .field("challenges_pending", result.stats.challenges_pending)
      .field("fetch_faults", result.stats.fetch_faults)
      .field("link_faults", result.stats.link_faults)
      .field("challenge_faults", result.stats.challenge_faults);
  return metrics;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  bench::banner("gossip detection latency: fanout x aggregation coverage x partition shape",
                "split-view verdicts re-verified cryptographically; honest chaos legs must stay "
                "verdict-free");

  const std::size_t fanouts[] = {1, 2, 4};
  const double coverages[] = {0.0, 0.5, 1.0};
  const Shape shapes[] = {Shape::split, Shape::bridge, Shape::isolated};

  std::uint64_t missed_full_coverage = 0;
  std::uint64_t bad_evidence = 0;
  std::uint64_t false_positives = 0;
  std::uint64_t split_control_detections = 0;
  std::uint64_t detections = 0;
  std::uint64_t legs = 0;

  for (const Shape shape : shapes) {
    for (const std::size_t fanout : fanouts) {
      for (const double coverage : coverages) {
        const LegResult result = run_adversarial_leg(options, fanout, coverage, shape);
        ++legs;
        detections += result.detected ? 1 : 0;
        if (!result.evidence_ok) ++bad_evidence;
        if (coverage >= 1.0 && !result.detected) ++missed_full_coverage;
        // The control: with no coverage and no cross edge the partitions
        // are mutually invisible, so "detection" there means a bug.
        if (coverage == 0.0 && shape != Shape::bridge && result.detected)
          ++split_control_detections;
        bench::Json config;
        config.field("monitors", options.monitors)
            .field("fork", options.fork)
            .field("shape", shape_name(shape))
            .field("fanout", static_cast<std::uint64_t>(fanout))
            .field("coverage", coverage, 2)
            .field("honest", false)
            .field("seed", options.seed);
        bench::emit_result("gossip_detect", config, leg_metrics(result));
      }
    }

    const LegResult honest = run_honest_leg(options, /*fanout=*/2, shape);
    ++legs;
    if (honest.detected) ++false_positives;
    if (!honest.evidence_ok) ++false_positives;  // a *verifying* honest verdict is worse
    bench::Json config;
    config.field("monitors", options.monitors)
        .field("fork", 0)
        .field("shape", shape_name(shape))
        .field("fanout", 2)
        .field("coverage", 1.0, 2)
        .field("honest", true)
        .field("seed", options.seed);
    bench::emit_result("gossip_detect", config, leg_metrics(honest));
  }

  bench::Json summary_config;
  summary_config.field("monitors", options.monitors)
      .field("fork", options.fork)
      .field("rounds", options.rounds)
      .field("legs", legs)
      .field("strict", options.strict);
  bench::Json summary_metrics;
  summary_metrics.field("detections", detections)
      .field("missed_full_coverage", missed_full_coverage)
      .field("bad_evidence", bad_evidence)
      .field("false_positives", false_positives)
      .field("split_control_detections", split_control_detections);
  bench::emit_result("gossip_detect_summary", summary_config, summary_metrics);

  bench::dump_metrics_snapshot(bench::metrics_snapshot_path(argc > 0 ? argv[0] : nullptr));

  if (bad_evidence > 0 || split_control_detections > 0) {
    std::fprintf(stderr,
                 "gossip_detect: FAIL — %" PRIu64 " unverifiable verdicts, %" PRIu64
                 " detections without any cross-partition channel\n",
                 bad_evidence, split_control_detections);
    return 3;
  }
  if (false_positives > 0) {
    std::fprintf(stderr, "gossip_detect: FAIL — %" PRIu64 " verdicts against an honest log\n",
                 false_positives);
    return 4;
  }
  if (options.strict && missed_full_coverage > 0) {
    std::fprintf(stderr,
                 "gossip_detect: FAIL (--strict) — %" PRIu64
                 " full-coverage legs never detected the split view\n",
                 missed_full_coverage);
    return 2;
  }
  std::printf("gossip_detect: ok (%" PRIu64 " legs, %" PRIu64 " detections)\n", legs, detections);
  return 0;
}
