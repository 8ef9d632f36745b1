// ctwatch::chaos — the fault-injection framework and everything wired to
// it: determinism of the injector, outage windows, the circuit-breaker
// state machine, the K-of-N multi-log submitter (quorum, degradation,
// hedging, breaker routing, virtual-time determinism), the LogService
// chaos seams (ingress drops, signer failures, sequencer stalls), and the
// chaos-driven DNS statuses.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ctwatch/chaos/chaos.hpp"
#include "ctwatch/dns/resolver.hpp"
#include "ctwatch/logsvc/logsvc.hpp"
#include "ctwatch/util/rng.hpp"

namespace ctwatch {
namespace {

using namespace std::chrono_literals;

// ---------- FaultInjector ----------

TEST(FaultInjectorTest, UnplannedPointsAreHealthy) {
  chaos::FaultInjector injector(1);
  for (int i = 0; i < 100; ++i) {
    const chaos::FaultDecision d = injector.evaluate("nothing.registered");
    EXPECT_FALSE(d.faulted());
    EXPECT_EQ(d.latency_us, 0u);
  }
  EXPECT_EQ(injector.evaluations("nothing.registered"), 100u);
  EXPECT_EQ(injector.faults("nothing.registered"), 0u);
}

TEST(FaultInjectorTest, SameSeedSamePlanSameSequence) {
  chaos::FaultPlan plan;
  plan.error_probability = 0.3;
  plan.timeout_fraction = 0.5;
  plan.latency_base_us = 100;
  plan.latency_jitter_us = 50;
  plan.latency_exp_mean_us = 200.0;

  chaos::FaultInjector a(0xfeedULL);
  chaos::FaultInjector b(0xfeedULL);
  a.plan("p", plan);
  b.plan("p", plan);
  for (int i = 0; i < 2000; ++i) {
    const chaos::FaultDecision da = a.evaluate("p");
    const chaos::FaultDecision db = b.evaluate("p");
    ASSERT_EQ(da.kind, db.kind) << "at evaluation " << i;
    ASSERT_EQ(da.latency_us, db.latency_us) << "at evaluation " << i;
  }
}

TEST(FaultInjectorTest, DifferentSeedsDiverge) {
  chaos::FaultPlan plan;
  plan.error_probability = 0.5;
  chaos::FaultInjector a(1);
  chaos::FaultInjector b(2);
  a.plan("p", plan);
  b.plan("p", plan);
  int disagreements = 0;
  for (int i = 0; i < 500; ++i) {
    if (a.evaluate("p").kind != b.evaluate("p").kind) ++disagreements;
  }
  EXPECT_GT(disagreements, 0);
}

TEST(FaultInjectorTest, PointsDrawFromIndependentStreams) {
  // The sequence at "p" must not change when another point is also being
  // evaluated (or even registered later) — streams are per-point.
  chaos::FaultPlan plan;
  plan.error_probability = 0.4;
  chaos::FaultInjector alone(7);
  alone.plan("p", plan);
  std::vector<chaos::FaultKind> expected;
  for (int i = 0; i < 300; ++i) expected.push_back(alone.evaluate("p").kind);

  chaos::FaultInjector busy(7);
  busy.plan("p", plan);
  busy.plan("q", plan);
  for (int i = 0; i < 300; ++i) {
    busy.evaluate("q");
    ASSERT_EQ(busy.evaluate("p").kind, expected[static_cast<std::size_t>(i)]) << i;
    busy.evaluate("q");
  }
}

TEST(FaultInjectorTest, ResetOrdinalsReplaysExactly) {
  chaos::FaultPlan plan;
  plan.error_probability = 0.25;
  plan.latency_exp_mean_us = 50.0;
  chaos::FaultInjector injector(42);
  injector.plan("p", plan);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 200; ++i) first.push_back(injector.evaluate("p").latency_us);
  injector.reset_ordinals();
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(injector.evaluate("p").latency_us, first[static_cast<std::size_t>(i)]) << i;
  }
}

TEST(FaultInjectorTest, ErrorProbabilityAndTimeoutSplitAreCalibrated) {
  chaos::FaultPlan plan;
  plan.error_probability = 0.2;
  plan.timeout_fraction = 0.5;
  chaos::FaultInjector injector(3);
  injector.plan("p", plan);
  int errors = 0;
  int timeouts = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const chaos::FaultDecision d = injector.evaluate("p");
    if (d.kind == chaos::FaultKind::error) ++errors;
    if (d.kind == chaos::FaultKind::timeout) ++timeouts;
  }
  const double fault_rate = static_cast<double>(errors + timeouts) / n;
  EXPECT_NEAR(fault_rate, 0.2, 0.02);
  const double timeout_share =
      static_cast<double>(timeouts) / static_cast<double>(errors + timeouts);
  EXPECT_NEAR(timeout_share, 0.5, 0.05);
  EXPECT_EQ(injector.faults("p"), static_cast<std::uint64_t>(errors + timeouts));
}

TEST(FaultInjectorTest, LatencyCompositionRespectsBounds) {
  chaos::FaultPlan plan;
  plan.latency_base_us = 1000;
  plan.latency_jitter_us = 500;
  chaos::FaultInjector injector(9);
  injector.plan("p", plan);
  bool jitter_seen = false;
  for (int i = 0; i < 1000; ++i) {
    const chaos::FaultDecision d = injector.evaluate("p");
    EXPECT_GE(d.latency_us, 1000u);
    EXPECT_LE(d.latency_us, 1500u);
    if (d.latency_us > 1000u) jitter_seen = true;
  }
  EXPECT_TRUE(jitter_seen);
}

TEST(FaultInjectorTest, OutageWindowOverridesProbability) {
  chaos::FaultPlan plan;  // zero error probability...
  plan.outages.push_back(chaos::OutageWindow{1'000'000, 2'000'000});
  plan.outage_kind = chaos::FaultKind::timeout;
  chaos::FaultInjector injector(5);
  injector.plan("p", plan);
  EXPECT_FALSE(injector.evaluate("p", 999'999).faulted());
  EXPECT_EQ(injector.evaluate("p", 1'000'000).kind, chaos::FaultKind::timeout);
  EXPECT_EQ(injector.evaluate("p", 1'999'999).kind, chaos::FaultKind::timeout);
  EXPECT_FALSE(injector.evaluate("p", 2'000'000).faulted());  // half-open window
}

TEST(FaultInjectorTest, ReplacingPlanKeepsOrdinalStream) {
  chaos::FaultPlan noisy;
  noisy.error_probability = 1.0;
  chaos::FaultInjector injector(11);
  injector.plan("p", noisy);
  EXPECT_TRUE(injector.evaluate("p").faulted());
  injector.plan("p", chaos::FaultPlan{});  // heal the point
  EXPECT_FALSE(injector.evaluate("p").faulted());
  EXPECT_EQ(injector.evaluations("p"), 2u);
}

// ---------- CircuitBreaker ----------

TEST(CircuitBreakerTest, StateMachineFullCycle) {
  logsvc::CircuitBreaker::Options options;
  options.failure_threshold = 3;
  options.open_cooldown_us = 1000;
  logsvc::CircuitBreaker breaker(options);

  // closed: failures below the threshold keep it closed.
  EXPECT_EQ(breaker.state(0), logsvc::CircuitBreaker::State::closed);
  breaker.record_failure(0);
  breaker.record_failure(0);
  EXPECT_EQ(breaker.state(0), logsvc::CircuitBreaker::State::closed);
  EXPECT_TRUE(breaker.allow(0));

  // third consecutive failure trips it.
  breaker.record_failure(10);
  EXPECT_EQ(breaker.state(10), logsvc::CircuitBreaker::State::open);
  EXPECT_FALSE(breaker.allow(10));
  EXPECT_EQ(breaker.trips(), 1u);

  // cooldown elapses: half-open admits exactly one probe.
  EXPECT_EQ(breaker.state(1010), logsvc::CircuitBreaker::State::half_open);
  EXPECT_TRUE(breaker.allow(1010));
  EXPECT_FALSE(breaker.allow(1010));  // probe already in flight

  // probe fails: straight back to open, cooldown restarts.
  breaker.record_failure(1020);
  EXPECT_EQ(breaker.state(1020), logsvc::CircuitBreaker::State::open);
  EXPECT_EQ(breaker.trips(), 2u);
  EXPECT_FALSE(breaker.allow(1500));

  // second probe succeeds: closed, failure count cleared.
  EXPECT_TRUE(breaker.allow(2020));
  breaker.record_success();
  EXPECT_EQ(breaker.state(2020), logsvc::CircuitBreaker::State::closed);
  breaker.record_failure(2030);
  breaker.record_failure(2030);
  EXPECT_EQ(breaker.state(2030), logsvc::CircuitBreaker::State::closed);
}

TEST(CircuitBreakerTest, SuccessResetsConsecutiveFailures) {
  logsvc::CircuitBreaker::Options options;
  options.failure_threshold = 2;
  logsvc::CircuitBreaker breaker(options);
  breaker.record_failure(0);
  breaker.record_success();
  breaker.record_failure(0);
  EXPECT_EQ(breaker.state(0), logsvc::CircuitBreaker::State::closed);
  breaker.record_failure(0);
  EXPECT_EQ(breaker.state(0), logsvc::CircuitBreaker::State::open);
}

// ---------- MultiLogSubmitter ----------

logsvc::MultiLogOptions fast_multilog() {
  logsvc::MultiLogOptions options;
  options.quorum = 2;
  options.degraded_floor = 1;
  options.deadline_us = 2'000'000;
  options.attempt_timeout_us = 250'000;
  options.hedge_after_us = 60'000;
  return options;
}

struct Fleet {
  explicit Fleet(chaos::FaultInjector& injector, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::string name = "log" + std::to_string(i);
      logs.push_back(
          std::make_unique<logsvc::SimulatedLogTarget>(name, injector, "multilog." + name));
    }
    for (auto& log : logs) targets.push_back(log.get());
  }
  std::vector<std::unique_ptr<logsvc::SimulatedLogTarget>> logs;
  std::vector<logsvc::LogTarget*> targets;
};

chaos::FaultPlan healthy_latency() {
  chaos::FaultPlan plan;
  plan.latency_base_us = 10'000;
  plan.latency_jitter_us = 5'000;
  return plan;
}

TEST(MultiLogTest, HealthyFleetReachesQuorumWithoutRetries) {
  chaos::FaultInjector injector(21);
  Fleet fleet(injector, 3);
  for (int i = 0; i < 3; ++i) injector.plan("multilog.log" + std::to_string(i), healthy_latency());
  logsvc::MultiLogSubmitter submitter(fleet.targets, fast_multilog());
  for (std::uint64_t s = 0; s < 50; ++s) {
    const logsvc::SubmitReport report = submitter.submit(s, s * 3'000'000);
    EXPECT_EQ(report.outcome, logsvc::QuorumOutcome::quorum);
    EXPECT_EQ(report.scts, 2u);
    EXPECT_EQ(report.retries, 0u);
    EXPECT_EQ(report.hedges, 0u);
    EXPECT_LE(report.latency_us, 15'000u);
  }
  EXPECT_EQ(submitter.totals().quorum, 50u);
  EXPECT_DOUBLE_EQ(submitter.totals().goodput(), 1.0);
  EXPECT_EQ(submitter.breaker_trips(), 0u);
}

TEST(MultiLogTest, IdenticalSeedsGiveIdenticalTotals) {
  auto run = [] {
    chaos::FaultInjector injector(0xd15ea5eULL);
    Fleet fleet(injector, 4);
    for (int i = 0; i < 4; ++i) {
      chaos::FaultPlan plan = healthy_latency();
      plan.error_probability = 0.25;
      plan.timeout_fraction = 0.4;
      injector.plan("multilog.log" + std::to_string(i), plan);
    }
    logsvc::MultiLogSubmitter submitter(fleet.targets, fast_multilog());
    for (std::uint64_t s = 0; s < 400; ++s) submitter.submit(s, s * 3'000'000);
    return submitter.totals();
  };
  const logsvc::MultiLogTotals a = run();
  const logsvc::MultiLogTotals b = run();
  EXPECT_EQ(a.quorum, b.quorum);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.hedges, b.hedges);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.errors, b.errors);
  EXPECT_EQ(a.breaker_skips, b.breaker_skips);
}

TEST(MultiLogTest, EverySubmissionResolvesUnderHeavyChaos) {
  chaos::FaultInjector injector(99);
  Fleet fleet(injector, 4);
  for (int i = 0; i < 4; ++i) {
    chaos::FaultPlan plan = healthy_latency();
    plan.error_probability = 0.6;  // brutal
    plan.timeout_fraction = 0.5;
    injector.plan("multilog.log" + std::to_string(i), plan);
  }
  logsvc::MultiLogSubmitter submitter(fleet.targets, fast_multilog());
  for (std::uint64_t s = 0; s < 500; ++s) submitter.submit(s, s * 3'000'000);
  const logsvc::MultiLogTotals& totals = submitter.totals();
  EXPECT_EQ(totals.submissions, 500u);
  EXPECT_EQ(totals.resolved(), 500u);  // zero lost completions
  EXPECT_GT(totals.retries, 0u);
}

TEST(MultiLogTest, SingleSurvivorDegradesAtFloor) {
  chaos::FaultInjector injector(17);
  Fleet fleet(injector, 3);
  injector.plan("multilog.log0", healthy_latency());
  chaos::FaultPlan dead;
  dead.error_probability = 1.0;
  dead.timeout_fraction = 0.0;  // fast errors, not slow timeouts
  dead.latency_base_us = 5'000;
  injector.plan("multilog.log1", dead);
  injector.plan("multilog.log2", dead);
  logsvc::MultiLogSubmitter submitter(fleet.targets, fast_multilog());
  const logsvc::SubmitReport report = submitter.submit(0, 0);
  EXPECT_EQ(report.outcome, logsvc::QuorumOutcome::degraded);
  EXPECT_EQ(report.scts, 1u);  // the counted K-1 case
  EXPECT_EQ(report.latency_us, fast_multilog().deadline_us);
}

TEST(MultiLogTest, SlowLogTriggersHedgingAndTheHedgeWins) {
  chaos::FaultInjector injector(31);
  Fleet fleet(injector, 2);
  chaos::FaultPlan slow;
  slow.latency_base_us = 200'000;  // way past hedge_after_us (60ms)
  injector.plan("multilog.log0", slow);
  injector.plan("multilog.log1", healthy_latency());
  logsvc::MultiLogOptions options = fast_multilog();
  options.quorum = 1;  // log0 alone is asked first; the hedge races it
  logsvc::MultiLogSubmitter submitter(fleet.targets, options);
  const logsvc::SubmitReport report = submitter.submit(0, 0);
  EXPECT_EQ(report.outcome, logsvc::QuorumOutcome::quorum);
  EXPECT_EQ(report.hedges, 1u);
  // The hedge resolves at ~60ms + log1's 10-15ms, far before log0's 200ms.
  EXPECT_LT(report.latency_us, 100'000u);
  EXPECT_GE(report.latency_us, 60'000u);
}

TEST(MultiLogTest, OutageTripsBreakerAndRecovers) {
  chaos::FaultInjector injector(47);
  Fleet fleet(injector, 3);
  injector.plan("multilog.log0", healthy_latency());
  injector.plan("multilog.log1", healthy_latency());
  chaos::FaultPlan outage = healthy_latency();
  // log2 is down for the first 30 virtual seconds.
  outage.outages.push_back(chaos::OutageWindow{0, 30'000'000});
  outage.outage_kind = chaos::FaultKind::error;
  injector.plan("multilog.log2", outage);

  logsvc::MultiLogOptions options = fast_multilog();
  options.quorum = 3;  // force every submission to need log2
  logsvc::MultiLogSubmitter submitter(fleet.targets, options);
  for (std::uint64_t s = 0; s < 20; ++s) submitter.submit(s, s * 3'000'000);
  // During the outage the breaker must have tripped at least once, and
  // submissions degrade (2 of 3 SCTs) rather than fail or hang.
  EXPECT_GT(submitter.breaker(2).trips(), 0u);
  EXPECT_GT(submitter.totals().degraded, 0u);
  EXPECT_EQ(submitter.totals().resolved(), 20u);
  // Past the window (s >= 10 → start 30s), full quorum returns.
  const logsvc::SubmitReport after = submitter.submit(100, 60'000'000);
  EXPECT_EQ(after.outcome, logsvc::QuorumOutcome::quorum);
  EXPECT_EQ(after.scts, 3u);
}

TEST(MultiLogTest, AcceptancePlanMeetsGoodputFloor) {
  // The ISSUE acceptance scenario: 10% error rate everywhere plus one
  // full log outage, quorum 2 of 3 — goodput must stay >= 95% with zero
  // lost completions.
  chaos::FaultInjector injector(0xac5eULL);
  Fleet fleet(injector, 3);
  for (int i = 0; i < 3; ++i) {
    chaos::FaultPlan plan = healthy_latency();
    plan.error_probability = 0.10;
    plan.timeout_fraction = 0.5;
    if (i == 2) {
      plan.outages.push_back(chaos::OutageWindow{0, 600'000'000});  // 10 min down
      plan.outage_kind = chaos::FaultKind::timeout;
    }
    injector.plan("multilog.log" + std::to_string(i), plan);
  }
  logsvc::MultiLogSubmitter submitter(fleet.targets, fast_multilog());
  const std::uint64_t n = 400;
  for (std::uint64_t s = 0; s < n; ++s) submitter.submit(s, s * 3'000'000);
  const logsvc::MultiLogTotals& totals = submitter.totals();
  EXPECT_EQ(totals.resolved(), n);
  EXPECT_GE(totals.goodput(), 0.95);
}

// ---------- LogService chaos seams ----------

logsvc::Config chaos_service_config(const std::string& name, chaos::FaultInjector& injector) {
  logsvc::Config config;
  config.name = name;
  config.scheme = crypto::SignatureScheme::hmac_sha256_simulated;
  config.verify_submissions = false;
  config.merge_delay = std::chrono::microseconds(200);
  config.chaos = &injector;
  return config;
}

ct::SignedEntry chaos_entry(std::uint64_t n) {
  ct::SignedEntry entry;
  entry.type = ct::EntryType::x509_entry;
  entry.data = to_bytes("chaos-entry-" + std::to_string(n));
  return entry;
}

crypto::Digest chaos_fingerprint(std::uint64_t n) {
  return crypto::Sha256::hash(to_bytes("chaos-fp-" + std::to_string(n)));
}

TEST(LogServiceChaosTest, IngressFaultsDropSubmissions) {
  chaos::FaultInjector injector(61);
  chaos::FaultPlan drop_all;
  drop_all.error_probability = 1.0;
  injector.plan("logsvc.submit", drop_all);
  logsvc::LogService service(chaos_service_config("drop-all", injector));
  for (std::uint64_t n = 0; n < 10; ++n) {
    EXPECT_EQ(service.submit(chaos_entry(n), chaos_fingerprint(n), "ca", SimTime{1000}),
              ct::SubmitStatus::dropped);
  }
  service.stop();
  EXPECT_EQ(service.chaos_dropped(), 10u);
  EXPECT_EQ(service.tree_size(), 0u);
}

TEST(LogServiceChaosTest, SignerFailuresSurfaceThroughCompletions) {
  chaos::FaultInjector injector(67);
  chaos::FaultPlan fail_all;
  fail_all.error_probability = 1.0;
  injector.plan("logsvc.sign", fail_all);
  logsvc::LogService service(chaos_service_config("bad-signer", injector));

  std::mutex mu;
  std::vector<ct::SubmitStatus> outcomes;
  for (std::uint64_t n = 0; n < 8; ++n) {
    const ct::SubmitStatus status =
        service.submit(chaos_entry(n), chaos_fingerprint(n), "ca", SimTime{1000},
                       [&](const ct::SubmitResult& outcome) {
                         std::lock_guard<std::mutex> lock(mu);
                         outcomes.push_back(outcome.status);
                       });
    EXPECT_EQ(status, ct::SubmitStatus::ok);
  }
  service.stop();
  EXPECT_EQ(service.signer_failures(), 8u);
  EXPECT_EQ(service.tree_size(), 0u);  // nothing integrated
  ASSERT_EQ(outcomes.size(), 8u);     // ...but every completion fired
  for (const ct::SubmitStatus status : outcomes) {
    EXPECT_EQ(status, ct::SubmitStatus::internal_error);
  }
}

TEST(LogServiceChaosTest, SequencerStallDelaysButNeverLoses) {
  chaos::FaultInjector injector(71);
  chaos::FaultPlan stall;
  stall.latency_base_us = 2'000;  // 2ms injected before every seal
  injector.plan("logsvc.seal", stall);
  logsvc::LogService service(chaos_service_config("stalled", injector));

  std::mutex mu;
  std::condition_variable cv;
  std::size_t completed = 0;
  const std::uint64_t n = 20;
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(service.submit(chaos_entry(i), chaos_fingerprint(i), "ca", SimTime{1000},
                             [&](const ct::SubmitResult& outcome) {
                               EXPECT_EQ(outcome.status, ct::SubmitStatus::ok);
                               std::lock_guard<std::mutex> lock(mu);
                               if (++completed == n) cv.notify_all();
                             }),
              ct::SubmitStatus::ok);
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, 10s, [&] { return completed == n; }));
  }
  service.stop();
  EXPECT_EQ(service.tree_size(), n);
  EXPECT_GT(injector.evaluations("logsvc.seal"), 0u);
}

// The TSAN scenario: concurrent submitters racing a lossy ingress and a
// failing signer. Conservation must hold exactly: every submission either
// was dropped at ingress (counted) or got exactly one completion.
TEST(LogServiceChaosTest, ConcurrentSubmittersUnderChaosConserveCompletions) {
  chaos::FaultInjector injector(83);
  chaos::FaultPlan flaky;
  flaky.error_probability = 0.2;
  injector.plan("logsvc.submit", flaky);
  injector.plan("logsvc.sign", flaky);
  logsvc::LogService service(chaos_service_config("flaky", injector));

  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 200;
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> completions_ok{0};
  std::atomic<std::uint64_t> completions_failed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        const std::uint64_t n = static_cast<std::uint64_t>(t) * kPerThread + i;
        const ct::SubmitStatus status =
            service.submit(chaos_entry(n), chaos_fingerprint(n), "ca", SimTime{1000},
                           [&](const ct::SubmitResult& outcome) {
                             if (outcome.status == ct::SubmitStatus::ok) {
                               completions_ok.fetch_add(1, std::memory_order_relaxed);
                             } else {
                               completions_failed.fetch_add(1, std::memory_order_relaxed);
                             }
                           });
        if (status == ct::SubmitStatus::ok) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        } else {
          ASSERT_EQ(status, ct::SubmitStatus::dropped);
          dropped.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  service.stop();

  EXPECT_EQ(accepted.load() + dropped.load(), kThreads * kPerThread);
  EXPECT_EQ(dropped.load(), service.chaos_dropped());
  EXPECT_GT(dropped.load(), 0u);
  EXPECT_EQ(completions_ok.load() + completions_failed.load(), accepted.load());
  EXPECT_EQ(completions_failed.load(), service.signer_failures());
  EXPECT_EQ(service.tree_size(), completions_ok.load());
}

// ---------- chaos-driven DNS ----------

dns::QueryContext probe_context(SimTime when) {
  dns::QueryContext context;
  context.time = when;
  context.resolver_addr = net::IPv4(192, 0, 2, 53);
  context.resolver_asn = 64496;
  context.resolver_label = "test";
  return context;
}

TEST(DnsChaosTest, TimeoutsAreInvisibleToTheQueryLogButServfailsAreLogged) {
  dns::AuthoritativeServer server;
  auto& zone = server.add_zone(dns::DnsName::parse_or_throw("example.de"));
  zone.add(dns::ResourceRecord{dns::DnsName::parse_or_throw("www.example.de"), dns::RrType::A,
                               300, net::IPv4(100, 64, 0, 1)});
  chaos::FaultInjector injector(101);
  chaos::FaultPlan plan;
  plan.error_probability = 1.0;
  plan.timeout_fraction = 1.0;  // all faults are timeouts
  injector.plan("dns.auth", plan);
  server.set_chaos(&injector);

  const dns::DnsQuestion question{dns::DnsName::parse_or_throw("www.example.de"), dns::RrType::A};
  dns::ServerStatus status = dns::ServerStatus::ok;
  EXPECT_TRUE(server.query(question, probe_context(SimTime{100}), status).empty());
  EXPECT_EQ(status, dns::ServerStatus::timed_out);
  EXPECT_TRUE(server.log().empty());  // the packet never arrived

  plan.timeout_fraction = 0.0;  // now all faults are SERVFAILs
  injector.plan("dns.auth", plan);
  EXPECT_TRUE(server.query(question, probe_context(SimTime{101}), status).empty());
  EXPECT_EQ(status, dns::ServerStatus::servfail);
  ASSERT_EQ(server.log().size(), 1u);  // the query reached the server
  EXPECT_FALSE(server.log()[0].answered);

  injector.plan("dns.auth", chaos::FaultPlan{});  // heal
  EXPECT_FALSE(server.query(question, probe_context(SimTime{102}), status).empty());
  EXPECT_EQ(status, dns::ServerStatus::ok);
  EXPECT_EQ(server.log().size(), 2u);
}

TEST(DnsChaosTest, ResolverSurfacesLossyStatuses) {
  dns::AuthoritativeServer server;
  auto& zone = server.add_zone(dns::DnsName::parse_or_throw("example.de"));
  zone.add(dns::ResourceRecord{dns::DnsName::parse_or_throw("www.example.de"), dns::RrType::A,
                               300, net::IPv4(100, 64, 0, 1)});
  dns::DnsUniverse universe;
  universe.add_server(server);
  dns::RecursiveResolver resolver(
      universe, dns::RecursiveResolver::Identity{net::IPv4(192, 0, 2, 53), 64496, "t", false});

  chaos::FaultInjector injector(103);
  chaos::FaultPlan plan;
  // Outage on the resolver's own client leg for the first 10 seconds.
  plan.outages.push_back(chaos::OutageWindow{0, 10'000'000});
  plan.outage_kind = chaos::FaultKind::timeout;
  injector.plan("dns.resolver", plan);
  resolver.set_chaos(&injector);

  const auto name = dns::DnsName::parse_or_throw("www.example.de");
  EXPECT_EQ(resolver.resolve(name, dns::RrType::A, SimTime{5}).status,
            dns::ResolveStatus::timed_out);
  EXPECT_TRUE(dns::is_lossy(dns::ResolveStatus::timed_out));
  EXPECT_TRUE(dns::is_lossy(dns::ResolveStatus::servfail));
  EXPECT_FALSE(dns::is_lossy(dns::ResolveStatus::nxdomain));
  // Past the outage window the same resolver answers.
  EXPECT_EQ(resolver.resolve(name, dns::RrType::A, SimTime{11}).status, dns::ResolveStatus::ok);

  // Server-leg faults also surface through resolve().
  chaos::FaultPlan servfail;
  servfail.error_probability = 1.0;
  injector.plan("dns.auth", servfail);
  server.set_chaos(&injector);
  EXPECT_EQ(resolver.resolve(name, dns::RrType::A, SimTime{12}).status,
            dns::ResolveStatus::servfail);
}

TEST(DnsChaosTest, ClearLogReleasesMemory) {
  dns::AuthoritativeServer server;
  server.add_zone(dns::DnsName::parse_or_throw("example.de"));
  const dns::DnsQuestion question{dns::DnsName::parse_or_throw("www.example.de"), dns::RrType::A};
  for (int i = 0; i < 1000; ++i) server.query(question, probe_context(SimTime{i}));
  EXPECT_EQ(server.log().size(), 1000u);
  EXPECT_GE(server.log_bytes_approx(), 1000 * sizeof(dns::QueryLogEntry));
  server.clear_log();
  EXPECT_TRUE(server.log().empty());
  EXPECT_EQ(server.log_bytes_approx(), 0u);  // capacity actually released
}

}  // namespace
}  // namespace ctwatch
