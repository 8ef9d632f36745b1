// Differential parity harness for ctwatch::par: every parallelized
// pipeline stage must produce byte-identical output at 1, 2 and 8
// threads — including under an active chaos FaultPlan. Each test runs
// the same workload once per thread count via
// TaskPool::set_global_threads and compares complete result structures
// (or rendered artifact strings) against the single-thread baseline.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ctwatch/chaos/chaos.hpp"
#include "ctwatch/core/leakage.hpp"
#include "ctwatch/enumeration/census.hpp"
#include "ctwatch/enumeration/enumerator.hpp"
#include "ctwatch/monitor/passive_monitor.hpp"
#include "ctwatch/par/par.hpp"
#include "ctwatch/phishing/detector.hpp"
#include "ctwatch/sim/ca.hpp"
#include "ctwatch/sim/domains.hpp"
#include "ctwatch/sim/timeline.hpp"
#include "timeline_state.hpp"

namespace ctwatch {
namespace {

constexpr unsigned kThreadCounts[] = {1, 2, 8};

/// Restores the auto-resolved global pool when a test body exits,
/// however it exits.
struct GlobalThreadsGuard {
  ~GlobalThreadsGuard() { par::TaskPool::set_global_threads(0); }
};

// ---------- census ----------

/// Everything the census exposes, captured as owning strings so two
/// fingerprints from different censuses (different pools) compare by
/// content.
struct CensusFingerprint {
  enumeration::ExtractionStats stats;
  std::map<std::string, std::uint64_t> label_counts;
  std::map<std::string, std::map<std::string, std::uint64_t>> label_suffix_counts;
  std::map<std::string, std::set<std::string>> domains_by_suffix;
  std::vector<std::pair<std::string, std::uint64_t>> top_labels;
  std::map<std::string, std::string> top_label_per_suffix;
  std::uint64_t total_label_occurrences = 0;
};

CensusFingerprint fingerprint(const enumeration::SubdomainCensus& census) {
  CensusFingerprint fp;
  fp.stats = census.stats();
  fp.label_counts = census.label_counts();
  fp.label_suffix_counts = census.label_suffix_counts();
  fp.domains_by_suffix = census.domains_by_suffix();
  fp.top_labels = census.top_labels(25);
  fp.top_label_per_suffix = census.top_label_per_suffix();
  fp.total_label_occurrences = census.total_label_occurrences();
  return fp;
}

void expect_equal(const CensusFingerprint& got, const CensusFingerprint& want,
                  unsigned threads) {
  EXPECT_EQ(got.stats.valid_fqdns, want.stats.valid_fqdns) << "threads=" << threads;
  EXPECT_EQ(got.stats.invalid_rejected, want.stats.invalid_rejected) << "threads=" << threads;
  EXPECT_EQ(got.stats.duplicates, want.stats.duplicates) << "threads=" << threads;
  EXPECT_EQ(got.stats.redacted, want.stats.redacted) << "threads=" << threads;
  EXPECT_EQ(got.stats.names_in, want.stats.names_in) << "threads=" << threads;
  EXPECT_EQ(got.label_counts, want.label_counts) << "threads=" << threads;
  EXPECT_EQ(got.label_suffix_counts, want.label_suffix_counts) << "threads=" << threads;
  EXPECT_EQ(got.domains_by_suffix, want.domains_by_suffix) << "threads=" << threads;
  EXPECT_EQ(got.top_labels, want.top_labels) << "threads=" << threads;
  EXPECT_EQ(got.top_label_per_suffix, want.top_label_per_suffix) << "threads=" << threads;
  EXPECT_EQ(got.total_label_occurrences, want.total_label_occurrences)
      << "threads=" << threads;
}

/// A mixed CT-extract: enough names to spread over many chunks and all 64
/// shards, with duplicates, case aliases, redaction and junk sprinkled in.
std::vector<std::string> census_workload() {
  std::vector<std::string> names;
  const char* labels[] = {"www", "mail", "api", "dev", "shop", "cdn", "vpn", "db"};
  const char* suffixes[] = {"de", "fr", "tech", "co.uk"};
  for (int i = 0; i < 3000; ++i) {
    const std::string domain = "host" + std::to_string(i % 700);
    names.push_back(std::string(labels[i % 8]) + "." + domain + "." + suffixes[i % 4]);
    if (i % 11 == 0) names.push_back("WWW." + domain + ".DE.");  // case/dot alias
    if (i % 17 == 0) names.push_back("?." + domain + ".de");     // redacted
    if (i % 23 == 0) names.push_back("bad..name" + std::to_string(i) + ".com");
    if (i % 29 == 0) names.push_back(domain + ".de");            // apex, no subdomain
  }
  return names;
}

TEST(ParParityTest, CensusIsByteIdenticalAtEveryThreadCount) {
  GlobalThreadsGuard guard;
  const std::vector<std::string> names = census_workload();
  // Split into two batches so cross-call dedup state is exercised too.
  const std::size_t half = names.size() / 2;
  const std::vector<std::string> first(names.begin(), names.begin() + half);
  const std::vector<std::string> second(names.begin() + half, names.end());

  dns::PublicSuffixList psl = dns::PublicSuffixList::bundled();
  CensusFingerprint baseline;
  for (unsigned threads : kThreadCounts) {
    par::TaskPool::set_global_threads(threads);
    enumeration::SubdomainCensus census(psl);
    census.add_names(first);
    census.add_names(second);
    const CensusFingerprint fp = fingerprint(census);
    if (threads == 1) {
      baseline = fp;
      EXPECT_GT(baseline.stats.valid_fqdns, 0u);
      EXPECT_GT(baseline.stats.duplicates, 0u);
      EXPECT_GT(baseline.stats.redacted, 0u);
    } else {
      expect_equal(fp, baseline, threads);
    }
  }
}

// ---------- the DNS-verification funnel ----------

void expect_equal(const enumeration::FunnelResult& got,
                  const enumeration::FunnelResult& want, unsigned threads) {
  EXPECT_EQ(got.labels_selected, want.labels_selected) << "threads=" << threads;
  EXPECT_EQ(got.label_suffix_pairs, want.label_suffix_pairs) << "threads=" << threads;
  EXPECT_EQ(got.candidates, want.candidates) << "threads=" << threads;
  EXPECT_EQ(got.unique_candidates, want.unique_candidates) << "threads=" << threads;
  EXPECT_EQ(got.test_replies, want.test_replies) << "threads=" << threads;
  EXPECT_EQ(got.test_unanswered, want.test_unanswered) << "threads=" << threads;
  EXPECT_EQ(got.control_replies, want.control_replies) << "threads=" << threads;
  EXPECT_EQ(got.unroutable_dropped, want.unroutable_dropped) << "threads=" << threads;
  EXPECT_EQ(got.chain_too_long, want.chain_too_long) << "threads=" << threads;
  EXPECT_EQ(got.control_rejected, want.control_rejected) << "threads=" << threads;
  EXPECT_EQ(got.confirmed, want.confirmed) << "threads=" << threads;
  EXPECT_EQ(got.known_in_sonar, want.known_in_sonar) << "threads=" << threads;
  EXPECT_EQ(got.novel, want.novel) << "threads=" << threads;
  EXPECT_EQ(got.lost_test_queries, want.lost_test_queries) << "threads=" << threads;
  EXPECT_EQ(got.lost_control_queries, want.lost_control_queries) << "threads=" << threads;
  EXPECT_EQ(got.dns_timeouts, want.dns_timeouts) << "threads=" << threads;
  EXPECT_EQ(got.dns_servfails, want.dns_servfails) << "threads=" << threads;
  EXPECT_EQ(got.dns_retries, want.dns_retries) << "threads=" << threads;
  EXPECT_EQ(got.discoveries, want.discoveries) << "threads=" << threads;
}

/// The enumeration_test mini-world, scaled up with bulk zones so the
/// chunked funnel actually fans out: target1 has the name, target2 is
/// empty, target3 catch-alls, target4 answers unroutably; every even
/// bulk zone really has api.<zone>.
class ParityFunnelFixture {
 public:
  ParityFunnelFixture() : psl_(dns::PublicSuffixList::bundled()), census_(psl_) {
    census_.add_names(std::vector<std::string>{"api.seen1.de", "api.seen2.de",
                                               "api.seen3.de", "www.seen1.de",
                                               "www.seen2.de", "rare.seen1.de"});
    server_.set_logging(false);
    auto& z1 = server_.add_zone(dns::DnsName::parse_or_throw("target1.de"));
    z1.add(dns::ResourceRecord{dns::DnsName::parse_or_throw("api.target1.de"),
                               dns::RrType::A, 300, net::IPv4(100, 64, 0, 1)});
    server_.add_zone(dns::DnsName::parse_or_throw("target2.de"));
    auto& z3 = server_.add_zone(dns::DnsName::parse_or_throw("target3.de"));
    z3.set_default_a(net::IPv4(100, 64, 0, 3));
    auto& z4 = server_.add_zone(dns::DnsName::parse_or_throw("target4.de"));
    z4.add(dns::ResourceRecord{dns::DnsName::parse_or_throw("api.target4.de"),
                               dns::RrType::A, 300, net::IPv4(203, 0, 113, 9)});
    for (int i = 0; i < 40; ++i) {
      const std::string domain = "bulk" + std::to_string(i) + ".de";
      auto& zone = server_.add_zone(dns::DnsName::parse_or_throw(domain));
      if (i % 2 == 0) {
        zone.add(dns::ResourceRecord{dns::DnsName::parse_or_throw("api." + domain),
                                     dns::RrType::A, 300,
                                     net::IPv4(100, 64, 1, static_cast<std::uint8_t>(i))});
      }
      domains_.push_back(domain);
    }
    universe_.add_server(server_);
    routing_.add_route(*net::Prefix4::parse("100.64.0.0/10"));
    sonar_.insert("api.bulk0.de");
  }

  enumeration::FunnelResult run(const enumeration::EnumerationOptions& opts) {
    const dns::RecursiveResolver resolver(
        universe_,
        dns::RecursiveResolver::Identity{net::IPv4(192, 0, 2, 53), 64496, "t", false});
    enumeration::SubdomainEnumerator enumerator(census_, psl_, opts);
    Rng rng(1);
    return enumerator.run(domains_, sonar_, resolver, routing_, rng,
                          SimTime::parse("2018-04-27"));
  }

  dns::PublicSuffixList psl_;
  enumeration::SubdomainCensus census_;
  dns::AuthoritativeServer server_;
  dns::DnsUniverse universe_;
  net::RoutingTable routing_;
  std::vector<std::string> domains_ = {"target1.de", "target2.de", "target3.de",
                                       "target4.de"};
  std::set<std::string> sonar_;
};

TEST(ParParityTest, FunnelIsByteIdenticalAtEveryThreadCount) {
  GlobalThreadsGuard guard;
  enumeration::EnumerationOptions opts;
  opts.min_label_count = 2;

  enumeration::FunnelResult baseline;
  for (unsigned threads : kThreadCounts) {
    par::TaskPool::set_global_threads(threads);
    // A fresh world per thread count: candidate composition interns into
    // the census pool, so unique_candidates is only meaningful on a
    // first run.
    ParityFunnelFixture world;
    const enumeration::FunnelResult result = world.run(opts);
    if (threads == 1) {
      baseline = result;
      EXPECT_GT(baseline.candidates, 0u);
      EXPECT_GT(baseline.confirmed, 0u);
      EXPECT_GT(baseline.known_in_sonar, 0u);
      EXPECT_TRUE(baseline.conserves());
    } else {
      expect_equal(result, baseline, threads);
    }
  }
}

TEST(ParParityTest, FunnelUnderActiveChaosIsByteIdenticalAtEveryThreadCount) {
  GlobalThreadsGuard guard;
  enumeration::EnumerationOptions opts;
  opts.min_label_count = 2;
  opts.dns_max_retries = 1;

  chaos::FaultPlan flaky;
  flaky.error_probability = 0.4;
  flaky.timeout_fraction = 0.5;

  enumeration::FunnelResult baseline;
  for (unsigned threads : kThreadCounts) {
    par::TaskPool::set_global_threads(threads);
    // Fresh world and injector per run: fault draws are keyed by
    // per-chunk streams and per-name ordinals, so identical wiring must
    // yield identical loss at any thread count.
    ParityFunnelFixture world;
    chaos::FaultInjector injector(1234);
    injector.plan("dns.auth", flaky);
    world.server_.set_chaos(&injector);
    const enumeration::FunnelResult result = world.run(opts);
    world.server_.set_chaos(nullptr);
    if (threads == 1) {
      baseline = result;
      EXPECT_GT(baseline.lost_test_queries + baseline.dns_retries, 0u);
      EXPECT_TRUE(baseline.conserves());
    } else {
      expect_equal(result, baseline, threads);
    }
  }
}

// ---------- Table 2 / funnel renders via the full LeakageStudy ----------

TEST(ParParityTest, LeakageStudyArtifactsRenderIdenticallyAtEveryThreadCount) {
  GlobalThreadsGuard guard;
  sim::DomainCorpusOptions corpus_options;
  corpus_options.registrable_count = 4000;
  corpus_options.label_scale = 1.0 / 1000.0;
  enumeration::EnumerationOptions options;
  options.min_label_count = 10;

  std::string baseline_table2;
  std::string baseline_funnel;
  for (unsigned threads : kThreadCounts) {
    par::TaskPool::set_global_threads(threads);
    // A fresh corpus per thread count: the study's census interns into
    // the corpus pool, so reuse would conflate runs.
    sim::DomainCorpus corpus(corpus_options);
    core::LeakageStudy study(corpus);
    const core::LeakageReport report = study.run(options);
    const std::string table2 = core::LeakageStudy::render_table2(report);
    const std::string funnel = core::LeakageStudy::render_funnel(report);
    if (threads == 1) {
      baseline_table2 = table2;
      baseline_funnel = funnel;
      EXPECT_GT(report.funnel.candidates, 0u);
      EXPECT_GT(report.funnel.confirmed, 0u);
      ASSERT_FALSE(report.top_labels.empty());
      EXPECT_EQ(report.top_labels[0].first, "www");
    } else {
      EXPECT_EQ(table2, baseline_table2) << "threads=" << threads;
      EXPECT_EQ(funnel, baseline_funnel) << "threads=" << threads;
    }
  }
}

// ---------- the Fig 1 issuance timeline ----------

TEST(ParParityTest, TimelineIsByteIdenticalAtEveryThreadCount) {
  GlobalThreadsGuard guard;
  // Two days of the Let's Encrypt launch at 1/500 scale: several prepare
  // batches, and Nimbus2018's 60/h capacity binds, so speculative SCTs
  // are discarded on the way.
  sim::TimelineOptions options;
  options.start = "2018-03-08";
  options.end = "2018-03-10";
  options.scale = 1.0 / 500.0;

  sim::TimelineStats baseline_stats;
  std::vector<sim::LogState> baseline_logs;
  for (unsigned threads : kThreadCounts) {
    par::TaskPool::set_global_threads(threads);
    sim::EcosystemOptions ecosystem_options;
    ecosystem_options.seed = 11;
    sim::Ecosystem ecosystem(ecosystem_options);
    const sim::TimelineStats stats = sim::TimelineSimulator(ecosystem, options).run();
    std::vector<sim::LogState> logs = sim::log_states(ecosystem);
    if (threads == 1) {
      EXPECT_GT(stats.issued, 2048u);
      EXPECT_GT(stats.overloaded, 0u);
      baseline_stats = stats;
      baseline_logs = std::move(logs);
      continue;
    }
    EXPECT_EQ(stats.issued, baseline_stats.issued) << "threads=" << threads;
    EXPECT_EQ(stats.log_submissions, baseline_stats.log_submissions) << "threads=" << threads;
    EXPECT_EQ(stats.overloaded, baseline_stats.overloaded) << "threads=" << threads;
    ASSERT_EQ(logs.size(), baseline_logs.size());
    for (std::size_t i = 0; i < logs.size(); ++i) {
      EXPECT_EQ(logs[i], baseline_logs[i]) << logs[i].name << " threads=" << threads;
    }
  }
}

// ---------- phishing scan ----------

TEST(ParParityTest, PhishingScanIsByteIdenticalAtEveryThreadCount) {
  GlobalThreadsGuard guard;
  // Enough names for several 256-grain chunks, with hits, misses,
  // invalid junk and legitimate-brand exclusions interleaved.
  std::vector<std::string> names;
  for (int i = 0; i < 2000; ++i) {
    names.push_back("shop" + std::to_string(i) + ".site" + std::to_string(i % 97) + ".de");
    if (i % 31 == 0) names.push_back("appleid.apple.com-" + std::to_string(i) + ".gq");
    if (i % 47 == 0) names.push_back("paypal.com-account" + std::to_string(i) + ".money");
    if (i % 53 == 0) names.push_back("accounts.google.com");  // legitimate
    if (i % 61 == 0) names.push_back("bad..name" + std::to_string(i) + ".com");
  }

  dns::PublicSuffixList psl = dns::PublicSuffixList::bundled();
  std::vector<phishing::Finding> baseline;
  std::uint64_t baseline_scanned = 0, baseline_skipped = 0, baseline_regex = 0;
  for (unsigned threads : kThreadCounts) {
    par::TaskPool::set_global_threads(threads);
    phishing::PhishingDetector detector(psl, phishing::standard_rules());
    const std::vector<phishing::Finding> findings = detector.scan(names);
    if (threads == 1) {
      baseline = findings;
      baseline_scanned = detector.names_scanned();
      baseline_skipped = detector.names_skipped();
      baseline_regex = detector.regex_evaluations();
      EXPECT_GT(baseline.size(), 0u);
      EXPECT_GT(baseline_skipped, 0u);
    } else {
      ASSERT_EQ(findings.size(), baseline.size()) << "threads=" << threads;
      for (std::size_t i = 0; i < findings.size(); ++i) {
        EXPECT_EQ(findings[i].brand, baseline[i].brand) << "threads=" << threads;
        EXPECT_EQ(findings[i].fqdn, baseline[i].fqdn) << "threads=" << threads;
        EXPECT_EQ(findings[i].public_suffix, baseline[i].public_suffix)
            << "threads=" << threads;
        EXPECT_EQ(findings[i].registrable_domain, baseline[i].registrable_domain)
            << "threads=" << threads;
      }
      EXPECT_EQ(detector.names_scanned(), baseline_scanned) << "threads=" << threads;
      EXPECT_EQ(detector.names_skipped(), baseline_skipped) << "threads=" << threads;
      EXPECT_EQ(detector.regex_evaluations(), baseline_regex) << "threads=" << threads;
    }
  }
}

// ---------- passive monitor batch replay ----------

class ParityMonitorWorld {
 public:
  ParityMonitorWorld()
      : ca_("Par CA", "Par Issuing CA", crypto::SignatureScheme::hmac_sha256_simulated),
        log_(make_config("Par Log")),
        now_(SimTime::parse("2018-04-01 12:00:00")) {
    log_list_.add_log(log_, SimTime::parse("2015-01-01"), true);
  }

  static ct::LogConfig make_config(const std::string& name) {
    ct::LogConfig config;
    config.name = name;
    config.scheme = crypto::SignatureScheme::hmac_sha256_simulated;
    config.verify_submissions = false;
    return config;
  }

  /// A batch mixing logged certs (repeated: cache hits), an unlogged
  /// cert, a broken-SCT cert, and a second day.
  std::vector<tls::ConnectionRecord> build_batch() {
    std::vector<tls::ConnectionRecord> records;
    std::vector<x509::Certificate> certs;
    for (int i = 0; i < 6; ++i) {
      sim::IssuanceRequest request;
      request.subject_cn = "host" + std::to_string(i) + ".example.org";
      request.sans = {x509::SanEntry::dns(request.subject_cn)};
      request.not_before = now_;
      request.not_after = now_ + 90 * 86400;
      if (i != 4) request.logs = {&log_};
      if (i == 5) {
        request.sans.push_back(x509::SanEntry::dns("alt" + std::to_string(i) + ".org"));
        request.bug = sim::IssuanceBug::san_reorder;  // invalid embedded SCT
      }
      certs.push_back(i == 4 ? ca_.issue_unlogged(request, now_)
                             : ca_.issue(request, now_).final_certificate);
    }
    // One shared_ptr per certificate: the monitor's analysis cache is
    // keyed by certificate identity (pointer), matching a real capture
    // where repeated connections present the same parsed object.
    std::vector<std::shared_ptr<const x509::Certificate>> shared;
    for (const x509::Certificate& cert : certs) {
      shared.push_back(std::make_shared<const x509::Certificate>(cert));
    }
    const auto issuer_key = std::make_shared<const Bytes>(ca_.public_key());
    for (int r = 0; r < 30; ++r) {
      const auto& cert = shared[static_cast<std::size_t>(r) % shared.size()];
      tls::ConnectionRecord record;
      record.time = now_ + (r >= 20 ? 86400 : 0) + r;  // two days, in order
      record.server_name = cert->tbs.subject.common_name;
      record.client_signals_sct = (r % 3 != 0);
      record.certificate = cert;
      record.issuer_public_key = issuer_key;
      records.push_back(std::move(record));
    }
    return records;
  }

  sim::CertificateAuthority ca_;
  ct::CtLog log_;
  ct::LogList log_list_;
  SimTime now_;
};

void expect_equal(const monitor::PassiveMonitor& got, const monitor::PassiveMonitor& want,
                  unsigned threads) {
  const monitor::MonitorTotals& g = got.totals();
  const monitor::MonitorTotals& w = want.totals();
  EXPECT_EQ(g.connections, w.connections) << "threads=" << threads;
  EXPECT_EQ(g.with_any_sct, w.with_any_sct) << "threads=" << threads;
  EXPECT_EQ(g.sct_in_cert, w.sct_in_cert) << "threads=" << threads;
  EXPECT_EQ(g.sct_in_tls, w.sct_in_tls) << "threads=" << threads;
  EXPECT_EQ(g.sct_in_ocsp, w.sct_in_ocsp) << "threads=" << threads;
  EXPECT_EQ(g.client_signaled, w.client_signaled) << "threads=" << threads;
  EXPECT_EQ(g.valid_scts, w.valid_scts) << "threads=" << threads;
  EXPECT_EQ(g.invalid_scts, w.invalid_scts) << "threads=" << threads;
  EXPECT_EQ(g.unique_certificates, w.unique_certificates) << "threads=" << threads;
  EXPECT_EQ(g.unique_certs_with_embedded_sct, w.unique_certs_with_embedded_sct)
      << "threads=" << threads;

  ASSERT_EQ(got.daily().size(), want.daily().size()) << "threads=" << threads;
  auto it = want.daily().begin();
  for (const auto& [day, counters] : got.daily()) {
    EXPECT_EQ(day, it->first) << "threads=" << threads;
    EXPECT_EQ(counters.connections, it->second.connections) << "threads=" << threads;
    EXPECT_EQ(counters.with_any_sct, it->second.with_any_sct) << "threads=" << threads;
    EXPECT_EQ(counters.sct_in_cert, it->second.sct_in_cert) << "threads=" << threads;
    ++it;
  }

  ASSERT_EQ(got.log_usage().size(), want.log_usage().size()) << "threads=" << threads;
  for (const auto& [name, usage] : got.log_usage()) {
    const auto found = want.log_usage().find(name);
    ASSERT_NE(found, want.log_usage().end()) << name << " threads=" << threads;
    EXPECT_EQ(usage.cert_scts, found->second.cert_scts) << "threads=" << threads;
    EXPECT_EQ(usage.tls_scts, found->second.tls_scts) << "threads=" << threads;
    EXPECT_EQ(usage.ocsp_scts, found->second.ocsp_scts) << "threads=" << threads;
  }

  ASSERT_EQ(got.invalid_observations().size(), want.invalid_observations().size())
      << "threads=" << threads;
  for (std::size_t i = 0; i < got.invalid_observations().size(); ++i) {
    EXPECT_EQ(got.invalid_observations()[i].server_name,
              want.invalid_observations()[i].server_name)
        << "threads=" << threads;
    EXPECT_EQ(got.invalid_observations()[i].issuer_cn,
              want.invalid_observations()[i].issuer_cn)
        << "threads=" << threads;
    EXPECT_EQ(got.invalid_observations()[i].certificate_fingerprint,
              want.invalid_observations()[i].certificate_fingerprint)
        << "threads=" << threads;
  }

  EXPECT_EQ(got.daily_top_sct_server(), want.daily_top_sct_server())
      << "threads=" << threads;
}

TEST(ParParityTest, MonitorBatchReplayMatchesSerialProcessAtEveryThreadCount) {
  GlobalThreadsGuard guard;
  ParityMonitorWorld world;
  const std::vector<tls::ConnectionRecord> records = world.build_batch();

  // The reference monitor consumes the stream strictly serially.
  par::TaskPool::set_global_threads(1);
  monitor::PassiveMonitor reference(world.log_list_);
  for (const auto& record : records) reference.process(record);
  EXPECT_GT(reference.totals().invalid_scts, 0u);
  EXPECT_EQ(reference.totals().unique_certificates, 6u);

  for (unsigned threads : kThreadCounts) {
    par::TaskPool::set_global_threads(threads);
    monitor::PassiveMonitor batched(world.log_list_);
    batched.process_batch(records);
    expect_equal(batched, reference, threads);
  }
}

}  // namespace
}  // namespace ctwatch
