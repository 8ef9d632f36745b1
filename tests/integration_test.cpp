// End-to-end integration: runs each of the paper's studies at reduced
// scale and asserts the qualitative findings (the same shapes the bench
// binaries print, as machine-checked invariants). These tests are the
// repository's regression net for the calibration.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include "ctwatch/core/ctwatch.hpp"
#include "ctwatch/obs/obs.hpp"

namespace ctwatch {
namespace {

using crypto::SignatureScheme;

sim::EcosystemOptions bulk(std::uint64_t seed) {
  sim::EcosystemOptions options;
  options.scheme = SignatureScheme::hmac_sha256_simulated;
  options.verify_submissions = false;
  options.store_bodies = false;
  options.seed = seed;
  return options;
}

// ---------- §2: the full evolution pipeline ----------

TEST(EndToEnd, Section2LogEvolution) {
  sim::Ecosystem ecosystem(bulk(101));
  sim::TimelineOptions options;
  options.scale = 1.0 / 10000.0;
  const sim::TimelineStats stats = sim::TimelineSimulator(ecosystem, options).run();
  ASSERT_GT(stats.issued, 10000u);

  const core::LogEvolutionReport report = core::LogEvolutionStudy(ecosystem).run();
  // The paper's §2 findings.
  EXPECT_GT(report.top5_share, 0.95);
  EXPECT_GT(report.matrix_sparsity, 0.6);
  // Let's Encrypt from zero to dominant within two months.
  const auto& le = report.cumulative_by_ca.at("Let's Encrypt");
  const auto& months = report.months;
  std::uint64_t le_feb = 0, le_apr = 0, total_apr = 0;
  for (std::size_t i = 0; i < months.size(); ++i) {
    if (months[i] == "2018-02") le_feb = le[i];
    if (months[i] == "2018-04") {
      le_apr = le[i];
      for (const auto& [ca, series] : report.cumulative_by_ca) total_apr += series[i];
    }
  }
  EXPECT_EQ(le_feb, 0u);
  EXPECT_GT(le_apr, total_apr / 3);  // the largest single CA by far
  // Note: Nimbus overload rejections only manifest at the default 1/2000
  // timeline scale (the capacity is calibrated there); the fig1c bench and
  // CtLogCapacityTest cover that behaviour.
  EXPECT_EQ(report.overload_rejections.count("Cloudflare Nimbus2018"), 1u);
}

// ---------- §3: passive vs scan on one world ----------

class Section3Fixture : public ::testing::Test {
 protected:
  Section3Fixture() : ecosystem_(bulk(202)), population_(ecosystem_, population_options()) {}

  static sim::PopulationOptions population_options() {
    sim::PopulationOptions options;
    options.site_count = 4000;
    options.popular_tier = 400;
    return options;
  }

  sim::Ecosystem ecosystem_;
  sim::ServerPopulation population_;
};

TEST_F(Section3Fixture, PassiveTotalsLandNearPaperValues) {
  monitor::PassiveMonitor monitor(ecosystem_.log_list());
  sim::TrafficOptions options;
  options.connections_per_day = 1200;
  sim::TrafficGenerator traffic(population_, options, Rng(1));
  traffic.run(monitor);

  const auto& totals = monitor.totals();
  const double conns = static_cast<double>(totals.connections);
  EXPECT_NEAR(static_cast<double>(totals.with_any_sct) / conns, 0.33, 0.06);
  EXPECT_NEAR(static_cast<double>(totals.sct_in_cert) / conns, 0.214, 0.05);
  EXPECT_NEAR(static_cast<double>(totals.sct_in_tls) / conns, 0.112, 0.04);
  EXPECT_NEAR(static_cast<double>(totals.client_signaled) / conns, 0.668, 0.01);
  EXPECT_EQ(totals.invalid_scts, 0u);  // no buggy CAs in this population

  // Table 1 ordering: Pilot leads the cert channel, Symantec the TLS one.
  const auto& usage = monitor.log_usage();
  EXPECT_GT(usage.at("Google Pilot").cert_scts, usage.at("Symantec log").cert_scts);
  EXPECT_GT(usage.at("Symantec log").cert_scts, usage.at("DigiCert Log Server").cert_scts);
  EXPECT_GT(usage.at("Symantec log").tls_scts, usage.at("Google Pilot").tls_scts);
  // LE logs nearly invisible in traffic.
  const std::uint64_t nimbus_cert = usage.count("Cloudflare Nimbus2018")
                                        ? usage.at("Cloudflare Nimbus2018").cert_scts
                                        : 0;
  EXPECT_LT(nimbus_cert * 5, usage.at("Google Pilot").cert_scts);
}

TEST_F(Section3Fixture, ScanViewInvertsTheLogRanking) {
  monitor::PassiveMonitor monitor(ecosystem_.log_list());
  sim::ScanDriver scan(population_, sim::ScanOptions{});
  scan.run(monitor);
  const auto& totals = monitor.totals();
  const double share = static_cast<double>(totals.unique_certs_with_embedded_sct) /
                       static_cast<double>(totals.unique_certificates);
  EXPECT_NEAR(share, 0.687, 0.08);
  const auto& usage = monitor.log_usage();
  // In the scan view the Let's Encrypt logs dominate everything.
  EXPECT_GT(usage.at("Cloudflare Nimbus2018").cert_scts, usage.at("Google Pilot").cert_scts * 5);
  EXPECT_GT(usage.at("Google Icarus").cert_scts, usage.at("Symantec log").cert_scts * 5);
}

TEST_F(Section3Fixture, ScanHonorsBlacklist) {
  monitor::PassiveMonitor monitor(ecosystem_.log_list());
  sim::ScanOptions options;
  options.blacklist.insert(population_.site(3).fqdn);
  options.blacklist.insert(population_.site(7).fqdn);
  sim::ScanDriver scan(population_, options);
  const sim::ScanStats stats = scan.run(monitor);
  EXPECT_EQ(stats.blacklist_skipped, 2u);
  EXPECT_EQ(stats.servers_scanned, population_.size() - 2);
}

// ---------- §4 + §5 + §6 glued on one corpus/world ----------

TEST(EndToEnd, Section4LeakagePipeline) {
  sim::DomainCorpusOptions corpus_options;
  corpus_options.registrable_count = 6000;
  sim::DomainCorpus corpus(corpus_options);
  core::LeakageStudy study(corpus);
  enumeration::EnumerationOptions options;
  options.min_label_count = 30;
  const core::LeakageReport report = study.run(options);

  // Table 2 head order.
  ASSERT_GE(report.top_labels.size(), 6u);
  EXPECT_EQ(report.top_labels[0].first, "www");
  EXPECT_EQ(report.top_labels[1].first, "mail");
  // The funnel discovers, the controls filter, Sonar knows only a bit.
  EXPECT_GT(report.funnel.novel, 100u);
  EXPECT_GT(report.funnel.control_replies, report.funnel.confirmed);
  EXPECT_LT(report.funnel.known_in_sonar, report.funnel.confirmed / 2);
  // Wordlists would have missed nearly everything.
  EXPECT_LE(report.subbrute.present_in_ct, 16u);
  EXPECT_LE(report.dnsrecon.present_in_ct, 12u);
}

TEST(EndToEnd, Section5PhishingOverSharedCorpus) {
  const sim::PhishingCorpus phishing_corpus = sim::generate_phishing_corpus();
  sim::DomainCorpusOptions bg;
  bg.registrable_count = 5000;
  sim::DomainCorpus background(bg);
  std::vector<std::string> names = background.ct_names();
  const std::size_t benign = names.size();
  names.insert(names.end(), phishing_corpus.names.begin(), phishing_corpus.names.end());

  const dns::PublicSuffixList psl = dns::PublicSuffixList::bundled();
  phishing::PhishingDetector detector(psl, phishing::standard_rules());
  const auto findings = detector.scan(names);
  // Exactly the planted phishing names are flagged: zero false positives
  // over thousands of benign names, zero false negatives.
  EXPECT_EQ(findings.size(), phishing_corpus.planted_phishing);
  EXPECT_GT(benign, 5000u);

  const auto summary = phishing::PhishingDetector::summarize(findings);
  EXPECT_GT(summary.at("Apple").count, summary.at("Microsoft").count);
  EXPECT_GT(summary.at("PayPal").count, summary.at("eBay").count);
}

TEST(EndToEnd, Section6HoneypotFullRun) {
  sim::EcosystemOptions options = bulk(303);
  options.store_bodies = true;
  sim::Ecosystem ecosystem(options);
  honeypot::CtHoneypot pot(ecosystem);
  for (int i = 0; i < 11; ++i) {
    pot.create_subdomain(SimTime::parse("2018-04-30 13:00:00") + i * 600);
  }
  honeypot::AttackerFleet fleet(pot, honeypot::standard_fleet(), Rng(6));
  fleet.run();
  const honeypot::HoneypotReport report = honeypot::analyze(pot);

  ASSERT_EQ(report.rows.size(), 11u);
  for (const auto& row : report.rows) {
    ASSERT_TRUE(row.first_dns);
    EXPECT_LT(row.dns_delta, 200);  // minutes, not hours
  }
  EXPECT_EQ(report.ipv6_contacts, 0u);
  EXPECT_EQ(report.port_scanners.size(), 1u);
  EXPECT_GE(report.ecs_subnets.size(), 5u);
  // No inbound scanner follows best practices (the standard fleet has no
  // informative rDNS).
  EXPECT_GT(report.sources_total, 0u);
  EXPECT_EQ(report.sources_with_best_practices, 0u);

  // rDNS walking the honeypot prefix finds nothing: the AAAA records were
  // never registered.
  const Bytes prefix = {0x20, 0x01, 0x0d, 0xb8, 0x00, 0x01};
  EXPECT_TRUE(pot.reverse_dns().walk_v6(prefix).empty());
}

TEST(EndToEnd, Section6BenevolentScannerWouldBeIdentifiable) {
  sim::EcosystemOptions options = bulk(304);
  options.store_bodies = true;
  sim::Ecosystem ecosystem(options);
  honeypot::CtHoneypot pot(ecosystem);
  pot.create_subdomain(SimTime::parse("2018-05-01 09:00:00"));

  auto fleet_spec = honeypot::standard_fleet();
  honeypot::MonitorActorSpec researcher;
  researcher.name = "university-scanner";
  researcher.asn = 64496;
  researcher.address = net::IPv4(198, 18, 5, 5);
  researcher.delay_min = 400;
  researcher.delay_max = 900;
  researcher.connects_http = true;
  researcher.informative_rdns = true;  // follows best practices
  fleet_spec.push_back(researcher);

  honeypot::AttackerFleet fleet(pot, fleet_spec, Rng(6));
  fleet.run();
  const honeypot::HoneypotReport report = honeypot::analyze(pot);
  EXPECT_EQ(report.sources_with_best_practices, 1u);
  EXPECT_EQ(*pot.reverse_dns().lookup(net::IPv4(198, 18, 5, 5)),
            "research-scanner.university-scanner.example");
}

// ---------- the §3.4 disclosure loop ----------

TEST(EndToEnd, Section34MonitorFlagsWhatTheStudyExplains) {
  // The passive monitor flags a certificate; the study's classifier
  // explains it — the full disclosure loop of §3.4.
  sim::EcosystemOptions options = bulk(305);
  options.store_bodies = true;
  options.verify_submissions = true;
  sim::Ecosystem ecosystem(options);

  sim::CertificateAuthority& globalsign = ecosystem.ca("GlobalSign");
  sim::IssuanceRequest request;
  request.subject_cn = "victim.example.net";
  request.sans = {x509::SanEntry::dns("victim.example.net"),
                  x509::SanEntry::address(net::IPv4(192, 0, 2, 4)),
                  x509::SanEntry::dns("alt.victim.example.net")};
  request.not_before = SimTime::parse("2018-03-20");
  request.not_after = SimTime::parse("2019-03-20");
  request.logs = ecosystem.logs_of("GlobalSign");
  request.bug = sim::IssuanceBug::san_reorder;
  const auto issued = globalsign.issue(request, SimTime::parse("2018-03-20"));

  monitor::PassiveMonitor monitor(ecosystem.log_list());
  tls::ConnectionRecord record;
  record.time = SimTime::parse("2018-03-21");
  record.server_name = request.subject_cn;
  record.certificate = std::make_shared<const x509::Certificate>(issued.final_certificate);
  record.issuer_public_key = std::make_shared<const Bytes>(globalsign.public_key());
  monitor.process(record);
  ASSERT_EQ(monitor.invalid_observations().size(), request.logs.size());
  EXPECT_EQ(monitor.invalid_observations()[0].issuer_cn,
            "GlobalSign Organization Validation CA");

  core::InvalidSctStudy study(ecosystem);
  const core::InvalidSctReport report = study.run();
  EXPECT_EQ(report.by_cause.count("san-reorder (GlobalSign class)"), 1u);
}

// ---------- the metrics snapshot producer ----------

TEST(EndToEnd, MetricsSnapshotHonorsEnvAndCarriesPreregisteredKeys) {
  const std::string path = ::testing::TempDir() + "/ctwatch_metrics_snapshot.json";
  ::setenv("CTWATCH_METRICS_JSON", path.c_str(), 1);
  EXPECT_EQ(obs::metrics_snapshot_path("some_bench"), path);
  ASSERT_TRUE(obs::dump_metrics_snapshot(obs::metrics_snapshot_path("some_bench")));
  ::unsetenv("CTWATCH_METRICS_JSON");
  // Without the env override, the path derives from the binary name.
  EXPECT_EQ(obs::metrics_snapshot_path("/x/y/some_bench"), "some_bench.metrics.json");

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string json((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());

  // Structural sanity: one top-level object with the three sections,
  // balanced braces and quotes all through.
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  std::int64_t depth = 0;
  std::int64_t quotes = 0;
  for (const char c : json) {
    if (c == '"') ++quotes;
    if (c == '{') ++depth;
    if (c == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(quotes % 2, 0);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);

  // The preregistered key set: namepool and par instrumentation must be
  // present even when the corresponding code path never ran.
  for (const char* key : {"\"namepool.bytes\"", "\"namepool.labels\"", "\"par.workers\"",
                          "\"par.tasks\"", "\"par.steals\"", "\"par.idle_ns\"",
                          "\"par.imbalance.census\"", "\"par.imbalance.funnel\"",
                          "\"enum.funnel.candidates\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace ctwatch
