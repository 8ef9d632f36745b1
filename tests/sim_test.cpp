#include <gtest/gtest.h>

#include <algorithm>

#include "ctwatch/sim/domains.hpp"
#include "ctwatch/sim/ecosystem.hpp"
#include "ctwatch/sim/phishing_gen.hpp"
#include "ctwatch/sim/population.hpp"
#include "ctwatch/sim/timeline.hpp"
#include "ctwatch/sim/traffic.hpp"
#include "timeline_state.hpp"

namespace ctwatch::sim {
namespace {

using crypto::SignatureScheme;

// ---------- CA issuance flow ----------

class CaFlowTest : public ::testing::Test {
 protected:
  CaFlowTest()
      : ca_("Flow CA", "Flow Issuing CA", SignatureScheme::hmac_sha256_simulated),
        now_(SimTime::parse("2018-03-20")) {
    ct::LogConfig config;
    config.name = "Flow Log";
    config.scheme = SignatureScheme::hmac_sha256_simulated;
    log_ = std::make_unique<ct::CtLog>(config);
  }

  IssuanceRequest request(IssuanceBug bug = IssuanceBug::none) {
    IssuanceRequest req;
    req.subject_cn = "flow.example.org";
    req.sans = {x509::SanEntry::dns("flow.example.org"),
                x509::SanEntry::address(net::IPv4(192, 0, 2, 8)),
                x509::SanEntry::dns("alt.example.org")};
    req.not_before = now_;
    req.not_after = now_ + 365 * 86400;
    req.logs = {log_.get()};
    req.bug = bug;
    return req;
  }

  bool embedded_sct_valid(const x509::Certificate& final_cert) {
    const auto scts = tls::embedded_scts(final_cert);
    if (scts.empty()) return false;
    const ct::SignedEntry entry = ct::make_precert_entry(final_cert, ca_.public_key());
    for (const auto& sct : scts) {
      if (!ct::verify_sct(sct, entry, log_->public_key())) return false;
    }
    return true;
  }

  CertificateAuthority ca_;
  std::unique_ptr<ct::CtLog> log_;
  SimTime now_;
};

TEST_F(CaFlowTest, CleanIssuanceYieldsValidEmbeddedSct) {
  const IssuanceResult issued = ca_.issue(request(), now_);
  EXPECT_TRUE(issued.precertificate.is_precertificate());
  EXPECT_FALSE(issued.final_certificate.is_precertificate());
  EXPECT_TRUE(issued.final_certificate.sct_list_value());
  EXPECT_TRUE(embedded_sct_valid(issued.final_certificate));
  // Both certificates carry the CA's signature.
  EXPECT_TRUE(issued.precertificate.verify(ca_.public_key()));
  EXPECT_TRUE(issued.final_certificate.verify(ca_.public_key()));
}

TEST_F(CaFlowTest, PrecertAndFinalCoverSameBytes) {
  const IssuanceResult issued = ca_.issue(request(), now_);
  EXPECT_EQ(x509::precert_tbs_bytes(issued.precertificate.tbs),
            x509::precert_tbs_bytes(issued.final_certificate.tbs));
}

TEST_F(CaFlowTest, SanReorderBreaksSct) {
  const IssuanceResult issued = ca_.issue(request(IssuanceBug::san_reorder), now_);
  EXPECT_FALSE(embedded_sct_valid(issued.final_certificate));
  // The certificate itself is still properly CA-signed — only CT breaks.
  EXPECT_TRUE(issued.final_certificate.verify(ca_.public_key()));
  // The SAN *set* is unchanged, only the order.
  auto pre = issued.precertificate.tbs.san_entries();
  auto fin = issued.final_certificate.tbs.san_entries();
  EXPECT_NE(pre, fin);
  std::sort(pre.begin(), pre.end(), [](const auto& a, const auto& b) {
    return a.dns_name < b.dns_name;
  });
  std::sort(fin.begin(), fin.end(), [](const auto& a, const auto& b) {
    return a.dns_name < b.dns_name;
  });
  EXPECT_EQ(pre, fin);
}

TEST_F(CaFlowTest, ExtensionReorderBreaksSct) {
  const IssuanceResult issued = ca_.issue(request(IssuanceBug::extension_reorder), now_);
  EXPECT_FALSE(embedded_sct_valid(issued.final_certificate));
  EXPECT_TRUE(issued.final_certificate.verify(ca_.public_key()));
}

TEST_F(CaFlowTest, NameSwapBreaksSct) {
  const IssuanceResult issued = ca_.issue(request(IssuanceBug::name_swap), now_);
  EXPECT_FALSE(embedded_sct_valid(issued.final_certificate));
  EXPECT_NE(issued.final_certificate.tbs.issuer, issued.precertificate.tbs.issuer);
}

TEST_F(CaFlowTest, StaleSctReissueBreaksSct) {
  const IssuanceResult first = ca_.issue(request(), now_);
  ASSERT_TRUE(embedded_sct_valid(first.final_certificate));
  const x509::Certificate reissued = ca_.reissue_with_stale_scts(first, now_ + 7 * 86400);
  EXPECT_FALSE(embedded_sct_valid(reissued));
  EXPECT_NE(reissued.tbs.serial, first.final_certificate.tbs.serial);
  EXPECT_TRUE(reissued.verify(ca_.public_key()));
}

TEST_F(CaFlowTest, UnloggedIssuanceHasNoSctList) {
  const x509::Certificate cert = ca_.issue_unlogged(request(), now_);
  EXPECT_FALSE(cert.sct_list_value());
  EXPECT_FALSE(cert.is_precertificate());
  EXPECT_TRUE(cert.verify(ca_.public_key()));
}

TEST_F(CaFlowTest, SerialsIncrement) {
  const auto a = ca_.issue(request(), now_);
  const auto b = ca_.issue(request(), now_);
  EXPECT_NE(a.final_certificate.tbs.serial, b.final_certificate.tbs.serial);
  EXPECT_EQ(ca_.certificates_issued(), 2u);
}

/// Two copies of one issuance setup (same names, hence the same keys): an
/// unlimited log, a verifying log and a log already at its capacity.
struct IssuanceWorld {
  IssuanceWorld() : ca("Steps CA", "Steps Issuing CA", SignatureScheme::hmac_sha256_simulated) {
    ct::LogConfig config;
    config.scheme = SignatureScheme::hmac_sha256_simulated;
    config.verify_submissions = false;
    config.name = "Steps Open Log";
    logs.push_back(std::make_unique<ct::CtLog>(config));
    config.name = "Steps Verifying Log";
    config.verify_submissions = true;
    logs.push_back(std::make_unique<ct::CtLog>(config));
    config.name = "Steps Full Log";
    config.capacity_per_hour = 1;
    logs.push_back(std::make_unique<ct::CtLog>(config));
  }

  IssuanceRequest request(IssuanceBug bug, bool redact, SimTime now) {
    IssuanceRequest req;
    req.subject_cn = "www.steps.example.org";
    req.sans = {x509::SanEntry::dns("www.steps.example.org"),
                x509::SanEntry::address(net::IPv4(192, 0, 2, 9)),
                x509::SanEntry::dns("api.steps.example.org")};
    req.not_before = now;
    req.not_after = now + 90 * 86400;
    for (const auto& log : logs) req.logs.push_back(log.get());
    req.bug = bug;
    req.redact_subdomains = redact;
    return req;
  }

  CertificateAuthority ca;
  std::vector<std::unique_ptr<ct::CtLog>> logs;
};

TEST(IssuanceStepsTest, IssueIsPrepareSubmitFinalizeByteForByte) {
  IssuanceWorld whole;
  IssuanceWorld stepped;
  const SimTime now = SimTime::parse("2018-03-20");
  int full_log_refusals = 0;
  for (const IssuanceBug bug :
       {IssuanceBug::none, IssuanceBug::san_reorder, IssuanceBug::extension_reorder,
        IssuanceBug::name_swap, IssuanceBug::stale_sct_reissue}) {
    for (const bool redact : {false, true}) {
      SCOPED_TRACE(to_string(bug) + (redact ? " redacted" : ""));
      const IssuanceRequest whole_request = whole.request(bug, redact, now);
      const IssuanceResult want = whole.ca.issue(whole_request, now);

      const IssuanceRequest request = stepped.request(bug, redact, now);
      PreparedIssuance prepared = stepped.ca.prepare(request, now, stepped.ca.next_serial());
      const x509::Certificate precertificate = prepared.precertificate;
      const SubmissionOutcome outcome =
          CertificateAuthority::submit(prepared.pre_chain, request.logs);
      const x509::Certificate final_certificate =
          stepped.ca.finalize(request, prepared, outcome.scts);

      EXPECT_EQ(precertificate.encode(), want.precertificate.encode());
      EXPECT_EQ(outcome.scts, want.scts);
      EXPECT_EQ(outcome.failed_logs, want.failed_logs);
      EXPECT_EQ(final_certificate.encode(), want.final_certificate.encode());
      // The full log takes the first submission of the hour and refuses
      // the rest, so the discarded speculative SCT is exercised.
      full_log_refusals += static_cast<int>(want.failed_logs.size());
    }
  }
  EXPECT_EQ(full_log_refusals, 9);
  EXPECT_EQ(stepped.ca.certificates_issued(), whole.ca.certificates_issued());
  for (std::size_t i = 0; i < whole.logs.size(); ++i) {
    EXPECT_EQ(stepped.logs[i]->tree_size(), whole.logs[i]->tree_size());
    EXPECT_EQ(stepped.logs[i]->get_sth(now).root_hash, whole.logs[i]->get_sth(now).root_hash);
    EXPECT_EQ(stepped.logs[i]->overload_rejections(), whole.logs[i]->overload_rejections());
  }
}

// prepare() encodes the precertificate TBS once and splices the log entry
// and the certificate DER from it. Every byte it makes must equal what the
// reference encoders make of the same precertificate: TbsCertificate::
// encode (the CA signature), precert_tbs_bytes (the entry), Certificate::
// fingerprint, merkle_leaf_bytes and sct_signing_input (every SCT).
TEST(IssuanceStepsTest, PrepareMatchesTheReferenceEncodings) {
  IssuanceWorld world;
  const SimTime now = SimTime::parse("2018-03-20");
  const auto timestamp_ms = static_cast<std::uint64_t>(now.unix_seconds()) * 1000;
  int cases = 0;
  for (const IssuanceBug bug :
       {IssuanceBug::none, IssuanceBug::san_reorder, IssuanceBug::extension_reorder,
        IssuanceBug::name_swap, IssuanceBug::stale_sct_reissue}) {
    for (const bool redact : {false, true}) {
      for (const std::size_t log_index : {0, 1}) {  // the open and the verifying log
        ct::CtLog& log = *world.logs[log_index];
        SCOPED_TRACE(to_string(bug) + (redact ? " redacted " : " ") + log.name());
        IssuanceRequest request = world.request(bug, redact, now);
        request.logs = {&log};
        const PreparedIssuance prepared = world.ca.prepare(request, now, world.ca.next_serial());
        const x509::Certificate& precertificate = prepared.precertificate;
        const ct::PreparedSubmission& submission = prepared.pre_chain.submission;
        const ct::SignedEntry entry = ct::make_precert_entry(precertificate, world.ca.public_key());

        EXPECT_EQ(precertificate.signature, world.ca.signer().sign(precertificate.tbs.encode()));
        EXPECT_EQ(submission.entry.type, ct::EntryType::precert_entry);
        EXPECT_EQ(submission.entry.data, x509::precert_tbs_bytes(precertificate.tbs));
        EXPECT_EQ(submission.entry.data, entry.data);
        EXPECT_EQ(submission.entry.issuer_key_hash, entry.issuer_key_hash);
        EXPECT_EQ(submission.fingerprint, precertificate.fingerprint());
        EXPECT_EQ(submission.leaf_hash, ct::leaf_hash(ct::merkle_leaf_bytes(timestamp_ms, entry)));
        ct::SignedCertificateTimestamp unsigned_sct;
        unsigned_sct.timestamp_ms = timestamp_ms;
        EXPECT_EQ(submission.sct_input, ct::sct_signing_input(unsigned_sct, entry));
        EXPECT_EQ(submission.issuer_cn, precertificate.tbs.issuer.common_name);
        EXPECT_EQ(submission.chain_valid, log.config().verify_submissions
                                              ? std::optional<bool>(true)
                                              : std::nullopt);

        ASSERT_EQ(prepared.pre_chain.speculative_scts.size(), 1u);
        const ct::SignedCertificateTimestamp& sct = prepared.pre_chain.speculative_scts[0];
        EXPECT_EQ(sct, log.speculative_sct(ct::prepare_submission(
                           precertificate, world.ca.public_key(), now, true)));
        EXPECT_EQ(sct.log_id, log.log_id());
        EXPECT_EQ(sct.timestamp_ms, timestamp_ms);
        EXPECT_TRUE(sct.extensions.empty());
        EXPECT_TRUE(ct::verify_sct(sct, entry, log.public_key()));
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 20);
}

// ---------- ecosystem ----------

TEST(EcosystemTest, StandardRosterLoads) {
  Ecosystem ecosystem;
  EXPECT_EQ(ecosystem.all_logs().size(), 15u);   // Table 1 roster
  EXPECT_EQ(ecosystem.all_cas().size(), 9u);     // big five + StartCom/TeliaSonera/D-TRUST/NetLock...
  EXPECT_NO_THROW((void)ecosystem.log("Google Pilot"));
  EXPECT_NO_THROW((void)ecosystem.ca("Let's Encrypt"));
  EXPECT_THROW((void)ecosystem.log("No Such Log"), std::invalid_argument);
  EXPECT_THROW((void)ecosystem.ca("No Such CA"), std::invalid_argument);
}

TEST(EcosystemTest, PublicationMatrixIsSparse) {
  Ecosystem ecosystem;
  // Every CA publishes to a strict subset of logs (Fig. 1c sparsity).
  for (const CaSpec& spec : Ecosystem::standard_cas()) {
    const auto logs = ecosystem.logs_of(spec.name);
    EXPECT_GE(logs.size(), 2u) << spec.name;
    EXPECT_LE(logs.size(), 4u) << spec.name;
  }
  // Let's Encrypt lands on Icarus + Nimbus, per the paper.
  const auto le_logs = ecosystem.logs_of("Let's Encrypt");
  std::vector<std::string> names;
  for (const auto* log : le_logs) names.push_back(log->name());
  EXPECT_NE(std::find(names.begin(), names.end(), "Google Icarus"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "Cloudflare Nimbus2018"), names.end());
}

TEST(EcosystemTest, LogListCoversAllLogs) {
  Ecosystem ecosystem;
  for (ct::CtLog* log : ecosystem.all_logs()) {
    EXPECT_NE(ecosystem.log_list().find(log->log_id()), nullptr) << log->name();
  }
}

// ---------- timeline ----------

TEST(TimelineTest, SmallScaleRunShapes) {
  EcosystemOptions options;
  options.verify_submissions = false;
  options.store_bodies = false;
  Ecosystem ecosystem(options);
  TimelineOptions timeline_options;
  timeline_options.scale = 1.0 / 20000.0;  // tiny but non-empty
  TimelineSimulator simulator(ecosystem, timeline_options);
  const TimelineStats stats = simulator.run();
  EXPECT_GT(stats.issued, 1000u);
  EXPECT_GT(stats.log_submissions, stats.issued);  // multiple logs per cert

  // Let's Encrypt must not appear before 2018-03 and must dominate after.
  const auto& icarus = ecosystem.log("Google Icarus");
  std::uint64_t le_before = 0, le_after = 0;
  const std::int64_t le_start = SimTime::parse("2018-03-08").unix_seconds() * 1000;
  for (const ct::LogEntry& entry : icarus.entries()) {
    if (entry.issuer_cn != "Let's Encrypt Authority X3") continue;
    (entry.timestamp_ms < static_cast<std::uint64_t>(le_start) ? le_before : le_after)++;
  }
  EXPECT_EQ(le_before, 0u);
  EXPECT_GT(le_after, 100u);
}

TEST(TimelineTest, DeterministicForSeed) {
  struct Run {
    std::uint64_t issued = 0;
    std::vector<LogState> logs;
  };
  auto run = [] {
    EcosystemOptions options;
    options.verify_submissions = false;
    options.store_bodies = false;
    options.seed = 99;
    Ecosystem ecosystem(options);
    TimelineOptions timeline_options;
    timeline_options.scale = 1.0 / 50000.0;
    Run out;
    out.issued = TimelineSimulator(ecosystem, timeline_options).run().issued;
    out.logs = log_states(ecosystem);
    return out;
  };
  const Run first = run();
  const Run second = run();
  EXPECT_GT(first.issued, 0u);
  EXPECT_EQ(first.issued, second.issued);
  ASSERT_EQ(first.logs.size(), second.logs.size());
  for (std::size_t i = 0; i < first.logs.size(); ++i) {
    EXPECT_EQ(first.logs[i], second.logs[i]) << first.logs[i].name;
  }
}

// ---------- population & traffic ----------

class PopulationTest : public ::testing::Test {
 protected:
  PopulationTest() : ecosystem_(make_options()) {}
  static EcosystemOptions make_options() {
    EcosystemOptions options;
    options.verify_submissions = false;
    options.store_bodies = false;
    options.seed = 5;
    return options;
  }
  static PopulationOptions small_population() {
    PopulationOptions options;
    options.site_count = 800;
    options.popular_tier = 100;
    return options;
  }
  Ecosystem ecosystem_;
};

TEST_F(PopulationTest, SitesHaveCertificates) {
  ServerPopulation population(ecosystem_, small_population());
  EXPECT_EQ(population.size(), 800u);
  for (std::size_t i = 0; i < population.size(); i += 97) {
    const SiteProfile& site = population.site(i);
    EXPECT_FALSE(site.fqdn.empty());
    ASSERT_TRUE(site.legacy_certificate);
    EXPECT_TRUE(site.issuer_public_key);
  }
}

TEST_F(PopulationTest, TailSitesGainCtCertsOverTime) {
  ServerPopulation population(ecosystem_, small_population());
  std::size_t replaced_before = 0, replaced_after = 0;
  const SimTime early = SimTime::parse("2018-01-01");
  const SimTime late = SimTime::parse("2018-06-01");
  for (std::size_t i = small_population().popular_tier; i < population.size(); ++i) {
    const SiteProfile& site = population.site(i);
    if (!site.ct_certificate) continue;
    if (site.certificate_at(early) == site.ct_certificate) ++replaced_before;
    if (site.certificate_at(late) == site.ct_certificate) ++replaced_after;
  }
  EXPECT_EQ(replaced_before, 0u);  // nothing logged before March 2018
  EXPECT_GT(replaced_after, 100u);
}

TEST_F(PopulationTest, ConnectReflectsSiteState) {
  ServerPopulation population(ecosystem_, small_population());
  const tls::ConnectionRecord record =
      population.connect(0, SimTime::parse("2018-01-15"), true);
  EXPECT_EQ(record.server_name, "graph.facebook.com");
  EXPECT_TRUE(record.certificate);
  EXPECT_TRUE(record.client_signals_sct);
}

TEST_F(PopulationTest, TrafficGeneratorIsDeterministic) {
  ServerPopulation population(ecosystem_, small_population());
  auto run = [&](std::uint64_t seed) {
    monitor::PassiveMonitor monitor(ecosystem_.log_list());
    TrafficOptions options;
    options.start = "2018-01-01";
    options.end = "2018-01-08";
    options.connections_per_day = 500;
    options.burst_days = 1;
    TrafficGenerator generator(population, options, Rng(seed));
    generator.run(monitor);
    return monitor.totals().with_any_sct;
  };
  EXPECT_EQ(run(7), run(7));
}

TEST_F(PopulationTest, ScanSeesMoreSctsThanTraffic) {
  // The §3.3 divergence must hold in-sample.
  ServerPopulation population(ecosystem_, small_population());
  monitor::PassiveMonitor passive(ecosystem_.log_list());
  TrafficOptions traffic_options;
  traffic_options.start = "2017-06-01";
  traffic_options.end = "2017-09-01";
  traffic_options.connections_per_day = 400;
  traffic_options.burst_days = 0;
  TrafficGenerator traffic(population, traffic_options, Rng(3));
  traffic.run(passive);

  monitor::PassiveMonitor scan_monitor(ecosystem_.log_list());
  ScanDriver scan(population, ScanOptions{});
  scan.run(scan_monitor);

  const double traffic_rate = static_cast<double>(passive.totals().sct_in_cert) /
                              static_cast<double>(passive.totals().connections);
  const double scan_rate =
      static_cast<double>(scan_monitor.totals().unique_certs_with_embedded_sct) /
      static_cast<double>(scan_monitor.totals().unique_certificates);
  EXPECT_GT(scan_rate, traffic_rate * 1.5);
}

// ---------- corpora ----------

TEST(DomainCorpusTest, RespectsConfiguredCounts) {
  DomainCorpusOptions options;
  options.registrable_count = 2000;
  DomainCorpus corpus(options);
  EXPECT_EQ(corpus.registrable_domains().size(), 2000u);
  EXPECT_GT(corpus.ct_names().size(), 2000u);   // domains + subdomains + junk
  EXPECT_GT(corpus.sonar_names().size(), 500u);
  EXPECT_GT(corpus.truth_size(), 500u);
}

TEST(DomainCorpusTest, TruthAgreesWithDns) {
  DomainCorpusOptions options;
  options.registrable_count = 1500;
  DomainCorpus corpus(options);
  const dns::RecursiveResolver resolver(
      corpus.universe(),
      dns::RecursiveResolver::Identity{net::IPv4(192, 0, 2, 53), 64496, "test", false});
  const SimTime when = SimTime::parse("2018-04-27");
  std::size_t checked = 0;
  for (const std::string& name : corpus.sonar_names()) {
    if (checked >= 200) break;
    const auto parsed = dns::DnsName::parse(name);
    if (!parsed) continue;
    if (!corpus.truly_exists(name)) continue;  // sonar also lists apexes
    ++checked;
    const auto result = resolver.resolve(*parsed, dns::RrType::A, when);
    EXPECT_EQ(result.status, dns::ResolveStatus::ok) << name;
  }
  EXPECT_GT(checked, 50u);
}

TEST(DomainCorpusTest, ContainsInvalidNamesForFiltering) {
  DomainCorpusOptions options;
  options.registrable_count = 1000;
  DomainCorpus corpus(options);
  std::size_t invalid = 0;
  for (const std::string& name : corpus.ct_names()) {
    if (!dns::DnsName::parse(name)) ++invalid;
  }
  EXPECT_GT(invalid, 0u);
}

TEST(PhishingGenTest, CorpusShapeAndDeterminism) {
  const PhishingCorpus a = generate_phishing_corpus();
  const PhishingCorpus b = generate_phishing_corpus();
  EXPECT_EQ(a.names, b.names);
  EXPECT_GT(a.planted_phishing, 1000u);
  EXPECT_EQ(a.planted_legitimate, 15u);
  EXPECT_EQ(a.names.size(), a.planted_phishing + a.planted_legitimate);
}

}  // namespace
}  // namespace ctwatch::sim
