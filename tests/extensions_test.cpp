// Tests for the extension features: label redaction, the crt.sh-like
// index, the domain-watch notification service, overload-driven
// disqualification and Fig. 2 peak attribution.
#include <gtest/gtest.h>

#include "ctwatch/core/adoption.hpp"
#include "ctwatch/ct/index.hpp"
#include "ctwatch/enumeration/census.hpp"
#include "ctwatch/sim/domains.hpp"
#include "ctwatch/sim/traffic.hpp"
#include "ctwatch/sim/ecosystem.hpp"
#include "ctwatch/x509/redaction.hpp"

namespace ctwatch {
namespace {

using crypto::SignatureScheme;

// ---------- redaction primitives ----------

TEST(RedactionTest, RedactsSubdomainLabelsOnly) {
  EXPECT_EQ(x509::redact_dns_name("www.example.com"), "?.example.com");
  EXPECT_EQ(x509::redact_dns_name("a.b.c.example.com"), "?.example.com");
  EXPECT_EQ(x509::redact_dns_name("example.com"), "example.com");  // nothing to hide
  EXPECT_EQ(x509::redact_dns_name("www.example.co.uk", 3), "?.example.co.uk");
}

TEST(RedactionTest, RecognizesRedactedNames) {
  EXPECT_TRUE(x509::is_redacted_name("?.example.com"));
  EXPECT_FALSE(x509::is_redacted_name("www.example.com"));
  EXPECT_FALSE(x509::is_redacted_name("x?.example.com"));
}

TEST(RedactionTest, RedactedTbsIsIdempotent) {
  const auto key = crypto::make_signer("redact-key", SignatureScheme::hmac_sha256_simulated);
  x509::CertificateBuilder builder;
  builder.serial(1)
      .subject_cn("www.example.org")
      .validity(SimTime::parse("2018-01-01"), SimTime::parse("2018-06-01"))
      .subject_key(*key)
      .add_dns_san("www.example.org")
      .add_dns_san("api.dev.example.org")
      .add_ip_san(net::IPv4(192, 0, 2, 1));
  const x509::TbsCertificate tbs = builder.build_tbs();
  const x509::TbsCertificate once = x509::redacted_tbs(tbs);
  const x509::TbsCertificate twice = x509::redacted_tbs(once);
  EXPECT_EQ(once.encode(), twice.encode());
  // DNS SANs redacted, IP SANs untouched.
  const auto sans = once.san_entries();
  ASSERT_EQ(sans.size(), 3u);
  EXPECT_EQ(sans[0].dns_name, "?.example.org");
  EXPECT_EQ(sans[1].dns_name, "?.example.org");
  EXPECT_EQ(sans[2].kind, x509::SanEntry::Kind::ip);  // IP SANs survive untouched
  EXPECT_EQ(once.subject.common_name, "?.example.org");
}

// ---------- redacted issuance end to end ----------

class RedactedIssuanceTest : public ::testing::Test {
 protected:
  RedactedIssuanceTest()
      : ca_("Redacting CA", "Redacting Issuing CA", SignatureScheme::hmac_sha256_simulated),
        now_(SimTime::parse("2018-04-01")) {
    ct::LogConfig config;
    config.name = "Redaction Log";
    config.scheme = SignatureScheme::hmac_sha256_simulated;
    log_ = std::make_unique<ct::CtLog>(config);
  }

  sim::IssuanceResult issue_redacted() {
    sim::IssuanceRequest request;
    request.subject_cn = "secret-project.internal.example.org";
    request.sans = {x509::SanEntry::dns("secret-project.internal.example.org")};
    request.not_before = now_;
    request.not_after = now_ + 90 * 86400;
    request.logs = {log_.get()};
    request.redact_subdomains = true;
    return ca_.issue(request, now_);
  }

  sim::CertificateAuthority ca_;
  std::unique_ptr<ct::CtLog> log_;
  SimTime now_;
};

TEST_F(RedactedIssuanceTest, LogNeverSeesTheSecretLabel) {
  issue_redacted();
  ASSERT_EQ(log_->entries().size(), 1u);
  const x509::TbsCertificate logged = ct::entry_tbs(log_->entries()[0].signed_entry)->tbs;
  const auto names = logged.dns_names();
  for (const std::string& name : names) {
    EXPECT_EQ(name.find("secret-project"), std::string::npos) << name;
  }
  // But the redacted form is there (the existence of *a* name still leaks).
  const auto sans = logged.san_entries();
  ASSERT_FALSE(sans.empty());
  EXPECT_EQ(sans[0].dns_name, "?.example.org");
}

TEST_F(RedactedIssuanceTest, FinalCertKeepsRealNamesAndSctVerifies) {
  const sim::IssuanceResult issued = issue_redacted();
  const auto sans = issued.final_certificate.tbs.san_entries();
  ASSERT_FALSE(sans.empty());
  EXPECT_EQ(sans[0].dns_name, "secret-project.internal.example.org");
  EXPECT_TRUE(x509::uses_redaction(issued.final_certificate.tbs));

  // The embedded SCT verifies: make_precert_entry re-applies the redaction.
  ASSERT_EQ(issued.scts.size(), 1u);
  const ct::SignedEntry entry =
      ct::make_precert_entry(issued.final_certificate, ca_.public_key());
  EXPECT_TRUE(ct::verify_sct(issued.scts[0], entry, log_->public_key()));
}

TEST_F(RedactedIssuanceTest, StrippingTheMarkerBreaksValidation) {
  // A certificate that was redacted but lies about it cannot validate: the
  // reconstruction would use the unredacted names.
  sim::IssuanceResult issued = issue_redacted();
  x509::Certificate stripped = issued.final_certificate;
  stripped.tbs.remove_extension(x509::redaction_marker_oid());
  const ct::SignedEntry entry = ct::make_precert_entry(stripped, ca_.public_key());
  EXPECT_FALSE(ct::verify_sct(issued.scts[0], entry, log_->public_key()));
}

TEST(RedactionCorpusTest, RedactionSuppressesLabelLearning) {
  auto census_for = [](double fraction) {
    sim::DomainCorpusOptions options;
    options.registrable_count = 3000;
    options.redaction_fraction = fraction;
    options.seed = 9;
    sim::DomainCorpus corpus(options);
    enumeration::SubdomainCensus census(corpus.psl());
    census.add_names(corpus.ct_names());
    return census.stats();
  };
  const auto open_world = census_for(0.0);
  const auto defended = census_for(0.8);
  EXPECT_EQ(open_world.redacted, 0u);
  EXPECT_GT(defended.redacted, 500u);
  EXPECT_LT(defended.valid_fqdns, open_world.valid_fqdns);
}

// ---------- LogIndex / DomainWatcher ----------

class IndexTest : public ::testing::Test {
 protected:
  IndexTest()
      : psl_(dns::PublicSuffixList::bundled()),
        ca_("Index CA", "Index Issuing CA", SignatureScheme::hmac_sha256_simulated),
        now_(SimTime::parse("2018-04-01")) {
    ct::LogConfig config;
    config.name = "Indexed Log";
    config.scheme = SignatureScheme::hmac_sha256_simulated;
    log_ = std::make_unique<ct::CtLog>(config);
  }

  void issue(const std::string& cn, std::vector<std::string> extra_sans = {}) {
    sim::IssuanceRequest request;
    request.subject_cn = cn;
    request.sans = {x509::SanEntry::dns(cn)};
    for (auto& san : extra_sans) request.sans.push_back(x509::SanEntry::dns(san));
    request.not_before = now_;
    request.not_after = now_ + 90 * 86400;
    request.logs = {log_.get()};
    ca_.issue(request, now_);
  }

  dns::PublicSuffixList psl_;
  sim::CertificateAuthority ca_;
  std::unique_ptr<ct::CtLog> log_;
  SimTime now_;
};

TEST_F(IndexTest, ByNameAndByRegistrableDomain) {
  issue("www.example.org", {"api.example.org"});
  issue("mail.example.org");
  issue("www.other.net");

  ct::LogIndex index(psl_);
  index.index_log(*log_);
  EXPECT_EQ(index.size(), 3u);
  EXPECT_EQ(index.by_name("www.example.org").size(), 1u);
  EXPECT_EQ(index.by_name("api.example.org").size(), 1u);
  EXPECT_TRUE(index.by_name("missing.example.org").empty());
  // The crt.sh "%.example.org" query.
  EXPECT_EQ(index.by_registrable_domain("example.org").size(), 2u);
  EXPECT_EQ(index.by_registrable_domain("other.net").size(), 1u);
}

TEST_F(IndexTest, ByIssuer) {
  issue("a.example.org");
  ct::LogIndex index(psl_);
  index.index_log(*log_);
  EXPECT_EQ(index.by_issuer("Index Issuing CA").size(), 1u);
  EXPECT_TRUE(index.by_issuer("Someone Else").empty());
}

TEST_F(IndexTest, AttachIndexesLiveEntries) {
  ct::LogIndex index(psl_);
  index.attach(*log_);
  EXPECT_EQ(index.size(), 0u);
  issue("live.example.org");
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(index.by_name("live.example.org").size(), 1u);
}

TEST_F(IndexTest, DomainWatcherNotifiesOwners) {
  ct::DomainWatcher watcher(psl_);
  watcher.attach(*log_);
  std::vector<std::string> alerts;
  watcher.watch("example.org", [&](const std::string& domain, const ct::IndexedEntry& entry) {
    alerts.push_back(domain + ":" + entry.subject_cn);
  });

  issue("www.example.org");
  issue("www.unrelated.net");
  issue("evil.example.org");
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_EQ(alerts[0], "example.org:www.example.org");
  EXPECT_EQ(alerts[1], "example.org:evil.example.org");
  EXPECT_EQ(watcher.notifications_sent(), 2u);
}

// ---------- overload disqualification ----------

TEST(DisqualificationTest, OverloadedLogGetsDisqualified) {
  ct::LogConfig config;
  config.name = "Struggling Log";
  config.scheme = SignatureScheme::hmac_sha256_simulated;
  config.verify_submissions = false;
  config.capacity_per_hour = 2;
  ct::CtLog log(config);
  ct::LogList list;
  list.add_log(log, SimTime::parse("2017-01-01"), false);

  sim::CertificateAuthority ca("Over CA", "Over Issuing CA",
                               SignatureScheme::hmac_sha256_simulated);
  const SimTime base = SimTime::parse("2018-05-01 10:00:00");
  for (int i = 0; i < 10; ++i) {
    sim::IssuanceRequest request;
    request.subject_cn = "o" + std::to_string(i) + ".example.org";
    request.sans = {x509::SanEntry::dns(request.subject_cn)};
    request.not_before = base;
    request.not_after = base + 90 * 86400;
    request.logs = {&log};
    ca.issue(request, base + i);
  }
  EXPECT_EQ(log.overload_rejections(), 8u);

  // Below threshold: nothing happens.
  EXPECT_TRUE(ct::disqualify_overloaded_logs(list, {&log}, 100, base + 3600).empty());
  EXPECT_TRUE(list.find(log.log_id())->qualified_at(base + 7200));
  // At threshold: disqualified, once.
  const auto hit = ct::disqualify_overloaded_logs(list, {&log}, 5, base + 3600);
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_EQ(hit[0], "Struggling Log");
  EXPECT_FALSE(list.find(log.log_id())->qualified_at(base + 7200));
  EXPECT_TRUE(list.find(log.log_id())->qualified_at(base));  // history intact
  EXPECT_TRUE(ct::disqualify_overloaded_logs(list, {&log}, 5, base + 9999).empty());
}

// ---------- peak attribution ----------

TEST(PeakDetectionTest, AttributesBurstDayToDominantServer) {
  sim::EcosystemOptions eco_options;
  eco_options.scheme = SignatureScheme::hmac_sha256_simulated;
  eco_options.verify_submissions = false;
  eco_options.store_bodies = false;
  eco_options.seed = 21;
  sim::Ecosystem ecosystem(eco_options);
  sim::PopulationOptions pop_options;
  pop_options.site_count = 600;
  pop_options.popular_tier = 80;
  sim::ServerPopulation population(ecosystem, pop_options);

  monitor::PassiveMonitor monitor(ecosystem.log_list());
  sim::TrafficOptions traffic_options;
  traffic_options.start = "2018-01-01";
  traffic_options.end = "2018-02-01";
  traffic_options.connections_per_day = 800;
  traffic_options.burst_days = 2;
  traffic_options.burst_factor = 3.0;
  sim::TrafficGenerator traffic(population, traffic_options, Rng(8));
  traffic.run(monitor);

  const auto peaks = core::detect_peaks(monitor, 2.5);
  ASSERT_FALSE(peaks.empty());
  for (const auto& peak : peaks) {
    EXPECT_EQ(peak.top_server, "graph.facebook.com");
    EXPECT_GT(peak.sct_share, peak.baseline_share);
  }
  EXPECT_FALSE(core::render_peaks(peaks).empty());
}

TEST(PeakDetectionTest, QuietSeriesHasNoPeaks) {
  sim::EcosystemOptions eco_options;
  eco_options.scheme = SignatureScheme::hmac_sha256_simulated;
  eco_options.verify_submissions = false;
  eco_options.store_bodies = false;
  eco_options.seed = 22;
  sim::Ecosystem ecosystem(eco_options);
  sim::PopulationOptions pop_options;
  pop_options.site_count = 600;
  pop_options.popular_tier = 80;
  sim::ServerPopulation population(ecosystem, pop_options);

  monitor::PassiveMonitor monitor(ecosystem.log_list());
  sim::TrafficOptions traffic_options;
  traffic_options.start = "2018-01-01";
  traffic_options.end = "2018-02-01";
  traffic_options.connections_per_day = 800;
  traffic_options.burst_days = 0;
  sim::TrafficGenerator traffic(population, traffic_options, Rng(8));
  traffic.run(monitor);
  EXPECT_TRUE(core::detect_peaks(monitor, 4.0).empty());
}

}  // namespace
}  // namespace ctwatch
