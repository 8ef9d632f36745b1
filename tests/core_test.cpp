#include <gtest/gtest.h>

#include "ctwatch/core/ctwatch.hpp"
#include "log_evolution_oracle.hpp"

namespace ctwatch::core {
namespace {

sim::EcosystemOptions bulk_options(std::uint64_t seed = 7) {
  sim::EcosystemOptions options;
  options.scheme = crypto::SignatureScheme::hmac_sha256_simulated;
  options.verify_submissions = false;
  options.store_bodies = false;
  options.seed = seed;
  return options;
}

// ---------- log evolution (§2) ----------

class EvolutionTest : public ::testing::Test {
 protected:
  EvolutionTest() : ecosystem_(bulk_options()) {
    sim::TimelineOptions options;
    options.scale = 1.0 / 20000.0;
    sim::TimelineSimulator(ecosystem_, options).run();
  }
  sim::Ecosystem ecosystem_;
};

TEST_F(EvolutionTest, CumulativeSeriesAreMonotonic) {
  const LogEvolutionReport report = LogEvolutionStudy(ecosystem_).run();
  ASSERT_FALSE(report.months.empty());
  for (const auto& [ca, series] : report.cumulative_by_ca) {
    ASSERT_EQ(series.size(), report.months.size());
    for (std::size_t i = 1; i < series.size(); ++i) {
      EXPECT_GE(series[i], series[i - 1]) << ca;
    }
  }
}

TEST_F(EvolutionTest, MonthlySharesSumToOne) {
  const LogEvolutionReport report = LogEvolutionStudy(ecosystem_).run();
  for (std::size_t i = 0; i < report.months.size(); ++i) {
    double sum = 0;
    for (const auto& [ca, shares] : report.monthly_share_by_ca) sum += shares[i];
    EXPECT_NEAR(sum, 1.0, 1e-9) << report.months[i];
  }
}

TEST_F(EvolutionTest, Top5ShareNearPaperValue) {
  const LogEvolutionReport report = LogEvolutionStudy(ecosystem_).run();
  EXPECT_GT(report.top5_share, 0.95);  // paper: 99 %
}

TEST_F(EvolutionTest, LetsEncryptDominatesApril2018) {
  const LogEvolutionReport report = LogEvolutionStudy(ecosystem_).run();
  const auto& shares = report.monthly_share_by_ca.at("Let's Encrypt");
  double april_share = 0;
  for (std::size_t i = 0; i < report.months.size(); ++i) {
    if (report.months[i] == "2018-04") april_share = shares[i];
  }
  EXPECT_GT(april_share, 0.5);
}

TEST_F(EvolutionTest, MatrixIsSparseAndLeLoadConcentrated) {
  const LogEvolutionReport report = LogEvolutionStudy(ecosystem_).run("2018-04");
  EXPECT_GT(report.matrix_sparsity, 0.6);
  // Let's Encrypt load goes (only) to Icarus + Nimbus2018.
  double icarus = 0, nimbus = 0, total = 0;
  for (const auto& [log, share] : report.le_log_share) {
    total += share;
    if (log == "Google Icarus") icarus = share;
    if (log == "Cloudflare Nimbus2018") nimbus = share;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GT(icarus + nimbus, 0.99);
}

TEST_F(EvolutionTest, DeduplicatesAcrossLogs) {
  // Every DigiCert precert goes to 4 logs; cumulative counts must count it
  // once. Cross-check: unique certs <= total entries / logs-per-ca for that
  // CA's series.
  const LogEvolutionReport report = LogEvolutionStudy(ecosystem_).run();
  std::uint64_t digicert_entries = 0;
  for (ct::CtLog* log : ecosystem_.all_logs()) {
    for (const auto& entry : log->entries()) {
      if (entry.issuer_cn == "DigiCert SHA2 Secure Server CA") ++digicert_entries;
    }
  }
  const auto& series = report.cumulative_by_ca.at("DigiCert");
  EXPECT_EQ(series.back() * 4, digicert_entries);
}

void expect_same_report(const LogEvolutionReport& got, const LogEvolutionReport& want) {
  EXPECT_EQ(got.months, want.months);
  EXPECT_EQ(got.cumulative_by_ca, want.cumulative_by_ca);
  EXPECT_EQ(got.monthly_share_by_ca, want.monthly_share_by_ca);
  EXPECT_EQ(got.focus_month, want.focus_month);
  EXPECT_EQ(got.ca_log_matrix, want.ca_log_matrix);
  EXPECT_EQ(got.matrix_sparsity, want.matrix_sparsity);
  EXPECT_EQ(got.le_log_share, want.le_log_share);
  EXPECT_EQ(got.top5_share, want.top5_share);
  EXPECT_EQ(got.overload_rejections, want.overload_rejections);
}

// The string-free analysis against the string-keyed one it replaced
// (log_evolution_oracle.hpp): every report field, for three timeline
// seeds, two busy focus months and an empty one.
TEST(LogEvolutionOracleTest, MatchesTheStringKeyedOracle) {
  for (const std::uint64_t seed : {7, 8, 9}) {
    sim::Ecosystem ecosystem(bulk_options(seed));
    sim::TimelineOptions options;
    options.scale = 1.0 / 20000.0;
    sim::TimelineSimulator(ecosystem, options).run();
    for (const std::string focus : {"2018-04", "2018-03", "2012-01"}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " focus " + focus);
      const LogEvolutionReport report = LogEvolutionStudy(ecosystem).run(focus);
      EXPECT_FALSE(report.months.empty());
      expect_same_report(report, oracle_log_evolution(ecosystem, focus));
    }
  }
}

// Certificates of an issuer outside standard_cas() make the "other" row.
// These logs keep no bodies, so they do not deduplicate: a certificate
// logged in April on one log and in May on another counts once, in April,
// whichever of the two logs is read first.
TEST(LogEvolutionOracleTest, MatchesTheOracleOnOtherIssuersAndRepeats) {
  sim::Ecosystem ecosystem(bulk_options(11));
  sim::TimelineOptions options;
  options.start = "2018-03-01";
  options.scale = 1.0 / 20000.0;
  sim::TimelineSimulator(ecosystem, options).run();
  sim::CertificateAuthority rogue("Rogue CA", "Rogue Issuing CA",
                                  crypto::SignatureScheme::hmac_sha256_simulated);
  ct::CtLog& pilot = ecosystem.log("Google Pilot");
  ct::CtLog& icarus = ecosystem.log("Google Icarus");
  const SimTime april = SimTime::parse("2018-04-10");
  const SimTime may = SimTime::parse("2018-05-15");
  for (int i = 0; i < 6; ++i) {
    sim::IssuanceRequest request;
    request.subject_cn = "rogue" + std::to_string(i) + ".example.net";
    request.sans = {x509::SanEntry::dns(request.subject_cn)};
    request.not_before = april;
    request.not_after = april + 90 * 86400;
    const x509::Certificate precertificate =
        rogue.issue(request, april).precertificate;  // logged nowhere yet
    ct::CtLog& first = i % 2 == 0 ? pilot : icarus;
    ct::CtLog& second = i % 2 == 0 ? icarus : pilot;
    ASSERT_EQ(first.add_pre_chain(precertificate, rogue.public_key(), april + i).status,
              ct::SubmitStatus::ok);
    ASSERT_EQ(second.add_pre_chain(precertificate, rogue.public_key(), may + i).status,
              ct::SubmitStatus::ok);
  }
  for (const std::string focus : {"2018-04", "2018-05", "2012-01"}) {
    SCOPED_TRACE("focus " + focus);
    const LogEvolutionReport report = LogEvolutionStudy(ecosystem).run(focus);
    ASSERT_TRUE(report.cumulative_by_ca.count("other"));
    EXPECT_EQ(report.cumulative_by_ca.at("other").back(), 6u);
    expect_same_report(report, oracle_log_evolution(ecosystem, focus));
  }
}

TEST_F(EvolutionTest, RendersAreNonEmpty) {
  const LogEvolutionReport report = LogEvolutionStudy(ecosystem_).run();
  EXPECT_FALSE(LogEvolutionStudy::render_cumulative(report).empty());
  EXPECT_FALSE(LogEvolutionStudy::render_matrix(report).empty());
}

// ---------- adoption renders (§3) ----------

TEST(AdoptionRenderTest, TotalsBlockContainsHeadlineNumbers) {
  monitor::MonitorTotals totals;
  totals.connections = 10000;
  totals.with_any_sct = 3261;
  totals.sct_in_cert = 2140;
  totals.sct_in_tls = 1121;
  totals.client_signaled = 6676;
  const std::string text = render_adoption_totals(totals);
  EXPECT_NE(text.find("32.61%"), std::string::npos);
  EXPECT_NE(text.find("21.40%"), std::string::npos);
  EXPECT_NE(text.find("11.21%"), std::string::npos);
  EXPECT_NE(text.find("66.76%"), std::string::npos);
}

TEST(AdoptionRenderTest, TopLogsSortedByCertColumn) {
  std::map<std::string, monitor::LogUsage> usage;
  usage["Alpha"] = {100, 5, 0};
  usage["Beta"] = {300, 1, 0};
  usage["Gamma"] = {200, 9, 0};
  const std::string table = render_top_logs(usage, 2);
  const auto beta = table.find("Beta");
  const auto gamma = table.find("Gamma");
  EXPECT_NE(beta, std::string::npos);
  EXPECT_NE(gamma, std::string::npos);
  EXPECT_LT(beta, gamma);
  EXPECT_EQ(table.find("Alpha"), std::string::npos);  // top-2 cut
}

TEST(AdoptionRenderTest, DailySeriesStride) {
  std::map<std::int64_t, monitor::DailyCounters> daily;
  for (int day = 0; day < 14; ++day) {
    daily[day] = monitor::DailyCounters{100, 33, 21, 11, 0};
  }
  const std::string weekly = render_daily_series(daily, 7);
  // Header + 2 sampled rows.
  EXPECT_EQ(std::count(weekly.begin(), weekly.end(), '\n'), 3);
}

// ---------- invalid SCT study (§3.4) ----------

class InvalidSctStudyTest : public ::testing::Test {
 protected:
  static sim::EcosystemOptions options() {
    sim::EcosystemOptions opts;
    opts.scheme = crypto::SignatureScheme::hmac_sha256_simulated;
    opts.verify_submissions = true;
    opts.store_bodies = true;
    opts.seed = 3;
    return opts;
  }
};

TEST_F(InvalidSctStudyTest, FindsExactlyTheFourIncidents) {
  sim::Ecosystem ecosystem(options());
  InvalidSctOptions study_options;
  study_options.clean_per_bug = 10;
  InvalidSctStudy study(ecosystem, study_options);
  const InvalidSctReport report = study.run();
  EXPECT_EQ(report.certificates_checked, 44u);
  EXPECT_EQ(report.invalid, 4u);
  EXPECT_EQ(report.by_ca.size(), 4u);
  EXPECT_EQ(report.by_cause.at("san-reorder (GlobalSign class)"), 1u);
  EXPECT_EQ(report.by_cause.at("extension-reorder (D-Trust class)"), 1u);
  EXPECT_EQ(report.by_cause.at("name-mismatch (NetLock class)"), 1u);
  EXPECT_EQ(report.by_cause.at("stale-sct-reissue (TeliaSonera class)"), 1u);
  EXPECT_FALSE(InvalidSctStudy::render(report).empty());
}

TEST(ClassifierTest, ValidPairClassifiesAsUnknownDivergence) {
  // Identical precert/final pair: nothing to attribute.
  sim::Ecosystem ecosystem(bulk_options(11));
  sim::CertificateAuthority& ca = ecosystem.ca("DigiCert");
  sim::IssuanceRequest request;
  request.subject_cn = "same.example.org";
  request.sans = {x509::SanEntry::dns(request.subject_cn)};
  request.not_before = SimTime::parse("2018-04-01");
  request.not_after = SimTime::parse("2019-04-01");
  const auto issued = ca.issue(request, SimTime::parse("2018-04-01"));
  EXPECT_EQ(classify_divergence(issued.final_certificate, issued.precertificate.tbs),
            RootCause::unknown);
  EXPECT_EQ(classify_divergence(issued.final_certificate, std::nullopt), RootCause::stale_sct);
}

TEST(ClassifierTest, LoggedTbsAttributesEachBugClass) {
  // §3.4's four incident classes, each classified against the TBS the log
  // actually holds (what InvalidSctStudy reads back via entry_tbs).
  ct::LogConfig config;
  config.name = "Classifier Log";
  config.scheme = crypto::SignatureScheme::hmac_sha256_simulated;
  ct::CtLog log(config);
  sim::CertificateAuthority ca("Classifier CA", "Classifier Issuing CA",
                               crypto::SignatureScheme::hmac_sha256_simulated);
  const SimTime when = SimTime::parse("2018-04-01");
  int counter = 0;
  auto issue = [&](sim::IssuanceBug bug) {
    sim::IssuanceRequest request;
    request.subject_cn = "c" + std::to_string(++counter) + ".example.org";
    request.sans = {x509::SanEntry::dns(request.subject_cn),
                    x509::SanEntry::address(net::IPv4(192, 0, 2, 7)),
                    x509::SanEntry::dns("alt-" + request.subject_cn)};
    request.not_before = when;
    request.not_after = when + 365 * 86400;
    request.logs = {&log};
    request.bug = bug;
    return ca.issue(request, when);
  };
  auto logged_tbs = [&]() -> std::optional<x509::TbsCertificate> {
    return ct::entry_tbs(log.entries().back().signed_entry)->tbs;
  };

  auto issued = issue(sim::IssuanceBug::none);
  EXPECT_EQ(classify_divergence(issued.final_certificate, logged_tbs()), RootCause::unknown);
  issued = issue(sim::IssuanceBug::san_reorder);
  EXPECT_EQ(classify_divergence(issued.final_certificate, logged_tbs()),
            RootCause::san_reorder);
  issued = issue(sim::IssuanceBug::extension_reorder);
  EXPECT_EQ(classify_divergence(issued.final_certificate, logged_tbs()),
            RootCause::extension_reorder);
  issued = issue(sim::IssuanceBug::name_swap);
  EXPECT_EQ(classify_divergence(issued.final_certificate, logged_tbs()),
            RootCause::name_mismatch);
  issued = issue(sim::IssuanceBug::none);
  const x509::Certificate reissued = ca.reissue_with_stale_scts(issued, when + 7 * 86400);
  EXPECT_EQ(classify_divergence(reissued, logged_tbs()), RootCause::stale_sct);
}

// ---------- leakage renders (§4) ----------

TEST(LeakageRenderTest, Table2AndFunnelRender) {
  sim::DomainCorpusOptions corpus_options;
  corpus_options.registrable_count = 2500;
  sim::DomainCorpus corpus(corpus_options);
  LeakageStudy study(corpus);
  enumeration::EnumerationOptions options;
  options.min_label_count = 20;
  const LeakageReport report = study.run(options);
  const std::string table2 = LeakageStudy::render_table2(report);
  EXPECT_NE(table2.find("www"), std::string::npos);
  const std::string funnel = LeakageStudy::render_funnel(report);
  EXPECT_NE(funnel.find("novel discoveries"), std::string::npos);
}

// ---------- month key ----------

TEST(MonthKeyTest, Formats) {
  EXPECT_EQ(month_key(SimTime::parse("2018-04-18 10:00:00")), "2018-04");
  EXPECT_EQ(month_key(SimTime::parse("2013-01-01")), "2013-01");
}

}  // namespace
}  // namespace ctwatch::core
