#include <gtest/gtest.h>

#include "ctwatch/ct/auditor.hpp"
#include "ctwatch/ct/loglist.hpp"
#include "ctwatch/sim/ca.hpp"

namespace ctwatch::ct {
namespace {

using crypto::SignatureScheme;

class CtLogTest : public ::testing::TestWithParam<SignatureScheme> {
 protected:
  CtLogTest()
      : ca_("Test CA", "Test Issuing CA", GetParam()), now_(SimTime::parse("2018-04-01")) {
    LogConfig config;
    config.name = "Test Log";
    config.operator_name = "TestOp";
    config.scheme = GetParam();
    log_ = std::make_unique<CtLog>(config);
  }

  sim::IssuanceRequest request(const std::string& cn) {
    sim::IssuanceRequest req;
    req.subject_cn = cn;
    req.sans = {x509::SanEntry::dns(cn)};
    req.not_before = now_;
    req.not_after = now_ + 90 * 86400;
    req.logs = {log_.get()};
    return req;
  }

  sim::CertificateAuthority ca_;
  std::unique_ptr<CtLog> log_;
  SimTime now_;
};

TEST_P(CtLogTest, FullIssuanceFlowProducesVerifiableSct) {
  const auto issued = ca_.issue(request("www.example.org"), now_);
  ASSERT_EQ(issued.scts.size(), 1u);
  EXPECT_TRUE(issued.failed_logs.empty());
  EXPECT_EQ(log_->tree_size(), 1u);

  // Validate against the final certificate, as a client would.
  const SignedEntry entry = make_precert_entry(issued.final_certificate, ca_.public_key());
  EXPECT_TRUE(verify_sct(issued.scts[0], entry, log_->public_key()));
}

TEST_P(CtLogTest, SctDoesNotVerifyWithWrongLogKey) {
  const auto issued = ca_.issue(request("www.example.org"), now_);
  LogConfig other_config;
  other_config.name = "Other Log";
  other_config.scheme = GetParam();
  CtLog other(other_config);
  const SignedEntry entry = make_precert_entry(issued.final_certificate, ca_.public_key());
  EXPECT_FALSE(verify_sct(issued.scts[0], entry, other.public_key()));
}

TEST_P(CtLogTest, RejectsFinalCertOnPreChainAndViceVersa) {
  const auto issued = ca_.issue(request("www.example.org"), now_);
  EXPECT_EQ(log_->add_pre_chain(issued.final_certificate, ca_.public_key(), now_).status,
            SubmitStatus::rejected_invalid);
  EXPECT_EQ(log_->add_chain(issued.precertificate, ca_.public_key(), now_).status,
            SubmitStatus::rejected_invalid);
}

TEST_P(CtLogTest, RejectsBadChainSignature) {
  const auto issued = ca_.issue(request("www.example.org"), now_);
  sim::CertificateAuthority other("Other CA", "Other Issuing CA", GetParam());
  EXPECT_EQ(log_->add_chain(issued.final_certificate, other.public_key(), now_).status,
            SubmitStatus::rejected_invalid);
}

TEST_P(CtLogTest, DeduplicatesResubmission) {
  const auto issued = ca_.issue(request("www.example.org"), now_);
  const auto other = ca_.issue(request("other.example.org"), now_ + 60);
  const auto final_added = log_->add_chain(other.final_certificate, ca_.public_key(), now_);
  EXPECT_EQ(final_added.index, 2u);  // a fresh entry reports its leaf index
  const std::uint64_t size_before = log_->tree_size();
  const auto again = log_->add_pre_chain(issued.precertificate, ca_.public_key(), now_ + 3600);
  EXPECT_EQ(again.status, SubmitStatus::ok);
  EXPECT_EQ(log_->tree_size(), size_before);  // no new entry
  EXPECT_EQ(again.index, 0u);                 // the original entry's index
  EXPECT_EQ(log_->add_pre_chain(other.precertificate, ca_.public_key(), now_).index, 1u);
  // The replayed SCT carries the original timestamp and still verifies.
  ASSERT_TRUE(again.sct);
  EXPECT_EQ(again.sct->timestamp_ms, issued.scts[0].timestamp_ms);
  const SignedEntry entry = make_precert_entry(issued.final_certificate, ca_.public_key());
  EXPECT_TRUE(verify_sct(*again.sct, entry, log_->public_key()));
}

// CtLog's dedup index grows each time it would become more than half
// full (at 8, 16, 32, ... entries). Every certificate is resubmitted right
// after it is logged, with the certificates logged at half its index and
// first, so each growth has resubmissions of keys recorded before it and
// after it. Each must return the original index and SCT and add nothing.
TEST(CtLogDedupTest, ResubmissionsAcrossIndexGrowths) {
  sim::CertificateAuthority ca("Dedup CA", "Dedup Issuing CA",
                               SignatureScheme::hmac_sha256_simulated);
  LogConfig config;
  config.name = "Dedup Log";
  config.scheme = SignatureScheme::hmac_sha256_simulated;
  CtLog log(config);
  const SimTime now = SimTime::parse("2018-04-01");
  std::vector<sim::IssuanceResult> issued;
  for (std::uint64_t i = 0; i < 300; ++i) {
    sim::IssuanceRequest request;
    request.subject_cn = "host" + std::to_string(i) + ".example.org";
    request.sans = {x509::SanEntry::dns(request.subject_cn)};
    request.not_before = now;
    request.not_after = now + 90 * 86400;
    request.logs = {&log};
    issued.push_back(ca.issue(request, now + static_cast<std::int64_t>(i)));
    ASSERT_EQ(issued.back().scts.size(), 1u);
    for (const std::uint64_t original : {i, i / 2, std::uint64_t{0}}) {
      const SubmitResult again =
          log.add_pre_chain(issued[original].precertificate, ca.public_key(), now + 86400);
      ASSERT_EQ(again.status, SubmitStatus::ok) << i << " " << original;
      EXPECT_EQ(again.index, original);
      ASSERT_TRUE(again.sct);
      EXPECT_EQ(*again.sct, issued[original].scts[0]);
    }
    ASSERT_EQ(log.tree_size(), i + 1);
  }
  // The final certificates are other certificates: each is a new entry.
  const SubmitResult final_added =
      log.add_chain(issued[5].final_certificate, ca.public_key(), now + 86400);
  EXPECT_EQ(final_added.index, 300u);
  EXPECT_EQ(log.add_chain(issued[5].final_certificate, ca.public_key(), now).index, 300u);
  EXPECT_EQ(log.tree_size(), 301u);
}

TEST_P(CtLogTest, SthSignsCurrentTree) {
  ca_.issue(request("a.example.org"), now_);
  ca_.issue(request("b.example.org"), now_ + 60);
  const SignedTreeHead sth = log_->get_sth(now_ + 120);
  EXPECT_EQ(sth.tree_size, 2u);
  EXPECT_TRUE(verify_sth(sth, log_->public_key()));
  SignedTreeHead tampered = sth;
  tampered.tree_size = 3;
  EXPECT_FALSE(verify_sth(tampered, log_->public_key()));
}

TEST_P(CtLogTest, InclusionProofForEveryEntry) {
  for (int i = 0; i < 9; ++i) {
    ca_.issue(request("site" + std::to_string(i) + ".example.org"), now_ + i * 60);
  }
  const SignedTreeHead sth = log_->get_sth(now_ + 3600);
  for (std::uint64_t index = 0; index < 9; ++index) {
    EXPECT_TRUE(LogAuditor::check_inclusion(*log_, index, sth)) << index;
  }
}

TEST_P(CtLogTest, GetEntriesRange) {
  for (int i = 0; i < 5; ++i) {
    ca_.issue(request("e" + std::to_string(i) + ".example.org"), now_ + i);
  }
  const auto middle = log_->get_entries(1, 3);
  ASSERT_EQ(middle.size(), 3u);
  EXPECT_EQ(middle[0].index, 1u);
  EXPECT_EQ(middle[2].index, 3u);
  EXPECT_EQ(log_->get_entries(4, 10).size(), 1u);  // clamped at tree size
  EXPECT_TRUE(log_->get_entries(9, 3).empty());

  // A poller's cursor window, get_entries(cursor, tree_size - cursor):
  // only the entries appended since its last visit, then nothing new.
  std::uint64_t cursor = log_->tree_size();
  EXPECT_TRUE(log_->get_entries(cursor, log_->tree_size() - cursor).empty());
  ca_.issue(request("c.example.net"), now_ + 10);
  const auto fresh = log_->get_entries(cursor, log_->tree_size() - cursor);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].index, 5u);
  EXPECT_EQ(entry_tbs(fresh[0].signed_entry)->tbs.subject.common_name, "c.example.net");
  cursor = log_->tree_size();
  EXPECT_TRUE(log_->get_entries(cursor, log_->tree_size() - cursor).empty());
}

// ---------- entry_tbs: what a log reader decodes from an entry ----------

TEST_P(CtLogTest, EntryTbsYieldsWhatTheCaIssued) {
  const auto issued = ca_.issue(request("www.example.org"), now_);
  ASSERT_EQ(log_->add_chain(issued.final_certificate, ca_.public_key(), now_).status,
            SubmitStatus::ok);
  sim::IssuanceRequest redacted = request("db.internal.example.org");
  redacted.redact_subdomains = true;
  const auto hidden = ca_.issue(redacted, now_);
  ASSERT_EQ(log_->tree_size(), 3u);

  // Precert entry: the defanged TBS the log signed, no poison left.
  const auto pre = entry_tbs(log_->entries()[0].signed_entry);
  ASSERT_TRUE(pre);
  EXPECT_TRUE(pre->precertificate);
  EXPECT_EQ(pre->tbs.subject.common_name, "www.example.org");
  EXPECT_EQ(pre->tbs.dns_names(), issued.precertificate.tbs.dns_names());
  EXPECT_EQ(pre->tbs.encode(), x509::precert_tbs_bytes(issued.precertificate.tbs));

  // x509 entry: the final certificate's TBS.
  const auto fin = entry_tbs(log_->entries()[1].signed_entry);
  ASSERT_TRUE(fin);
  EXPECT_FALSE(fin->precertificate);
  EXPECT_EQ(fin->tbs, issued.final_certificate.tbs);

  // Redacted precert: only the "?" labels the CA submitted.
  const auto red = entry_tbs(log_->entries()[2].signed_entry);
  ASSERT_TRUE(red);
  EXPECT_TRUE(red->precertificate);
  EXPECT_EQ(red->tbs.subject.common_name, hidden.precertificate.tbs.subject.common_name);
  EXPECT_EQ(red->tbs.dns_names(), hidden.precertificate.tbs.dns_names());
  EXPECT_EQ(red->tbs.dns_names(), std::vector<std::string>{"?.example.org"});
}

INSTANTIATE_TEST_SUITE_P(BothSchemes, CtLogTest,
                         ::testing::Values(SignatureScheme::ecdsa_p256_sha256,
                                           SignatureScheme::hmac_sha256_simulated));

// ---------- capacity / overload ----------

TEST(CtLogCapacityTest, OverloadedBeyondHourlyCapacity) {
  LogConfig config;
  config.name = "Tiny Log";
  config.scheme = SignatureScheme::hmac_sha256_simulated;
  config.verify_submissions = false;
  config.capacity_per_hour = 3;
  CtLog log(config);
  sim::CertificateAuthority ca("Cap CA", "Cap Issuing CA",
                               SignatureScheme::hmac_sha256_simulated);
  const SimTime base = SimTime::parse("2018-03-10 12:00:00");
  int ok = 0, overloaded = 0;
  for (int i = 0; i < 6; ++i) {
    sim::IssuanceRequest request;
    request.subject_cn = "c" + std::to_string(i) + ".example.org";
    request.sans = {x509::SanEntry::dns(request.subject_cn)};
    request.not_before = base;
    request.not_after = base + 90 * 86400;
    request.logs = {&log};
    const auto result = ca.issue(request, base + i * 60);
    if (result.failed_logs.empty()) {
      ++ok;
    } else {
      ++overloaded;
    }
  }
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(overloaded, 3);
  EXPECT_EQ(log.overload_rejections(), 3u);
  // The next hour has fresh capacity.
  sim::IssuanceRequest request;
  request.subject_cn = "later.example.org";
  request.sans = {x509::SanEntry::dns(request.subject_cn)};
  request.not_before = base;
  request.not_after = base + 90 * 86400;
  request.logs = {&log};
  EXPECT_TRUE(ca.issue(request, base + 3700).failed_logs.empty());
}

// ---------- auditor ----------

TEST(AuditorTest, DetectsHistoryRewrite) {
  LogConfig config;
  config.name = "Audited Log";
  config.scheme = SignatureScheme::hmac_sha256_simulated;
  config.verify_submissions = false;
  CtLog log(config);
  sim::CertificateAuthority ca("Audit CA", "Audit Issuing CA",
                               SignatureScheme::hmac_sha256_simulated);
  const SimTime base = SimTime::parse("2018-04-01");
  auto issue = [&](int i, SimTime when) {
    sim::IssuanceRequest request;
    request.subject_cn = "a" + std::to_string(i) + ".example.org";
    request.sans = {x509::SanEntry::dns(request.subject_cn)};
    request.not_before = when;
    request.not_after = when + 90 * 86400;
    request.logs = {&log};
    ca.issue(request, when);
  };
  for (int i = 0; i < 6; ++i) issue(i, base + i * 60);

  LogAuditor auditor;
  EXPECT_TRUE(auditor.audit(log, base + 3600).ok);
  for (int i = 6; i < 10; ++i) issue(i, base + i * 60);
  EXPECT_TRUE(auditor.audit(log, base + 7200).ok);

  // The log rewrites an old entry; the next audit must fail.
  log.corrupt_leaf_for_test(2);
  issue(10, base + 8000);
  const AuditOutcome outcome = auditor.audit(log, base + 9000);
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.problem, "consistency proof failed: history rewritten");
}

// ---------- log list & Chrome policy ----------

class PolicyTest : public ::testing::Test {
 protected:
  PolicyTest()
      : google_log_(make_config("Google Policy Log")),
        other_log_(make_config("Indie Policy Log")),
        ca_("Policy CA", "Policy Issuing CA", SignatureScheme::hmac_sha256_simulated),
        now_(SimTime::parse("2018-04-20")) {
    log_list_.add_log(google_log_, SimTime::parse("2015-01-01"), /*google=*/true);
    log_list_.add_log(other_log_, SimTime::parse("2016-01-01"), /*google=*/false);
  }

  static LogConfig make_config(const std::string& name) {
    LogConfig config;
    config.name = name;
    config.scheme = SignatureScheme::hmac_sha256_simulated;
    config.verify_submissions = false;
    return config;
  }

  sim::IssuanceResult issue(const std::vector<CtLog*>& logs, int lifetime_days = 90) {
    sim::IssuanceRequest request;
    request.subject_cn = "policy" + std::to_string(++counter_) + ".example.org";
    request.sans = {x509::SanEntry::dns(request.subject_cn)};
    request.not_before = now_;
    request.not_after = now_ + lifetime_days * 86400;
    request.logs = logs;
    return ca_.issue(request, now_);
  }

  PolicyVerdict evaluate(const sim::IssuanceResult& issued) {
    const SignedEntry entry = make_precert_entry(issued.final_certificate, ca_.public_key());
    return evaluate_chrome_policy(issued.scts, entry, log_list_, now_,
                                  issued.final_certificate.tbs.not_before,
                                  issued.final_certificate.tbs.not_after);
  }

  CtLog google_log_;
  CtLog other_log_;
  LogList log_list_;
  sim::CertificateAuthority ca_;
  SimTime now_;
  int counter_ = 0;
};

TEST_F(PolicyTest, CompliantWithDiverseLogs) {
  const auto issued = issue({&google_log_, &other_log_});
  const PolicyVerdict verdict = evaluate(issued);
  EXPECT_TRUE(verdict.compliant) << verdict.reason;
  EXPECT_EQ(verdict.valid_scts, 2u);
  EXPECT_TRUE(verdict.has_google);
  EXPECT_TRUE(verdict.has_non_google);
}

TEST_F(PolicyTest, NonCompliantWithoutDiversity) {
  const auto issued = issue({&google_log_});
  const PolicyVerdict verdict = evaluate(issued);
  EXPECT_FALSE(verdict.compliant);
}

TEST_F(PolicyTest, LongLivedCertificatesNeedMoreScts) {
  EXPECT_EQ(required_sct_count(now_, now_ + 90 * 86400), 2u);
  EXPECT_EQ(required_sct_count(now_, now_ + 2 * 365 * 86400), 3u);
  EXPECT_EQ(required_sct_count(now_, now_ + 3 * 365 * 86400), 4u);
  EXPECT_EQ(required_sct_count(now_, now_ + 4 * 365 * 86400), 5u);
  // A two-year certificate with only two SCTs fails on count.
  const auto issued = issue({&google_log_, &other_log_}, 2 * 365);
  const PolicyVerdict verdict = evaluate(issued);
  EXPECT_FALSE(verdict.compliant);
  EXPECT_EQ(verdict.required_scts, 3u);
}

TEST_F(PolicyTest, DisqualifiedLogDoesNotCount) {
  const auto issued = issue({&google_log_, &other_log_});
  log_list_.disqualify(other_log_.log_id(), SimTime::parse("2018-04-10"));
  const PolicyVerdict verdict = evaluate(issued);
  EXPECT_FALSE(verdict.compliant);
  EXPECT_EQ(verdict.valid_scts, 1u);
}

TEST_F(PolicyTest, UnknownLogSctIgnored) {
  LogConfig config = make_config("Rogue Log");
  CtLog rogue(config);
  const auto issued = issue({&rogue, &google_log_});
  const PolicyVerdict verdict = evaluate(issued);
  EXPECT_EQ(verdict.valid_scts, 1u);  // the rogue SCT is not counted
  EXPECT_FALSE(verdict.compliant);
}

TEST(PolicyDateTest, EnforcementOnlyCoversPostDeadlineIssuance) {
  const SimTime deadline = chrome_enforcement_date();
  EXPECT_EQ(deadline.date_string(), "2018-04-18");
  const SimTime before = SimTime::parse("2018-03-01");
  const SimTime after = SimTime::parse("2018-05-01");
  // Pre-deadline certificates are grandfathered even once enforcement is on.
  EXPECT_FALSE(chrome_requires_ct(before, after));
  // Post-deadline certificates need CT once enforcement has begun...
  EXPECT_TRUE(chrome_requires_ct(SimTime::parse("2018-04-20"), after));
  // ...but nothing is enforced before the switch was flipped.
  EXPECT_FALSE(chrome_requires_ct(before, SimTime::parse("2018-01-01")));
}

TEST(LogListTest, FindByIdAndName) {
  LogConfig config;
  config.name = "Find Me";
  config.scheme = SignatureScheme::hmac_sha256_simulated;
  CtLog log(config);
  LogList list;
  list.add_log(log, SimTime::parse("2017-01-01"), false);
  EXPECT_NE(list.find(log.log_id()), nullptr);
  EXPECT_NE(list.find_by_name("Find Me"), nullptr);
  EXPECT_EQ(list.find_by_name("Missing"), nullptr);
  const LogId bogus{};
  EXPECT_EQ(list.find(bogus), nullptr);
}

// ---------- streaming ----------

TEST(StreamTest, SubscribeDeliversEntriesFromEachLog) {
  LogConfig config;
  config.scheme = SignatureScheme::hmac_sha256_simulated;
  config.verify_submissions = false;
  config.name = "Streamed Log A";
  CtLog log_a(config);
  config.name = "Streamed Log B";
  CtLog log_b(config);
  // One consumer following two logs, as a CertStream-style monitor does.
  std::vector<std::string> seen;
  const CtLog::Subscriber consumer = [&](const CtLog& source, const LogEntry& entry) {
    seen.push_back(source.name() + "/" + entry_tbs(entry.signed_entry)->tbs.subject.common_name);
  };
  log_a.subscribe(consumer);
  log_b.subscribe(consumer);
  sim::CertificateAuthority ca("Stream CA", "Stream Issuing CA",
                               SignatureScheme::hmac_sha256_simulated);
  const SimTime now = SimTime::parse("2018-04-12 14:16:14");
  auto issue = [&](const std::string& cn, std::vector<CtLog*> logs) {
    sim::IssuanceRequest request;
    request.subject_cn = cn;
    request.sans = {x509::SanEntry::dns(request.subject_cn)};
    request.not_before = now;
    request.not_after = now + 90 * 86400;
    request.logs = std::move(logs);
    ca.issue(request, now);
  };
  issue("hp1.example.net", {&log_a, &log_b});
  issue("hp2.example.net", {&log_b});
  EXPECT_EQ(seen, (std::vector<std::string>{"Streamed Log A/hp1.example.net",
                                            "Streamed Log B/hp1.example.net",
                                            "Streamed Log B/hp2.example.net"}));
}

// ---------- SCT list serialization ----------

TEST(SctListTest, SerializeParseRoundTrip) {
  SignedCertificateTimestamp a;
  a.log_id.fill(0x11);
  a.timestamp_ms = 1523542574000ull;
  a.signature = crypto::SignatureBlob{SignatureScheme::hmac_sha256_simulated, Bytes(32, 0xaa)};
  SignedCertificateTimestamp b;
  b.log_id.fill(0x22);
  b.timestamp_ms = 1523542575000ull;
  b.extensions = to_bytes("ext");
  b.signature = crypto::SignatureBlob{SignatureScheme::ecdsa_p256_sha256, Bytes(64, 0xbb)};
  const std::vector<SignedCertificateTimestamp> scts{a, b};
  EXPECT_EQ(parse_sct_list(serialize_sct_list(scts)), scts);
}

TEST(SctListTest, ParseRejectsTrailingBytes) {
  Bytes data = serialize_sct_list({});
  data.push_back(0x00);
  EXPECT_THROW(parse_sct_list(data), std::invalid_argument);
}

TEST(SctListTest, SctSerializationRoundTrip) {
  SignedCertificateTimestamp sct;
  sct.log_id.fill(0x5a);
  sct.timestamp_ms = 1234567890123ull;
  sct.signature = crypto::SignatureBlob{SignatureScheme::hmac_sha256_simulated, Bytes(32, 0x7f)};
  EXPECT_EQ(SignedCertificateTimestamp::deserialize(sct.serialize()), sct);
}

TEST(SctListTest, DeserializeRejectsTruncated) {
  SignedCertificateTimestamp sct;
  sct.log_id.fill(0x5a);
  sct.signature = crypto::SignatureBlob{SignatureScheme::hmac_sha256_simulated, Bytes(32, 0x7f)};
  Bytes data = sct.serialize();
  data.resize(data.size() - 1);
  EXPECT_THROW(SignedCertificateTimestamp::deserialize(data), std::invalid_argument);
}

// ---------- slim (store_bodies=false) mode ----------

TEST(SlimModeTest, KeepsFingerprintsAndTreeButNotBodies) {
  LogConfig config;
  config.name = "Slim Log";
  config.scheme = SignatureScheme::hmac_sha256_simulated;
  config.verify_submissions = false;
  config.store_bodies = false;
  CtLog log(config);
  sim::CertificateAuthority ca("Slim CA", "Slim Issuing CA",
                               SignatureScheme::hmac_sha256_simulated);
  const SimTime now = SimTime::parse("2018-04-01");
  sim::IssuanceRequest request;
  request.subject_cn = "slim.example.org";
  request.sans = {x509::SanEntry::dns(request.subject_cn)};
  request.not_before = now;
  request.not_after = now + 90 * 86400;
  request.logs = {&log};
  const auto issued = ca.issue(request, now);
  ASSERT_EQ(log.entries().size(), 1u);
  const LogEntry& entry = log.entries()[0];
  EXPECT_EQ(entry.issuer_cn, "Slim Issuing CA");
  EXPECT_TRUE(entry.signed_entry.data.empty());  // body dropped
  EXPECT_FALSE(entry_tbs(entry.signed_entry));
  EXPECT_EQ(hex_encode(crypto::digest_bytes(entry.fingerprint)),
            hex_encode(crypto::digest_bytes(issued.precertificate.fingerprint())));
  // The Merkle tree is fully populated regardless.
  EXPECT_EQ(log.tree_size(), 1u);
  const SignedTreeHead sth = log.get_sth(now + 60);
  EXPECT_TRUE(verify_sth(sth, log.public_key()));
}

}  // namespace
}  // namespace ctwatch::ct
