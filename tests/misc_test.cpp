// Coverage for the smaller utilities and the late-added helpers: DER
// signature form, SCT inclusion auditing, the Bro-style ssl.log writer,
// rDNS, scan ethics, and assorted distribution helpers.
#include <gtest/gtest.h>

#include <sstream>

#include "ctwatch/ct/auditor.hpp"
#include "ctwatch/monitor/ssl_log.hpp"
#include "ctwatch/dns/records.hpp"
#include "ctwatch/net/reverse_dns.hpp"
#include "ctwatch/sim/ca.hpp"
#include "ctwatch/util/rng.hpp"
#include "ctwatch/x509/certificate.hpp"

namespace ctwatch {
namespace {

using crypto::SignatureScheme;

// ---------- DER ECDSA signatures ----------

TEST(DerSignatureTest, RoundTrip) {
  const auto key = crypto::EcdsaKeyPair::derive("der-sig");
  const crypto::EcdsaSignature sig = key.sign(to_bytes("message"));
  const Bytes der = x509::ecdsa_signature_to_der(sig);
  EXPECT_EQ(x509::ecdsa_signature_from_der(der), sig);
}

TEST(DerSignatureTest, DerIsMinimal) {
  // High-bit r values gain a 0x00 pad; small values shrink — the DER form
  // is variable length, unlike the raw 64-byte form.
  const crypto::EcdsaSignature small{crypto::U256{5}, crypto::U256{7}};
  const Bytes der = x509::ecdsa_signature_to_der(small);
  EXPECT_LT(der.size(), 16u);
  EXPECT_EQ(x509::ecdsa_signature_from_der(der), small);
}

TEST(DerSignatureTest, RejectsMalformed) {
  EXPECT_THROW(x509::ecdsa_signature_from_der(to_bytes("junk")), std::invalid_argument);
  const crypto::EcdsaSignature sig{crypto::U256{1}, crypto::U256{2}};
  Bytes der = x509::ecdsa_signature_to_der(sig);
  der.push_back(0x00);
  EXPECT_THROW(x509::ecdsa_signature_from_der(der), std::invalid_argument);
}

// ---------- SCT inclusion audit ----------

class SctAuditTest : public ::testing::Test {
 protected:
  SctAuditTest()
      : ca_("Audit2 CA", "Audit2 Issuing CA", SignatureScheme::hmac_sha256_simulated),
        now_(SimTime::parse("2018-04-10")) {
    ct::LogConfig config;
    config.name = "Audit2 Log";
    config.scheme = SignatureScheme::hmac_sha256_simulated;
    log_ = std::make_unique<ct::CtLog>(config);
  }

  sim::IssuanceResult issue(const std::string& cn) {
    sim::IssuanceRequest request;
    request.subject_cn = cn;
    request.sans = {x509::SanEntry::dns(cn)};
    request.not_before = now_;
    request.not_after = now_ + 90 * 86400;
    request.logs = {log_.get()};
    return ca_.issue(request, now_);
  }

  sim::CertificateAuthority ca_;
  std::unique_ptr<ct::CtLog> log_;
  SimTime now_;
};

TEST_F(SctAuditTest, HonoredPromiseAuditsClean) {
  const auto issued = issue("audit.example.org");
  issue("noise1.example.org");
  issue("noise2.example.org");
  const ct::SignedEntry entry =
      ct::make_precert_entry(issued.final_certificate, ca_.public_key());
  const auto index = ct::find_promised_entry(*log_, issued.scts[0], entry);
  ASSERT_TRUE(index);
  EXPECT_EQ(*index, 0u);
  EXPECT_TRUE(ct::audit_sct_inclusion(*log_, issued.scts[0], entry, now_ + 86400));
}

TEST_F(SctAuditTest, ForeignSctFailsAudit) {
  const auto issued = issue("audit.example.org");
  ct::LogConfig other_config;
  other_config.name = "Audit2 Other Log";
  other_config.scheme = SignatureScheme::hmac_sha256_simulated;
  ct::CtLog other(other_config);
  const ct::SignedEntry entry =
      ct::make_precert_entry(issued.final_certificate, ca_.public_key());
  // The SCT was issued by log_, so auditing it against `other` fails on
  // the signature already.
  EXPECT_FALSE(ct::audit_sct_inclusion(other, issued.scts[0], entry, now_ + 86400));
}

TEST_F(SctAuditTest, BrokenPromiseDetected) {
  // Forge a plausible SCT that the log never integrated: sign with the
  // log's own key derivation (same seed label) over an entry the log never
  // saw. The signature verifies but the promised entry is absent.
  const auto issued = issue("audit.example.org");
  sim::IssuanceRequest request;
  request.subject_cn = "never-logged.example.org";
  request.sans = {x509::SanEntry::dns(request.subject_cn)};
  request.not_before = now_;
  request.not_after = now_ + 90 * 86400;
  const x509::Certificate ghost = ca_.issue_unlogged(request, now_);
  ct::SignedEntry ghost_entry = ct::make_precert_entry(ghost, ca_.public_key());

  const auto signer =
      crypto::make_signer("ct-log/Audit2 Log", SignatureScheme::hmac_sha256_simulated);
  const ct::SignedCertificateTimestamp forged =
      ct::sign_sct(*signer, log_->log_id(), issued.scts[0].timestamp_ms, ghost_entry);
  ASSERT_TRUE(ct::verify_sct(forged, ghost_entry, log_->public_key()));
  EXPECT_FALSE(ct::find_promised_entry(*log_, forged, ghost_entry));
  EXPECT_FALSE(ct::audit_sct_inclusion(*log_, forged, ghost_entry, now_ + 86400));
}

// ---------- ssl.log writer ----------

TEST(SslLogTest, WritesHeaderAndRows) {
  sim::CertificateAuthority ca("Ssl CA", "Ssl Issuing CA",
                               SignatureScheme::hmac_sha256_simulated);
  ct::LogConfig config;
  config.name = "Ssl Log";
  config.scheme = SignatureScheme::hmac_sha256_simulated;
  ct::CtLog log(config);
  ct::LogList list;
  list.add_log(log, SimTime::parse("2016-01-01"), true);

  sim::IssuanceRequest request;
  request.subject_cn = "bro.example.org";
  request.sans = {x509::SanEntry::dns(request.subject_cn)};
  request.not_before = SimTime::parse("2018-04-01");
  request.not_after = SimTime::parse("2018-07-01");
  request.logs = {&log};
  const auto issued = ca.issue(request, SimTime::parse("2018-04-01"));

  tls::ConnectionRecord record;
  record.time = SimTime::parse("2018-04-02 10:00:00");
  record.server_name = "bro.example.org";
  record.client_signals_sct = true;
  record.certificate = std::make_shared<const x509::Certificate>(issued.final_certificate);
  record.issuer_public_key = std::make_shared<const Bytes>(ca.public_key());

  std::ostringstream out;
  monitor::SslLogWriter writer(out, list);
  writer.process(record);
  writer.process(record);
  EXPECT_EQ(writer.lines_written(), 2u);

  const std::string text = out.str();
  EXPECT_NE(text.find("#fields\tts\tserver_name"), std::string::npos);
  EXPECT_NE(text.find("bro.example.org\tT\t1\t0\t0\t1\t0\tSsl Issuing CA"), std::string::npos);
  // Header + 2 data lines.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
}

TEST(SslLogTest, FlagsInvalidSctInValidationColumn) {
  sim::CertificateAuthority ca("Ssl CA 2", "Ssl Issuing CA 2",
                               SignatureScheme::hmac_sha256_simulated);
  ct::LogConfig config;
  config.name = "Ssl Log 2";
  config.scheme = SignatureScheme::hmac_sha256_simulated;
  ct::CtLog log(config);
  ct::LogList list;
  list.add_log(log, SimTime::parse("2016-01-01"), true);

  sim::IssuanceRequest request;
  request.subject_cn = "bad.example.org";
  request.sans = {x509::SanEntry::dns("bad.example.org"),
                  x509::SanEntry::dns("alt.example.org")};
  request.not_before = SimTime::parse("2018-04-01");
  request.not_after = SimTime::parse("2018-07-01");
  request.logs = {&log};
  request.bug = sim::IssuanceBug::san_reorder;
  const auto issued = ca.issue(request, SimTime::parse("2018-04-01"));

  tls::ConnectionRecord record;
  record.time = SimTime::parse("2018-04-02");
  record.server_name = "bad.example.org";
  record.certificate = std::make_shared<const x509::Certificate>(issued.final_certificate);
  record.issuer_public_key = std::make_shared<const Bytes>(ca.public_key());

  std::ostringstream out;
  monitor::SslLogWriter writer(out, list);
  writer.process(record);
  EXPECT_NE(out.str().find("\t0\t1\t"), std::string::npos);  // valid=0, invalid=1
}

// ---------- rDNS ----------

TEST(ReverseDnsTest, LookupAndWalk) {
  net::ReverseDns rdns;
  rdns.register_v4(net::IPv4(192, 0, 2, 1), "scanner.example.org");
  rdns.register_v6(*net::IPv6::parse("2001:db8:42::1"), "host1.example.org");
  rdns.register_v6(*net::IPv6::parse("2001:db8:42::2"), "host2.example.org");
  rdns.register_v6(*net::IPv6::parse("2001:db8:77::1"), "other.example.org");

  EXPECT_EQ(*rdns.lookup(net::IPv4(192, 0, 2, 1)), "scanner.example.org");
  EXPECT_FALSE(rdns.lookup(net::IPv4(192, 0, 2, 2)));
  EXPECT_EQ(*rdns.lookup(*net::IPv6::parse("2001:db8:42::1")), "host1.example.org");
  EXPECT_FALSE(rdns.lookup(*net::IPv6::parse("2001:db8:42::9")));

  const Bytes prefix42 = {0x20, 0x01, 0x0d, 0xb8, 0x00, 0x42};
  EXPECT_EQ(rdns.walk_v6(prefix42).size(), 2u);
  const Bytes prefix_empty = {0x20, 0x01, 0x0d, 0xb8, 0x00, 0x99};
  EXPECT_TRUE(rdns.walk_v6(prefix_empty).empty());
  EXPECT_EQ(rdns.size(), 4u);
}

// ---------- distribution helpers ----------

TEST(RngDistributionTest, ParetoIsHeavyTailedAndBounded) {
  Rng rng(55);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
  }
  EXPECT_THROW(rng.pareto(0, 1), std::invalid_argument);
  EXPECT_THROW(rng.pareto(1, 0), std::invalid_argument);
}

TEST(RngDistributionTest, NormalHasZeroishMean) {
  Rng rng(56);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) sum += rng.normal();
  EXPECT_NEAR(sum / 20000, 0.0, 0.05);
}

TEST(RngDistributionTest, PickFromVector) {
  Rng rng(57);
  const std::vector<int> items{10, 20, 30};
  for (int i = 0; i < 100; ++i) {
    const int v = rng.pick(items);
    EXPECT_TRUE(v == 10 || v == 20 || v == 30);
  }
  const std::vector<int> empty;
  EXPECT_THROW(rng.pick(empty), std::invalid_argument);
}

// ---------- misc string conversions ----------

TEST(ToStringTest, EnumsHaveNames) {
  EXPECT_EQ(tls::to_string(tls::SctDelivery::certificate), "cert");
  EXPECT_EQ(tls::to_string(tls::SctDelivery::tls_extension), "tls");
  EXPECT_EQ(tls::to_string(tls::SctDelivery::ocsp_staple), "ocsp");
  EXPECT_EQ(dns::to_string(dns::RrType::AAAA), "AAAA");
  EXPECT_EQ(dns::to_string(dns::RrType::SOA), "SOA");
  EXPECT_EQ(crypto::to_string(SignatureScheme::ecdsa_p256_sha256), "ecdsa-p256-sha256");
  EXPECT_EQ(sim::to_string(sim::IssuanceBug::san_reorder), "san-reorder");
}

TEST(HkdfTest, RejectsOversizedOutput) {
  const Bytes prk(32, 0x42);
  EXPECT_THROW(crypto::hkdf_expand(prk, to_bytes("info"), 255 * 32 + 1), std::invalid_argument);
}

}  // namespace
}  // namespace ctwatch
