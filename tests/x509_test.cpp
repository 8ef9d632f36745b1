#include <gtest/gtest.h>

#include "ctwatch/x509/certificate.hpp"
#include "ctwatch/x509/oids.hpp"

namespace ctwatch::x509 {
namespace {

using crypto::SignatureScheme;

std::unique_ptr<crypto::Signer> test_signer(const std::string& label) {
  return crypto::make_signer(label, SignatureScheme::ecdsa_p256_sha256);
}

CertificateBuilder base_builder(const crypto::Signer& subject) {
  CertificateBuilder builder;
  DistinguishedName issuer;
  issuer.common_name = "Test Issuing CA";
  issuer.organization = "Test CA Org";
  issuer.country = "DE";
  builder.serial(42)
      .issuer(issuer)
      .subject_cn("www.example.org")
      .validity(SimTime::parse("2018-01-01"), SimTime::parse("2019-01-01"))
      .subject_key(subject);
  return builder;
}

// ---------- distinguished names ----------

TEST(DnTest, EncodeDecodeRoundTrip) {
  DistinguishedName dn;
  dn.common_name = "Let's Encrypt Authority X3";
  dn.organization = "Let's Encrypt";
  dn.country = "US";
  EXPECT_EQ(DistinguishedName::decode(dn.encode()), dn);
}

TEST(DnTest, PartialFieldsRoundTrip) {
  DistinguishedName dn;
  dn.common_name = "only-cn.example";
  EXPECT_EQ(DistinguishedName::decode(dn.encode()), dn);
}

TEST(DnTest, EmptyNameIsEmptySequence) {
  const DistinguishedName dn;
  EXPECT_EQ(DistinguishedName::decode(dn.encode()), dn);
}

// ---------- SANs ----------

TEST(SanTest, DnsAndIpRoundTripPreservingOrder) {
  const std::vector<SanEntry> entries = {
      SanEntry::dns("a.example.org"),
      SanEntry::address(net::IPv4(192, 0, 2, 7)),
      SanEntry::dns("b.example.org"),
  };
  const std::vector<SanEntry> decoded = decode_san_value(encode_san_value(entries));
  EXPECT_EQ(decoded, entries);
}

TEST(SanTest, OrderChangesChangeEncoding) {
  // Load-bearing for the GlobalSign reproduction: SAN order is significant
  // at the DER level.
  const std::vector<SanEntry> a = {SanEntry::dns("a.example"), SanEntry::dns("b.example")};
  const std::vector<SanEntry> b = {SanEntry::dns("b.example"), SanEntry::dns("a.example")};
  EXPECT_NE(encode_san_value(a), encode_san_value(b));
}

// ---------- certificates ----------

TEST(CertificateTest, BuildSignVerify) {
  const auto ca = test_signer("x509-ca");
  const auto subject = test_signer("x509-subject");
  const Certificate cert = base_builder(*subject).add_dns_san("www.example.org").sign(*ca);
  EXPECT_TRUE(cert.verify(ca->public_key()));
  const auto other = test_signer("x509-other");
  EXPECT_FALSE(cert.verify(other->public_key()));
}

TEST(CertificateTest, EncodeDecodeRoundTrip) {
  const auto ca = test_signer("rt-ca");
  const auto subject = test_signer("rt-subject");
  const Certificate cert = base_builder(*subject)
                               .add_dns_san("www.example.org")
                               .add_dns_san("example.org")
                               .add_ip_san(net::IPv4(198, 51, 100, 1))
                               .sign(*ca);
  const Certificate decoded = Certificate::decode(cert.encode());
  EXPECT_EQ(decoded, cert);
  EXPECT_TRUE(decoded.verify(ca->public_key()));
}

TEST(CertificateTest, DecodedFieldsMatch) {
  const auto ca = test_signer("fields-ca");
  const auto subject = test_signer("fields-subject");
  const Certificate cert = base_builder(*subject).add_dns_san("www.example.org").sign(*ca);
  const Certificate decoded = Certificate::decode(cert.encode());
  EXPECT_EQ(decoded.tbs.subject.common_name, "www.example.org");
  EXPECT_EQ(decoded.tbs.issuer.common_name, "Test Issuing CA");
  EXPECT_EQ(decoded.tbs.not_before, SimTime::parse("2018-01-01"));
  EXPECT_EQ(decoded.tbs.not_after, SimTime::parse("2019-01-01"));
  EXPECT_EQ(decoded.tbs.serial, Bytes{42});
}

TEST(CertificateTest, TamperedTbsFailsVerification) {
  const auto ca = test_signer("tamper-ca");
  const auto subject = test_signer("tamper-subject");
  Certificate cert = base_builder(*subject).add_dns_san("www.example.org").sign(*ca);
  cert.tbs.subject.common_name = "evil.example.org";
  EXPECT_FALSE(cert.verify(ca->public_key()));
}

TEST(CertificateTest, FingerprintChangesWithContent) {
  const auto ca = test_signer("fp-ca");
  const auto subject = test_signer("fp-subject");
  const Certificate a = base_builder(*subject).add_dns_san("a.example").sign(*ca);
  const Certificate b = base_builder(*subject).add_dns_san("b.example").sign(*ca);
  EXPECT_NE(hex_encode(crypto::digest_bytes(a.fingerprint())),
            hex_encode(crypto::digest_bytes(b.fingerprint())));
}

TEST(CertificateTest, DnsNamesMergesCnAndSans) {
  const auto ca = test_signer("names-ca");
  const auto subject = test_signer("names-subject");
  const Certificate cert = base_builder(*subject)
                               .add_dns_san("www.example.org")  // same as CN: deduplicated
                               .add_dns_san("api.example.org")
                               .sign(*ca);
  const auto names = cert.tbs.dns_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "www.example.org");
  EXPECT_EQ(names[1], "api.example.org");
}

TEST(CertificateTest, NonDnsCommonNameIgnored) {
  const auto ca = test_signer("cn-ca");
  const auto subject = test_signer("cn-subject");
  CertificateBuilder builder = base_builder(*subject);
  builder.subject_cn("ACME Web Server");  // not a DNS name
  builder.add_dns_san("real.example.org");
  const Certificate cert = builder.sign(*ca);
  const auto names = cert.tbs.dns_names();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "real.example.org");
}

TEST(CertificateTest, BuilderRequiresSubjectKey) {
  CertificateBuilder builder;
  builder.serial(1).subject_cn("x.example");
  EXPECT_THROW((void)builder.build_tbs(), std::logic_error);
}

// ---------- precertificates & the SCT machinery ----------

TEST(PrecertTest, PoisonMarksPrecertificate) {
  const auto ca = test_signer("poison-ca");
  const auto subject = test_signer("poison-subject");
  CertificateBuilder builder = base_builder(*subject);
  builder.add_dns_san("www.example.org").poison();
  const Certificate precert = builder.sign(*ca);
  EXPECT_TRUE(precert.is_precertificate());
  const Certificate decoded = Certificate::decode(precert.encode());
  EXPECT_TRUE(decoded.is_precertificate());
  // The poison must be critical per RFC 6962.
  const Extension* poison = decoded.tbs.find_extension(oids::ct_poison());
  ASSERT_NE(poison, nullptr);
  EXPECT_TRUE(poison->critical);
}

TEST(PrecertTest, PrecertTbsStripsPoisonAndSctList) {
  const auto ca = test_signer("strip-ca");
  const auto subject = test_signer("strip-subject");

  CertificateBuilder builder = base_builder(*subject);
  builder.add_dns_san("www.example.org");
  const TbsCertificate plain_tbs = builder.build_tbs();

  CertificateBuilder poisoned = base_builder(*subject);
  poisoned.add_dns_san("www.example.org").poison();
  TbsCertificate precert_tbs = poisoned.build_tbs();

  // What the log signs over the precert equals the plain TBS encoding.
  EXPECT_EQ(precert_tbs_bytes(precert_tbs), plain_tbs.encode());

  // Adding an SCT list to the final cert does not change the covered bytes.
  TbsCertificate final_tbs = plain_tbs;
  final_tbs.add_extension(Extension{oids::ct_sct_list(), false, Bytes{0x00, 0x00}});
  EXPECT_EQ(precert_tbs_bytes(final_tbs), plain_tbs.encode());
}

TEST(PrecertTest, SanReorderChangesCoveredBytes) {
  const auto subject = test_signer("reorder-subject");
  CertificateBuilder builder = base_builder(*subject);
  builder.add_dns_san("a.example").add_dns_san("b.example");
  TbsCertificate tbs = builder.build_tbs();
  const Bytes before = precert_tbs_bytes(tbs);

  auto sans = tbs.san_entries();
  std::swap(sans[0], sans[1]);
  for (auto& ext : tbs.extensions) {
    if (ext.oid == oids::subject_alt_name()) ext.value = encode_san_value(sans);
  }
  EXPECT_NE(precert_tbs_bytes(tbs), before);
}

TEST(PrecertTest, ExtensionReorderChangesCoveredBytes) {
  const auto subject = test_signer("extreorder-subject");
  CertificateBuilder builder = base_builder(*subject);
  builder.extension(Extension{oids::basic_constraints(), true, asn1::encode_sequence({})});
  builder.add_dns_san("a.example");
  TbsCertificate tbs = builder.build_tbs();
  ASSERT_GE(tbs.extensions.size(), 2u);
  const Bytes before = precert_tbs_bytes(tbs);
  std::swap(tbs.extensions[0], tbs.extensions[1]);
  EXPECT_NE(precert_tbs_bytes(tbs), before);
}

// TbsEncoder reuses the template's DER for equal fields and extensions and
// encodes the rest, so both outputs equal the reference encoders for TBSes
// that share everything, some things or nothing with the template, and
// both decode back to the TBS (the log's without poison and SCT list).
TEST(TbsEncoderTest, PrecertPairMatchesReferenceAndRoundTrips) {
  const auto subject = test_signer("tbs-encoder-subject");
  const Extension poison{oids::ct_poison(), true, asn1::encode_null()};
  const Extension basic{oids::basic_constraints(), true, asn1::encode_sequence({})};
  const Extension sct_list{oids::ct_sct_list(), false, Bytes{0x00, 0x00}};
  TbsCertificate shared = base_builder(*subject).build_tbs();
  shared.extensions = {basic, poison};
  const TbsEncoder encoder(shared);

  std::vector<TbsCertificate> cases;
  CertificateBuilder builder = base_builder(*subject);
  builder.extension(basic).add_dns_san("www.example.org").add_dns_san("api.example.org");
  TbsCertificate tbs = builder.build_tbs();
  cases.push_back(tbs);  // shares all but the SAN; no poison
  tbs.add_extension(poison);
  cases.push_back(tbs);  // a precertificate
  std::swap(tbs.extensions[0], tbs.extensions[1]);
  cases.push_back(tbs);  // reordered extensions
  tbs.add_extension(sct_list);
  cases.push_back(tbs);  // poison and an SCT list
  tbs.issuer.common_name = "Another Issuing CA";
  tbs.key_scheme = SignatureScheme::hmac_sha256_simulated;
  tbs.public_key = Bytes(32, 0x5a);
  cases.push_back(tbs);  // issuer, scheme and key differ
  tbs.extensions = {poison};
  cases.push_back(tbs);  // nothing left for the log's [3]
  tbs.extensions.clear();
  cases.push_back(tbs);  // no extensions at all

  const TbsEncoder no_template;  // shares only default-constructed fields
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    const TbsCertificate& want = cases[i];
    const PrecertTbsDer der = encoder.encode_precert(want);
    EXPECT_EQ(der.tbs, want.encode());
    EXPECT_EQ(der.log_entry, precert_tbs_bytes(want));
    const PrecertTbsDer plain = no_template.encode_precert(want);
    EXPECT_EQ(plain.tbs, der.tbs);
    EXPECT_EQ(plain.log_entry, der.log_entry);
    EXPECT_EQ(TbsCertificate::decode(der.tbs), want);
    TbsCertificate stripped = want;
    stripped.remove_extension(oids::ct_poison());
    stripped.remove_extension(oids::ct_sct_list());
    EXPECT_EQ(TbsCertificate::decode(der.log_entry), stripped);

    const Certificate cert{want, subject->sign(der.tbs)};
    EXPECT_EQ(encode_certificate(der.tbs, cert.signature), cert.encode());
  }
}

TEST(ExtensionTest, FindAndRemove) {
  const auto subject = test_signer("ext-subject");
  CertificateBuilder builder = base_builder(*subject);
  builder.extension(Extension{oids::key_usage(), true, Bytes{0x03, 0x02, 0x05, 0xa0}});
  builder.add_dns_san("x.example");
  TbsCertificate tbs = builder.build_tbs();
  EXPECT_TRUE(tbs.has_extension(oids::key_usage()));
  EXPECT_TRUE(tbs.has_extension(oids::subject_alt_name()));
  EXPECT_EQ(tbs.remove_extension(oids::key_usage()), 1u);
  EXPECT_FALSE(tbs.has_extension(oids::key_usage()));
  EXPECT_EQ(tbs.remove_extension(oids::key_usage()), 0u);
}

TEST(ExtensionTest, CriticalityRoundTrips) {
  const auto ca = test_signer("crit-ca");
  const auto subject = test_signer("crit-subject");
  CertificateBuilder builder = base_builder(*subject);
  builder.extension(Extension{oids::basic_constraints(), true, asn1::encode_sequence({})});
  builder.extension(Extension{oids::key_usage(), false, Bytes{0x01}});
  builder.add_dns_san("x.example");
  const Certificate decoded = Certificate::decode(builder.sign(*ca).encode());
  EXPECT_TRUE(decoded.tbs.find_extension(oids::basic_constraints())->critical);
  EXPECT_FALSE(decoded.tbs.find_extension(oids::key_usage())->critical);
}

TEST(CertificateTest, MixedSchemeCertificate) {
  // Simulated-scheme subject key inside an ECDSA-signed certificate.
  const auto ca = test_signer("mixed-ca");
  const auto subject = crypto::make_signer("mixed-subject", SignatureScheme::hmac_sha256_simulated);
  const Certificate cert = base_builder(*subject).add_dns_san("www.example.org").sign(*ca);
  const Certificate decoded = Certificate::decode(cert.encode());
  EXPECT_EQ(decoded.tbs.key_scheme, SignatureScheme::hmac_sha256_simulated);
  EXPECT_TRUE(decoded.verify(ca->public_key()));
}

TEST(CertificateTest, DecodeRejectsGarbage) {
  EXPECT_THROW(Certificate::decode(to_bytes("not a certificate")), std::invalid_argument);
  EXPECT_THROW(Certificate::decode(Bytes{}), std::invalid_argument);
}

}  // namespace
}  // namespace ctwatch::x509
