// X.509 certificates: model, DER encoding/decoding, and the
// precertificate machinery of RFC 6962.
//
// The model covers the fields the paper's analyses touch — names, SANs
// (DNS and IP), validity, issuer, and extensions — and encodes them with
// real DER so that the §3.4 bug classes (SAN/extension reordering between
// precertificate and final certificate) exist at the byte level, exactly
// where the real CAs tripped.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ctwatch/asn1/der.hpp"
#include "ctwatch/crypto/signature.hpp"
#include "ctwatch/net/ip.hpp"
#include "ctwatch/util/time.hpp"

namespace ctwatch::x509 {

/// Simplified distinguished name: CN, optional O and C.
struct DistinguishedName {
  std::string common_name;
  std::string organization;
  std::string country;

  [[nodiscard]] Bytes encode() const;
  static DistinguishedName decode(BytesView der_name);

  friend bool operator==(const DistinguishedName&, const DistinguishedName&) = default;
};

/// A subjectAltName entry: DNS name or IPv4 address.
struct SanEntry {
  enum class Kind : std::uint8_t { dns, ip };
  Kind kind = Kind::dns;
  std::string dns_name;  // valid when kind == dns
  net::IPv4 ip;          // valid when kind == ip

  static SanEntry dns(std::string name) {
    SanEntry e;
    e.kind = Kind::dns;
    e.dns_name = std::move(name);
    return e;
  }
  static SanEntry address(net::IPv4 ip) {
    SanEntry e;
    e.kind = Kind::ip;
    e.ip = ip;
    return e;
  }

  friend bool operator==(const SanEntry&, const SanEntry&) = default;
};

/// A raw X.509 v3 extension.
struct Extension {
  asn1::Oid oid;
  bool critical = false;
  Bytes value;  ///< DER contents of the extnValue OCTET STRING

  friend bool operator==(const Extension&, const Extension&) = default;
};

/// Encodes a SAN extension value from entries, preserving the given order —
/// order preservation is load-bearing for the GlobalSign bug reproduction.
Bytes encode_san_value(const std::vector<SanEntry>& entries);
/// Decodes a SAN extension value.
std::vector<SanEntry> decode_san_value(BytesView value);

/// The to-be-signed certificate body.
struct TbsCertificate {
  Bytes serial;  ///< unsigned big-endian magnitude
  DistinguishedName issuer;
  DistinguishedName subject;
  SimTime not_before;
  SimTime not_after;
  crypto::SignatureScheme key_scheme = crypto::SignatureScheme::ecdsa_p256_sha256;
  Bytes public_key;  ///< scheme-dependent public key bytes
  std::vector<Extension> extensions;  ///< encoded in this exact order

  [[nodiscard]] Bytes encode() const;
  static TbsCertificate decode(BytesView der);

  // -- extension helpers --
  [[nodiscard]] const Extension* find_extension(const asn1::Oid& oid) const;
  [[nodiscard]] bool has_extension(const asn1::Oid& oid) const {
    return find_extension(oid) != nullptr;
  }
  void add_extension(Extension ext) { extensions.push_back(std::move(ext)); }
  /// Removes all extensions with the OID; returns how many were removed.
  std::size_t remove_extension(const asn1::Oid& oid);

  [[nodiscard]] std::vector<SanEntry> san_entries() const;
  /// All DNS names the certificate binds: subject CN when it looks like a
  /// DNS name, plus SAN dNSName entries (deduplicated, order preserved).
  [[nodiscard]] std::vector<std::string> dns_names() const;

  friend bool operator==(const TbsCertificate&, const TbsCertificate&) = default;
};

/// A signed certificate (or precertificate, when the poison is present).
struct Certificate {
  TbsCertificate tbs;
  crypto::SignatureBlob signature;

  [[nodiscard]] Bytes encode() const;
  static Certificate decode(BytesView der);

  /// SHA-256 over the DER encoding.
  [[nodiscard]] crypto::Digest fingerprint() const;

  [[nodiscard]] bool is_precertificate() const;
  /// The embedded SCT list extension value, if present.
  [[nodiscard]] std::optional<Bytes> sct_list_value() const;

  /// Verifies the CA signature given the issuer's public key bytes.
  [[nodiscard]] bool verify(BytesView issuer_public_key) const;

  friend bool operator==(const Certificate&, const Certificate&) = default;
};

/// RFC 6962 §3.2: the TBS bytes covered by an SCT over a precertificate —
/// the certificate's TBS with the poison and SCT-list extensions removed.
/// For a final certificate, this reconstructs what the log signed; any
/// divergence introduced by the CA between precertificate and final
/// certificate (reordered SANs, reordered extensions, swapped names)
/// invalidates the embedded SCT.
Bytes precert_tbs_bytes(const TbsCertificate& tbs);

/// DER of the certificate {tbs, signature} whose TBS is already encoded:
/// Certificate::encode() is encode_certificate(tbs.encode(), signature).
Bytes encode_certificate(BytesView tbs_der, const crypto::SignatureBlob& signature);

/// A precertificate TBS in both of its RFC 6962 §3.2 encodings.
struct PrecertTbsDer {
  Bytes tbs;        ///< the TBS as given, poison included: tbs.encode()
  Bytes log_entry;  ///< without poison and SCT list: precert_tbs_bytes(tbs)
};

/// Encodes many TBSes that share fields with one template: a CA's issuer
/// name, subject key and fixed extensions. The template's DER is encoded
/// once. A field or extension equal to the template's reuses that DER,
/// and any other is encoded afresh, so every output equals the reference
/// encoding (TbsCertificate::encode, precert_tbs_bytes) byte for byte.
class TbsEncoder {
 public:
  TbsEncoder() : TbsEncoder(TbsCertificate{}) {}
  explicit TbsEncoder(TbsCertificate shared);

  /// {tbs.encode(), precert_tbs_bytes(tbs)}, from one encoding of each
  /// field and extension: the two differ only in which extensions the
  /// [3] wrapper carries.
  [[nodiscard]] PrecertTbsDer encode_precert(const TbsCertificate& tbs) const;

 private:
  TbsCertificate shared_;
  Bytes sig_alg_;                  ///< of shared_.key_scheme
  Bytes issuer_;                   ///< of shared_.issuer
  Bytes spki_;                     ///< of shared_.key_scheme and public_key
  std::vector<Bytes> extensions_;  ///< of shared_.extensions, in order
};

/// Minimal big-endian serial-number magnitude for a 64-bit value.
Bytes serial_bytes(std::uint64_t serial);

/// DER encoding of an ECDSA signature (SEQUENCE of two INTEGERs) — the
/// form real X.509 certificates carry; the crypto layer's raw form is the
/// fixed 64-byte r||s.
Bytes ecdsa_signature_to_der(const crypto::EcdsaSignature& sig);
/// Parses the DER form back; throws std::invalid_argument when malformed.
crypto::EcdsaSignature ecdsa_signature_from_der(BytesView der);

/// Fluent builder for certificates.
class CertificateBuilder {
 public:
  CertificateBuilder& serial(std::uint64_t serial);
  CertificateBuilder& issuer(DistinguishedName dn);
  CertificateBuilder& subject_cn(std::string cn);
  CertificateBuilder& validity(SimTime not_before, SimTime not_after);
  CertificateBuilder& subject_key(const crypto::Signer& subject_signer);
  CertificateBuilder& add_dns_san(std::string name);
  CertificateBuilder& add_ip_san(net::IPv4 ip);
  /// Marks as a precertificate (adds the critical poison extension).
  CertificateBuilder& poison();
  /// Adds an arbitrary extension.
  CertificateBuilder& extension(Extension ext);

  /// Finalizes the SAN extension (if any SANs were added) and returns the
  /// TBS. The builder can keep being used afterwards.
  [[nodiscard]] TbsCertificate build_tbs() const;
  /// Builds and signs with the issuing CA's key.
  [[nodiscard]] Certificate sign(const crypto::Signer& ca_signer) const;

 private:
  TbsCertificate tbs_;
  std::vector<SanEntry> sans_;
  bool poison_ = false;
};

}  // namespace ctwatch::x509
