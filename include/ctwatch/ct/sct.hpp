// Signed Certificate Timestamps and Signed Tree Heads (RFC 6962).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "ctwatch/crypto/signature.hpp"
#include "ctwatch/x509/certificate.hpp"

namespace ctwatch::ct {

using LogId = std::array<std::uint8_t, 32>;  ///< SHA-256 of the log's public key

enum class EntryType : std::uint16_t {
  x509_entry = 0,     ///< a final certificate
  precert_entry = 1,  ///< a precertificate (issuer key hash + TBS)
};

/// The per-entry payload an SCT's signature covers.
struct SignedEntry {
  EntryType type = EntryType::x509_entry;
  /// x509_entry: the full certificate DER. precert_entry: the defanged TBS.
  Bytes data;
  /// precert_entry only: SHA-256 of the issuing CA's public key.
  crypto::Digest issuer_key_hash{};
};

/// Builds the SignedEntry for a final certificate.
SignedEntry make_x509_entry(const x509::Certificate& cert);
/// Builds the SignedEntry for a precertificate (poison/SCT-list stripped
/// TBS + issuer key hash). Also used to *reconstruct* what a log signed
/// from a final certificate when validating embedded SCTs.
SignedEntry make_precert_entry(const x509::Certificate& cert, BytesView issuer_public_key);

/// The TBS a SignedEntry carries, as a log reader sees it.
struct EntryTbs {
  x509::TbsCertificate tbs;     ///< precert entries: poison/SCT-list already stripped
  bool precertificate = false;  ///< from the entry type
};
/// The inverse of make_x509_entry / make_precert_entry: decodes the
/// certificate (x509_entry) or the defanged TBS (precert_entry). Entries
/// stored without their body yield nullopt. Throws on malformed DER.
std::optional<EntryTbs> entry_tbs(const SignedEntry& entry);

/// A Signed Certificate Timestamp: the log's inclusion promise.
struct SignedCertificateTimestamp {
  std::uint8_t version = 0;  ///< v1
  LogId log_id{};
  std::uint64_t timestamp_ms = 0;  ///< milliseconds since the Unix epoch
  Bytes extensions;
  crypto::SignatureBlob signature;

  /// TLS-style serialization (used inside the X.509 SCT-list extension and
  /// the TLS SCT extension).
  [[nodiscard]] Bytes serialize() const;
  static SignedCertificateTimestamp deserialize(BytesView data);

  friend bool operator==(const SignedCertificateTimestamp&,
                         const SignedCertificateTimestamp&) = default;
};

/// The exact byte string an SCT signature covers (RFC 6962 §3.2
/// digitally-signed struct).
Bytes sct_signing_input(const SignedCertificateTimestamp& sct, const SignedEntry& entry);

/// Issues an SCT over `entry` (v1, no extensions): the one SCT signing
/// path every log core uses. `log_id` is the signer's key_id(), which each
/// log derives once.
SignedCertificateTimestamp sign_sct(const crypto::Signer& signer, const LogId& log_id,
                                    std::uint64_t timestamp_ms, const SignedEntry& entry);
/// The same over a prebuilt `signing_input`: sct_signing_input() of a v1
/// SCT at `timestamp_ms` without extensions. Those bytes name no log, so
/// one build serves every log a submission goes to.
SignedCertificateTimestamp sign_sct(const crypto::Signer& signer, const LogId& log_id,
                                    std::uint64_t timestamp_ms, BytesView signing_input);

/// Verifies an SCT over an entry with the issuing log's public key bytes.
bool verify_sct(const SignedCertificateTimestamp& sct, const SignedEntry& entry,
                BytesView log_public_key);

/// Serializes a list of SCTs as a SignedCertificateTimestampList.
Bytes serialize_sct_list(const std::vector<SignedCertificateTimestamp>& scts);
/// Parses a SignedCertificateTimestampList; throws on malformed input.
std::vector<SignedCertificateTimestamp> parse_sct_list(BytesView data);

/// A Signed Tree Head.
struct SignedTreeHead {
  std::uint64_t tree_size = 0;
  std::uint64_t timestamp_ms = 0;
  crypto::Digest root_hash{};
  crypto::SignatureBlob signature;

  friend bool operator==(const SignedTreeHead&, const SignedTreeHead&) = default;
};

/// The byte string an STH signature covers (RFC 6962 §3.5 TreeHeadSignature).
Bytes sth_signing_input(const SignedTreeHead& sth);
/// Signs a tree head: the one STH signing path every log core uses.
SignedTreeHead sign_sth(const crypto::Signer& signer, std::uint64_t tree_size,
                        std::uint64_t timestamp_ms, const crypto::Digest& root_hash);
bool verify_sth(const SignedTreeHead& sth, BytesView log_public_key);

}  // namespace ctwatch::ct
