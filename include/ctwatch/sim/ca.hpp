// Certificate authorities for the simulated ecosystem.
//
// Implements the real RFC 6962 embedding flow: build a poisoned
// precertificate, submit it to the CA's chosen logs (add-pre-chain),
// collect SCTs, then issue the final certificate with the SCT-list
// extension and the poison removed.
//
// The §3.4 study is driven by the `IssuanceBug` knob, which reproduces the
// four real-world CA failures the paper disclosed:
//   * `san_reorder`       — GlobalSign: SANs with both DNS names and IP
//                           addresses changed order in the final cert.
//   * `extension_reorder` — D-Trust: X.509 extension ordering differed
//                           between precertificate and final certificate.
//   * `name_swap`         — NetLock: final certificate carried entirely
//                           different SAN names and issuer.
//   * `stale_sct_reissue` — TeliaSonera: a re-issued certificate embedded
//                           the SCT of the earlier certificate.
//
// One issuance is four steps, and issue() is exactly their composition:
//   1. next_serial()  — serial: the only CA state an issuance consumes;
//   2. prepare()      — pure: builds the precertificate, encodes its TBS
//                       once (the CA signs it, the log entry and the
//                       fingerprint are spliced from it), prepares its log
//                       submission once (entry, fingerprint, leaf hash,
//                       SCT signing input) and each target log's
//                       speculative SCT;
//   3. submit()       — serial: offers the prepared precertificate to each
//                       log in order (capacity, dedup, Merkle append);
//   4. finalize()     — pure: the final certificate with the SCT list.
// Steps 2 and 4 read only the CA's and the logs' keys, so a batch of
// issuances may prepare on any threads; determinism only requires that
// serials are drawn and submissions integrated in one fixed order. The
// timeline (timeline.hpp) runs step 2 in parallel and skips step 4.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ctwatch/ct/log.hpp"
#include "ctwatch/x509/certificate.hpp"

namespace ctwatch::sim {

enum class IssuanceBug : std::uint8_t {
  none,
  san_reorder,
  extension_reorder,
  name_swap,
  stale_sct_reissue,
};

std::string to_string(IssuanceBug bug);

struct IssuanceRequest {
  std::string subject_cn;               ///< usually the first DNS name
  std::vector<x509::SanEntry> sans;     ///< order is preserved into the precert
  SimTime not_before;
  SimTime not_after;
  std::vector<ct::CtLog*> logs;         ///< logs to obtain SCTs from
  IssuanceBug bug = IssuanceBug::none;
  /// CT label redaction (the countermeasure of x509/redaction.hpp): the
  /// logged precertificate carries "?.example.com"-style SANs; the final
  /// certificate keeps the real names plus the redaction marker.
  bool redact_subdomains = false;
};

/// The add-pre-chain half of a prepared issuance: all step 3 consumes.
struct PreChainSubmission {
  ct::PreparedSubmission submission;  ///< the precertificate as every log sees it
  /// Per request.logs entry, the SCT that log issues if it accepts the
  /// precertificate as a new entry; discarded when it does not.
  std::vector<ct::SignedCertificateTimestamp> speculative_scts;
};

/// One issuance after step 2 (see file comment).
struct PreparedIssuance {
  x509::TbsCertificate full_tbs;  ///< unredacted, unpoisoned: finalize() builds on it
  x509::Certificate precertificate;
  PreChainSubmission pre_chain;
};

/// The logs' answers to one precertificate (step 3).
struct SubmissionOutcome {
  std::vector<ct::SignedCertificateTimestamp> scts;  ///< accepted, in log order
  /// Logs that rejected the pre-chain submission (e.g. overloaded).
  std::vector<std::string> failed_logs;
};

struct IssuanceResult {
  x509::Certificate precertificate;
  x509::Certificate final_certificate;
  std::vector<ct::SignedCertificateTimestamp> scts;  ///< as embedded
  /// Logs that rejected the pre-chain submission (e.g. overloaded).
  std::vector<std::string> failed_logs;
};

class CertificateAuthority {
 public:
  /// `scheme` picks real ECDSA or the bulk simulation signer; keys are
  /// derived from the CA name for reproducibility.
  CertificateAuthority(std::string name, std::string issuer_cn,
                       crypto::SignatureScheme scheme);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const x509::DistinguishedName& issuer_dn() const { return issuer_dn_; }
  [[nodiscard]] Bytes public_key() const { return signer_->public_key(); }
  [[nodiscard]] const crypto::Signer& signer() const { return *signer_; }

  /// Full CT issuance flow: the four steps of the file comment in order.
  /// With `bug != none` the final certificate is deliberately
  /// inconsistent with what the logs signed.
  IssuanceResult issue(const IssuanceRequest& request, SimTime now);

  /// Step 1: assigns the next serial number (certificates_issued() + 1).
  std::uint64_t next_serial() { return ++serial_counter_; }
  /// Step 2 (pure; safe to run concurrently with other prepare calls).
  [[nodiscard]] PreparedIssuance prepare(const IssuanceRequest& request, SimTime now,
                                         std::uint64_t serial) const;
  /// Step 3 (serial): submits to `logs`, which must be the request's logs
  /// the issuance was prepared for, in the same order. Consumes the
  /// speculative SCTs.
  static SubmissionOutcome submit(PreChainSubmission& pre_chain,
                                  const std::vector<ct::CtLog*>& logs);
  /// Step 4 (pure): the final certificate embedding `scts`, with the
  /// request's bug injected after the logs have signed.
  [[nodiscard]] x509::Certificate finalize(
      const IssuanceRequest& request, const PreparedIssuance& prepared,
      const std::vector<ct::SignedCertificateTimestamp>& scts) const;

  /// TeliaSonera reproduction: issues a *new* certificate (fresh serial,
  /// shifted validity) that wrongly embeds the SCTs of `previous`.
  x509::Certificate reissue_with_stale_scts(const IssuanceResult& previous, SimTime now);

  /// Issues a plain certificate without any CT involvement (pre-CT era or
  /// deliberately unlogged).
  x509::Certificate issue_unlogged(const IssuanceRequest& request, SimTime now);

  [[nodiscard]] std::uint64_t certificates_issued() const { return serial_counter_; }

 private:
  [[nodiscard]] x509::CertificateBuilder base_builder(const IssuanceRequest& request,
                                                      std::uint64_t serial) const;

  std::string name_;
  x509::DistinguishedName issuer_dn_;
  std::unique_ptr<crypto::Signer> signer_;
  std::unique_ptr<crypto::Signer> subject_key_;  ///< shared leaf key (simulation)
  crypto::Digest issuer_key_hash_{};  ///< of signer_'s public key: precert entries carry it
  x509::TbsEncoder tbs_encoder_;      ///< the DER every precertificate TBS shares
  std::uint64_t serial_counter_ = 0;
};

}  // namespace ctwatch::sim
