#include "ctwatch/sim/ca.hpp"

#include <algorithm>
#include <stdexcept>

#include "ctwatch/x509/oids.hpp"
#include "ctwatch/x509/redaction.hpp"

namespace ctwatch::sim {

namespace {

// basicConstraints CA:FALSE — gives every certificate a second extension
// so the D-Trust extension-reordering bug has something to reorder.
x509::Extension basic_constraints_end_entity() {
  return x509::Extension{x509::oids::basic_constraints(), true, asn1::encode_sequence({})};
}

x509::Extension redaction_marker() {
  return x509::Extension{x509::redaction_marker_oid(), false, asn1::encode_null()};
}

x509::Extension ct_poison() {
  return x509::Extension{x509::oids::ct_poison(), true, asn1::encode_null()};
}

}  // namespace

std::string to_string(IssuanceBug bug) {
  switch (bug) {
    case IssuanceBug::none:
      return "none";
    case IssuanceBug::san_reorder:
      return "san-reorder";
    case IssuanceBug::extension_reorder:
      return "extension-reorder";
    case IssuanceBug::name_swap:
      return "name-swap";
    case IssuanceBug::stale_sct_reissue:
      return "stale-sct-reissue";
  }
  return "?";
}

CertificateAuthority::CertificateAuthority(std::string name, std::string issuer_cn,
                                           crypto::SignatureScheme scheme)
    : name_(std::move(name)),
      // One leaf key pair per CA, shared across its issued certificates — a
      // simulation shortcut (and, amusingly, a real measured phenomenon:
      // private key sharing in the HTTPS ecosystem).
      signer_(crypto::make_signer("ca/" + name_, scheme)),
      subject_key_(crypto::make_signer("ca-leaf/" + name_, scheme)) {
  issuer_dn_.common_name = std::move(issuer_cn);
  issuer_dn_.organization = name_;
  issuer_dn_.country = "US";
  issuer_key_hash_ = crypto::Sha256::hash(signer_->public_key());
  // What every precertificate of this CA shares (see prepare()).
  x509::TbsCertificate shared;
  shared.issuer = issuer_dn_;
  shared.key_scheme = subject_key_->scheme();
  shared.public_key = subject_key_->public_key();
  shared.extensions = {basic_constraints_end_entity(), redaction_marker(), ct_poison()};
  tbs_encoder_ = x509::TbsEncoder(std::move(shared));
}

x509::CertificateBuilder CertificateAuthority::base_builder(const IssuanceRequest& request,
                                                           std::uint64_t serial) const {
  x509::CertificateBuilder builder;
  builder.serial(serial)
      .issuer(issuer_dn_)
      .subject_cn(request.subject_cn)
      .validity(request.not_before, request.not_after)
      .subject_key(*subject_key_);
  builder.extension(basic_constraints_end_entity());
  for (const x509::SanEntry& san : request.sans) {
    if (san.kind == x509::SanEntry::Kind::dns) {
      builder.add_dns_san(san.dns_name);
    } else {
      builder.add_ip_san(san.ip);
    }
  }
  return builder;
}

IssuanceResult CertificateAuthority::issue(const IssuanceRequest& request, SimTime now) {
  PreparedIssuance prepared = prepare(request, now, next_serial());
  SubmissionOutcome outcome = submit(prepared.pre_chain, request.logs);
  IssuanceResult result;
  result.final_certificate = finalize(request, prepared, outcome.scts);
  result.precertificate = std::move(prepared.precertificate);
  result.scts = std::move(outcome.scts);
  result.failed_logs = std::move(outcome.failed_logs);
  return result;
}

PreparedIssuance CertificateAuthority::prepare(const IssuanceRequest& request, SimTime now,
                                               std::uint64_t serial) const {
  PreparedIssuance prepared;

  // Precertificate: poisoned TBS signed by the CA. With redaction the
  // precertificate (and hence the log) only sees "?" labels.
  x509::CertificateBuilder builder = base_builder(request, serial);
  if (request.redact_subdomains) builder.extension(redaction_marker());
  prepared.full_tbs = builder.build_tbs();
  x509::TbsCertificate pre_tbs =
      request.redact_subdomains ? x509::redacted_tbs(prepared.full_tbs) : prepared.full_tbs;
  pre_tbs.add_extension(ct_poison());
  // The TBS is encoded once. The CA signs it with the poison, the logs
  // sign it without (RFC 6962 §3.2; with redaction both are already
  // redacted), and wrapped with the signature it is the certificate
  // whose hash is the fingerprint.
  x509::PrecertTbsDer der = tbs_encoder_.encode_precert(pre_tbs);
  prepared.precertificate.tbs = std::move(pre_tbs);
  prepared.precertificate.signature = signer_->sign(der.tbs);
  const crypto::SignatureBlob& signature = prepared.precertificate.signature;

  // The add-pre-chain submission, once for every log, and each log's SCT.
  const bool check_chain = std::any_of(request.logs.begin(), request.logs.end(),
                                       [](const ct::CtLog* log) {
                                         return log->config().verify_submissions;
                                       });
  std::optional<bool> chain_valid;
  if (check_chain) chain_valid = crypto::verify_signature(public_key(), der.tbs, signature);
  PreChainSubmission& pre_chain = prepared.pre_chain;
  pre_chain.submission = ct::prepare_submission(
      ct::SignedEntry{ct::EntryType::precert_entry, std::move(der.log_entry), issuer_key_hash_},
      x509::encode_certificate(der.tbs, signature), issuer_dn_.common_name, now, chain_valid);
  pre_chain.speculative_scts.reserve(request.logs.size());
  for (const ct::CtLog* log : request.logs) {
    pre_chain.speculative_scts.push_back(log->speculative_sct(pre_chain.submission));
  }
  return prepared;
}

SubmissionOutcome CertificateAuthority::submit(PreChainSubmission& pre_chain,
                                               const std::vector<ct::CtLog*>& logs) {
  if (logs.size() != pre_chain.speculative_scts.size()) {
    throw std::invalid_argument("CertificateAuthority::submit: logs differ from the prepared ones");
  }
  SubmissionOutcome outcome;
  for (std::size_t i = 0; i < logs.size(); ++i) {
    ct::SubmitResult submitted =
        logs[i]->add_prepared(pre_chain.submission, std::move(pre_chain.speculative_scts[i]));
    if (submitted.status == ct::SubmitStatus::ok && submitted.sct) {
      outcome.scts.push_back(std::move(*submitted.sct));
    } else {
      outcome.failed_logs.push_back(logs[i]->name());
    }
  }
  return outcome;
}

x509::Certificate CertificateAuthority::finalize(
    const IssuanceRequest& request, const PreparedIssuance& prepared,
    const std::vector<ct::SignedCertificateTimestamp>& scts) const {
  // The full (unredacted) TBS, SCT list in. Bugs are injected here, after
  // the logs have signed — exactly where the real CAs broke.
  x509::TbsCertificate final_tbs = prepared.full_tbs;

  switch (request.bug) {
    case IssuanceBug::none:
    case IssuanceBug::stale_sct_reissue:  // handled by reissue_with_stale_scts()
      break;
    case IssuanceBug::san_reorder: {
      // GlobalSign: the SAN entry order changed in the final certificate.
      auto entries = final_tbs.san_entries();
      if (entries.size() >= 2) {
        std::rotate(entries.begin(), entries.begin() + 1, entries.end());
        for (auto& ext : final_tbs.extensions) {
          if (ext.oid == x509::oids::subject_alt_name()) {
            ext.value = x509::encode_san_value(entries);
          }
        }
      }
      break;
    }
    case IssuanceBug::extension_reorder: {
      // D-Trust: extension ordering differed between precert and final.
      if (final_tbs.extensions.size() >= 2) {
        std::swap(final_tbs.extensions[0], final_tbs.extensions[1]);
      }
      break;
    }
    case IssuanceBug::name_swap: {
      // NetLock: entirely different SAN names and issuer names.
      std::vector<x509::SanEntry> replacement{
          x509::SanEntry::dns("wrong." + request.subject_cn)};
      for (auto& ext : final_tbs.extensions) {
        if (ext.oid == x509::oids::subject_alt_name()) {
          ext.value = x509::encode_san_value(replacement);
        }
      }
      final_tbs.issuer.common_name += " Issuing CA 2";
      break;
    }
  }

  if (!scts.empty()) {
    final_tbs.add_extension(
        x509::Extension{x509::oids::ct_sct_list(), false, ct::serialize_sct_list(scts)});
  }
  x509::Certificate final_certificate;
  final_certificate.signature = signer_->sign(final_tbs.encode());
  final_certificate.tbs = std::move(final_tbs);
  return final_certificate;
}

x509::Certificate CertificateAuthority::reissue_with_stale_scts(const IssuanceResult& previous,
                                                                SimTime now) {
  // Fresh serial and shifted validity, but the *old* certificate's SCTs —
  // which were signed over the old TBS and cannot verify against this one.
  x509::TbsCertificate tbs = previous.final_certificate.tbs;
  tbs.serial = x509::serial_bytes(next_serial());
  tbs.not_before = now;
  tbs.not_after = now + (previous.final_certificate.tbs.not_after -
                         previous.final_certificate.tbs.not_before);
  x509::Certificate cert;
  cert.tbs = tbs;
  cert.signature = signer_->sign(tbs.encode());
  return cert;
}

x509::Certificate CertificateAuthority::issue_unlogged(const IssuanceRequest& request,
                                                       SimTime now) {
  (void)now;
  return base_builder(request, next_serial()).sign(*signer_);
}

}  // namespace ctwatch::sim
