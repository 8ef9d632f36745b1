#include "ctwatch/core/invalid_sct.hpp"

#include <algorithm>
#include <sstream>

#include "ctwatch/tls/connection.hpp"
#include "ctwatch/util/strings.hpp"
#include "ctwatch/x509/oids.hpp"

namespace ctwatch::core {

std::string to_string(RootCause cause) {
  switch (cause) {
    case RootCause::valid:
      return "valid";
    case RootCause::san_reorder:
      return "san-reorder (GlobalSign class)";
    case RootCause::extension_reorder:
      return "extension-reorder (D-Trust class)";
    case RootCause::name_mismatch:
      return "name-mismatch (NetLock class)";
    case RootCause::stale_sct:
      return "stale-sct-reissue (TeliaSonera class)";
    case RootCause::unknown:
      return "unknown";
  }
  return "?";
}

RootCause classify_divergence(const x509::Certificate& final_cert,
                              const std::optional<x509::TbsCertificate>& precert) {
  if (!precert) return RootCause::stale_sct;  // no precert with this serial was ever logged
  const x509::TbsCertificate& pre = *precert;
  const x509::TbsCertificate& fin = final_cert.tbs;

  if (pre.serial != fin.serial) return RootCause::stale_sct;

  // Names: compare SAN multisets and issuer.
  auto san_names = [](const x509::TbsCertificate& tbs) {
    std::vector<std::string> out;
    for (const auto& entry : tbs.san_entries()) {
      out.push_back(entry.kind == x509::SanEntry::Kind::dns ? entry.dns_name
                                                            : entry.ip.to_string());
    }
    return out;
  };
  std::vector<std::string> pre_sans = san_names(pre);
  std::vector<std::string> fin_sans = san_names(fin);
  const bool order_differs = pre_sans != fin_sans;
  std::vector<std::string> pre_sorted = pre_sans;
  std::vector<std::string> fin_sorted = fin_sans;
  std::sort(pre_sorted.begin(), pre_sorted.end());
  std::sort(fin_sorted.begin(), fin_sorted.end());
  if (pre_sorted != fin_sorted || pre.issuer != fin.issuer) return RootCause::name_mismatch;
  if (order_differs) return RootCause::san_reorder;

  // Extension ordering (poison/SCT-list stripped on both sides).
  auto ext_oids = [](const x509::TbsCertificate& tbs) {
    std::vector<std::string> out;
    for (const auto& ext : tbs.extensions) {
      if (ext.oid == x509::oids::ct_poison() || ext.oid == x509::oids::ct_sct_list()) continue;
      out.push_back(ext.oid.to_string());
    }
    return out;
  };
  std::vector<std::string> pre_exts = ext_oids(pre);
  std::vector<std::string> fin_exts = ext_oids(fin);
  if (pre_exts != fin_exts) {
    std::vector<std::string> a = pre_exts;
    std::vector<std::string> b = fin_exts;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    return a == b ? RootCause::extension_reorder : RootCause::unknown;
  }
  return RootCause::unknown;
}

namespace {

/// Finds the logged precertificate TBS with the given serial in any of the
/// CA's logs (requires stored bodies). Serial numbers are only unique per
/// issuer, and shared logs contain many issuers, so the issuer organization
/// must match too (the organization survives even the NetLock-style issuer
/// CN swap).
std::optional<x509::TbsCertificate> find_precert(sim::Ecosystem& ecosystem,
                                                 const std::string& ca_name,
                                                 const x509::Certificate& final_cert) {
  for (ct::CtLog* log : ecosystem.logs_of(ca_name)) {
    for (const ct::LogEntry& entry : log->entries()) {
      if (entry.signed_entry.type != ct::EntryType::precert_entry) continue;
      std::optional<ct::EntryTbs> logged = ct::entry_tbs(entry.signed_entry);
      if (logged && logged->tbs.serial == final_cert.tbs.serial &&
          logged->tbs.issuer.organization == final_cert.tbs.issuer.organization) {
        return std::move(logged->tbs);
      }
    }
  }
  return std::nullopt;
}

}  // namespace

InvalidSctReport InvalidSctStudy::run() {
  InvalidSctReport report;
  const SimTime when = SimTime::parse(options_.issue_date);

  struct BugPlan {
    const char* ca;
    sim::IssuanceBug bug;
    bool with_ip_san;
  };
  // One incident per CA, matching §3.4's attribution.
  const std::vector<BugPlan> bugs = {
      {"GlobalSign", sim::IssuanceBug::san_reorder, true},
      {"D-TRUST", sim::IssuanceBug::extension_reorder, false},
      {"NetLock", sim::IssuanceBug::name_swap, false},
      {"TeliaSonera", sim::IssuanceBug::stale_sct_reissue, false},
  };

  std::vector<std::pair<std::string, x509::Certificate>> to_check;  // (ca, final cert)

  std::uint64_t counter = 0;
  for (const BugPlan& plan : bugs) {
    sim::CertificateAuthority& ca = ecosystem_->ca(plan.ca);
    const auto logs = ecosystem_->logs_of(plan.ca);

    auto make_request = [&](const std::string& cn) {
      sim::IssuanceRequest request;
      request.subject_cn = cn;
      request.sans = {x509::SanEntry::dns(cn)};
      if (plan.with_ip_san) {
        // The GlobalSign incident involved SANs with both DNS names and IP
        // addresses whose order changed.
        request.sans.push_back(x509::SanEntry::address(net::IPv4(192, 0, 2, 7)));
        request.sans.push_back(x509::SanEntry::dns("alt-" + cn));
      }
      request.not_before = when;
      request.not_after = when + 365 * 86400;
      request.logs = logs;
      return request;
    };

    // Clean issuances.
    for (std::size_t i = 0; i < options_.clean_per_bug; ++i) {
      auto request = make_request("ok-" + std::to_string(++counter) + ".example.net");
      to_check.emplace_back(plan.ca, ca.issue(request, when).final_certificate);
    }
    // The buggy one.
    auto request = make_request("bug-" + std::to_string(++counter) + ".example.net");
    request.bug = plan.bug;
    if (plan.bug == sim::IssuanceBug::stale_sct_reissue) {
      request.bug = sim::IssuanceBug::none;
      const sim::IssuanceResult first = ca.issue(request, when);
      to_check.emplace_back(plan.ca, ca.reissue_with_stale_scts(first, when + 7 * 86400));
    } else {
      to_check.emplace_back(plan.ca, ca.issue(request, when).final_certificate);
    }
  }

  for (const auto& [ca_name, cert] : to_check) {
    ++report.certificates_checked;
    const auto scts = tls::embedded_scts(cert);
    const Bytes ca_key = ecosystem_->ca(ca_name).public_key();
    const ct::SignedEntry entry = ct::make_precert_entry(cert, ca_key);
    bool all_valid = !scts.empty();
    for (const auto& sct : scts) {
      const ct::LogListEntry* log = ecosystem_->log_list().find(sct.log_id);
      if (log == nullptr || !ct::verify_sct(sct, entry, log->public_key)) all_valid = false;
    }
    if (all_valid) continue;

    ++report.invalid;
    InvalidSctCase finding;
    finding.ca = ca_name;
    finding.subject = cert.tbs.subject.common_name;
    finding.sct_valid = false;
    finding.cause = classify_divergence(cert, find_precert(*ecosystem_, ca_name, cert));
    ++report.by_cause[to_string(finding.cause)];
    ++report.by_ca[ca_name];
    report.cases.push_back(std::move(finding));
  }
  return report;
}

std::string InvalidSctStudy::render(const InvalidSctReport& report) {
  std::ostringstream out;
  out << "certificates checked: " << report.certificates_checked
      << ", with invalid embedded SCTs: " << report.invalid << "\n";
  out << "by CA:\n";
  for (const auto& [ca, n] : report.by_ca) {
    out << "  " << pad_right(ca, 16) << n << "\n";
  }
  out << "by root cause (from precert/final comparison):\n";
  for (const auto& [cause, n] : report.by_cause) {
    out << "  " << pad_right(cause, 40) << n << "\n";
  }
  return out.str();
}

}  // namespace ctwatch::core
