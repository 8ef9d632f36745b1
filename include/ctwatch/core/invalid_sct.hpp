// §3.4: certificates with invalid embedded SCTs.
//
// Reproduces the study end to end: CAs with the four real-world issuance
// bugs (TeliaSonera stale re-issuance, GlobalSign SAN reorder, D-Trust
// extension reorder, NetLock name swap) issue certificates; validation
// over the reconstructed precertificate entry flags them; and — as the
// paper did by comparing precertificates with final certificates — a
// classifier attributes each failure to its root cause.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ctwatch/sim/ecosystem.hpp"

namespace ctwatch::core {

enum class RootCause : std::uint8_t {
  valid,              ///< SCT verifies; nothing wrong
  san_reorder,        ///< SAN entries reordered between precert and final
  extension_reorder,  ///< extension order changed
  name_mismatch,      ///< different SAN/issuer names entirely
  stale_sct,          ///< SCT belongs to a different (earlier) certificate
  unknown,
};

std::string to_string(RootCause cause);

struct InvalidSctCase {
  std::string ca;
  std::string subject;
  bool sct_valid = false;
  RootCause cause = RootCause::unknown;
};

/// Compares a final certificate against the precertificate TBS the log
/// actually signed (fetched from the log by serial; see ct::entry_tbs) and
/// classifies the divergence.
RootCause classify_divergence(const x509::Certificate& final_cert,
                              const std::optional<x509::TbsCertificate>& precert);

struct InvalidSctReport {
  std::vector<InvalidSctCase> cases;
  std::uint64_t certificates_checked = 0;
  std::uint64_t invalid = 0;
  /// Count per root cause name.
  std::map<std::string, std::uint64_t> by_cause;
  std::map<std::string, std::uint64_t> by_ca;
};

/// Options for InvalidSctStudy.
struct InvalidSctOptions {
  /// Correct certificates per buggy one (the paper: 16 invalid among tens
  /// of millions; we keep the ratio printable).
  std::size_t clean_per_bug = 25;
  std::string issue_date = "2018-03-20";
};

/// Issues a mix of correct and buggy certificates through the ecosystem
/// and validates every embedded SCT.
class InvalidSctStudy {
 public:
  using Options = InvalidSctOptions;

  explicit InvalidSctStudy(sim::Ecosystem& ecosystem, Options options = Options())
      : ecosystem_(&ecosystem), options_(options) {}

  [[nodiscard]] InvalidSctReport run();

  static std::string render(const InvalidSctReport& report);

 private:
  sim::Ecosystem* ecosystem_;
  Options options_;
};

}  // namespace ctwatch::core
