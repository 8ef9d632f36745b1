// §2: the evolution of CT logs over time (Fig. 1a, 1b, 1c).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ctwatch/sim/ecosystem.hpp"

namespace ctwatch::core {

/// Month key "YYYY-MM" used by the evolution series.
std::string month_key(SimTime t);

struct LogEvolutionReport {
  /// Fig. 1a: cumulative unique precertificates per CA, sampled monthly.
  /// months[i] labels row i of cumulative_by_ca[ca].
  std::vector<std::string> months;
  std::map<std::string, std::vector<std::uint64_t>> cumulative_by_ca;

  /// Fig. 1b: per-month share (0..1) each CA contributes to that month's
  /// newly logged precertificates.
  std::map<std::string, std::vector<double>> monthly_share_by_ca;

  /// Fig. 1c: CA x log submission counts for one focus month.
  std::string focus_month;
  std::map<std::string, std::map<std::string, std::uint64_t>> ca_log_matrix;
  double matrix_sparsity = 0;  ///< fraction of zero cells
  /// Share of Let's Encrypt's focus-month submissions carried by each log.
  std::map<std::string, double> le_log_share;

  /// Top-5 CA share of all precertificates (the paper: 99 %).
  double top5_share = 0;
  /// Overload rejections per log (the Nimbus incident indicator).
  std::map<std::string, std::uint64_t> overload_rejections;
};

/// Analyzes the (already simulated) ecosystem's logs. Deduplicates entries
/// across logs by certificate fingerprint, so a precertificate submitted to
/// three logs counts once in Fig. 1a/1b, in the earliest month any log
/// holds it (and three times in the Fig. 1c load matrix, which measures
/// log utilization). One serial pass over the entries: months are integers
/// and CAs indices until the report is written, and the fingerprints go
/// into one flat ct::DigestIndex.
class LogEvolutionStudy {
 public:
  explicit LogEvolutionStudy(sim::Ecosystem& ecosystem) : ecosystem_(&ecosystem) {}

  [[nodiscard]] LogEvolutionReport run(const std::string& focus_month = "2018-04") const;

  /// Renders Fig. 1a as a text series (one line per CA).
  static std::string render_cumulative(const LogEvolutionReport& report);
  /// Renders the Fig. 1c matrix.
  static std::string render_matrix(const LogEvolutionReport& report);

 private:
  sim::Ecosystem* ecosystem_;
};

}  // namespace ctwatch::core
