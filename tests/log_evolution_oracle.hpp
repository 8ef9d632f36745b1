// The string-keyed Fig 1 analysis as it was first written: one row per
// log entry with its month and CA as strings, sorted by month, and the
// fingerprints deduplicated in a std::set. Slow and memory-hungry, but
// obviously right, so it is kept here as the oracle LogEvolutionStudy::run
// is compared against field by field.
#pragma once

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "ctwatch/core/log_evolution.hpp"

namespace ctwatch::core {

inline LogEvolutionReport oracle_log_evolution(sim::Ecosystem& ecosystem,
                                               const std::string& focus_month) {
  LogEvolutionReport report;
  report.focus_month = focus_month;

  // Issuer CN -> CA name.
  std::map<std::string, std::string> issuer_to_ca;
  for (const sim::CaSpec& spec : sim::Ecosystem::standard_cas()) {
    issuer_to_ca[spec.issuer_cn] = spec.name;
  }

  // Gather (month, ca, fingerprint, log) across all logs.
  struct Row {
    std::string month;
    std::string ca;
    crypto::Digest fingerprint;
    const std::string* log;
  };
  std::vector<Row> rows;
  std::set<std::string> months_seen;
  for (ct::CtLog* log : ecosystem.all_logs()) {
    report.overload_rejections[log->name()] = log->overload_rejections();
    for (const ct::LogEntry& entry : log->entries()) {
      Row row;
      row.month = month_key(SimTime{static_cast<std::int64_t>(entry.timestamp_ms / 1000)});
      const auto it = issuer_to_ca.find(entry.issuer_cn);
      row.ca = it != issuer_to_ca.end() ? it->second : "other";
      row.fingerprint = entry.fingerprint;
      row.log = &log->name();
      months_seen.insert(row.month);
      rows.push_back(std::move(row));
    }
  }
  report.months.assign(months_seen.begin(), months_seen.end());
  std::map<std::string, std::size_t> month_index;
  for (std::size_t i = 0; i < report.months.size(); ++i) month_index[report.months[i]] = i;

  // Fig. 1a/1b: unique certificates per (month, CA).
  std::map<std::string, std::vector<std::uint64_t>> monthly_unique;
  std::set<std::array<std::uint8_t, 32>> seen_fingerprints;
  std::uint64_t total_unique = 0;
  std::map<std::string, std::uint64_t> unique_per_ca;
  // Sort rows chronologically so "first sighting" attribution is stable.
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.month < b.month; });
  for (const Row& row : rows) {
    std::array<std::uint8_t, 32> key{};
    std::copy(row.fingerprint.begin(), row.fingerprint.end(), key.begin());
    const bool fresh = seen_fingerprints.insert(key).second;

    // Fig. 1c: log utilization counts every submission.
    if (row.month == focus_month) ++report.ca_log_matrix[row.ca][*row.log];

    if (!fresh) continue;
    ++total_unique;
    ++unique_per_ca[row.ca];
    auto& series = monthly_unique[row.ca];
    if (series.empty()) series.resize(report.months.size(), 0);
    ++series[month_index[row.month]];
  }

  // Cumulative sums and monthly shares.
  std::vector<std::uint64_t> monthly_totals(report.months.size(), 0);
  for (const auto& [ca, series] : monthly_unique) {
    for (std::size_t i = 0; i < series.size(); ++i) monthly_totals[i] += series[i];
  }
  for (const auto& [ca, series] : monthly_unique) {
    std::vector<std::uint64_t> cumulative(series.size(), 0);
    std::uint64_t acc = 0;
    std::vector<double> share(series.size(), 0);
    for (std::size_t i = 0; i < series.size(); ++i) {
      acc += series[i];
      cumulative[i] = acc;
      share[i] = monthly_totals[i] > 0
                     ? static_cast<double>(series[i]) / static_cast<double>(monthly_totals[i])
                     : 0.0;
    }
    report.cumulative_by_ca[ca] = std::move(cumulative);
    report.monthly_share_by_ca[ca] = std::move(share);
  }

  // Top-5 share.
  std::vector<std::uint64_t> counts;
  counts.reserve(unique_per_ca.size());
  for (const auto& [ca, n] : unique_per_ca) counts.push_back(n);
  std::sort(counts.rbegin(), counts.rend());
  std::uint64_t top5 = 0;
  for (std::size_t i = 0; i < std::min<std::size_t>(5, counts.size()); ++i) top5 += counts[i];
  report.top5_share = total_unique > 0
                          ? static_cast<double>(top5) / static_cast<double>(total_unique)
                          : 0.0;

  // Matrix sparsity + Let's Encrypt load distribution.
  const auto log_count = sim::Ecosystem::standard_logs().size();
  const auto ca_count = sim::Ecosystem::standard_cas().size();
  std::size_t filled = 0;
  for (const auto& [ca, row] : report.ca_log_matrix) {
    for (const auto& [log, n] : row) {
      if (n > 0) ++filled;
    }
  }
  report.matrix_sparsity =
      1.0 - static_cast<double>(filled) / static_cast<double>(log_count * ca_count);
  if (const auto it = report.ca_log_matrix.find("Let's Encrypt");
      it != report.ca_log_matrix.end()) {
    std::uint64_t le_total = 0;
    for (const auto& [log, n] : it->second) le_total += n;
    for (const auto& [log, n] : it->second) {
      report.le_log_share[log] =
          le_total > 0 ? static_cast<double>(n) / static_cast<double>(le_total) : 0.0;
    }
  }
  return report;
}

}  // namespace ctwatch::core
