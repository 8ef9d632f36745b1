#include "ctwatch/core/log_evolution.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>

#include "ctwatch/ct/digest_index.hpp"
#include "ctwatch/obs/obs.hpp"
#include "ctwatch/util/strings.hpp"

namespace ctwatch::core {

namespace {

/// A month as one integer, year * 12 + (month - 1): it orders like its
/// "YYYY-MM" label.
int month_number(const CivilTime& c) { return c.year * 12 + (c.month - 1); }

std::string month_label(int month) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%04d-%02d", month / 12, month % 12 + 1);
  return buf;
}

/// The month a "YYYY-MM" label names, if it is one month_label() prints.
std::optional<int> parse_month_label(const std::string& label) {
  int year = 0;
  int month = 0;
  if (std::sscanf(label.c_str(), "%d-%d", &year, &month) != 2 || month < 1 || month > 12) {
    return std::nullopt;
  }
  const int number = year * 12 + (month - 1);
  if (month_label(number) != label) return std::nullopt;
  return number;
}

}  // namespace

std::string month_key(SimTime t) { return month_label(month_number(t.civil())); }

LogEvolutionReport LogEvolutionStudy::run(const std::string& focus_month) const {
  CTWATCH_SPAN("core.log_evolution.run");
  LogEvolutionReport report;
  report.focus_month = focus_month;
  const std::optional<int> focus = parse_month_label(focus_month);

  // CA names by index. An issuer CN is looked up once per run of equal
  // CNs in a log, not once per entry.
  std::map<std::string, std::string> issuer_to_ca;
  for (const sim::CaSpec& spec : sim::Ecosystem::standard_cas()) {
    issuer_to_ca[spec.issuer_cn] = spec.name;
  }
  std::vector<std::string> ca_names;
  const auto ca_index_of = [&](const std::string& issuer_cn) {
    const auto it = issuer_to_ca.find(issuer_cn);
    const std::string name = it != issuer_to_ca.end() ? it->second : "other";
    const auto known = std::find(ca_names.begin(), ca_names.end(), name);
    if (known != ca_names.end()) return static_cast<std::size_t>(known - ca_names.begin());
    ca_names.push_back(name);
    return ca_names.size() - 1;
  };

  // Fig. 1a/1b count each certificate once, in the earliest month any log
  // holds it (in the timeline every log holds it at the same time, so
  // the order the logs are read in does not matter).
  struct Unique {
    crypto::Digest fingerprint;
    int month = 0;
    std::size_t ca = 0;
  };
  std::vector<Unique> uniques;
  ct::DigestIndex unique_index;
  const auto fingerprint_of = [&uniques](std::uint64_t i) -> const crypto::Digest& {
    return uniques[static_cast<std::size_t>(i)].fingerprint;
  };
  std::vector<int> months;  // every month any entry falls in
  std::uint64_t entries = 0;

  for (ct::CtLog* log : ecosystem_->all_logs()) {
    report.overload_rejections[log->name()] = log->overload_rejections();
    std::vector<std::uint64_t> focus_by_ca;  // Fig. 1c counts every submission
    const std::string* issuer_cn = nullptr;
    std::size_t ca = 0;
    std::uint64_t day = 0;
    int month = -1;
    for (const ct::LogEntry& entry : log->entries()) {
      if (issuer_cn == nullptr || entry.issuer_cn != *issuer_cn) {
        issuer_cn = &entry.issuer_cn;
        ca = ca_index_of(entry.issuer_cn);
      }
      if (month < 0 || entry.timestamp_ms / 86'400'000 != day) {
        day = entry.timestamp_ms / 86'400'000;
        month = month_number(SimTime{static_cast<std::int64_t>(entry.timestamp_ms / 1000)}.civil());
        if (std::find(months.begin(), months.end(), month) == months.end()) {
          months.push_back(month);
        }
      }
      if (month == focus) {
        if (focus_by_ca.size() <= ca) focus_by_ca.resize(ca + 1, 0);
        ++focus_by_ca[ca];
      }
      const std::uint64_t first =
          unique_index.insert(entry.fingerprint, uniques.size(), fingerprint_of);
      if (first == uniques.size()) {
        uniques.push_back(Unique{entry.fingerprint, month, ca});
      } else {
        uniques[static_cast<std::size_t>(first)].month =
            std::min(uniques[static_cast<std::size_t>(first)].month, month);
      }
    }
    for (std::size_t c = 0; c < focus_by_ca.size(); ++c) {
      if (focus_by_ca[c] > 0) report.ca_log_matrix[ca_names[c]][log->name()] += focus_by_ca[c];
    }
    entries += log->entries().size();
  }

  // Only the distinct months are formatted.
  std::sort(months.begin(), months.end());
  for (const int month : months) report.months.push_back(month_label(month));
  std::vector<std::vector<std::uint64_t>> series_by_ca(ca_names.size());
  for (const Unique& unique : uniques) {
    std::vector<std::uint64_t>& series = series_by_ca[unique.ca];
    if (series.empty()) series.resize(months.size(), 0);
    ++series[static_cast<std::size_t>(
        std::lower_bound(months.begin(), months.end(), unique.month) - months.begin())];
  }
  const std::uint64_t total_unique = uniques.size();
  std::map<std::string, std::vector<std::uint64_t>> monthly_unique;
  std::map<std::string, std::uint64_t> unique_per_ca;
  for (std::size_t c = 0; c < ca_names.size(); ++c) {
    if (series_by_ca[c].empty()) continue;
    unique_per_ca[ca_names[c]] =
        std::accumulate(series_by_ca[c].begin(), series_by_ca[c].end(), std::uint64_t{0});
    monthly_unique[ca_names[c]] = std::move(series_by_ca[c]);
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
  obs::log_info("core.log_evolution", "study complete",
                {{"entries", entries},
                 {"unique_certificates", total_unique},
                 {"months", report.months.size()},
                 {"top5_share", report.top5_share}});

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

std::string LogEvolutionStudy::render_cumulative(const LogEvolutionReport& report) {
  std::ostringstream out;
  out << pad_right("month", 10);
  std::vector<std::string> cas;
  for (const auto& [ca, series] : report.cumulative_by_ca) {
    cas.push_back(ca);
    out << pad_left(ca, 16);
  }
  out << "\n";
  for (std::size_t i = 0; i < report.months.size(); ++i) {
    out << pad_right(report.months[i], 10);
    for (const std::string& ca : cas) {
      out << pad_left(std::to_string(report.cumulative_by_ca.at(ca)[i]), 16);
    }
    out << "\n";
  }
  return out.str();
}

std::string LogEvolutionStudy::render_matrix(const LogEvolutionReport& report) {
  std::ostringstream out;
  // Column set: logs that appear at all in the focus month.
  std::set<std::string> logs;
  for (const auto& [ca, row] : report.ca_log_matrix) {
    for (const auto& [log, n] : row) logs.insert(log);
  }
  out << pad_right("CA \\ log", 16);
  for (const std::string& log : logs) out << pad_left(log.substr(0, 14), 16);
  out << "\n";
  for (const auto& [ca, row] : report.ca_log_matrix) {
    out << pad_right(ca.substr(0, 15), 16);
    for (const std::string& log : logs) {
      const auto it = row.find(log);
      out << pad_left(it != row.end() ? std::to_string(it->second) : ".", 16);
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace ctwatch::core
