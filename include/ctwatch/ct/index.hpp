// Search and notification services over CT logs.
//
// Two facilities the paper's ecosystem discussion references:
//
//  * `LogIndex` — a crt.sh-style queryable index across logs: look up
//    certificates by exact DNS name, by registrable domain, or by issuer
//    CN. (The paper's ref. [2] recommends querying crt.sh/censys.io when
//    targeting single domains; §5 uses bulk search over names.)
//
//  * `DomainWatcher` — a Facebook/CertSpotter-style notification service
//    (the paper's refs. [12], [23]): operators register their registrable
//    domains and get called back the moment a certificate for any name
//    under them is logged — including lookalike detection hooks.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ctwatch/ct/log.hpp"
#include "ctwatch/dns/psl.hpp"

namespace ctwatch::ct {

/// A lightweight reference to an indexed log entry.
struct IndexedEntry {
  std::string log_name;
  std::uint64_t index = 0;
  std::uint64_t timestamp_ms = 0;
  std::string subject_cn;
  std::string issuer_cn;
  std::vector<std::string> dns_names;
  bool precertificate = false;
};

class LogIndex {
 public:
  explicit LogIndex(const dns::PublicSuffixList& psl) : psl_(&psl) {}

  /// Indexes a log's existing entries. Names come from the stored bodies:
  /// a store_bodies=false log indexes by issuer only.
  void index_log(const CtLog& log);
  /// Live indexing: subscribes to the log and indexes future entries too.
  void attach(CtLog& log);

  /// Certificates carrying exactly this DNS name.
  [[nodiscard]] std::vector<IndexedEntry> by_name(const std::string& fqdn) const;
  /// Certificates carrying any name under this registrable domain
  /// (the crt.sh "%.example.com" query).
  [[nodiscard]] std::vector<IndexedEntry> by_registrable_domain(
      const std::string& domain) const;
  /// Certificates by issuer CN.
  [[nodiscard]] std::vector<IndexedEntry> by_issuer(const std::string& issuer_cn) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  void add_entry(const CtLog& log, const LogEntry& entry);

  const dns::PublicSuffixList* psl_;
  std::vector<IndexedEntry> entries_;
  std::map<std::string, std::vector<std::size_t>> by_name_;
  std::map<std::string, std::vector<std::size_t>> by_registrable_;
  std::map<std::string, std::vector<std::size_t>> by_issuer_;
};

/// Notification service: register registrable domains, receive a callback
/// for every newly logged certificate naming something under them.
class DomainWatcher {
 public:
  using Callback = std::function<void(const std::string& watched_domain,
                                      const IndexedEntry& entry)>;

  explicit DomainWatcher(const dns::PublicSuffixList& psl) : psl_(&psl) {}

  /// Follows a log's new entries.
  void attach(CtLog& log);
  /// Watches a registrable domain ("example.org").
  void watch(const std::string& registrable_domain, Callback callback);

  [[nodiscard]] std::uint64_t notifications_sent() const { return notifications_; }

 private:
  const dns::PublicSuffixList* psl_;
  std::map<std::string, std::vector<Callback>> watches_;
  std::uint64_t notifications_ = 0;
};

}  // namespace ctwatch::ct
