#include "ctwatch/ct/index.hpp"

#include <set>

#include "ctwatch/dns/name.hpp"

namespace ctwatch::ct {

namespace {
/// The IndexedEntry both services build: names come from the logged TBS,
/// so an entry stored without its body indexes under its issuer only.
IndexedEntry make_indexed(const CtLog& log, const LogEntry& entry) {
  IndexedEntry indexed;
  indexed.log_name = log.name();
  indexed.index = entry.index;
  indexed.timestamp_ms = entry.timestamp_ms;
  indexed.issuer_cn = entry.issuer_cn;
  if (std::optional<EntryTbs> logged = entry_tbs(entry.signed_entry)) {
    indexed.subject_cn = logged->tbs.subject.common_name;
    indexed.dns_names = logged->tbs.dns_names();
    indexed.precertificate = logged->precertificate;
  }
  return indexed;
}
}  // namespace

void LogIndex::index_log(const CtLog& log) {
  for (const LogEntry& entry : log.entries()) add_entry(log, entry);
}

void LogIndex::attach(CtLog& log) {
  index_log(log);
  log.subscribe(
      [this](const CtLog& source, const LogEntry& entry) { add_entry(source, entry); });
}

void LogIndex::add_entry(const CtLog& log, const LogEntry& entry) {
  IndexedEntry indexed = make_indexed(log, entry);
  const std::size_t slot = entries_.size();
  std::set<std::string> registrables;  // one hit per certificate, not per SAN
  for (const std::string& name : indexed.dns_names) {
    by_name_[name].push_back(slot);
    if (const auto split = psl_->split(name)) {
      registrables.insert(split->registrable_domain);
    }
  }
  for (const std::string& registrable : registrables) {
    by_registrable_[registrable].push_back(slot);
  }
  by_issuer_[indexed.issuer_cn].push_back(slot);
  entries_.push_back(std::move(indexed));
}

namespace {
std::vector<IndexedEntry> collect(const std::vector<IndexedEntry>& entries,
                                  const std::map<std::string, std::vector<std::size_t>>& index,
                                  const std::string& key) {
  std::vector<IndexedEntry> out;
  const auto it = index.find(key);
  if (it == index.end()) return out;
  out.reserve(it->second.size());
  for (const std::size_t slot : it->second) out.push_back(entries[slot]);
  return out;
}
}  // namespace

std::vector<IndexedEntry> LogIndex::by_name(const std::string& fqdn) const {
  return collect(entries_, by_name_, fqdn);
}

std::vector<IndexedEntry> LogIndex::by_registrable_domain(const std::string& domain) const {
  return collect(entries_, by_registrable_, domain);
}

std::vector<IndexedEntry> LogIndex::by_issuer(const std::string& issuer_cn) const {
  return collect(entries_, by_issuer_, issuer_cn);
}

void DomainWatcher::attach(CtLog& log) {
  log.subscribe([this](const CtLog& source, const LogEntry& entry) {
    const IndexedEntry indexed = make_indexed(source, entry);
    for (const std::string& name : indexed.dns_names) {
      const auto split = psl_->split(name);
      if (!split) continue;
      const auto it = watches_.find(split->registrable_domain);
      if (it == watches_.end()) continue;
      for (const Callback& callback : it->second) {
        ++notifications_;
        callback(split->registrable_domain, indexed);
      }
    }
  });
}

void DomainWatcher::watch(const std::string& registrable_domain, Callback callback) {
  watches_[registrable_domain].push_back(std::move(callback));
}

}  // namespace ctwatch::ct
