// The string-keyed DNS lookups as first written: zones and record sets sit
// in plain std::map<std::string, ...>, every probe builds its key's text
// (name.to_string(), "*." + ancestor), every hop walks the zones three
// times, and the resolver's no-data check runs six full lookups. Slow but
// obviously right, so it is kept here as the oracle Zone::lookup,
// AuthoritativeServer::find_zone and RecursiveResolver::resolve are
// compared against. No chaos and no query log: the oracle answers only.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ctwatch/dns/resolver.hpp"

namespace ctwatch::dns::oracle {

class OracleZone {
 public:
  explicit OracleZone(DnsName origin) : origin_(std::move(origin)) {}

  [[nodiscard]] const DnsName& origin() const { return origin_; }
  void set_default_a(net::IPv4 addr) { default_a_ = addr; }
  [[nodiscard]] bool in_zone(const DnsName& name) const { return name.is_subdomain_of(origin_); }

  void add(ResourceRecord record) { records_[record.name.to_string()].push_back(std::move(record)); }

  [[nodiscard]] std::vector<ResourceRecord> lookup(const DnsName& name, RrType type) const {
    auto select = [&](const std::vector<ResourceRecord>& rrset,
                      const DnsName& owner) -> std::vector<ResourceRecord> {
      std::vector<ResourceRecord> out;
      // CNAME takes precedence: a name with a CNAME has no other data.
      for (const ResourceRecord& rr : rrset) {
        if (rr.type == RrType::CNAME) {
          ResourceRecord copy = rr;
          copy.name = owner;
          return {copy};
        }
      }
      for (const ResourceRecord& rr : rrset) {
        if (rr.type == type) {
          ResourceRecord copy = rr;
          copy.name = owner;
          out.push_back(copy);
        }
      }
      return out;
    };

    if (const auto it = records_.find(name.to_string()); it != records_.end()) {
      return select(it->second, name);
    }
    // Wildcard synthesis: try "*.<ancestor>" for each ancestor strictly
    // between the name and the origin (closest first).
    for (std::size_t drop = 1; drop < name.label_count(); ++drop) {
      const DnsName ancestor = name.parent(drop);
      if (!ancestor.is_subdomain_of(origin_)) break;
      const std::string key = "*." + ancestor.to_string();
      if (const auto it = records_.find(key); it != records_.end()) {
        return select(it->second, name);
      }
    }
    if (default_a_ && type == RrType::A && in_zone(name)) {
      return {ResourceRecord{name, RrType::A, 300, *default_a_}};
    }
    return {};
  }

 private:
  DnsName origin_;
  std::optional<net::IPv4> default_a_;
  std::map<std::string, std::vector<ResourceRecord>> records_;
};

class OracleServer {
 public:
  OracleZone& add_zone(DnsName origin) {
    auto& slot = zones_[origin.to_string()];
    slot = std::make_unique<OracleZone>(std::move(origin));
    return *slot;
  }

  [[nodiscard]] const OracleZone* find_zone(const DnsName& name) const {
    // Walk from the most specific ancestor (the name itself) towards the TLD.
    for (std::size_t drop = 0; drop < name.label_count(); ++drop) {
      const auto it = zones_.find(name.parent(drop).to_string());
      if (it != zones_.end()) return it->second.get();
    }
    return nullptr;
  }

 private:
  std::map<std::string, std::unique_ptr<OracleZone>> zones_;
};

class OracleUniverse {
 public:
  void add_server(const OracleServer& server) { servers_.push_back(&server); }

  [[nodiscard]] const OracleServer* find_authoritative(const DnsName& name) const {
    const OracleServer* best = nullptr;
    std::size_t best_labels = 0;
    for (const OracleServer* server : servers_) {
      if (const OracleZone* zone = server->find_zone(name)) {
        if (zone->origin().label_count() >= best_labels) {
          best_labels = zone->origin().label_count();
          best = server;
        }
      }
    }
    return best;
  }

 private:
  std::vector<const OracleServer*> servers_;
};

inline ResolveResult oracle_resolve(const OracleUniverse& universe, const DnsName& qname,
                                    RrType qtype, int max_cname_hops = 10) {
  ResolveResult result;
  DnsName current = qname;
  for (int hop = 0; hop <= max_cname_hops; ++hop) {
    const OracleServer* server = universe.find_authoritative(current);
    if (server == nullptr) {
      result.status = ResolveStatus::nxdomain;
      return result;
    }
    std::vector<ResourceRecord> answers;
    if (const OracleZone* zone = server->find_zone(current)) {
      answers = zone->lookup(current, qtype);
    }
    if (answers.empty()) {
      const OracleZone* zone = server->find_zone(current);
      bool exists = false;
      for (RrType probe : {RrType::A, RrType::AAAA, RrType::CNAME, RrType::TXT, RrType::MX,
                           RrType::NS, RrType::SOA}) {
        if (probe != qtype && zone != nullptr && !zone->lookup(current, probe).empty()) {
          exists = true;
          break;
        }
      }
      result.status = exists ? ResolveStatus::no_data : ResolveStatus::nxdomain;
      return result;
    }
    if (answers.front().type == RrType::CNAME && qtype != RrType::CNAME) {
      if (hop == max_cname_hops) {
        result.status = ResolveStatus::chain_too_long;
        result.cname_hops = hop;
        return result;
      }
      current = answers.front().target();
      ++result.cname_hops;
      continue;
    }
    result.status = ResolveStatus::ok;
    result.answers = answers;
    return result;
  }
  result.status = ResolveStatus::chain_too_long;
  return result;
}

}  // namespace ctwatch::dns::oracle
