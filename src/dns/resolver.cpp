#include "ctwatch/dns/resolver.hpp"

#include "ctwatch/obs/obs.hpp"

namespace ctwatch::dns {

namespace {

struct ResolverMetrics {
  obs::Counter& queries = obs::Registry::global().counter("dns.resolver.queries");
  obs::Counter& answered = obs::Registry::global().counter("dns.resolver.answered");
  obs::Counter& nxdomain = obs::Registry::global().counter("dns.resolver.nxdomain");
  obs::Counter& no_data = obs::Registry::global().counter("dns.resolver.no_data");
  obs::Counter& chain_too_long = obs::Registry::global().counter("dns.resolver.chain_too_long");
  obs::Counter& timed_out = obs::Registry::global().counter("dns.resolver.timed_out");
  obs::Counter& servfail = obs::Registry::global().counter("dns.resolver.servfail");
  obs::Counter& auth_queries = obs::Registry::global().counter("dns.auth.queries");
  obs::Counter& auth_timed_out = obs::Registry::global().counter("dns.auth.timed_out");
  obs::Counter& auth_servfail = obs::Registry::global().counter("dns.auth.servfail");
};

/// Chaos points take virtual time in microseconds; SimTime is seconds.
std::uint64_t chaos_now_us(SimTime when) {
  return static_cast<std::uint64_t>(when.unix_seconds()) * 1'000'000ULL;
}

ResolverMetrics& resolver_metrics() {
  static ResolverMetrics metrics;
  return metrics;
}

}  // namespace

Zone& AuthoritativeServer::add_zone(DnsName origin) {
  auto zone = std::make_unique<Zone>(std::move(origin));
  auto& slot = zones_[zone->origin_text()];
  slot = std::move(zone);
  return *slot;
}

const Zone* AuthoritativeServer::find_zone(const NameKey& key) const {
  // Walk from the most specific ancestor (the name itself) towards the
  // TLD, each a suffix of the name's text; labels never contain '.'.
  std::string_view ancestor = key.text;
  for (std::size_t drop = 0; drop < key.name.label_count(); ++drop) {
    if (drop > 0) ancestor.remove_prefix(ancestor.find('.') + 1);
    const auto it = zones_.find(ancestor);
    if (it != zones_.end()) return it->second.get();
  }
  return nullptr;
}

Zone* AuthoritativeServer::find_zone(const DnsName& name) {
  return const_cast<Zone*>(find_zone(NameKey(name)));
}

const Zone* AuthoritativeServer::find_zone(const DnsName& name) const {
  return find_zone(NameKey(name));
}

std::vector<ResourceRecord> AuthoritativeServer::query(const DnsQuestion& question,
                                                       const QueryContext& context) {
  ServerStatus status = ServerStatus::ok;
  return query(question, context, status);
}

std::vector<ResourceRecord> AuthoritativeServer::query(const DnsQuestion& question,
                                                       const QueryContext& context,
                                                       ServerStatus& status) {
  const NameKey key(question.qname);
  return query(key, question.qtype, find_zone(key), context, status);
}

std::vector<ResourceRecord> AuthoritativeServer::query(const NameKey& qname, RrType qtype,
                                                       const Zone* zone,
                                                       const QueryContext& context,
                                                       ServerStatus& status) {
  status = ServerStatus::ok;
  resolver_metrics().auth_queries.inc();
  if (chaos_ != nullptr) {
    const chaos::FaultDecision fault = chaos_->evaluate(chaos_point_, chaos_now_us(context.time));
    if (fault.kind == chaos::FaultKind::timeout) {
      // The packet never arrived: the server saw nothing, so it logs
      // nothing — lossy-DNS undercounting is invisible at this vantage.
      status = ServerStatus::timed_out;
      resolver_metrics().auth_timed_out.inc();
      return {};
    }
    if (fault.kind == chaos::FaultKind::error) {
      // SERVFAIL: the query reached us, so it *is* an observable.
      status = ServerStatus::servfail;
      resolver_metrics().auth_servfail.inc();
      if (logging_) {
        std::lock_guard<std::mutex> lock(log_mu_);
        log_.push_back(QueryLogEntry{DnsQuestion{qname.name, qtype}, context, false});
      }
      return {};
    }
  }
  std::vector<ResourceRecord> answers;
  if (zone != nullptr) answers = zone->lookup(qname, qtype);
  if (logging_) {
    std::lock_guard<std::mutex> lock(log_mu_);
    log_.push_back(QueryLogEntry{DnsQuestion{qname.name, qtype}, context, !answers.empty()});
  }
  return answers;
}

AuthoritativeServer* DnsUniverse::find_authoritative(const DnsName& name) const {
  return find_authority(NameKey(name)).server;
}

DnsUniverse::Authority DnsUniverse::find_authority(const NameKey& key) const {
  Authority best;
  std::size_t best_labels = 0;
  for (AuthoritativeServer* server : servers_) {
    if (const Zone* zone = server->find_zone(key)) {
      if (zone->origin().label_count() >= best_labels) {
        // ">=" so a later-registered, equally specific server wins; zone
        // origins are unique in practice.
        best_labels = zone->origin().label_count();
        best = Authority{server, zone};
      }
    }
  }
  return best;
}

std::optional<net::IPv4> ResolveResult::first_a() const {
  for (const ResourceRecord& rr : answers) {
    if (rr.type == RrType::A) return rr.a();
  }
  return std::nullopt;
}

ResolveResult RecursiveResolver::resolve(const DnsName& qname, RrType qtype, SimTime when,
                                         std::optional<net::IPv4> stub_client,
                                         int max_cname_hops) const {
  ResolverMetrics& metrics = resolver_metrics();
  metrics.queries.inc();
  ResolveResult result;
  if (chaos_ != nullptr) {
    // The stub → resolver leg: a fault here loses the whole resolution
    // before any authoritative server is asked (nothing gets logged).
    const chaos::FaultDecision fault = chaos_->evaluate(chaos_point_, chaos_now_us(when));
    if (fault.kind == chaos::FaultKind::timeout) {
      result.status = ResolveStatus::timed_out;
      metrics.timed_out.inc();
      return result;
    }
    if (fault.kind == chaos::FaultKind::error) {
      result.status = ResolveStatus::servfail;
      metrics.servfail.inc();
      return result;
    }
  }
  QueryContext context;
  context.time = when;
  context.resolver_addr = identity_.address;
  context.resolver_asn = identity_.asn;
  context.resolver_label = identity_.label;
  if (identity_.sends_ecs && stub_client) {
    context.client_subnet = net::slash24(*stub_client);
  }

  DnsName current = qname;
  for (int hop = 0; hop <= max_cname_hops; ++hop) {
    const NameKey key(current);
    const DnsUniverse::Authority authority = universe_->find_authority(key);
    if (authority.server == nullptr) {
      result.status = ResolveStatus::nxdomain;
      metrics.nxdomain.inc();
      return result;
    }
    ServerStatus server_status = ServerStatus::ok;
    std::vector<ResourceRecord> answers =
        authority.server->query(key, qtype, authority.zone, context, server_status);
    if (server_status != ServerStatus::ok) {
      result.status = server_status == ServerStatus::timed_out ? ResolveStatus::timed_out
                                                               : ResolveStatus::servfail;
      (server_status == ServerStatus::timed_out ? metrics.timed_out : metrics.servfail).inc();
      return result;
    }
    if (answers.empty()) {
      // Distinguish "zone knows nothing" from "name exists with other data":
      // keep it simple and report no_data when any record type exists.
      const bool exists =
          authority.zone != nullptr && authority.zone->has_data_other_than(key, qtype);
      result.status = exists ? ResolveStatus::no_data : ResolveStatus::nxdomain;
      (exists ? metrics.no_data : metrics.nxdomain).inc();
      return result;
    }
    if (answers.front().type == RrType::CNAME && qtype != RrType::CNAME) {
      if (hop == max_cname_hops) {
        result.status = ResolveStatus::chain_too_long;
        result.cname_hops = hop;
        metrics.chain_too_long.inc();
        obs::log_trace("dns.resolver", "cname chain exceeded hop limit",
                       {{"qname", qname.to_string()}, {"hops", hop}});
        return result;
      }
      current = answers.front().target();
      ++result.cname_hops;
      continue;
    }
    result.status = ResolveStatus::ok;
    result.answers = std::move(answers);
    metrics.answered.inc();
    return result;
  }
  result.status = ResolveStatus::chain_too_long;
  metrics.chain_too_long.inc();
  return result;
}

}  // namespace ctwatch::dns
