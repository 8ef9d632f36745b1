// Authoritative servers, the query log, and a recursive resolver.
//
// The honeypot's central observable is the query log of its *own*
// authoritative server ("to closely monitor lookup activities, we control
// the authoritative name server for these DNS domain names"). Every query
// carries attribution metadata: time, resolver address/AS, and optionally
// an EDNS Client Subnet (RFC 7871) revealing the stub network behind a
// public resolver — the paper uses ECS to unmask clients behind Google DNS.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "ctwatch/chaos/fault.hpp"
#include "ctwatch/dns/zone.hpp"
#include "ctwatch/net/autonomous_system.hpp"
#include "ctwatch/util/time.hpp"

namespace ctwatch::dns {

struct DnsQuestion {
  DnsName qname;
  RrType qtype = RrType::A;
};

/// Who asked, from where, and with what ECS attachment.
struct QueryContext {
  SimTime time;
  net::IPv4 resolver_addr;
  net::Asn resolver_asn = 0;
  std::string resolver_label;              ///< e.g. "google-public-dns"
  std::optional<net::Prefix4> client_subnet;  ///< EDNS Client Subnet, /24
};

struct QueryLogEntry {
  DnsQuestion question;
  QueryContext context;
  bool answered = false;
};

/// What the wire did to one authoritative query. `timed_out` means the
/// packet (or its reply) never arrived — the server logs nothing, because
/// from its vantage point nothing happened. `servfail` is a failure the
/// server itself produced, so the query *is* logged (unanswered).
enum class ServerStatus : std::uint8_t { ok, timed_out, servfail };

/// An authoritative server over a set of zones, with a full query log.
/// Zone lookup is indexed by origin (ancestor walk), so serving tens of
/// thousands of zones stays O(labels) per query. The walk probes each
/// ancestor as a suffix view of the query name's text (NameKey), built
/// once; the origin map's std::less<> compares views without copying.
class AuthoritativeServer {
 public:
  AuthoritativeServer() = default;
  // Movable for setup-time composition only (the log mutex is not moved,
  // the target gets a fresh one); never move a server with queries in
  // flight.
  AuthoritativeServer(AuthoritativeServer&& other) noexcept
      : zones_(std::move(other.zones_)),
        log_(std::move(other.log_)),
        logging_(other.logging_),
        chaos_(other.chaos_),
        chaos_point_(std::move(other.chaos_point_)) {}
  AuthoritativeServer& operator=(AuthoritativeServer&& other) noexcept {
    zones_ = std::move(other.zones_);
    log_ = std::move(other.log_);
    logging_ = other.logging_;
    chaos_ = other.chaos_;
    chaos_point_ = std::move(other.chaos_point_);
    return *this;
  }

  /// Adds a zone; overlapping origins resolve to the longest match.
  /// Re-adding an origin replaces the zone.
  Zone& add_zone(DnsName origin);

  [[nodiscard]] Zone* find_zone(const DnsName& name);
  [[nodiscard]] const Zone* find_zone(const DnsName& name) const;
  [[nodiscard]] const Zone* find_zone(const NameKey& key) const;
  [[nodiscard]] std::size_t zone_count() const { return zones_.size(); }

  /// Answers a query and appends it to the log (when logging is enabled).
  std::vector<ResourceRecord> query(const DnsQuestion& question, const QueryContext& context);

  /// As above, but reports chaos-injected faults through `status`. With no
  /// injector attached, `status` is always `ok`.
  std::vector<ResourceRecord> query(const DnsQuestion& question, const QueryContext& context,
                                    ServerStatus& status);

  /// As above, for a caller that already walked the zones: `zone` must be
  /// find_zone(qname) (null when no zone matches). The resolver asks this
  /// way so each hop walks the zones once.
  std::vector<ResourceRecord> query(const NameKey& qname, RrType qtype, const Zone* zone,
                                    const QueryContext& context, ServerStatus& status);

  /// Attaches a fault injector; faults on `point` turn queries into
  /// timeouts or SERVFAILs. Pass nullptr to detach.
  void set_chaos(chaos::FaultInjector* injector, std::string point = "dns.auth") {
    chaos_ = injector;
    chaos_point_ = std::move(point);
  }

  /// Query logging costs memory; bulk-resolution servers turn it off. The
  /// honeypot's own server keeps it on — it is the §6 observable.
  /// Call before queries start, not concurrently with them.
  void set_logging(bool enabled) { logging_ = enabled; }
  /// The log itself is append-safe under concurrent queries (the parallel
  /// funnel resolves from many chunks at once; entries land in completion
  /// order, so a parallel run's log *order* is interleaving-dependent —
  /// order-sensitive consumers must drive the server serially). The
  /// returned reference is unguarded: read it only after in-flight
  /// queries have drained.
  [[nodiscard]] const std::vector<QueryLogEntry>& log() const { return log_; }
  /// Releases the log's memory, not just its size — long honeypot runs
  /// clear between observation windows and must actually get bytes back.
  void clear_log() {
    std::lock_guard<std::mutex> lock(log_mu_);
    std::vector<QueryLogEntry>().swap(log_);
  }
  /// Approximate heap footprint of the query log (capacity, not size —
  /// what the allocator is actually holding for it).
  [[nodiscard]] std::size_t log_bytes_approx() const {
    std::lock_guard<std::mutex> lock(log_mu_);
    return log_.capacity() * sizeof(QueryLogEntry);
  }

 private:
  std::map<std::string, std::unique_ptr<Zone>, std::less<>> zones_;  // keyed by origin text
  mutable std::mutex log_mu_;
  std::vector<QueryLogEntry> log_;
  bool logging_ = true;
  chaos::FaultInjector* chaos_ = nullptr;
  std::string chaos_point_;
};

/// The set of authoritative servers making up the simulated DNS.
class DnsUniverse {
 public:
  /// Registers a server; the universe does not own it.
  void add_server(AuthoritativeServer& server) { servers_.push_back(&server); }

  /// The server authoritative for the name (longest zone-origin match).
  [[nodiscard]] AuthoritativeServer* find_authoritative(const DnsName& name) const;

  /// A server and the zone of it that matched.
  struct Authority {
    AuthoritativeServer* server = nullptr;
    const Zone* zone = nullptr;
  };
  /// find_authoritative plus the matched zone, from one walk per server.
  [[nodiscard]] Authority find_authority(const NameKey& key) const;

 private:
  std::vector<AuthoritativeServer*> servers_;
};

enum class ResolveStatus : std::uint8_t {
  ok,               ///< answers present
  nxdomain,         ///< no such name anywhere
  no_data,          ///< name exists but not for this type
  chain_too_long,   ///< CNAME indirection exceeded the hop limit
  timed_out,        ///< a query in the chain was lost (chaos); retryable
  servfail,         ///< a server in the chain failed (chaos); retryable
};

/// A status the caller may retry — the answer is unknown, not negative.
[[nodiscard]] constexpr bool is_lossy(ResolveStatus status) {
  return status == ResolveStatus::timed_out || status == ResolveStatus::servfail;
}

struct ResolveResult {
  ResolveStatus status = ResolveStatus::nxdomain;
  std::vector<ResourceRecord> answers;  ///< final answers (qtype records)
  int cname_hops = 0;

  [[nodiscard]] std::optional<net::IPv4> first_a() const;
};

/// A recursive resolver identity (e.g. Google Public DNS, a hoster's
/// resolver). Resolution follows CNAME chains up to a hop limit — the
/// paper follows "CNAME indirection up to 10 times". Each hop builds the
/// name's text once (NameKey) and walks the zones once: the authority
/// search hands its matched zone to the query and to the no-data check.
class RecursiveResolver {
 public:
  struct Identity {
    net::IPv4 address;
    net::Asn asn = 0;
    std::string label;
    bool sends_ecs = false;  ///< attaches the stub client's /24 (RFC 7871)
  };

  RecursiveResolver(const DnsUniverse& universe, Identity identity)
      : universe_(&universe), identity_(std::move(identity)) {}

  [[nodiscard]] const Identity& identity() const { return identity_; }

  /// Attaches a fault injector to the resolver's own client path (the
  /// stub → resolver leg): faults on `point` lose or fail the whole
  /// resolution before any authoritative server is asked. Faults on the
  /// resolver → authoritative leg come from the *servers'* injectors.
  void set_chaos(chaos::FaultInjector* injector, std::string point = "dns.resolver") {
    chaos_ = injector;
    chaos_point_ = std::move(point);
  }

  /// Resolves on behalf of a stub client. When the resolver `sends_ecs`,
  /// the client's /24 is attached to upstream queries. Under chaos the
  /// result may be `timed_out` or `servfail` — unknown, not negative.
  ResolveResult resolve(const DnsName& qname, RrType qtype, SimTime when,
                        std::optional<net::IPv4> stub_client = std::nullopt,
                        int max_cname_hops = 10) const;

 private:
  const DnsUniverse* universe_;
  Identity identity_;
  chaos::FaultInjector* chaos_ = nullptr;
  std::string chaos_point_;
};

}  // namespace ctwatch::dns
