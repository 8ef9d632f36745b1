// Authoritative DNS zones.
//
// Beyond plain record storage, zones model the two behaviours §4.3's
// verification methodology must contend with:
//   * wildcard records ("*.example.com"), and
//   * catch-all zones that answer *every* name with a default A record —
//     exactly what the paper's pseudo-random control probes are designed to
//     detect and exclude.
//
// Lookups never build a string per probe. A NameKey carries the name's
// dotted text, built once; every ancestor of the name is a suffix view of
// that text, and record sets and zones sit in std::map<..., std::less<>>
// so a view probes them directly. Wildcard record sets are keyed by the
// text below their "*" label, so "*.<ancestor>" is probed as <ancestor>.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ctwatch/dns/records.hpp"

namespace ctwatch::dns {

/// A name plus its dotted text, built once per lookup (one resolution
/// hop): the zone and server walks probe suffix views of `text`. `name`
/// must outlive the key.
struct NameKey {
  explicit NameKey(const DnsName& n) : name(n), text(n.to_string()) {}

  const DnsName& name;
  std::string text;
};

class Zone {
 public:
  explicit Zone(DnsName origin) : origin_(std::move(origin)), origin_text_(origin_.to_string()) {}

  [[nodiscard]] const DnsName& origin() const { return origin_; }
  /// The origin's dotted text (the server's key for this zone).
  [[nodiscard]] const std::string& origin_text() const { return origin_text_; }

  /// Enables catch-all behaviour: any in-zone A query gets `addr`.
  void set_default_a(net::IPv4 addr) { default_a_ = addr; }
  [[nodiscard]] bool has_default_a() const { return default_a_.has_value(); }

  /// Adds a record; its name must be the origin or below it. A leftmost "*"
  /// label creates a wildcard record.
  void add(ResourceRecord record);

  /// True if the name is at/below this zone's origin.
  [[nodiscard]] bool in_zone(const DnsName& name) const { return name.is_subdomain_of(origin_); }

  /// Authoritative lookup: exact match, then wildcard synthesis, then the
  /// default-A catch-all. Returns matching records of the requested type,
  /// or the name's CNAME record when one exists (regardless of qtype,
  /// mirroring real resolution). Empty when the name does not exist.
  [[nodiscard]] std::vector<ResourceRecord> lookup(const DnsName& name, RrType type) const;
  /// The same lookup over a prebuilt key.
  [[nodiscard]] std::vector<ResourceRecord> lookup(const NameKey& key, RrType type) const;

  /// True when lookup(key.name, t) would answer for some type t != `type`:
  /// the name exists, only not for `type` (the resolver's no-data check).
  /// Reads the matched record set once instead of looking up every type.
  [[nodiscard]] bool has_data_other_than(const NameKey& key, RrType type) const;

  [[nodiscard]] std::size_t record_count() const;

 private:
  using RecordMap = std::map<std::string, std::vector<ResourceRecord>, std::less<>>;

  /// True if `text` (a name's dotted form) is at/below the origin.
  [[nodiscard]] bool in_zone_text(std::string_view text) const;
  /// The record set answering for the name: its own (exact match), else
  /// the closest enclosing wildcard's at or below the origin; null if none.
  [[nodiscard]] const std::vector<ResourceRecord>* find_rrset(const NameKey& key) const;

  DnsName origin_;
  std::string origin_text_;
  std::optional<net::IPv4> default_a_;
  // Keyed by textual FQDN; wildcard record sets ("*.<x>") keyed by <x>.
  RecordMap records_;
  RecordMap wildcards_;
};

}  // namespace ctwatch::dns
