#include "ctwatch/dns/zone.hpp"

#include <stdexcept>

namespace ctwatch::dns {

namespace {

/// The text of the name's parent: everything after the first label.
/// Labels never contain '.', so dropping through the first dot drops
/// exactly one label; a single label's parent is the root ("").
std::string_view parent_text(std::string_view text) {
  const std::size_t dot = text.find('.');
  return dot == std::string_view::npos ? std::string_view{} : text.substr(dot + 1);
}

}  // namespace

void Zone::add(ResourceRecord record) {
  if (!in_zone(record.name) && !(record.name.first_label() == "*" &&
                                 record.name.parent().is_subdomain_of(origin_))) {
    throw std::invalid_argument("Zone::add: record " + record.name.to_string() +
                                " outside zone " + origin_.to_string());
  }
  const bool wildcard = record.name.first_label() == "*";
  RecordMap& map = wildcard ? wildcards_ : records_;
  std::string key = wildcard ? record.name.parent().to_string() : record.name.to_string();
  map.try_emplace(std::move(key)).first->second.push_back(std::move(record));
}

bool Zone::in_zone_text(std::string_view text) const {
  if (origin_text_.empty()) return true;
  if (!text.ends_with(origin_text_)) return false;
  return text.size() == origin_text_.size() || text[text.size() - origin_text_.size() - 1] == '.';
}

const std::vector<ResourceRecord>* Zone::find_rrset(const NameKey& key) const {
  const std::string_view text = key.text;
  // Exact match. A query name led by a literal "*" is a wildcard record
  // set's own owner name.
  const bool starred = key.name.first_label() == "*";
  const RecordMap& exact = starred ? wildcards_ : records_;
  if (const auto it = exact.find(starred ? parent_text(text) : text); it != exact.end()) {
    return &it->second;
  }
  // Wildcard synthesis: try "*.<ancestor>" for each ancestor strictly
  // between the name and the origin (closest first), the origin included.
  std::string_view ancestor = text;
  for (std::size_t drop = 1; drop < key.name.label_count(); ++drop) {
    ancestor = parent_text(ancestor);
    if (!in_zone_text(ancestor)) break;
    if (const auto it = wildcards_.find(ancestor); it != wildcards_.end()) return &it->second;
  }
  return nullptr;
}

std::vector<ResourceRecord> Zone::lookup(const DnsName& name, RrType type) const {
  return lookup(NameKey(name), type);
}

std::vector<ResourceRecord> Zone::lookup(const NameKey& key, RrType type) const {
  if (const std::vector<ResourceRecord>* rrset = find_rrset(key)) {
    std::vector<ResourceRecord> out;
    // CNAME takes precedence: a name with a CNAME has no other data.
    for (const ResourceRecord& rr : *rrset) {
      if (rr.type == RrType::CNAME) {
        ResourceRecord copy = rr;
        copy.name = key.name;
        return {copy};
      }
    }
    for (const ResourceRecord& rr : *rrset) {
      if (rr.type == type) {
        ResourceRecord copy = rr;
        copy.name = key.name;
        out.push_back(copy);
      }
    }
    return out;
  }
  if (default_a_ && type == RrType::A && in_zone_text(key.text)) {
    return {ResourceRecord{key.name, RrType::A, 300, *default_a_}};
  }
  return {};
}

bool Zone::has_data_other_than(const NameKey& key, RrType type) const {
  if (const std::vector<ResourceRecord>* rrset = find_rrset(key)) {
    // A CNAME answers every type; any other record answers its own.
    for (const ResourceRecord& rr : *rrset) {
      if (rr.type == RrType::CNAME || rr.type != type) return true;
    }
    return false;
  }
  // The catch-all answers A only.
  return default_a_ && type != RrType::A && in_zone_text(key.text);
}

std::size_t Zone::record_count() const {
  std::size_t n = 0;
  for (const auto& [key, rrset] : records_) n += rrset.size();
  for (const auto& [key, rrset] : wildcards_) n += rrset.size();
  return n;
}

}  // namespace ctwatch::dns
