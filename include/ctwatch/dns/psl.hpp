// Public Suffix List engine.
//
// The paper defines "base domain" (registrable domain) as the domain
// directly under a public suffix per Mozilla's PSL, and everything in §4/§5
// is keyed on that split: subdomain labels are the labels *below* the
// registrable domain. This implements the PSL matching algorithm — normal
// rules, wildcard rules ("*.ck") and exception rules ("!www.ck") — over a
// bundled snapshot, with the ability to add rules at runtime.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ctwatch/dns/name.hpp"

namespace ctwatch::dns {

/// Result of splitting a name at its public suffix.
struct NameSplit {
  std::string public_suffix;            ///< e.g. "co.uk"
  std::string registrable_domain;       ///< e.g. "example.co.uk"
  std::vector<std::string> subdomain_labels;  ///< e.g. {"www","dev"} for www.dev.example.co.uk

  /// The subdomain part joined with dots ("" when none).
  [[nodiscard]] std::string subdomain() const;
};

/// Pooled split: the same decomposition, but every part stays interned.
/// The leading subdomain label (what Table 2 counts) is
/// pool.ids(name)[0] whenever subdomain_label_count > 0.
struct RefSplit {
  namepool::NameRef public_suffix;
  namepool::NameRef registrable_domain;
  std::uint32_t subdomain_label_count = 0;  ///< labels below the registrable domain
};

class PublicSuffixList {
 public:
  /// Empty list: every name's suffix is its TLD (the PSL "prevailing rule"
  /// is "*", i.e. match one label).
  PublicSuffixList() = default;
  // The compiled-rule cache (mutex + pool binding) never travels with the
  // list: copies and moved-from lists start with a fresh empty cache and
  // recompile lazily.
  PublicSuffixList(const PublicSuffixList& other) : rules_(other.rules_) {}
  PublicSuffixList& operator=(const PublicSuffixList& other) {
    if (this != &other) {
      rules_ = other.rules_;
      compiled_ = std::make_unique<CompiledCache>();
    }
    return *this;
  }
  PublicSuffixList(PublicSuffixList&& other)
      : rules_(std::move(other.rules_)), compiled_(std::move(other.compiled_)) {
    other.compiled_ = std::make_unique<CompiledCache>();
  }
  PublicSuffixList& operator=(PublicSuffixList&& other) {
    if (this != &other) {
      rules_ = std::move(other.rules_);
      compiled_ = std::move(other.compiled_);
      other.compiled_ = std::make_unique<CompiledCache>();
    }
    return *this;
  }

  /// The bundled snapshot with the suffixes the experiments exercise plus
  /// common ICANN suffixes. Shaped like (a subset of) the real PSL.
  static PublicSuffixList bundled();

  /// Adds a rule in PSL syntax: "co.uk", "*.ck", "!www.ck".
  /// Throws std::invalid_argument on malformed rules.
  void add_rule(const std::string& rule);
  /// Parses newline-separated PSL text (comments "//" and blanks skipped).
  void add_rules_text(const std::string& text);

  [[nodiscard]] std::size_t rule_count() const { return rules_.size(); }

  /// Longest-matching public suffix for the name, per the PSL algorithm.
  /// A name that *is* a public suffix (or is shorter) has no registrable
  /// domain; those return std::nullopt from split().
  [[nodiscard]] std::string public_suffix(const DnsName& name) const;

  /// Splits into suffix / registrable domain / subdomain labels.
  [[nodiscard]] std::optional<NameSplit> split(const DnsName& name) const;

  /// Convenience over a textual name; invalid names yield std::nullopt.
  [[nodiscard]] std::optional<NameSplit> split(const std::string& name) const;

  /// Splits a pooled name. Suffix and registrable domain are interned into
  /// `pool` (usually pure table hits); no label text is copied. Applies the
  /// same rules as split(), so the two decompositions always agree.
  [[nodiscard]] std::optional<RefSplit> split(namepool::NamePool& pool,
                                              namepool::NameRef name) const;

 private:
  enum class RuleKind { normal, wildcard, exception };
  struct Rule {
    RuleKind kind;
    std::vector<std::string> labels;  // reversed: TLD first
  };

  /// Number of labels the matched suffix spans (>= 1 by the prevailing rule).
  [[nodiscard]] std::size_t suffix_label_count(std::span<const std::string_view> labels) const;
  [[nodiscard]] std::size_t suffix_label_count(const std::vector<std::string>& labels) const;
  /// Same decision over interned ids — what split(pool, ref) runs on. The
  /// rules are lazily compiled to LabelId paths against `pool`'s label
  /// table, so matching is integer hashing with no string in sight.
  [[nodiscard]] std::size_t suffix_label_count_ids(namepool::NamePool& pool,
                                                   std::span<const namepool::LabelId> ids) const;

  // Keyed by reversed label path joined with '.'. The transparent
  // comparator lets the hot matching loop probe with string_views built in
  // a reusable buffer instead of allocating a key per lookup.
  std::map<std::string, Rule, std::less<>> rules_;

  /// One rule path compiled to interned ids (reversed, TLD first); the
  /// three kinds are merged per path.
  struct CompiledRule {
    std::vector<namepool::LabelId> path;
    bool normal = false;
    bool wildcard = false;
    bool exception = false;
  };
  /// The rules compiled against one pool's label table, keyed by the
  /// running hash of the reversed path. Immutable once published.
  struct CompiledRules {
    // Keyed by NamePool::generation(), never by address: a fresh pool can
    // reuse a destroyed pool's address, and rule ids compiled against the
    // old pool would silently mis-match every multi-label suffix.
    std::uint64_t pool_generation = 0;
    std::size_t rule_count = 0;
    std::size_t max_depth = 0;
    std::unordered_map<std::uint64_t, std::vector<CompiledRule>> rules;
  };
  // Compiled-rule cache for suffix_label_count_ids. Readers load the
  // published snapshot without locking and use it when it matches their
  // pool and the rule count; otherwise they take mu, which serializes
  // compiles. Snapshots are never freed while the list lives (a reader
  // may still hold one): one per pool the list served, ~15 KB each with
  // the bundled rules, and a pool seen again reuses its snapshot.
  // Heap-held so the list itself stays copyable and movable.
  struct CompiledCache {
    std::atomic<const CompiledRules*> current{nullptr};
    std::mutex mu;
    std::vector<std::unique_ptr<CompiledRules>> snapshots;  // under mu
  };
  [[nodiscard]] const CompiledRules& compiled_for(namepool::NamePool& pool) const;
  mutable std::unique_ptr<CompiledCache> compiled_ = std::make_unique<CompiledCache>();
};

}  // namespace ctwatch::dns
