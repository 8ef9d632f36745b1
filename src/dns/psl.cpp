#include "ctwatch/dns/psl.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "ctwatch/util/strings.hpp"

namespace ctwatch::dns {

std::string NameSplit::subdomain() const { return join(subdomain_labels, "."); }

namespace {
// Snapshot of PSL rules sufficient for the experiments: the suffixes the
// paper names explicitly (tech, email, cloud, design, gov, gov.uk, com, ga,
// info, tk, ml, bid, review, live, money, cf, gq, my, co.am, …) plus common
// ICANN country/generic suffixes so synthetic domain populations look
// realistic. Syntax is the PSL's own.
constexpr const char* kBundledRules = R"(// ctwatch PSL snapshot (subset)
com
net
org
info
biz
name
pro
edu
gov
mil
int
io
co
ai
app
dev
page
tech
email
cloud
design
money
live
bid
review
site
online
xyz
top
club
shop
blog
art
wiki
link
click
gq
tk
ml
ga
cf
us
uk
co.uk
org.uk
gov.uk
ac.uk
net.uk
au
com.au
net.au
org.au
gov.au
edu.au
de
fr
it
nl
eu
es
pt
pl
cz
sk
hu
gr
tr
ru
su
jp
co.jp
ne.jp
or.jp
cn
com.cn
net.cn
gov.cn
in
co.in
kr
co.kr
br
com.br
ar
com.ar
mx
com.mx
ca
ch
at
be
dk
no
se
fi
ie
nz
co.nz
za
co.za
il
co.il
my
com.my
gov.my
am
co.am
sg
com.sg
hk
com.hk
tw
com.tw
id
co.id
th
co.th
vn
com.vn
ph
ua
com.ua
by
kz
ge
md
rs
ba
hr
si
lt
lv
ee
is
lu
mc
sm
va
*.ck
!www.ck
)";
}  // namespace

PublicSuffixList PublicSuffixList::bundled() {
  PublicSuffixList psl;
  psl.add_rules_text(kBundledRules);
  return psl;
}

void PublicSuffixList::add_rule(const std::string& rule) {
  if (rule.empty()) throw std::invalid_argument("PSL: empty rule");
  Rule parsed;
  std::string body = rule;
  if (body.front() == '!') {
    parsed.kind = RuleKind::exception;
    body.erase(0, 1);
  } else if (body.rfind("*.", 0) == 0) {
    parsed.kind = RuleKind::wildcard;
    body.erase(0, 2);
  } else {
    parsed.kind = RuleKind::normal;
  }
  if (body.empty()) throw std::invalid_argument("PSL: empty rule body: " + rule);
  std::vector<std::string> labels = ctwatch::split(to_lower(body), '.');
  for (const std::string& label : labels) {
    if (!valid_label(label)) throw std::invalid_argument("PSL: bad label in rule: " + rule);
  }
  std::reverse(labels.begin(), labels.end());
  parsed.labels = labels;
  std::string key = join(labels, ".");
  if (parsed.kind == RuleKind::wildcard) key += ".*";
  if (parsed.kind == RuleKind::exception) key += ".!";
  rules_[key] = std::move(parsed);
}

void PublicSuffixList::add_rules_text(const std::string& text) {
  for (const std::string& line : ctwatch::split(text, '\n')) {
    std::string trimmed = line;
    // Strip trailing CR and surrounding spaces.
    while (!trimmed.empty() && (trimmed.back() == '\r' || trimmed.back() == ' ')) {
      trimmed.pop_back();
    }
    std::size_t start = 0;
    while (start < trimmed.size() && trimmed[start] == ' ') ++start;
    trimmed.erase(0, start);
    if (trimmed.empty() || trimmed.rfind("//", 0) == 0) continue;
    add_rule(trimmed);
  }
}

std::size_t PublicSuffixList::suffix_label_count(
    std::span<const std::string_view> labels) const {
  // Evaluate rules per the PSL algorithm over the reversed label path:
  // exception rules beat wildcard/normal; otherwise the longest match wins;
  // no match -> prevailing rule "*" (one label).
  std::size_t best = 1;
  bool exception_hit = false;
  std::size_t exception_len = 0;

  std::string path;
  std::string probe;  // reused "<path>.*" / "<path>.!" key buffer
  for (std::size_t depth = 1; depth <= labels.size(); ++depth) {
    if (depth > 1) path.push_back('.');
    path += labels[labels.size() - depth];
    if (auto it = rules_.find(std::string_view(path));
        it != rules_.end() && it->second.kind == RuleKind::normal) {
      best = std::max(best, depth);
    }
    // A wildcard rule "*.<path-of-depth-d>" matches a suffix of depth d+1.
    probe.assign(path).append(".*");
    if (auto it = rules_.find(std::string_view(probe));
        it != rules_.end() && depth + 1 <= labels.size()) {
      best = std::max(best, depth + 1);
    }
    probe.assign(path).append(".!");
    if (auto it = rules_.find(std::string_view(probe)); it != rules_.end()) {
      // Exception rule: the suffix is the rule minus its leftmost label.
      exception_hit = true;
      exception_len = depth - 1;
    }
  }
  if (exception_hit) return std::max<std::size_t>(exception_len, 1);
  return best;
}

std::size_t PublicSuffixList::suffix_label_count(const std::vector<std::string>& labels) const {
  std::vector<std::string_view> views(labels.begin(), labels.end());
  return suffix_label_count(std::span<const std::string_view>(views));
}

namespace {
constexpr std::uint64_t kPathHashBasis = 1469598103934665603ull;
constexpr std::uint64_t kPathHashPrime = 1099511628211ull;
}  // namespace

const PublicSuffixList::CompiledRules& PublicSuffixList::compiled_for(
    namepool::NamePool& pool) const {
  CompiledCache& cache = *compiled_;
  const auto matches = [&](const CompiledRules* compiled) {
    return compiled != nullptr && compiled->pool_generation == pool.generation() &&
           compiled->rule_count == rules_.size();
  };
  if (const CompiledRules* current = cache.current.load(std::memory_order_acquire);
      matches(current)) {
    return *current;
  }
  std::lock_guard<std::mutex> lock(cache.mu);
  for (const auto& snapshot : cache.snapshots) {
    if (matches(snapshot.get())) {
      cache.current.store(snapshot.get(), std::memory_order_release);
      return *snapshot;
    }
  }
  // Compile every rule path to ids in `pool`'s label table. Interning
  // (not find) keeps the ids valid even for labels no name has used yet.
  auto compiled = std::make_unique<CompiledRules>();
  for (const auto& [key, rule] : rules_) {
    std::vector<namepool::LabelId> path;
    path.reserve(rule.labels.size());
    std::uint64_t hash = kPathHashBasis;
    for (const std::string& label : rule.labels) {
      const namepool::LabelId id = pool.labels().intern(label);
      path.push_back(id);
      hash = (hash ^ id) * kPathHashPrime;
    }
    auto& bucket = compiled->rules[hash];
    CompiledRule* slot = nullptr;
    for (CompiledRule& existing : bucket) {
      if (existing.path == path) slot = &existing;
    }
    if (slot == nullptr) {
      bucket.push_back(CompiledRule{std::move(path), false, false, false});
      slot = &bucket.back();
    }
    switch (rule.kind) {
      case RuleKind::normal: slot->normal = true; break;
      case RuleKind::wildcard: slot->wildcard = true; break;
      case RuleKind::exception: slot->exception = true; break;
    }
    compiled->max_depth = std::max(compiled->max_depth, slot->path.size());
  }
  compiled->pool_generation = pool.generation();
  compiled->rule_count = rules_.size();
  cache.current.store(compiled.get(), std::memory_order_release);
  cache.snapshots.push_back(std::move(compiled));
  return *cache.snapshots.back();
}

std::size_t PublicSuffixList::suffix_label_count_ids(
    namepool::NamePool& pool, std::span<const namepool::LabelId> ids) const {
  const CompiledRules& cache = compiled_for(pool);

  // Same decision procedure as the string overload, on integers: walk the
  // reversed path depth by depth with a running hash. No rule is longer
  // than cache.max_depth, so the walk stops there.
  std::size_t best = 1;
  bool exception_hit = false;
  std::size_t exception_len = 0;
  std::uint64_t hash = kPathHashBasis;
  const std::size_t max_depth = std::min(ids.size(), cache.max_depth);
  for (std::size_t depth = 1; depth <= max_depth; ++depth) {
    hash = (hash ^ ids[ids.size() - depth]) * kPathHashPrime;
    const auto it = cache.rules.find(hash);
    if (it == cache.rules.end()) continue;
    for (const CompiledRule& rule : it->second) {
      if (rule.path.size() != depth) continue;
      bool matches = true;
      for (std::size_t i = 0; i < depth; ++i) {
        if (rule.path[i] != ids[ids.size() - 1 - i]) {
          matches = false;
          break;
        }
      }
      if (!matches) continue;
      if (rule.normal) best = std::max(best, depth);
      if (rule.wildcard && depth + 1 <= ids.size()) best = std::max(best, depth + 1);
      if (rule.exception) {
        exception_hit = true;
        exception_len = depth - 1;
      }
    }
  }
  if (exception_hit) return std::max<std::size_t>(exception_len, 1);
  return best;
}

std::optional<RefSplit> PublicSuffixList::split(namepool::NamePool& pool,
                                                namepool::NameRef name) const {
  const std::span<const namepool::LabelId> ids = pool.ids(name);
  const std::size_t suffix_len = suffix_label_count_ids(pool, ids);
  if (ids.size() <= suffix_len) return std::nullopt;  // the name IS a suffix
  RefSplit out;
  out.public_suffix = pool.parent(name, ids.size() - suffix_len);
  out.registrable_domain = pool.parent(name, ids.size() - suffix_len - 1);
  out.subdomain_label_count = static_cast<std::uint32_t>(ids.size() - suffix_len - 1);
  return out;
}

std::string PublicSuffixList::public_suffix(const DnsName& name) const {
  const std::size_t count = std::min(suffix_label_count(name.labels()), name.label_count());
  return name.parent(name.label_count() - count).to_string();
}

std::optional<NameSplit> PublicSuffixList::split(const DnsName& name) const {
  const std::size_t suffix_len = suffix_label_count(name.labels());
  if (name.label_count() <= suffix_len) return std::nullopt;  // the name IS a suffix
  NameSplit out;
  out.public_suffix = name.parent(name.label_count() - suffix_len).to_string();
  out.registrable_domain = name.parent(name.label_count() - suffix_len - 1).to_string();
  out.subdomain_labels.assign(
      name.labels().begin(),
      name.labels().begin() + static_cast<std::ptrdiff_t>(name.label_count() - suffix_len - 1));
  return out;
}

std::optional<NameSplit> PublicSuffixList::split(const std::string& name) const {
  const auto parsed = DnsName::parse(name);
  if (!parsed) return std::nullopt;
  return split(*parsed);
}

}  // namespace ctwatch::dns
