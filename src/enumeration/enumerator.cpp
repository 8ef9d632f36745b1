#include "ctwatch/enumeration/enumerator.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "ctwatch/chaos/fault.hpp"
#include "ctwatch/dns/name.hpp"
#include "ctwatch/obs/obs.hpp"
#include "ctwatch/par/par.hpp"

namespace ctwatch::enumeration {

namespace {

struct FunnelMetrics {
  obs::Counter& candidates = obs::Registry::global().counter("enum.funnel.candidates");
  obs::Counter& unique_candidates =
      obs::Registry::global().counter("enum.funnel.unique_candidates");
  obs::Counter& test_replies = obs::Registry::global().counter("enum.funnel.test_replies");
  obs::Counter& control_replies = obs::Registry::global().counter("enum.funnel.control_replies");
  obs::Counter& unroutable = obs::Registry::global().counter("enum.funnel.unroutable_dropped");
  obs::Counter& confirmed = obs::Registry::global().counter("enum.funnel.confirmed");
  obs::Counter& novel = obs::Registry::global().counter("enum.funnel.novel");
  obs::Counter& lost_test = obs::Registry::global().counter("enum.funnel.lost_test_queries");
  obs::Counter& lost_control = obs::Registry::global().counter("enum.funnel.lost_control_queries");
  obs::Counter& dns_retries = obs::Registry::global().counter("enum.funnel.dns_retries");
  obs::Gauge& imbalance = obs::Registry::global().gauge("par.imbalance.funnel");
  obs::LogLinearHistogram& stage_us = obs::Registry::global().latency("enum.funnel.stage_us");
};

FunnelMetrics& funnel_metrics() {
  static FunnelMetrics metrics;
  return metrics;
}

/// A registrable domain admitted to construction: its list text plus its
/// interned form (composition prepends a LabelId to `ref`).
struct ConstructionDomain {
  const std::string* text;
  namepool::NameRef ref;
};

/// One suffix's admitted registrable domains, plus what batch composition
/// needs: the refs as a contiguous span and the longest domain text (for
/// the whole-group 253-char fast path).
struct DomainGroup {
  std::vector<ConstructionDomain> domains;
  std::vector<namepool::NameRef> refs;
  std::size_t max_text = 0;
};

/// Groups the domain list by interned public suffix. Only registrable
/// domains themselves participate in construction. Parsing and splitting
/// run in parallel chunks (the pool interns canonically, so no ref depends
/// on which thread interned it); grouping then walks the list in order, so
/// every group lists its domains in list order at any thread count.
std::unordered_map<namepool::NameRef, DomainGroup, namepool::NameRefHash> group_domains(
    namepool::NamePool& pool, const dns::PublicSuffixList& psl,
    const std::vector<std::string>& domain_list) {
  struct Registrable {
    namepool::NameRef suffix;
    namepool::NameRef ref;  // empty when the entry is not a registrable domain
  };
  std::vector<Registrable> parsed(domain_list.size());
  par::parallel_for_chunks(domain_list.size(), 1024, [&](std::size_t, par::IndexRange range) {
    for (std::size_t i = range.begin; i < range.end; ++i) {
      const auto ref = dns::DnsName::parse_into(pool, domain_list[i]);
      if (!ref) continue;
      const auto split = psl.split(pool, *ref);
      if (split && split->subdomain_label_count == 0) parsed[i] = {split->public_suffix, *ref};
    }
  });
  std::unordered_map<namepool::NameRef, DomainGroup, namepool::NameRefHash> by_suffix;
  for (std::size_t i = 0; i < domain_list.size(); ++i) {
    if (parsed[i].ref.empty()) continue;
    DomainGroup& group = by_suffix[parsed[i].suffix];
    group.domains.push_back({&domain_list[i], parsed[i].ref});
    group.refs.push_back(parsed[i].ref);
    group.max_text = std::max(group.max_text, domain_list[i].size());
  }
  return by_suffix;
}

/// Composes `label` onto every domain of `group` whose textual form stays
/// within 253 characters (longer ones would not parse), in group order,
/// with one with_prefix_batch. Appends the refs to `out`, returns how many
/// were new to the pool and counts the skipped domains into `too_long`.
std::uint64_t compose_group(namepool::NamePool& pool, namepool::LabelId label,
                            const DomainGroup& group, std::vector<namepool::NameRef>& admitted,
                            std::vector<namepool::NameRef>& out, std::uint64_t& too_long) {
  const std::size_t label_len = pool.labels().text(label).size();
  if (label_len + 1 + group.max_text <= 253) {
    return pool.with_prefix_batch(label, group.refs, out);  // the whole group fits
  }
  admitted.clear();
  for (const ConstructionDomain& domain : group.domains) {
    if (label_len + 1 + domain.text->size() > 253) {
      ++too_long;
      continue;
    }
    admitted.push_back(domain.ref);
  }
  return pool.with_prefix_batch(label, admitted, out);
}

}  // namespace

std::vector<SubdomainEnumerator::PlanEntry> SubdomainEnumerator::build_plan_refs() const {
  namepool::NamePool& pool = census_->pool();
  // Labels in lexicographic order (the historical ordered-map iteration);
  // the plan order feeds the RNG stream, so it must stay stable.
  std::vector<std::pair<std::string_view, namepool::LabelId>> labels;
  for (const auto& [id, count] : census_->label_counts_by_id()) {
    if (count < options_.min_label_count) continue;
    labels.emplace_back(pool.labels().text(id), id);
  }
  std::sort(labels.begin(), labels.end());

  std::vector<PlanEntry> plan;
  const auto& by_label = census_->label_suffix_counts_by_id();
  for (const auto& [label_text, label_id] : labels) {
    const auto it = by_label.find(label_id);
    if (it == by_label.end()) continue;
    // Rank this label's suffixes by occurrence count.
    struct RankedSuffix {
      std::string text;
      std::uint64_t count;
      namepool::NameRef ref;
    };
    std::vector<RankedSuffix> suffixes;
    for (const auto& [suffix, n] : it->second) {
      std::string text = pool.to_string(suffix);
      if (options_.excluded_suffixes.contains(text)) continue;
      suffixes.push_back({std::move(text), n, suffix});
    }
    std::sort(suffixes.begin(), suffixes.end(), [](const auto& a, const auto& b) {
      return a.count != b.count ? a.count > b.count : a.text < b.text;
    });
    if (suffixes.size() > options_.top_suffixes_per_label) {
      suffixes.resize(options_.top_suffixes_per_label);
    }
    for (const auto& ranked : suffixes) plan.push_back({label_id, ranked.ref});
  }
  return plan;
}

std::vector<std::pair<std::string, std::string>> SubdomainEnumerator::build_plan() const {
  namepool::NamePool& pool = census_->pool();
  std::vector<std::pair<std::string, std::string>> plan;
  for (const PlanEntry& entry : build_plan_refs()) {
    plan.emplace_back(pool.labels().text(entry.label), pool.to_string(entry.suffix));
  }
  return plan;
}

SubdomainEnumerator::CandidateSet SubdomainEnumerator::generate_candidates(
    const std::vector<std::string>& domain_list) const {
  CTWATCH_SPAN("enum.generate_candidates");
  namepool::NamePool& pool = census_->pool();
  CandidateSet out;
  const auto plan = build_plan_refs();
  const auto by_suffix = group_domains(pool, *psl_, domain_list);
  std::size_t upper_bound = 0;
  for (const PlanEntry& entry : plan) {
    const auto it = by_suffix.find(entry.suffix);
    if (it != by_suffix.end()) upper_bound += it->second.domains.size();
  }
  // Composition runs chunked over the plan. Distinct plan entries can
  // never compose the same FQDN (label1.domain1 == label2.domain2 forces
  // the same entry), so the per-chunk `unique` counts partition cleanly,
  // and concatenating chunk refs in chunk order reproduces the serial
  // composition order exactly — chunks cover contiguous plan slices.
  const par::ChunkPlan cplan = par::ChunkPlan::over(plan.size(), 4);
  std::vector<CandidateSet> partials(cplan.chunks);
  par::parallel_for_chunks(plan.size(), 4, [&](std::size_t c, par::IndexRange range) {
    CandidateSet& part = partials[c];
    std::vector<namepool::NameRef> admitted;  // scratch for groups with long names
    for (std::size_t i = range.begin; i < range.end; ++i) {
      const PlanEntry& entry = plan[i];
      const auto it = by_suffix.find(entry.suffix);
      if (it == by_suffix.end()) continue;
      const std::size_t before = part.refs.size();
      part.unique += compose_group(pool, entry.label, it->second, admitted, part.refs,
                                   part.too_long);
      part.composed += part.refs.size() - before;
    }
  });
  out.refs.reserve(upper_bound);
  for (CandidateSet& part : partials) {
    out.refs.insert(out.refs.end(), part.refs.begin(), part.refs.end());
    out.composed += part.composed;
    out.unique += part.unique;
    out.too_long += part.too_long;
  }
  return out;
}

FunnelResult SubdomainEnumerator::run(const std::vector<std::string>& domain_list,
                                      const std::set<std::string>& sonar,
                                      const dns::RecursiveResolver& resolver,
                                      const net::RoutingTable& routing, Rng& rng,
                                      SimTime when) const {
  CTWATCH_SPAN("enum.funnel.run");
  obs::ScopedTimer stage_timer(funnel_metrics().stage_us);
  namepool::NamePool& pool = census_->pool();
  FunnelResult result;
  const auto plan = build_plan_refs();
  std::unordered_set<namepool::LabelId> labels_used;
  for (const PlanEntry& entry : plan) labels_used.insert(entry.label);
  result.labels_selected = labels_used.size();
  result.label_suffix_pairs = plan.size();

  // Group the domain list by public suffix once.
  const auto by_suffix = group_domains(pool, *psl_, domain_list);

  // One verification lookup, hardened against a lossy resolver: a query
  // that comes back timed_out/servfail is re-asked up to dns_max_retries
  // times with doubling virtual-time backoff (so outage windows can pass
  // underneath). Only after the budget is spent is the probe `lost` —
  // unknown, which the funnel accounts separately from negative.
  struct Probe {
    bool lost = false;      ///< still lossy after all retries
    bool positive = false;  ///< resolved to an A record
    bool routable = false;
    bool too_long = false;
  };

  // Verification runs chunked over the plan. Each chunk owns a
  // FunnelResult partial, an Rng derived from one base draw, and a
  // chaos::StreamScope keyed by the chunk index — all pure functions of
  // the chunk decomposition, never of the thread count, so the whole
  // funnel (fault draws included) is byte-identical at 1 and N threads.
  // The caller's rng advances by exactly one draw per run.
  const par::ChunkPlan cplan = par::ChunkPlan::over(plan.size(), 4);
  std::vector<FunnelResult> partials(cplan.chunks);
  const std::uint64_t rng_base = rng();

  par::parallel_for_chunks(plan.size(), 4, [&](std::size_t c, par::IndexRange range) {
    FunnelResult& part = partials[c];
    std::uint64_t derive = rng_base ^ (0x9e3779b97f4a7c15ULL * (c + 1));
    Rng chunk_rng(splitmix64(derive));
    chaos::StreamScope scope(c);

    auto probe_name = [&](const dns::DnsName& name) -> Probe {
      Probe p;
      SimTime attempt_when = when;
      std::int64_t backoff = options_.retry_backoff_s;
      for (int attempt = 0;; ++attempt) {
        const dns::ResolveResult res = resolver.resolve(name, dns::RrType::A, attempt_when,
                                                        std::nullopt, options_.max_cname_hops);
        if (!dns::is_lossy(res.status)) {
          if (res.status == dns::ResolveStatus::chain_too_long) {
            p.too_long = true;
            return p;
          }
          if (res.status != dns::ResolveStatus::ok) return p;
          const auto a = res.first_a();
          if (!a) return p;
          p.positive = true;
          p.routable = routing.routable(*a);
          return p;
        }
        if (res.status == dns::ResolveStatus::timed_out) {
          ++part.dns_timeouts;
        } else {
          ++part.dns_servfails;
        }
        if (attempt >= options_.dns_max_retries) {
          p.lost = true;
          return p;
        }
        ++part.dns_retries;
        attempt_when += backoff;
        backoff *= 2;
      }
    };
    auto probe_text = [&](const std::string& fqdn) -> Probe {
      const auto name = dns::DnsName::parse(fqdn);
      if (!name) return Probe{};
      return probe_name(*name);
    };

    std::vector<namepool::NameRef> admitted;  // reused by compose_group
    std::vector<namepool::NameRef> composed;
    for (std::size_t i = range.begin; i < range.end; ++i) {
      const PlanEntry& entry = plan[i];
      const auto it = by_suffix.find(entry.suffix);
      if (it == by_suffix.end()) continue;
      // Candidate composition is integer work against the pool, one batch
      // per plan entry; only a name whose textual form would be
      // unparseable (> 253 chars) is skipped, mirroring the string path's
      // parse failure. Distinct plan entries never compose the same FQDN,
      // so the per-entry fresh counts add up to the exact unique count.
      composed.clear();
      std::uint64_t too_long = 0;
      part.unique_candidates +=
          compose_group(pool, entry.label, it->second, admitted, composed, too_long);
      std::size_t next_composed = 0;
      const std::string_view label_text = pool.labels().text(entry.label);
      for (const ConstructionDomain& domain : it->second.domains) {
        ++part.candidates;
        std::string candidate;
        candidate.reserve(label_text.size() + 1 + domain.text->size());
        candidate += label_text;
        candidate += '.';
        candidate += *domain.text;

        Probe test;
        if (candidate.size() <= 253) {
          test = probe_name(dns::DnsName::materialize(pool, composed[next_composed++]));
        }
        if (test.lost) {
          // The test answer is unknown; probing the control could not make
          // the candidate confirmable. Count the loss, skip the control.
          ++part.lost_test_queries;
          continue;
        }
        if (test.too_long) ++part.chain_too_long;
        if (test.positive) {
          ++part.test_replies;
        } else {
          ++part.test_unanswered;
        }

        // The paper scans the pseudo-random control for every candidate,
        // not just the answered ones; both reply counts are funnel outputs.
        Probe control;
        if (options_.use_controls) {
          const std::string control_fqdn =
              chunk_rng.alnum_label(options_.control_label_length) + "." + *domain.text;
          control = probe_text(control_fqdn);
          if (control.positive) ++part.control_replies;
        }

        if (!test.positive) continue;
        if (options_.use_routing_filter && !test.routable) {
          ++part.unroutable_dropped;
          continue;
        }
        if (control.lost) {
          // Cannot prove the zone is not a default-A responder: reject
          // conservatively, but count why.
          ++part.lost_control_queries;
          continue;
        }
        if (control.positive) {
          ++part.control_rejected;  // the zone answers anything; reject
          continue;
        }
        ++part.confirmed;
        if (sonar.contains(candidate)) {
          ++part.known_in_sonar;
        } else {
          ++part.novel;
        }
        if (part.discoveries.size() < options_.keep_discoveries) {
          part.discoveries.push_back(candidate);
        }
      }
    }
  });

  // Merge in chunk order. Chunks cover contiguous plan slices, so
  // concatenating the per-chunk discovery samples (each already capped)
  // and truncating to the cap equals the serial capped list.
  std::uint64_t imbalance_max = 0;
  for (FunnelResult& part : partials) {
    result.candidates += part.candidates;
    result.unique_candidates += part.unique_candidates;
    result.test_replies += part.test_replies;
    result.test_unanswered += part.test_unanswered;
    result.control_replies += part.control_replies;
    result.unroutable_dropped += part.unroutable_dropped;
    result.chain_too_long += part.chain_too_long;
    result.control_rejected += part.control_rejected;
    result.confirmed += part.confirmed;
    result.known_in_sonar += part.known_in_sonar;
    result.novel += part.novel;
    result.lost_test_queries += part.lost_test_queries;
    result.lost_control_queries += part.lost_control_queries;
    result.dns_timeouts += part.dns_timeouts;
    result.dns_servfails += part.dns_servfails;
    result.dns_retries += part.dns_retries;
    imbalance_max = std::max(imbalance_max, part.candidates);
    for (std::string& discovery : part.discoveries) {
      if (result.discoveries.size() >= options_.keep_discoveries) break;
      result.discoveries.push_back(std::move(discovery));
    }
  }
  // One bulk update per run keeps the per-candidate loop free of metric
  // traffic while the registry still sees every funnel stage.
  FunnelMetrics& metrics = funnel_metrics();
  if (result.candidates > 0 && cplan.chunks > 0) {
    const double mean =
        static_cast<double>(result.candidates) / static_cast<double>(cplan.chunks);
    metrics.imbalance.set(
        static_cast<std::int64_t>(static_cast<double>(imbalance_max) * 1000.0 / mean));
  }
  metrics.candidates.inc(result.candidates);
  metrics.unique_candidates.inc(result.unique_candidates);
  metrics.test_replies.inc(result.test_replies);
  metrics.control_replies.inc(result.control_replies);
  metrics.unroutable.inc(result.unroutable_dropped);
  metrics.confirmed.inc(result.confirmed);
  metrics.novel.inc(result.novel);
  metrics.lost_test.inc(result.lost_test_queries);
  metrics.lost_control.inc(result.lost_control_queries);
  metrics.dns_retries.inc(result.dns_retries);
  obs::log_info("enum.funnel", "funnel complete",
                {{"candidates", result.candidates},
                 {"test_replies", result.test_replies},
                 {"confirmed", result.confirmed},
                 {"novel", result.novel},
                 {"lost_test", result.lost_test_queries},
                 {"lost_control", result.lost_control_queries}});
  return result;
}

}  // namespace ctwatch::enumeration
