// ctwatch::par — the sharded parallel pipeline head-to-head with its own
// serial path, parity enforced.
//
// Runs the four parallelized stages (census build + Table 2 ranking, the
// §4.3 DNS-verification funnel, the phishing scan, the Fig 1 issuance
// timeline) once per thread count: 1 (the compiled-down serial path), 2,
// and the machine width, after one untimed warm-up pass (it builds the
// corpus and faults in the allocator, so the serial pass is not the only
// cold one). Each stage reports its own speedup. Every run must be byte-identical to the
// single-thread baseline — rendered Table 2 rows, every funnel counter,
// every phishing finding, every log's size, root and overload count —
// or the binary exits nonzero. With --strict the census+funnel pair must
// additionally reach a 3x combined speedup, gated only on machines with
// >= 8 hardware threads and never under sanitizers (parity is always
// gated).
#include "bench_common.hpp"

#include <chrono>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ctwatch/par/par.hpp"
#include "ctwatch/phishing/detector.hpp"
#include "ctwatch/sim/timeline.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CTWATCH_BENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CTWATCH_BENCH_SANITIZED 1
#endif
#endif
#ifndef CTWATCH_BENCH_SANITIZED
#define CTWATCH_BENCH_SANITIZED 0
#endif

using namespace ctwatch;

namespace {

sim::DomainCorpus& corpus() {
  static sim::DomainCorpus corpus;
  return corpus;
}

/// What a timeline run leaves in one log.
struct LogDigest {
  std::string name;
  std::uint64_t tree_size = 0;
  crypto::Digest root{};
  std::uint64_t overload_rejections = 0;

  friend bool operator==(const LogDigest&, const LogDigest&) = default;
};

struct PipelineRun {
  unsigned threads = 0;
  std::string table2;
  enumeration::FunnelResult funnel;
  std::vector<phishing::Finding> findings;
  std::vector<LogDigest> logs;
  double census_seconds = 0;
  double funnel_seconds = 0;
  double phishing_seconds = 0;
  double timeline_seconds = 0;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

/// One full pass over the corpus at `threads`. Fresh census, enumerator
/// and detector per run so interning freshness and counters are
/// comparable across thread counts.
PipelineRun run_pipeline(unsigned threads) {
  par::TaskPool::set_global_threads(threads);
  PipelineRun run;
  run.threads = threads;

  auto start = std::chrono::steady_clock::now();
  enumeration::SubdomainCensus census(corpus().psl());
  census.add_names(corpus().ct_names());
  const auto top = census.top_labels(20);
  run.census_seconds = seconds_since(start);
  for (const auto& [label, count] : top) {
    run.table2 += label + " " + std::to_string(count) + "\n";
  }

  const dns::RecursiveResolver resolver(
      corpus().universe(),
      dns::RecursiveResolver::Identity{net::IPv4(192, 0, 2, 53), 64496, "bench", false});
  const std::set<std::string> sonar(corpus().sonar_names().begin(),
                                    corpus().sonar_names().end());
  enumeration::SubdomainEnumerator enumerator(census, corpus().psl());
  Rng rng(corpus().options().seed ^ 0xabcdef);
  start = std::chrono::steady_clock::now();
  run.funnel = enumerator.run(corpus().registrable_domains(), sonar, resolver,
                              corpus().routing_table(), rng, SimTime::parse("2018-04-27"));
  run.funnel_seconds = seconds_since(start);

  phishing::PhishingDetector detector(corpus().psl(), phishing::standard_rules());
  start = std::chrono::steady_clock::now();
  run.findings = detector.scan(corpus().ct_names());
  run.phishing_seconds = seconds_since(start);

  // The 2013-2018 timeline at 1/20000 of real volume, into a fresh
  // ecosystem per run.
  sim::Ecosystem ecosystem;
  sim::TimelineOptions timeline_options;
  timeline_options.scale = 1.0 / 20000.0;
  start = std::chrono::steady_clock::now();
  sim::TimelineSimulator(ecosystem, timeline_options).run();
  run.timeline_seconds = seconds_since(start);
  for (const ct::CtLog* log : ecosystem.all_logs()) {
    run.logs.push_back({log->name(), log->tree_size(), log->get_sth(SimTime{}).root_hash,
                        log->overload_rejections()});
  }

  par::TaskPool::set_global_threads(0);
  return run;
}

bool funnel_equal(const enumeration::FunnelResult& a, const enumeration::FunnelResult& b) {
  return a.labels_selected == b.labels_selected &&
         a.label_suffix_pairs == b.label_suffix_pairs && a.candidates == b.candidates &&
         a.unique_candidates == b.unique_candidates && a.test_replies == b.test_replies &&
         a.test_unanswered == b.test_unanswered && a.control_replies == b.control_replies &&
         a.unroutable_dropped == b.unroutable_dropped && a.chain_too_long == b.chain_too_long &&
         a.control_rejected == b.control_rejected && a.confirmed == b.confirmed &&
         a.known_in_sonar == b.known_in_sonar && a.novel == b.novel &&
         a.lost_test_queries == b.lost_test_queries &&
         a.lost_control_queries == b.lost_control_queries && a.dns_timeouts == b.dns_timeouts &&
         a.dns_servfails == b.dns_servfails && a.dns_retries == b.dns_retries &&
         a.discoveries == b.discoveries;
}

bool findings_equal(const std::vector<phishing::Finding>& a,
                    const std::vector<phishing::Finding>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].brand != b[i].brand || a[i].fqdn != b[i].fqdn ||
        a[i].public_suffix != b[i].public_suffix ||
        a[i].registrable_domain != b[i].registrable_domain) {
      return false;
    }
  }
  return true;
}

/// Byte-identity of `run` against the serial baseline; mismatches go to
/// stderr with the thread count that produced them.
bool check_parity(const PipelineRun& run, const PipelineRun& baseline) {
  bool ok = true;
  if (run.table2 != baseline.table2) {
    std::fprintf(stderr, "PARITY MISMATCH at %u threads: Table 2 rows differ\n", run.threads);
    ok = false;
  }
  if (!funnel_equal(run.funnel, baseline.funnel)) {
    std::fprintf(stderr, "PARITY MISMATCH at %u threads: funnel counters differ\n",
                 run.threads);
    ok = false;
  }
  if (!findings_equal(run.findings, baseline.findings)) {
    std::fprintf(stderr, "PARITY MISMATCH at %u threads: phishing findings differ\n",
                 run.threads);
    ok = false;
  }
  if (run.logs != baseline.logs) {
    std::fprintf(stderr, "PARITY MISMATCH at %u threads: timeline logs differ\n", run.threads);
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool strict = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--strict") == 0) {
      strict = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }

  bench::banner("ctwatch::par — sharded parallel pipeline vs its serial path",
                "census + funnel + phishing + timeline at 1/2/N threads; byte-identical or exit 1");

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  // Always run the 2-thread config, even on one core: oversubscription is
  // harmless and keeps the parity check meaningful on any machine.
  std::vector<unsigned> thread_counts = {1, 2};
  if (hw > 2) thread_counts.push_back(hw);

  (void)run_pipeline(thread_counts.back());  // warm-up, untimed
  std::vector<PipelineRun> runs;
  for (const unsigned threads : thread_counts) runs.push_back(run_pipeline(threads));
  const PipelineRun& baseline = runs.front();
  const PipelineRun& widest = runs.back();

  bool parity = true;
  for (std::size_t i = 1; i < runs.size(); ++i) parity &= check_parity(runs[i], baseline);

  for (const PipelineRun& run : runs) {
    std::printf(
        "%2u threads: census %7.1f ms   funnel %7.1f ms   phishing %7.1f ms   timeline %7.1f ms\n",
        run.threads, run.census_seconds * 1e3, run.funnel_seconds * 1e3,
        run.phishing_seconds * 1e3, run.timeline_seconds * 1e3);
  }
  const auto ratio = [](double serial, double parallel) {
    return parallel > 0 ? serial / parallel : 0;
  };
  const double speedup = ratio(baseline.census_seconds + baseline.funnel_seconds,
                               widest.census_seconds + widest.funnel_seconds);
  const double census_speedup = ratio(baseline.census_seconds, widest.census_seconds);
  const double funnel_speedup = ratio(baseline.funnel_seconds, widest.funnel_seconds);
  const double phishing_speedup = ratio(baseline.phishing_seconds, widest.phishing_seconds);
  const double timeline_speedup = ratio(baseline.timeline_seconds, widest.timeline_seconds);
  std::printf(
      "speedup at %u threads: census+funnel %.2fx (census %.2fx, funnel %.2fx)   "
      "phishing %.2fx   timeline %.2fx   parity: %s\n\n",
      widest.threads, speedup, census_speedup, funnel_speedup, phishing_speedup,
      timeline_speedup, parity ? "ok" : "FAILED");

  std::uint64_t timeline_entries = 0;
  for (const LogDigest& log : baseline.logs) timeline_entries += log.tree_size;
  bench::emit_result(
      "par_pipeline",
      bench::Json()
          .field("hardware_threads", hw)
          .field("widest_threads", widest.threads)
          .field("sanitized", static_cast<bool>(CTWATCH_BENCH_SANITIZED)),
      bench::Json()
          .field("census_serial_s", baseline.census_seconds, 4)
          .field("funnel_serial_s", baseline.funnel_seconds, 4)
          .field("phishing_serial_s", baseline.phishing_seconds, 4)
          .field("census_parallel_s", widest.census_seconds, 4)
          .field("funnel_parallel_s", widest.funnel_seconds, 4)
          .field("phishing_parallel_s", widest.phishing_seconds, 4)
          .field("timeline_serial_s", baseline.timeline_seconds, 4)
          .field("timeline_parallel_s", widest.timeline_seconds, 4)
          .field("speedup", speedup, 3)
          .field("census_speedup", census_speedup, 3)
          .field("funnel_speedup", funnel_speedup, 3)
          .field("phishing_speedup", phishing_speedup, 3)
          .field("timeline_speedup", timeline_speedup, 3)
          .field("candidates", baseline.funnel.candidates)
          .field("confirmed", baseline.funnel.confirmed)
          .field("phishing_findings", static_cast<std::uint64_t>(baseline.findings.size()))
          .field("timeline_entries", timeline_entries)
          .field("parity", parity));

  int violations = 0;
  if (!parity) {
    std::fprintf(stderr, "FAIL: parallel/serial parity\n");
    ++violations;
  }
  // The throughput floor only means something on real parallel hardware
  // running real code: waived below 8 threads and under sanitizers.
  if (strict && hw >= 8 && !CTWATCH_BENCH_SANITIZED && speedup < 3.0) {
    std::fprintf(stderr, "FAIL: census+funnel speedup %.2fx below the 3x floor\n", speedup);
    ++violations;
  }

  bench::dump_metrics_snapshot(bench::metrics_snapshot_path(argc > 0 ? argv[0] : nullptr));
  return violations;
}
