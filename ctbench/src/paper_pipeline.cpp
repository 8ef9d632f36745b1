// paper_pipeline: the researcher's batch job — the analysis half of ctwatch.
//
// Set-up (median of five) builds the §4 domain corpus. One job then
// runs the 2013–2018 issuance timeline at the default 1/2000 scale on a
// fresh ecosystem, the Fig 1a–1c analysis, and the §4 leakage study
// (Table 2 ranking plus the §4.3 funnel) with par width 4. Jobs repeat
// while another one fits in the window; an untraced run always has at
// least two.
//
// Every job's artifacts (Fig 1a–1c, Table 2, funnel) are rendered to text
// and hashed. All jobs of a run must agree, the funnel must conserve its
// candidates, the serial (width 1) leakage study must reproduce the
// width-4 digests, and seeds with a recorded golden digest must match it.
#include <cstdio>
#include <sstream>

#include "ctwatch/core/leakage.hpp"
#include "ctwatch/core/log_evolution.hpp"
#include "ctwatch/par/task_pool.hpp"
#include "ctwatch/sim/domains.hpp"
#include "ctwatch/sim/ecosystem.hpp"
#include "ctwatch/sim/timeline.hpp"
#include "workloads.hpp"

namespace ctbench {

namespace {

namespace core = ctwatch::core;
namespace sim = ctwatch::sim;

constexpr unsigned kParWidth = 4;

/// Golden digests of the paper artifacts, recorded from this benchmark at
/// the commit that introduced it. A change that alters any artifact byte
/// for these seeds fails the run.
struct Golden {
  std::uint64_t seed;
  const char* digest;
};
constexpr Golden kGolden[] = {
    {0, "7640ba9c382e375f24f849974de30c9ecc34fd70439e28437b35e3357c1748ea"},
    {1, "4c7692f7c920617d9853aafdf5a8066465137cfc21201b1f9c30e0cc2115a053"},
    {2, "fdd4b7a5c2faeae5a273ce17d4f89a67eede9aee062c46cf60478754d1690132"},
    {3, "6c109f09c64680a010b945e81c37ed774d7e33dc7ca36536eb182aad5defd104"},
    {4, "3497fa63bef8a9133eb2f83feaf95f85f80301ea73367e6456b681401d8f8045"},
    {5, "8e6333c2e326c6473aa50a54a2e277febd39f3cfc25ba27789e72dc9de2e9355"},
    {6, "037a66af7d1690526feab735232ea6cb22e72f781a30ccd011464508ba9e1041"},
    {7, "cd7caf73231e52aad7f363cbd322ceb78e7c543c5e7dcb66db20593e5b68444c"},
    {8, "a7d8567cfb6aba8988f6323e07cc03aad357394091027baccf655a2c2d88d39c"},
    {9, "17f2a832d4e6c0ce4433e1ee9f972c77608e4e6e02a841737e64908d00709ef8"},
    {10, "fc425080e9873358d4a36556927a7d52a79a0ae04ae6a1637568d0aaca5e76f5"},
    {11, "7cf71d41e856a4d36a8b6d52903f97d15fa373a297b8ca502b3e293f8165045c"},
    {12, "c530243c51efd7bbeb0c30a52e3d802f9efbf2f5f6c487291511f67c457b082e"},
    {13, "cd0f29b47677f32935dafcdf5c531d711281840d05c1d678e361ae697ada471e"},
    {14, "deaeca90fbb2d18bf4afe53304222f8d83f0afe85e70e5497a5cc14992ea2d16"},
    {15, "3c2e1da07a9ca55ba3de49aa1692015c45a551ab27417d9469c3ebe3f2e9fe06"},
    {16, "344876148b76401174178f177cd29ed61a371c6c403597facbf1f406f4d27579"},
    {17, "517a0ac4bdf2810939a89756ad217a60336437efd92bb06b523ed883c23ee072"},
    {18, "6c20094c2591ecfbf8d25597feb6423ce282d0c3300dddbf5b0c5ba3ade386a3"},
    {19, "fe1d0ee755066ffe81015beaba3dd8bd43ebd70fc18a52f27b44ead251e5b361"},
    {20, "66dd43da90d968f91e17bf1b3acf8ece9eff4a453e4644b4fdfb99e76f0745eb"},
    {21, "645167ec6a85774922b57808079c948bac73f7295e3c366574b40ce41f524999"},
    {22, "67aa895dd23654f30f08f80cc770056b1306e3b03b0141013920cba26cce5e5d"},
    {23, "2e15cc6c3fbed637f53a79e4f482ff3bde8d727417d66161f889f6424c7b6cf5"},
    {24, "b425a1a37355a66215eba46ec50efc18b34c071c01fa7794267b11abe253c2bf"},
    {25, "cf702c9a373ddc7d54681acafcb5e42df4d7519fe6a7743dc8195a076b551a82"},
    {26, "f3bf70bde6f3108dcbb51645bf8f7fa5dbce904ac4d570077a426e0244f95fa6"},
    {27, "47d799c7e092046de2c421455fbc35014f514ef21afb4c1ed4aa6315f4225848"},
    {28, "2e95b073bc16ca5d4a469539c16aebfd6e4a0731b0a6d8f0759d86f2df69127c"},
    {29, "4f90af3d896d5df8e31a48e87363941cf71f20820db74287a3b621aadeee4838"},
    {30, "6e13999c8a6c9f003e7244e4f2b35618d48d0be28edf7667bf5e8cb4a5a95353"},
    {31, "2eff9dae9f91a16b8c180ffe26e5159a3da57538d31489c9ff4846c54de05bad"},
};

std::string fig1_text(const core::LogEvolutionReport& report) {
  std::ostringstream out;
  out << core::LogEvolutionStudy::render_cumulative(report);
  char cell[64];
  for (const auto& [ca, shares] : report.monthly_share_by_ca) {
    out << "1b " << ca;
    for (const double s : shares) {
      std::snprintf(cell, sizeof cell, " %.6f", s);
      out << cell;
    }
    out << "\n";
  }
  out << core::LogEvolutionStudy::render_matrix(report);
  for (const auto& [log, share] : report.le_log_share) {
    std::snprintf(cell, sizeof cell, " %.6f", share);
    out << "le " << log << cell << "\n";
  }
  for (const auto& [log, count] : report.overload_rejections) {
    out << "overload " << log << " " << count << "\n";
  }
  std::snprintf(cell, sizeof cell, "top5 %.6f sparsity %.6f\n", report.top5_share,
                report.matrix_sparsity);
  out << cell;
  return out.str();
}

std::string table2_text(const core::LeakageReport& report) {
  std::ostringstream out;
  out << core::LeakageStudy::render_table2(report, 20);
  for (const auto& [suffix, label] : report.suffix_signatures) {
    out << "sig " << suffix << " " << label << "\n";
  }
  return out.str();
}

std::string funnel_text(const core::LeakageReport& report) {
  const auto& f = report.funnel;
  std::ostringstream out;
  out << f.labels_selected << " " << f.label_suffix_pairs << " " << f.candidates << " "
      << f.unique_candidates << " " << f.test_replies << " " << f.test_unanswered << " "
      << f.control_replies << " " << f.unroutable_dropped << " " << f.chain_too_long << " "
      << f.control_rejected << " " << f.confirmed << " " << f.known_in_sonar << " " << f.novel
      << "\n";
  for (const std::string& name : f.discoveries) out << name << "\n";
  return out.str();
}

struct Artifacts {
  std::string fig1;
  std::string table2;
  std::string funnel;
  bool conserves = false;
  std::string top_label;
  double top5_share = 0;

  [[nodiscard]] std::string digest() const {
    return sha256_hex(sha256_hex(fig1) + sha256_hex(table2) + sha256_hex(funnel));
  }
};

sim::DomainCorpusOptions corpus_options(std::uint64_t seed) {
  sim::DomainCorpusOptions options;
  options.seed = 7 + seed;
  return options;
}

/// One job: timeline -> Fig 1 -> leakage study. Spans wrap each layer call;
/// they are named job.* so they never mix with the layer replay's spans.
Artifacts run_job(std::uint64_t seed, sim::DomainCorpus& corpus, SpanRecorder& spans,
                  std::uint64_t job) {
  ScopedSpan root(spans, "paper_pipeline.job", job);
  Artifacts a;
  sim::EcosystemOptions options;
  options.scheme = ctwatch::crypto::SignatureScheme::hmac_sha256_simulated;
  options.verify_submissions = false;
  options.store_bodies = false;
  options.seed = 42 + seed;
  sim::Ecosystem ecosystem(options);
  {
    ScopedSpan span(spans, "job.timeline", job);
    sim::TimelineSimulator(ecosystem, sim::TimelineOptions{}).run();
  }
  core::LogEvolutionReport evolution;
  {
    ScopedSpan span(spans, "job.fig1_analysis", job);
    evolution = core::LogEvolutionStudy(ecosystem).run("2018-04");
  }
  {
    ScopedSpan span(spans, "job.fig1_render", job);
    a.fig1 = fig1_text(evolution);
  }
  a.top5_share = evolution.top5_share;
  core::LeakageReport leakage;
  {
    ScopedSpan span(spans, "job.leakage_study", job);
    leakage = core::LeakageStudy(corpus).run();
  }
  {
    ScopedSpan span(spans, "job.leakage_render", job);
    a.table2 = table2_text(leakage);
    a.funnel = funnel_text(leakage);
  }
  a.conserves = leakage.funnel.conserves();
  a.top_label = leakage.top_labels.empty() ? "" : leakage.top_labels.front().first;
  return a;
}

}  // namespace

const char* golden_paper_digest(std::uint64_t seed) {
  for (const Golden& g : kGolden) {
    if (g.seed == seed) return g.digest;
  }
  return nullptr;
}

Outcome run_paper_pipeline(const Args& args, double seconds, SpanRecorder& spans) {
  Outcome out;
  ctwatch::par::TaskPool::set_global_threads(kParWidth);

  std::vector<double> setup_times;
  std::unique_ptr<sim::DomainCorpus> corpus;
  for (int rep = 0; rep < 5; ++rep) {
    corpus.reset();
    const std::int64_t t0 = now_ns();
    corpus = std::make_unique<sim::DomainCorpus>(corpus_options(args.seed));
    setup_times.push_back(seconds_since(t0));
  }

  // Peak RSS reaches its plateau in the second job, so an untraced run
  // always runs two, whatever the host's speed; traced runs report no RSS.
  const std::size_t min_jobs = args.trace ? 1 : 2;
  std::vector<double> job_ms;
  std::vector<std::string> digests;
  const std::int64_t start = now_ns();
  Artifacts first;
  for (std::uint64_t job = 0;; ++job) {
    const std::int64_t t0 = now_ns();
    Artifacts a = run_job(args.seed, *corpus, spans, job);
    job_ms.push_back((now_ns() - t0) / 1e6);
    digests.push_back(a.digest());
    if (job == 0) first = std::move(a);
    const double mean_s = seconds_since(start) / static_cast<double>(job_ms.size());
    if (job_ms.size() >= min_jobs && seconds_since(start) + mean_s > seconds) break;
  }
  const double elapsed = seconds_since(start);

  // --- correctness, outside the window ---
  out.attempted = job_ms.size() + 2;
  for (const std::string& d : digests) {
    if (d != digests.front()) {
      out.failed += 1;
      out.problem("paper_pipeline: jobs of one run disagree on the artifacts");
      break;
    }
  }
  if (!first.conserves || first.top_label != "www" || first.top5_share < 0.9) {
    out.failed += 1;
    out.problem("paper_pipeline: artifact invariants broken (funnel conservation, Table 2 head "
                "'www', top-5 CA share >= 90%)");
  }
  ctwatch::par::TaskPool::set_global_threads(1);
  const core::LeakageReport serial = core::LeakageStudy(*corpus).run();
  ctwatch::par::TaskPool::set_global_threads(kParWidth);
  if (table2_text(serial) != first.table2 || funnel_text(serial) != first.funnel) {
    out.failed += 1;
    out.problem("paper_pipeline: width-1 leakage study differs from width 4");
  }
  std::fprintf(stderr, "[ctbench] paper_pipeline: job ms");
  for (const double ms : job_ms) std::fprintf(stderr, " %.1f", ms);
  std::fprintf(stderr, "\n");
  const char* golden = golden_paper_digest(args.seed);
  std::fprintf(stderr, "[ctbench] paper_pipeline: seed %llu artifact digest %s (golden: %s)\n",
               static_cast<unsigned long long>(args.seed), digests.front().c_str(),
               golden != nullptr ? golden : "none recorded");
  if (golden != nullptr) {
    out.attempted += 1;
    if (digests.front() != golden) {
      out.failed += 1;
      out.problem("paper_pipeline: artifact digest differs from the golden digest");
    }
  }

  const Tail tail = tail_of(job_ms);
  out.add("setup_s", median(setup_times), "s");
  out.add("peak_rss_mb", vm_hwm_mb(), "MB");
  out.add("p50_ms", median(job_ms), "ms");
  out.add("tail_ms", tail.value, "ms");
  out.add("throughput_per_s", static_cast<double>(job_ms.size()) / elapsed, "1/s");
  return out;
}

}  // namespace ctbench
