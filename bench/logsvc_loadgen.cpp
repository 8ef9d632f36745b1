// Load generator for ctwatch::logsvc — the "heavy traffic" harness.
//
// Drives a live LogService with N submitter threads (pipelined: each keeps
// submissions in flight and collects SCTs via completion callbacks) and M
// proof-reader threads that continuously fetch STHs and verify inclusion
// and consistency proofs — including against a deliberately stale pinned
// STH, the access pattern gossip/light-monitor designs assume. Reports
// throughput, p50/p99 submit-to-SCT latency, and overload rejections as
// JSON on stdout, and snapshots the obs metrics registry per the
// CTWATCH_METRICS_JSON convention.
//
//   ./logsvc_loadgen --submitters=8 --readers=2 --seconds=2
//
// Exit code is non-zero if any sampled proof fails to verify or any
// accepted submission never completes.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "ctwatch/logsvc/logsvc.hpp"
#include "ctwatch/util/rng.hpp"

namespace {

using namespace ctwatch;
using Clock = std::chrono::steady_clock;

struct Options {
  int submitters = 8;
  int readers = 2;
  double seconds = 2.0;
  std::size_t payload = 64;
  std::size_t queue_capacity = 1 << 16;
  std::size_t max_batch = 1 << 13;
  std::int64_t merge_delay_us = 500;
};

long long parse_ll(const char* text) { return std::strtoll(text, nullptr, 10); }

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return std::strncmp(arg, prefix, n) == 0 ? arg + n : nullptr;
    };
    if (const char* v = value("--submitters=")) options.submitters = static_cast<int>(parse_ll(v));
    else if (const char* v = value("--readers=")) options.readers = static_cast<int>(parse_ll(v));
    else if (const char* v = value("--seconds=")) options.seconds = std::strtod(v, nullptr);
    else if (const char* v = value("--payload=")) options.payload = static_cast<std::size_t>(parse_ll(v));
    else if (const char* v = value("--queue=")) options.queue_capacity = static_cast<std::size_t>(parse_ll(v));
    else if (const char* v = value("--max-batch=")) options.max_batch = static_cast<std::size_t>(parse_ll(v));
    else if (const char* v = value("--merge-delay-us=")) options.merge_delay_us = parse_ll(v);
    else std::fprintf(stderr, "logsvc_loadgen: ignoring unknown argument %s\n", arg);
  }
  return options;
}

struct SubmitterStats {
  std::uint64_t attempted = 0;
  std::uint64_t queued = 0;
  std::uint64_t overloaded = 0;
};

struct ReaderStats {
  std::uint64_t sth_verified = 0;
  std::uint64_t inclusion_verified = 0;
  std::uint64_t consistency_verified = 0;
  std::uint64_t failures = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  bench::banner("logsvc load generator",
                "concurrent submit/proof traffic against the batched log service layer");

  logsvc::Config config;
  config.name = "Loadgen Log";
  config.operator_name = "bench";
  config.scheme = crypto::SignatureScheme::hmac_sha256_simulated;
  config.verify_submissions = false;  // raw submit path: entries are synthetic
  config.store_bodies = false;
  config.dedup = false;
  config.queue_capacity = options.queue_capacity;
  config.max_batch = options.max_batch;
  config.merge_delay = std::chrono::microseconds(options.merge_delay_us);
  logsvc::LogService service(config);

  obs::LogLinearHistogram& latency_us =
      obs::Registry::global().latency("loadgen.submit_to_sct_us");
  std::atomic<std::uint64_t> completed{0};

  const SimTime sim_now = SimTime::parse("2018-04-01");
  const auto started_at = Clock::now();
  const auto deadline =
      started_at + std::chrono::microseconds(static_cast<std::int64_t>(options.seconds * 1e6));

  // --- submitters: pipelined submit loops, SCT latency via callback ---
  std::vector<SubmitterStats> submitter_stats(static_cast<std::size_t>(options.submitters));
  std::vector<std::thread> submitters;
  submitters.reserve(static_cast<std::size_t>(options.submitters));
  for (int t = 0; t < options.submitters; ++t) {
    submitters.emplace_back([&, t] {
      SubmitterStats& stats = submitter_stats[static_cast<std::size_t>(t)];
      ct::SignedEntry entry;
      entry.type = ct::EntryType::x509_entry;
      entry.data.assign(options.payload, static_cast<std::uint8_t>(0xc0 + t));
      crypto::Digest fingerprint{};
      fingerprint[0] = static_cast<std::uint8_t>(t);
      std::uint64_t ordinal = 0;
      while (Clock::now() < deadline) {
        // Stamp the ordinal so every leaf (and fingerprint) is distinct.
        ++ordinal;
        std::memcpy(entry.data.data(), &ordinal, sizeof(ordinal));
        std::memcpy(fingerprint.data() + 1, &ordinal, sizeof(ordinal));
        ++stats.attempted;
        const auto t0 = Clock::now();
        const ct::SubmitStatus status = service.submit(
            ct::SignedEntry{entry}, fingerprint, {}, sim_now,
            [t0, &latency_us, &completed](const ct::SubmitResult&) {
              latency_us.observe(
                  std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
              completed.fetch_add(1, std::memory_order_relaxed);
            });
        if (status == ct::SubmitStatus::ok) {
          ++stats.queued;
        } else {
          ++stats.overloaded;
          std::this_thread::yield();  // backpressure: give the sequencer the core
        }
      }
    });
  }

  // --- readers: verify STH signatures, inclusion + consistency proofs ---
  // Proof construction over n leaves costs O(n) hashing, so readers pin an
  // early STH (<= kPinCap leaves) for their steady-state samples — a
  // *stale* snapshot, as gossip clients hold — and take a full-size proof
  // only every kFullProofPeriod rounds.
  constexpr std::uint64_t kPinCap = 1 << 16;
  constexpr int kFullProofPeriod = 64;
  std::vector<ReaderStats> reader_stats(static_cast<std::size_t>(options.readers));
  std::vector<std::thread> readers;
  readers.reserve(static_cast<std::size_t>(options.readers));
  const Bytes log_key = service.public_key();
  for (int t = 0; t < options.readers; ++t) {
    readers.emplace_back([&, t] {
      ReaderStats& stats = reader_stats[static_cast<std::size_t>(t)];
      Rng rng(0x10adbeefULL + static_cast<std::uint64_t>(t));
      ct::SignedTreeHead pinned;  // tree_size 0 until the first seal
      ct::SignedTreeHead previous_pin;
      int round = 0;
      while (Clock::now() < deadline) {
        ++round;
        const ct::SignedTreeHead sth = service.get_sth();
        if (!ct::verify_sth(sth, log_key)) {
          ++stats.failures;
          std::fprintf(stderr, "reader %d: STH signature failed at size %llu\n", t,
                       static_cast<unsigned long long>(sth.tree_size));
          continue;
        }
        ++stats.sth_verified;
        if (sth.tree_size == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          continue;
        }
        if (sth.tree_size <= kPinCap || pinned.tree_size == 0) {
          previous_pin = pinned.tree_size != 0 ? pinned : sth;
          pinned = sth;
        }
        // Inclusion against the pinned (possibly stale) head.
        {
          const std::uint64_t index = rng() % pinned.tree_size;
          const auto proof = service.inclusion_proof(index, pinned.tree_size);
          if (!ct::verify_inclusion(service.leaf_hash_at(index), index, pinned.tree_size, proof,
                                    pinned.root_hash)) {
            ++stats.failures;
            std::fprintf(stderr, "reader %d: inclusion proof failed (index %llu, size %llu)\n", t,
                         static_cast<unsigned long long>(index),
                         static_cast<unsigned long long>(pinned.tree_size));
          } else {
            ++stats.inclusion_verified;
          }
        }
        // Consistency previous pin -> pin, and periodically pin -> head.
        const bool full_round = round % kFullProofPeriod == 0;
        const ct::SignedTreeHead& old_sth = full_round ? pinned : previous_pin;
        const ct::SignedTreeHead& new_sth = full_round ? sth : pinned;
        if (old_sth.tree_size != 0 && old_sth.tree_size <= new_sth.tree_size) {
          const auto proof = service.consistency_proof(old_sth.tree_size, new_sth.tree_size);
          if (!ct::verify_consistency(old_sth.tree_size, new_sth.tree_size, old_sth.root_hash,
                                      new_sth.root_hash, proof)) {
            ++stats.failures;
            std::fprintf(stderr, "reader %d: consistency proof failed (%llu -> %llu)\n", t,
                         static_cast<unsigned long long>(old_sth.tree_size),
                         static_cast<unsigned long long>(new_sth.tree_size));
          } else {
            ++stats.consistency_verified;
          }
        }
        if (full_round) {
          // One full-size inclusion proof against the fresh head.
          const std::uint64_t index = rng() % sth.tree_size;
          const auto proof = service.inclusion_proof(index, sth.tree_size);
          if (!ct::verify_inclusion(service.leaf_hash_at(index), index, sth.tree_size, proof,
                                    sth.root_hash)) {
            ++stats.failures;
          } else {
            ++stats.inclusion_verified;
          }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
  }

  for (std::thread& thread : submitters) thread.join();
  const double submit_window_s =
      std::chrono::duration<double>(Clock::now() - started_at).count();
  for (std::thread& thread : readers) thread.join();
  service.stop();  // seals the residual queue and flushes every completion
  const double total_s = std::chrono::duration<double>(Clock::now() - started_at).count();

  SubmitterStats submit_total;
  for (const SubmitterStats& stats : submitter_stats) {
    submit_total.attempted += stats.attempted;
    submit_total.queued += stats.queued;
    submit_total.overloaded += stats.overloaded;
  }
  ReaderStats read_total;
  for (const ReaderStats& stats : reader_stats) {
    read_total.sth_verified += stats.sth_verified;
    read_total.inclusion_verified += stats.inclusion_verified;
    read_total.consistency_verified += stats.consistency_verified;
    read_total.failures += stats.failures;
  }

  const std::uint64_t done = completed.load();
  const bool complete = done == submit_total.queued;
  const double throughput = static_cast<double>(done) / submit_window_s;
  const double p50 = latency_us.quantile(0.50);
  const double p90 = latency_us.quantile(0.90);
  const double p99 = latency_us.quantile(0.99);

  std::printf("submitters=%d readers=%d window=%.2fs (total %.2fs)\n", options.submitters,
              options.readers, submit_window_s, total_s);
  std::printf("submits: attempted=%llu queued=%llu overloaded=%llu completed=%llu%s\n",
              static_cast<unsigned long long>(submit_total.attempted),
              static_cast<unsigned long long>(submit_total.queued),
              static_cast<unsigned long long>(submit_total.overloaded),
              static_cast<unsigned long long>(done), complete ? "" : "  [INCOMPLETE]");
  std::printf("throughput: %.0f submits/s (tree size %llu, %llu batches)\n", throughput,
              static_cast<unsigned long long>(service.tree_size()),
              static_cast<unsigned long long>(service.sealed_batches()));
  std::printf("submit-to-SCT latency: p50=%.0fus p90=%.0fus p99=%.0fus\n", p50, p90, p99);
  std::printf("reads: sth=%llu inclusion=%llu consistency=%llu failures=%llu\n",
              static_cast<unsigned long long>(read_total.sth_verified),
              static_cast<unsigned long long>(read_total.inclusion_verified),
              static_cast<unsigned long long>(read_total.consistency_verified),
              static_cast<unsigned long long>(read_total.failures));
  bench::emit_result(
      "logsvc_loadgen",
      bench::Json()
          .field("submitters", options.submitters)
          .field("readers", options.readers)
          .field("window_s", submit_window_s, 3),
      bench::Json()
          .field("attempted", submit_total.attempted)
          .field("queued", submit_total.queued)
          .field("overload_rejected", submit_total.overloaded)
          .field("completed", done)
          .field("throughput_per_s", throughput, 1)
          .field("latency_us",
                 bench::Json().field("p50", p50, 1).field("p90", p90, 1).field("p99", p99, 1))
          .field("reads", bench::Json()
                              .field("sth", read_total.sth_verified)
                              .field("inclusion", read_total.inclusion_verified)
                              .field("consistency", read_total.consistency_verified)
                              .field("failures", read_total.failures)));

  bench::dump_metrics_snapshot(bench::metrics_snapshot_path(argv[0]));
  return (read_total.failures == 0 && complete) ? 0 : 1;
}
