// Storage churn harness: kill/recover cycles against the durable log store.
//
// Each cycle opens the store (running crash recovery), adopts it into a
// live LogService, submits a stream of entries, and kills the process
// model at a seed-derived write ordinal via the deterministic crash-point
// seam ("storage.crash"). Acknowledged submissions — SCT released, which
// the service only does after the sealed batch is fsync'd — must ALL
// survive into the next cycle: `sealed_lost` stays zero or the binary
// fails. Every recovery is cross-checked cryptographically: the adopted
// STH verifies against the log key, and a consistency proof links the
// last acknowledged head to the recovered head.
//
// Submissions are sequential (one batch per entry), so the write-ordinal
// stream is deterministic: same seed, same crash points, same JSON.
//
//   ./storage_churn --cycles=25 --entries=40 --seed=0x57C4A5 --strict
//
// --strict additionally gates that the churn actually exercised the crash
// path (at least a quarter of the cycles died mid-write) — a degenerate
// run where every cycle closes cleanly must not pass CI as a recovery
// test. Invariant violations (sealed loss, proof failures, refused opens)
// are fatal with or without --strict.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ctwatch/chaos/fault.hpp"
#include "ctwatch/logsvc/logsvc.hpp"
#include "ctwatch/storage/log_store.hpp"

namespace {

using namespace ctwatch;

struct Options {
  std::uint64_t cycles = 25;
  std::uint64_t entries = 40;
  std::uint32_t checkpoint_interval = 4;
  std::uint64_t seed = 0x57C4A5ULL;
  bool strict = false;
};

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return std::strncmp(arg, prefix, n) == 0 ? arg + n : nullptr;
    };
    if (const char* v = value("--cycles="))
      options.cycles = std::strtoull(v, nullptr, 0);
    else if (const char* v = value("--entries="))
      options.entries = std::strtoull(v, nullptr, 0);
    else if (const char* v = value("--checkpoint-interval="))
      options.checkpoint_interval = static_cast<std::uint32_t>(std::strtoull(v, nullptr, 0));
    else if (const char* v = value("--seed="))
      options.seed = std::strtoull(v, nullptr, 0);
    else if (std::strcmp(arg, "--strict") == 0)
      options.strict = true;
    else
      std::fprintf(stderr, "storage_churn: ignoring unknown argument %s\n", arg);
  }
  return options;
}

std::uint64_t xorshift64(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

crypto::Digest digest_of(const std::string& s) { return crypto::Sha256::hash(to_bytes(s)); }

ct::SignedEntry entry_of(std::uint64_t n) {
  ct::SignedEntry entry;
  entry.type = ct::EntryType::x509_entry;
  entry.data = to_bytes("churn-entry-" + std::to_string(n));
  return entry;
}

ct::SubmitResult submit_wait(logsvc::LogService& service, std::uint64_t n) {
  std::promise<ct::SubmitResult> promise;
  auto future = promise.get_future();
  const ct::SubmitStatus status = service.submit(
      entry_of(n), digest_of("churn-fp-" + std::to_string(n)), "Churn CA",
      SimTime::parse("2018-04-01"),
      [&promise](const ct::SubmitResult& outcome) { promise.set_value(outcome); });
  if (status != ct::SubmitStatus::ok) return ct::SubmitResult{status, 0, std::nullopt};
  return future.get();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  bench::banner("storage churn: kill/recover cycles on the durable log store",
                "deterministic crash points; acknowledged entries must survive every kill");

  std::string dir_template = "ctwatch_storage_churn.XXXXXX";
  const char* dir_raw = ::mkdtemp(dir_template.data());
  if (dir_raw == nullptr) {
    std::fprintf(stderr, "storage_churn: mkdtemp failed\n");
    return 2;
  }
  const std::string dir = dir_raw;

  std::uint64_t rng = options.seed | 1;
  std::uint64_t submitted = 0;
  std::uint64_t acked_total = 0;
  std::uint64_t storage_errors = 0;
  std::uint64_t crashed_cycles = 0;
  std::uint64_t orderly_cycles = 0;
  std::uint64_t sealed_lost = 0;
  std::uint64_t replayed_batches = 0;
  std::uint64_t replayed_entries = 0;
  std::uint64_t discarded_unsealed = 0;
  std::uint64_t wal_torn_bytes = 0;
  std::uint64_t stale_wal_records = 0;
  std::uint64_t open_failures = 0;
  std::uint64_t sth_verify_failures = 0;
  std::uint64_t consistency_failures = 0;
  std::vector<double> recovery_us;

  // The last acknowledged head: every later recovery must contain it.
  std::optional<ct::SignedTreeHead> last_acked;

  // Rough ceiling on write ordinals per cycle: 2 per commit (append +
  // sync) plus checkpoint traffic. Drawing crash points from ~1.5x that
  // range mixes mid-write kills with orderly closes.
  const std::uint64_t ordinal_range = options.entries * 3 + 12;

  std::printf("dir %s, %" PRIu64 " cycles x %" PRIu64 " entries, checkpoint every %u, seed 0x%"
              PRIx64 "\n\n",
              dir.c_str(), options.cycles, options.entries, options.checkpoint_interval,
              options.seed);
  std::printf("%5s %9s %7s %9s %9s %10s %8s\n", "cycle", "recovered", "acked", "replayed",
              "discard", "recover_us", "fate");

  const auto wall_start = std::chrono::steady_clock::now();
  for (std::uint64_t cycle = 0; cycle < options.cycles; ++cycle) {
    chaos::FaultInjector injector(options.seed ^ (cycle * 0x9E3779B97F4A7C15ULL));
    const std::uint64_t crash_at = xorshift64(rng) % ordinal_range;
    chaos::FaultPlan plan;
    plan.outages.push_back(chaos::OutageWindow{crash_at, std::uint64_t{1} << 62});
    plan.outage_kind = chaos::FaultKind::error;
    injector.plan("storage.crash", plan);

    storage::LogStoreOptions store_options;
    store_options.dir = dir;
    store_options.chaos = &injector;
    store_options.checkpoint_interval_batches = options.checkpoint_interval;
    storage::LogStore::Open open = storage::LogStore::open(store_options);
    if (!open.store) {
      std::fprintf(stderr, "FAIL: cycle %" PRIu64 " refused to open: %s\n", cycle,
                   open.detail.c_str());
      ++open_failures;
      break;
    }
    const storage::RecoveryReport report = open.store->recovery();  // by value: outlives the store
    replayed_batches += report.replayed_batches;
    replayed_entries += report.replayed_entries;
    discarded_unsealed += report.discarded_unsealed;
    wal_torn_bytes += report.wal_torn_bytes;
    stale_wal_records += report.stale_wal_records;
    recovery_us.push_back(static_cast<double>(report.recovery_us));

    // Every acknowledged entry must have survived the previous kill.
    const std::uint64_t recovered = open.store->tree_size();
    if (recovered < acked_total) sealed_lost += acked_total - recovered;

    logsvc::Config config;
    config.name = "Storage Churn Log";
    config.scheme = crypto::SignatureScheme::hmac_sha256_simulated;
    config.merge_delay = std::chrono::microseconds(200);
    config.storage = open.store.get();
    logsvc::LogService service(config);

    // Cryptographic cross-check: the recovered head verifies under the
    // log key, and extends the last acknowledged head.
    const ct::SignedTreeHead recovered_sth = service.get_sth();
    if (!ct::verify_sth(recovered_sth, service.public_key())) ++sth_verify_failures;
    if (last_acked && recovered >= last_acked->tree_size) {
      const auto proof = service.consistency_proof(last_acked->tree_size, recovered);
      if (!ct::verify_consistency(last_acked->tree_size, recovered, last_acked->root_hash,
                                  recovered_sth.root_hash, proof)) {
        ++consistency_failures;
      }
    }

    std::uint64_t acked_this_cycle = 0;
    bool crashed = false;
    for (std::uint64_t i = 0; i < options.entries; ++i) {
      const ct::SubmitResult outcome = submit_wait(service, submitted);
      ++submitted;
      if (outcome.status == ct::SubmitStatus::ok) {
        ++acked_this_cycle;
        ++acked_total;
        last_acked = service.get_sth();
      } else if (outcome.status == ct::SubmitStatus::storage_error) {
        ++storage_errors;
        crashed = true;
        break;  // fail-stop: the store is dead until reopen
      }
    }
    if (crashed) {
      ++crashed_cycles;
    } else {
      ++orderly_cycles;
    }
    service.stop();
    // Orderly close flushes and checkpoints; after a crash it fails
    // against the latched store, which is exactly the point.
    (void)open.store->close();
    open.store.reset();

    std::printf("%5" PRIu64 " %9" PRIu64 " %7" PRIu64 " %9" PRIu64 " %9" PRIu64 " %10" PRIu64
                " %8s\n",
                cycle, recovered, acked_this_cycle, report.replayed_batches,
                report.discarded_unsealed, report.recovery_us, crashed ? "killed" : "orderly");
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();

  // Final recovery with no chaos: everything acknowledged is served.
  {
    storage::LogStoreOptions store_options;
    store_options.dir = dir;
    store_options.checkpoint_interval_batches = options.checkpoint_interval;
    storage::LogStore::Open open = storage::LogStore::open(store_options);
    if (!open.store) {
      std::fprintf(stderr, "FAIL: final reopen refused: %s\n", open.detail.c_str());
      ++open_failures;
    } else {
      if (open.store->tree_size() < acked_total) {
        sealed_lost += acked_total - open.store->tree_size();
      }
      (void)open.store->close();
    }
  }
  std::filesystem::remove_all(dir);

  const bool invariants_ok =
      sealed_lost == 0 && open_failures == 0 && sth_verify_failures == 0 &&
      consistency_failures == 0;
  // A churn run that never crashed tested nothing; --strict refuses it.
  const bool exercised = crashed_cycles * 4 >= options.cycles;

  std::printf("\n%" PRIu64 " cycles (%" PRIu64 " killed, %" PRIu64 " orderly): %" PRIu64
              "/%" PRIu64 " entries acked, %" PRIu64 " sealed lost\n",
              crashed_cycles + orderly_cycles, crashed_cycles, orderly_cycles, acked_total,
              submitted, sealed_lost);

  bench::emit_result(
      "storage_churn",
      bench::Json()
          .field("cycles", options.cycles)
          .field("entries_per_cycle", options.entries)
          .field("checkpoint_interval", std::uint64_t{options.checkpoint_interval})
          .field("seed", options.seed)
          .field("strict", options.strict),
      bench::Json()
          .field("submitted", submitted)
          .field("acked", acked_total)
          .field("sealed_lost", sealed_lost)
          .field("storage_errors", storage_errors)
          .field("crashed_cycles", crashed_cycles)
          .field("orderly_cycles", orderly_cycles)
          .field("replayed_batches", replayed_batches)
          .field("replayed_entries", replayed_entries)
          .field("discarded_unsealed", discarded_unsealed)
          .field("wal_torn_bytes", wal_torn_bytes)
          .field("stale_wal_records", stale_wal_records)
          .field("open_failures", open_failures)
          .field("sth_verify_failures", sth_verify_failures)
          .field("consistency_failures", consistency_failures)
          .field("recovery_us", bench::Json()
                                    .field("p50", quantile(recovery_us, 0.50), 1)
                                    .field("p99", quantile(recovery_us, 0.99), 1))
          .field("acked_per_sec", elapsed_s > 0 ? acked_total / elapsed_s : 0.0, 1)
          .field("invariants_ok", invariants_ok)
          .field("crash_path_exercised", exercised));

  if (!invariants_ok) {
    std::fprintf(stderr,
                 "FAIL: sealed_lost=%" PRIu64 " open_failures=%" PRIu64
                 " sth_verify_failures=%" PRIu64 " consistency_failures=%" PRIu64 "\n",
                 sealed_lost, open_failures, sth_verify_failures, consistency_failures);
    return 3;
  }
  if (options.strict && !exercised) {
    std::fprintf(stderr,
                 "FAIL (--strict): only %" PRIu64 "/%" PRIu64
                 " cycles hit a crash point; the recovery path was barely exercised\n",
                 crashed_cycles, options.cycles);
    return 4;
  }

  bench::dump_metrics_snapshot(bench::metrics_snapshot_path(argv[0]));
  return 0;
}
