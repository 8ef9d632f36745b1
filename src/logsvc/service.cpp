#include "ctwatch/logsvc/service.hpp"

#include <algorithm>
#include <condition_variable>
#include <stdexcept>

#include "ctwatch/ct/tiled.hpp"
#include "ctwatch/obs/obs.hpp"

namespace ctwatch::logsvc {

namespace {

// Shared across service instances, like ct.log.* — the fleet-wide view.
struct SvcMetrics {
  obs::Counter& submissions = obs::Registry::global().counter("logsvc.submissions");
  obs::Counter& accepted = obs::Registry::global().counter("logsvc.accepted");
  obs::Counter& rejected_invalid = obs::Registry::global().counter("logsvc.rejected_invalid");
  obs::Counter& overloaded = obs::Registry::global().counter("logsvc.overload_rejections");
  obs::Counter& shutdown_rejected = obs::Registry::global().counter("logsvc.shutdown_rejections");
  obs::Counter& chaos_dropped = obs::Registry::global().counter("logsvc.chaos_dropped");
  obs::Counter& signer_failures = obs::Registry::global().counter("logsvc.signer_failures");
  obs::Counter& storage_failures = obs::Registry::global().counter("logsvc.storage_failures");
  obs::Counter& adopted_entries = obs::Registry::global().counter("logsvc.adopted_entries");
  obs::Counter& dedup_hits = obs::Registry::global().counter("logsvc.dedup_hits");
  obs::Counter& sealed_batches = obs::Registry::global().counter("logsvc.sealed_batches");
  obs::Gauge& queue_depth = obs::Registry::global().gauge("logsvc.queue_depth");
  obs::Gauge& tree_size = obs::Registry::global().gauge("logsvc.tree_size");
  obs::LogLinearHistogram& batch_size = obs::Registry::global().latency("logsvc.batch_size");
  obs::LogLinearHistogram& seal_us = obs::Registry::global().latency("logsvc.seal_us");
  obs::LogLinearHistogram& submit_to_sct_us =
      obs::Registry::global().latency("logsvc.submit_to_sct_us");
  // Per-stage latencies — one submission's journey decomposed: ingress,
  // queue wait, merge window, per-entry signing. Fanout dispatch lives in
  // fanout.cpp.
  obs::LogLinearHistogram& submit_us = obs::Registry::global().latency("logsvc.submit_us");
  obs::LogLinearHistogram& queue_wait_us =
      obs::Registry::global().latency("logsvc.queue_wait_us");
  obs::LogLinearHistogram& merge_delay_us =
      obs::Registry::global().latency("logsvc.merge_delay_us");
  obs::LogLinearHistogram& sign_us = obs::Registry::global().latency("logsvc.sign_us");
  // Read path: one sample per proof served. proof_page_fetches counts the
  // tile-cache pages one proof fetched (0 when every tile it touched was
  // resident) — the out-of-core path's cost model, log-linear so 2-page
  // and 200-page proofs separate.
  obs::LogLinearHistogram& inclusion_proof_us =
      obs::Registry::global().latency("logsvc.inclusion_proof_us");
  obs::LogLinearHistogram& consistency_proof_us =
      obs::Registry::global().latency("logsvc.consistency_proof_us");
  obs::LogLinearHistogram& proof_page_fetches =
      obs::Registry::global().latency("storage.proof_page_fetches");
  // One sample per prefix index built (leaf hashes or fingerprints): the
  // one-time cost of whole-log dedup and by-hash over paged storage.
  obs::LogLinearHistogram& prefix_index_build_us =
      obs::Registry::global().latency("logsvc.prefix_index_build_us");
};

SvcMetrics& svc_metrics() {
  static SvcMetrics metrics;
  return metrics;
}

std::uint64_t to_millis(SimTime now) {
  return static_cast<std::uint64_t>(now.unix_seconds()) * 1000;
}

/// What get-entries (and adoption and dedup) serve for a durable record.
ct::LogEntry to_record(storage::DurableEntry durable, bool keep_body) {
  ct::LogEntry record;
  record.index = durable.index;
  record.timestamp_ms = durable.timestamp_ms;
  record.fingerprint = durable.fingerprint;
  record.issuer_cn = std::move(durable.issuer_cn);
  if (durable.has_body && keep_body) record.signed_entry = std::move(durable.entry);
  return record;
}

}  // namespace

LogService::LogService(Config config)
    : config_(std::move(config)),
      signer_(crypto::make_signer("ct-log/" + config_.name, config_.scheme)),
      log_id_(signer_->key_id()),
      queue_(config_.queue_capacity),
      own_cascade_(config_.storage == nullptr
                       ? std::make_unique<ct::TileCascade>()
                       : nullptr),
      fanout_(config_.fanout_buffer) {
  if (config_.storage != nullptr) adopt_storage();
  if (snapshot_ == nullptr) {
    // The signed empty tree.
    publish_snapshot(ct::sign_sth(*signer_, 0, 0, cascade().root()));
  }
  running_.store(true, std::memory_order_release);
  sequencer_ = std::thread([this] { sequencer_main(); });
  obs::log_info("logsvc", "service started",
                {{"log", config_.name},
                 {"queue_capacity", config_.queue_capacity},
                 {"max_batch", config_.max_batch},
                 {"merge_delay_us", static_cast<std::uint64_t>(config_.merge_delay.count())}});
}

LogService::~LogService() { stop(); }

void LogService::stop() {
  bool was_running = running_.exchange(false, std::memory_order_acq_rel);
  queue_.close();
  if (was_running && sequencer_.joinable()) sequencer_.join();
  fanout_.stop();
  if (was_running && config_.storage != nullptr && !config_.storage->failed()) {
    // Orderly stop: every sealed batch is already WAL-durable; the
    // checkpoint just compacts (tiles + entry segment + manifest) so the
    // next open replays nothing.
    (void)config_.storage->checkpoint();
  }
}

void LogService::adopt_storage() {
  storage::LogStore& store = *config_.storage;
  if (!store.durable_sth().has_value()) return;  // fresh directory: nothing to adopt
  const ct::SignedTreeHead sth = *store.durable_sth();
  // The recovered head must be THIS log's head: its signature has to
  // verify under the service key (which derives from Config::name, so a
  // reopened directory demands the same name). Serving a tree under a
  // head someone else signed would be unprovable — refuse to start.
  if (!ct::verify_sth(sth, signer_->public_key())) {
    throw std::runtime_error(
        "logsvc: recovered STH does not verify under this log's key "
        "(storage directory opened under a different Config::name?)");
  }
  const std::uint64_t paged = store.paged_entries();
  std::vector<storage::DurableEntry> tail = store.take_wal_tail();
  if (paged + tail.size() != sth.tree_size) {
    throw std::runtime_error("logsvc: recovered entries do not match the recovered STH");
  }
  // Only the WAL tail is adopted, plus the leaf hashes of the
  // checkpoint's partial last tile, which the store keeps resident;
  // everything checkpointed stays on disk and the read path pages it in.
  resident_base_ = paged;
  leaf_base_ = paged / ct::kTileWidth * ct::kTileWidth;
  if (sth.tree_size - leaf_base_ > leaves_.capacity() || tail.size() > entries_.capacity()) {
    throw std::runtime_error("logsvc: recovered tree exceeds the in-memory store capacity");
  }
  for (std::uint64_t i = leaf_base_; i < resident_base_; ++i) {
    (void)leaves_.append(store.tail_leaf(i));
  }
  for (storage::DurableEntry& durable : tail) {
    const crypto::Digest leaf = durable.leaf_hash;
    const crypto::Digest fingerprint = durable.fingerprint;
    const std::uint64_t index = durable.index;
    if (leaves_.append(leaf) != PushResult::ok ||
        entries_.append(to_record(std::move(durable), config_.store_bodies)) != PushResult::ok) {
      throw std::runtime_error("logsvc: in-memory store refused a recovered entry");
    }
    leaf_index_.insert(leaf, index - leaf_base_, leaf_at());
    dedup_.insert(fingerprint, index - resident_base_, fingerprint_at());
  }
  // The store's cascade, which recovery built, already holds the upper
  // levels and the accumulator: nothing is copied or folded again.
  leaves_.publish();
  entries_.publish();
  last_timestamp_ms_ = store.last_timestamp_ms();
  seal_seq_ = store.seal_seq();
  publish_snapshot(sth);  // the recovered head, verbatim — never re-signed
  svc_metrics().adopted_entries.inc(tail.size());
  obs::log_info("logsvc", "adopted recovered storage",
                {{"log", config_.name},
                 {"tree_size", sth.tree_size},
                 {"resident_base", resident_base_},
                 {"replayed_batches", store.recovery().replayed_batches},
                 {"discarded_unsealed", store.recovery().discarded_unsealed}});
}

ct::SubmitStatus LogService::submit(ct::SignedEntry entry, const crypto::Digest& fingerprint,
                                std::string issuer_cn, SimTime now, CompletionFn done) {
  SvcMetrics& metrics = svc_metrics();
  // Root of the submission's causal tree: the sequencer's per-entry span
  // and the fanout dispatch span both descend from this one via the
  // context captured into Pending below.
  obs::Span submit_span("logsvc.submit");
  obs::ScopedTimer submit_timer(metrics.submit_us);
  metrics.submissions.inc();
  if (!running_.load(std::memory_order_acquire)) return ct::SubmitStatus::shutdown;

  if (config_.chaos != nullptr) {
    const chaos::FaultDecision decision =
        config_.chaos->evaluate(config_.chaos_prefix + ".submit", to_millis(now) * 1000);
    if (decision.faulted()) {
      chaos_dropped_.fetch_add(1, std::memory_order_relaxed);
      metrics.chaos_dropped.inc();
      obs::flight_note("logsvc.chaos_drop", to_millis(now));
      obs::log_debug("logsvc", "submission dropped by fault injection", {{"log", config_.name}});
      return ct::SubmitStatus::dropped;
    }
  }

  Pending pending;
  pending.entry = std::move(entry);
  pending.fingerprint = fingerprint;
  pending.issuer_cn = std::move(issuer_cn);
  pending.timestamp_ms = to_millis(now);
  pending.enqueued_at = std::chrono::steady_clock::now();
  pending.trace = submit_span.context();
  pending.done = std::move(done);

  switch (queue_.try_push(std::move(pending))) {
    case PushResult::ok:
      return ct::SubmitStatus::ok;
    case PushResult::full:
      overload_rejections_.fetch_add(1, std::memory_order_relaxed);
      metrics.overloaded.inc();
      obs::flight_note("logsvc.overloaded", queue_.depth());
      obs::log_debug("logsvc", "submission rejected for overload", {{"log", config_.name}});
      return ct::SubmitStatus::overloaded;
    case PushResult::closed:
      break;
  }
  metrics.shutdown_rejected.inc();
  return ct::SubmitStatus::shutdown;
}

ct::SubmitStatus LogService::submit_validated(const x509::Certificate& cert,
                                              BytesView issuer_public_key, SimTime now,
                                              ct::EntryType type, CompletionFn done) {
  // Validation runs in the submitting thread, so it parallelizes across
  // producers instead of serializing in the sequencer.
  if (config_.verify_submissions && !cert.verify(issuer_public_key)) {
    svc_metrics().rejected_invalid.inc();
    obs::log_debug("logsvc", "submission failed chain verification",
                   {{"log", config_.name}, {"issuer", cert.tbs.issuer.common_name}});
    return ct::SubmitStatus::rejected_invalid;
  }
  ct::SignedEntry entry = (type == ct::EntryType::precert_entry)
                              ? ct::make_precert_entry(cert, issuer_public_key)
                              : ct::make_x509_entry(cert);
  return submit(std::move(entry), cert.fingerprint(), cert.tbs.issuer.common_name, now,
                std::move(done));
}

ct::SubmitStatus LogService::submit_chain(const x509::Certificate& cert,
                                          BytesView issuer_public_key, SimTime now,
                                          CompletionFn done) {
  if (cert.is_precertificate()) {
    svc_metrics().rejected_invalid.inc();
    return ct::SubmitStatus::rejected_invalid;
  }
  return submit_validated(cert, issuer_public_key, now, ct::EntryType::x509_entry,
                          std::move(done));
}

ct::SubmitStatus LogService::submit_pre_chain(const x509::Certificate& precert,
                                              BytesView issuer_public_key, SimTime now,
                                              CompletionFn done) {
  if (!precert.is_precertificate()) {
    svc_metrics().rejected_invalid.inc();
    return ct::SubmitStatus::rejected_invalid;
  }
  return submit_validated(precert, issuer_public_key, now, ct::EntryType::precert_entry,
                          std::move(done));
}

ct::SubmitResult LogService::submit_and_wait(const x509::Certificate& cert,
                                             BytesView issuer_public_key, SimTime now) {
  struct Waiter {
    std::mutex mu;
    std::condition_variable cv;
    bool ready = false;
    ct::SubmitResult outcome;
  };
  auto waiter = std::make_shared<Waiter>();
  auto done = [waiter](const ct::SubmitResult& outcome) {
    {
      std::lock_guard<std::mutex> lock(waiter->mu);
      waiter->outcome = outcome;
      waiter->ready = true;
    }
    waiter->cv.notify_one();
  };
  const ct::SubmitStatus status =
      cert.is_precertificate() ? submit_pre_chain(cert, issuer_public_key, now, done)
                               : submit_chain(cert, issuer_public_key, now, done);
  if (status != ct::SubmitStatus::ok) return ct::SubmitResult{status, 0, std::nullopt};
  std::unique_lock<std::mutex> lock(waiter->mu);
  waiter->cv.wait(lock, [&] { return waiter->ready; });
  return waiter->outcome;
}

std::shared_ptr<const TreeSnapshot> LogService::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

/// Every proof runs over one ct::LogTileSource. Level 0 at or above
/// leaf_base_ points straight into leaves_: leaf_base_ is tile-aligned and
/// a tile-aligned run never straddles a 2^14-entry chunk. Below
/// leaf_base_ (storage-backed services only) the store's tile cache
/// serves level 0, pinned for the proof's lifetime; a page that fails to
/// load there is corruption, and the source throws. Levels >= 1 come from
/// the log's cascade. The published size is snapshotted once; every
/// subtree below it is immutable, so stale tree sizes prove against it too.
template <typename Proof>
std::vector<crypto::Digest> LogService::prove(const Proof& proof) const {
  std::optional<storage::PagedLeafSource> paged;
  if (leaf_base_ > 0) {
    paged.emplace(config_.storage->tile_cache(), leaf_base_, nullptr);  // runs only, no leaf()
  }
  ct::LogTileSource source(cascade(), tree_size(),
                           [&](std::uint64_t first, std::uint64_t count) -> const crypto::Digest* {
                             if (first >= leaf_base_) return &leaves_.at(first - leaf_base_);
                             ct::TilePageView run;
                             return paged->entries(0, first, count, run) ? run.entries : nullptr;
                           });
  std::vector<crypto::Digest> path = proof(source);
  svc_metrics().proof_page_fetches.observe(static_cast<double>(paged ? paged->page_fetches() : 0));
  return path;
}

std::vector<crypto::Digest> LogService::inclusion_proof(std::uint64_t index,
                                                        std::uint64_t tree_size) const {
  if (tree_size > this->tree_size() || index >= tree_size) {
    throw std::out_of_range("LogService::inclusion_proof: bad index/size");
  }
  obs::ScopedTimer timer(svc_metrics().inclusion_proof_us);
  return prove(
      [&](ct::TileSource& source) { return ct::tiled_inclusion_path(source, index, tree_size); });
}

std::vector<crypto::Digest> LogService::consistency_proof(std::uint64_t old_size,
                                                          std::uint64_t new_size) const {
  if (new_size > tree_size() || old_size > new_size) {
    throw std::out_of_range("LogService::consistency_proof: bad sizes");
  }
  obs::ScopedTimer timer(svc_metrics().consistency_proof_us);
  return prove([&](ct::TileSource& source) {
    return ct::tiled_consistency_path(source, old_size, new_size);
  });
}

crypto::Digest LogService::leaf_hash_at(std::uint64_t index) const {
  if (index >= tree_size()) {
    throw std::out_of_range("LogService::leaf_hash_at: beyond published size");
  }
  if (index >= leaf_base_) return leaves_.at(index - leaf_base_);
  storage::TileCache::PagePtr page =
      config_.storage->tile_cache().get(0, index >> 8, (index & 255) + 1);
  if (page == nullptr) {
    throw std::runtime_error("logsvc: tile page unavailable for checkpointed leaf");
  }
  return page->leaves[static_cast<std::size_t>(index & 255)];
}

template <typename Load>
std::optional<std::uint64_t> LogService::find_in_prefix(PrefixIndex& prefix,
                                                        const crypto::Digest& key,
                                                        const Load& load) const {
  if (resident_base_ == 0) return std::nullopt;
  const auto key_at = [&prefix](std::uint64_t position) -> const crypto::Digest& {
    return prefix.keys[static_cast<std::size_t>(position)];
  };
  std::call_once(prefix.built, [&] {
    obs::ScopedTimer timer(svc_metrics().prefix_index_build_us);
    prefix.keys.clear();  // a failed earlier build may have left a part
    prefix.keys.reserve(resident_base_);
    load(prefix.keys);
    if (prefix.keys.size() != resident_base_) {
      throw std::runtime_error("logsvc: checkpointed prefix is shorter than adopted");
    }
    prefix.index.reserve(prefix.keys.size());
    for (std::uint64_t i = 0; i < resident_base_; ++i) {
      prefix.index.insert(prefix.keys[static_cast<std::size_t>(i)], i, key_at);  // first wins
    }
  });
  return prefix.index.find(key, key_at);
}

std::optional<std::uint64_t> LogService::leaf_index_of(const crypto::Digest& leaf_hash) const {
  // The checkpointed prefix first: the whole log's first occurrence wins.
  const auto paged = find_in_prefix(prefix_leaves_, leaf_hash, [this](auto& keys) {
    const storage::IoError io = config_.storage->stream_paged_leaves(
        0, resident_base_,
        [&keys](std::uint64_t, const crypto::Digest* hashes, std::uint64_t count) {
          keys.insert(keys.end(), hashes, hashes + count);
          return true;
        });
    if (io != storage::IoError::none) {
      throw std::runtime_error("logsvc: failed to stream tile pages for get-proof-by-hash");
    }
  });
  if (paged) return paged;
  std::lock_guard<std::mutex> lock(leaf_index_mu_);
  if (const auto position = leaf_index_.find(leaf_hash, leaf_at())) {
    return leaf_base_ + *position;
  }
  return std::nullopt;
}

std::optional<ct::LogEntry> LogService::prefix_record(const crypto::Digest& fingerprint) {
  const auto index = find_in_prefix(prefix_fingerprints_, fingerprint, [this](auto& keys) {
    const storage::IoError io = config_.storage->entry_reader().scan(
        0, resident_base_,
        [&keys](storage::DurableEntry& durable) { keys.push_back(durable.fingerprint); });
    if (io != storage::IoError::none) {
      throw std::runtime_error("logsvc: failed to scan the entry segment for dedup");
    }
  });
  if (!index) return std::nullopt;
  std::vector<storage::DurableEntry> durable;
  if (config_.storage->read_entries(*index, 1, durable) != storage::IoError::none) {
    throw std::runtime_error("logsvc: failed to read a checkpointed entry for dedup");
  }
  return to_record(std::move(durable.front()), false);
}

std::vector<ct::LogEntry> LogService::get_entries(std::uint64_t start, std::uint64_t count) const {
  const std::uint64_t published = resident_base_ + entries_.size();
  std::vector<ct::LogEntry> out;
  if (start >= published || count == 0) return out;
  // Clamp before any arithmetic: `start + count` on attacker-supplied
  // values can wrap uint64 and turn the window into "everything".
  std::uint64_t window = std::min(count, config_.max_get_entries);
  window = std::min(window, published - start);
  out.reserve(window);
  if (start < resident_base_) {
    // The checkpointed prefix comes from entries.seg via the sparse
    // index; a window straddling the boundary finishes from memory.
    const std::uint64_t paged = std::min(window, resident_base_ - start);
    std::vector<storage::DurableEntry> durables;
    durables.reserve(paged);
    if (config_.storage->read_entries(start, paged, durables) != storage::IoError::none) {
      throw std::runtime_error("logsvc: get-entries failed to read the entry segment");
    }
    for (storage::DurableEntry& durable : durables) {
      out.push_back(to_record(std::move(durable), config_.store_bodies));
    }
  }
  for (std::uint64_t i = std::max(start, resident_base_); i < start + window; ++i) {
    out.push_back(entries_.at(i - resident_base_));
  }
  return out;
}

void LogService::publish_snapshot(ct::SignedTreeHead sth) {
  // The STH is signed exactly once, before the durable commit, and the
  // committed object is the published object: after a crash, recovery
  // republishes these same bytes instead of re-signing (which would fork
  // the log's own history for anyone who kept the pre-crash head).
  auto snapshot = std::make_shared<TreeSnapshot>();
  snapshot->sth = std::move(sth);
  snapshot->seal_seq = seal_seq_;
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  snapshot_ = std::move(snapshot);
}

void LogService::sequencer_main() {
  SvcMetrics& metrics = svc_metrics();
  std::vector<Pending> batch;
  while (queue_.wait_nonempty()) {
    // Frozen by the backpressure tests: hold off draining so the queue
    // can be filled deterministically.
    while (paused_.load(std::memory_order_relaxed) && !queue_.closed()) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    // The merge-delay window opens at the first pending submission and
    // closes at the deadline or when the batch is full.
    const auto window_open = std::chrono::steady_clock::now();
    const auto deadline = window_open + config_.merge_delay;
    batch.clear();
    queue_.drain(batch, config_.max_batch);
    while (batch.size() < config_.max_batch && queue_.wait_nonempty_until(deadline)) {
      queue_.drain(batch, config_.max_batch - batch.size());
    }
    // Observed merge delay: how long this batch was actually held open
    // (short of the configured MMD when max_batch filled it early).
    metrics.merge_delay_us.observe(std::chrono::duration<double, std::micro>(
                                       std::chrono::steady_clock::now() - window_open)
                                       .count());
    metrics.queue_depth.set(static_cast<std::int64_t>(queue_.depth()));
    seal_batch(batch);
  }
  metrics.queue_depth.set(0);
  obs::log_info("logsvc", "sequencer drained and exiting",
                {{"log", config_.name}, {"tree_size", cascade().size()}});
}

void LogService::seal_batch(std::vector<Pending>& batch) {
  if (batch.empty()) return;
  SvcMetrics& metrics = svc_metrics();
  CTWATCH_SPAN("logsvc.seal");
  obs::ScopedTimer seal_timer(metrics.seal_us);
  const ct::TileCascade& tree = cascade();
  const std::uint64_t base = tree.size();
  obs::flight_note("logsvc.seal", batch.size(), base);

  if (config_.chaos != nullptr) {
    // Delayed sealing: a stalled sequencer, the MMD stretched. The batch
    // still seals — late, with the queue absorbing the backlog meanwhile.
    const chaos::FaultDecision stall = config_.chaos->evaluate(
        config_.chaos_prefix + ".seal", batch.front().timestamp_ms * 1000);
    if (stall.latency_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(stall.latency_us));
    }
  }

  // The seal is staged, committed, then applied. The stage phase computes
  // everything (leaf hashes, SCTs, records, the batch's one Merkle fold)
  // WITHOUT mutating any shared state; the commit phase makes the batch
  // durable (when a storage backend is configured); only then does the
  // apply phase publish to the in-memory stores and release completions.
  // A failed commit therefore leaves memory exactly at the last durable
  // state — the service never serves a root the disk cannot prove.
  struct Completion {
    CompletionFn done;
    ct::SubmitResult outcome;
    std::chrono::steady_clock::time_point enqueued_at;
  };
  std::vector<Completion> completions;
  completions.reserve(batch.size());
  std::vector<StreamEvent> events;
  events.reserve(batch.size());
  std::vector<crypto::Digest> new_leaves;
  std::vector<ct::LogEntry> new_records;
  std::vector<storage::DurableEntry> durables;
  // Completions whose outcome presumes this batch integrates (fresh
  // appends AND intra-batch dedup hits): flipped to storage_error if the
  // durable commit refuses.
  std::vector<std::size_t> contingent;
  // fingerprint -> position in new_records: the batch's own dedup, where
  // the first occurrence wins.
  ct::DigestIndex batch_dedup;
  const auto staged_fingerprint = [&new_records](std::uint64_t position) -> const crypto::Digest& {
    return new_records[static_cast<std::size_t>(position)].fingerprint;
  };

  const auto seal_started = std::chrono::steady_clock::now();
  Bytes leaf_bytes;
  for (Pending& pending : batch) {
    // Restore the submitter's trace position so this per-entry span (and
    // the fanout dispatch span that descends from it) land in the
    // submission's causal tree despite running on the sequencer thread.
    obs::ContextScope link(pending.trace);
    obs::Span entry_span("logsvc.seal_entry");
    metrics.queue_wait_us.observe(
        std::chrono::duration<double, std::micro>(seal_started - pending.enqueued_at).count());
    last_timestamp_ms_ = std::max(last_timestamp_ms_, pending.timestamp_ms);

    if (config_.chaos != nullptr &&
        config_.chaos->evaluate(config_.chaos_prefix + ".sign", pending.timestamp_ms * 1000)
            .faulted()) {
      // Signer failure: the entry is not integrated, but the submitter
      // still hears about it — a counted failure, never silence.
      signer_failures_.fetch_add(1, std::memory_order_relaxed);
      metrics.signer_failures.inc();
      obs::flight_note("logsvc.signer_failure", pending.timestamp_ms);
      completions.push_back({std::move(pending.done),
                             ct::SubmitResult{ct::SubmitStatus::internal_error, 0, std::nullopt},
                             pending.enqueued_at});
      continue;
    }

    // RFC 6962 resubmission semantics: re-issue the SCT over the
    // original timestamp instead of growing the tree. The whole log
    // counts: the checkpointed prefix, the resident tail, then this
    // batch. Hits against entries staged in THIS batch are contingent
    // on the commit.
    std::optional<ct::LogEntry> paged;
    try {
      paged = prefix_record(pending.fingerprint);
    } catch (const std::runtime_error& e) {
      // Whether this is a resubmission is unknown: refuse it rather
      // than risk logging one certificate twice.
      obs::log_warn("logsvc", "dedup could not read the checkpointed prefix",
                    {{"log", config_.name}, {"error", std::string(e.what())}});
      completions.push_back({std::move(pending.done),
                             ct::SubmitResult{ct::SubmitStatus::storage_error, 0, std::nullopt},
                             pending.enqueued_at});
      continue;
    }
    const ct::LogEntry* prior = nullptr;
    bool prior_in_batch = false;
    if (paged) {
      prior = &*paged;
    } else if (const auto position = dedup_.find(pending.fingerprint, fingerprint_at())) {
      prior = &entries_.at(*position);
    } else if (const auto staged = batch_dedup.find(pending.fingerprint, staged_fingerprint)) {
      prior = &new_records[static_cast<std::size_t>(*staged)];
      prior_in_batch = true;
    }
    if (prior != nullptr) {
      metrics.dedup_hits.inc();
      if (prior_in_batch) contingent.push_back(completions.size());
      completions.push_back({std::move(pending.done),
                             ct::SubmitResult{ct::SubmitStatus::ok, prior->index,
                                              ct::sign_sct(*signer_, log_id_, prior->timestamp_ms,
                                                           pending.entry)},
                             pending.enqueued_at});
      continue;
    }

    const std::uint64_t index = base + new_leaves.size();
    leaf_bytes = ct::merkle_leaf_bytes(pending.timestamp_ms, pending.entry);
    const crypto::Digest leaf = ct::leaf_hash(leaf_bytes);
    ct::SignedCertificateTimestamp sct;
    {
      obs::ScopedTimer sign_timer(metrics.sign_us);
      sct = ct::sign_sct(*signer_, log_id_, pending.timestamp_ms, pending.entry);
    }

    batch_dedup.insert(pending.fingerprint, new_records.size(), staged_fingerprint);

    const ct::SignedEntry no_body;
    if (config_.storage != nullptr) {
      durables.push_back({.index = index, .timestamp_ms = pending.timestamp_ms, .leaf_hash = leaf,
                          .fingerprint = pending.fingerprint, .issuer_cn = pending.issuer_cn,
                          .has_body = config_.store_bodies,
                          .entry = config_.store_bodies ? pending.entry : no_body});
    }
    new_records.push_back(
        {.index = index, .timestamp_ms = pending.timestamp_ms,
         .signed_entry = config_.store_bodies ? std::move(pending.entry) : no_body,
         .issuer_cn = pending.issuer_cn, .fingerprint = pending.fingerprint});
    events.push_back({.index = index, .timestamp_ms = pending.timestamp_ms, .leaf_hash = leaf,
                      .fingerprint = pending.fingerprint,
                      .issuer_cn = std::move(pending.issuer_cn), .trace = entry_span.context()});
    new_leaves.push_back(leaf);
    contingent.push_back(completions.size());
    completions.push_back({std::move(pending.done),
                           ct::SubmitResult{ct::SubmitStatus::ok, index, std::move(sct)},
                           pending.enqueued_at});
  }
  const std::uint64_t appended = new_leaves.size();

  // Commit: fold the batch once, sign the head over that fold, make it
  // durable, and only then let anything observe it. Capacity exhaustion
  // in the memory stores is checked BEFORE the disk commit — committing a
  // batch the memory image cannot hold would fork disk from memory.
  bool committed = appended > 0;
  ct::TileCascade::Staged staged;
  ct::SignedTreeHead sth;
  if (appended > 0) {
    if (leaves_.write_pos() + appended > leaves_.capacity() ||
        entries_.write_pos() + appended > entries_.capacity() ||
        appended > ct::TileCascade::kLeafCapacity - base) {
      committed = false;
      obs::log_warn("logsvc", "batch refused: in-memory store capacity exhausted",
                    {{"log", config_.name}, {"tree_size", base}});
    } else {
      staged = tree.stage(std::move(new_leaves));
      sth = ct::sign_sth(*signer_, staged.size(), last_timestamp_ms_, staged.root);
    }
    if (committed && config_.storage != nullptr) {
      // The store checks the staged fold against the entries and the STH
      // by comparison and, once durable, applies it to its cascade.
      storage::BatchCommit commit;
      commit.entries = std::move(durables);
      commit.sth = sth;
      commit.seal_seq = seal_seq_ + 1;
      const storage::IoResult io = config_.storage->commit_batch(commit, staged);
      committed = io.ok();
      if (!committed) {
        obs::log_warn("logsvc", "durable commit failed; batch not integrated",
                      {{"log", config_.name},
                       {"error", std::string(storage::to_string(io.error))},
                       {"tree_size", base}});
      }
    }
  }

  if (committed) {
    // Apply + publish order matters: the cascade's upper levels first
    // (a storage-backed commit applied the store's already), then the
    // leaves, then the snapshot that readers bound their accesses by,
    // then the completions that tell submitters their entry is provable.
    if (own_cascade_ != nullptr) own_cascade_->apply(staged);
    for (std::uint64_t i = 0; i < appended; ++i) {
      const crypto::Digest& leaf = staged.leaves[static_cast<std::size_t>(i)];
      ct::LogEntry& record = new_records[static_cast<std::size_t>(i)];
      (void)leaves_.append(leaf);
      {
        std::lock_guard<std::mutex> lock(leaf_index_mu_);
        leaf_index_.insert(leaf, base + i - leaf_base_, leaf_at());
      }
      dedup_.insert(record.fingerprint, base + i - resident_base_, fingerprint_at());
      (void)entries_.append(std::move(record));
    }
    leaves_.publish();
    entries_.publish();
    ++seal_seq_;
    publish_snapshot(std::move(sth));
    sealed_batches_.fetch_add(1, std::memory_order_relaxed);
    metrics.sealed_batches.inc();
    metrics.tree_size.set(static_cast<std::int64_t>(base + appended));
  } else if (appended > 0) {
    // The batch is NOT part of the tree (fail-stop): every contingent
    // completion reports storage_error, nothing streams, and the last
    // durable snapshot keeps serving reads.
    storage_failures_.fetch_add(1, std::memory_order_relaxed);
    metrics.storage_failures.inc();
    obs::flight_note("logsvc.storage_failure", base);
    for (const std::size_t index : contingent) {
      completions[index].outcome =
          ct::SubmitResult{ct::SubmitStatus::storage_error, 0, std::nullopt};
    }
    events.clear();
  }
  metrics.batch_size.observe(static_cast<double>(batch.size()));
  accepted_.fetch_add(batch.size(), std::memory_order_relaxed);

  const auto sealed_at = std::chrono::steady_clock::now();
  for (Completion& completion : completions) {
    if (completion.outcome.status == ct::SubmitStatus::ok) metrics.accepted.inc();
    metrics.submit_to_sct_us.observe(
        std::chrono::duration<double, std::micro>(sealed_at - completion.enqueued_at).count());
    if (completion.done) completion.done(completion.outcome);
  }
  for (const StreamEvent& event : events) fanout_.publish(event);
}

}  // namespace ctwatch::logsvc
