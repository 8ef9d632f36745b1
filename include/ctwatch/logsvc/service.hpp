// ctwatch::logsvc — a concurrent, batched CT log service.
//
// `ct::CtLog` is the protocol model: single-threaded, integrating every
// leaf the moment it is submitted. Real logs do neither — they absorb
// concurrent submissions into a queue, integrate in batches under a merge
// delay (the MMD), and serve reads from signed-tree-head snapshots. This
// module is that production shape, built from the same ct primitives
// (merkle math, SCT/STH signing, wire serialization) and speaking the same
// vocabulary (ct::LogEntry, ct::SubmitStatus, ct::SubmitResult):
//
//   submit() ──> BoundedQueue ──> sequencer thread ──> seal batch:
//                (backpressure:      drains under        bulk Merkle
//                 full = fail        the merge-delay     integration,
//                 fast with          window, up to       per-entry SCTs,
//                 `overloaded`)      max_batch           one signed STH
//                                                          │
//            readers (any thread) <── TreeSnapshot <───────┘
//            get-sth / inclusion / consistency / get-entries run against
//            the published snapshot + append-only stores: no lock shared
//            with the write path
//                                                          │
//            StreamFanout ──> per-subscriber ring + thread ┘
//            slow consumers drop (counted), never stall the sequencer
//
// Completion is asynchronous: submit() enqueues and returns; the SCT is
// delivered to the submission's CompletionFn when its batch seals. That
// is what lets a handful of submitter threads keep hundreds of
// submissions in flight (ctbench's ct_submit workload drives that shape
// over the wire).
//
// Resubmission always deduplicates, as RFC 6962 logs do: a certificate
// whose fingerprint the log already holds gets a fresh SCT over its
// original timestamp and index, and the tree does not grow.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ctwatch/chaos/fault.hpp"
#include "ctwatch/ct/digest_index.hpp"
#include "ctwatch/ct/log.hpp"
#include "ctwatch/ct/merkle.hpp"
#include "ctwatch/ct/sct.hpp"
#include "ctwatch/logsvc/fanout.hpp"
#include "ctwatch/logsvc/queue.hpp"
#include "ctwatch/obs/trace.hpp"
#include "ctwatch/storage/log_store.hpp"
#include "ctwatch/util/time.hpp"

namespace ctwatch::logsvc {

struct Config {
  std::string name = "logsvc";  ///< log identity; the signing key derives from it
  std::string operator_name;
  crypto::SignatureScheme scheme = crypto::SignatureScheme::ecdsa_p256_sha256;
  /// Applies to the validating submit_chain/submit_pre_chain paths; the
  /// raw submit() path trusts its caller (as bulk simulations do).
  bool verify_submissions = true;
  /// Retain SignedEntry bodies in the entry store (get-entries returns
  /// them). Bulk harnesses (tile_scale, the crash matrix) disable this to
  /// keep the record slim; dedup keys on the fingerprint either way.
  bool store_bodies = true;
  /// Backpressure depth: submissions beyond this fail fast as overloaded.
  std::size_t queue_capacity = std::size_t(1) << 16;
  /// Seal a batch early once it reaches this many submissions.
  std::size_t max_batch = std::size_t(1) << 12;
  /// MMD-style merge delay: how long the sequencer holds a batch open
  /// after its first submission before sealing.
  std::chrono::microseconds merge_delay{1000};
  /// Per-subscriber ring depth for the streaming fanout.
  std::size_t fanout_buffer = std::size_t(1) << 16;
  /// get_entries window cap: a single read returns at most this many
  /// entries regardless of the requested count (RFC 6962 §4.6 lets logs
  /// return fewer than asked; production logs cap near 1000).
  std::uint64_t max_get_entries = 1024;
  /// Optional fault seams (not owned; nullptr disables chaos). The
  /// service consults three points, named under `chaos_prefix`:
  ///   "<prefix>.submit" — faults drop the submission at ingress
  ///                       (returned as ct::SubmitStatus::dropped),
  ///   "<prefix>.seal"   — injected latency stalls the sequencer before
  ///                       it seals a batch (delayed merge),
  ///   "<prefix>.sign"   — per-entry signer failure: the entry is not
  ///                       integrated and its completion carries
  ///                       ct::SubmitStatus::internal_error.
  chaos::FaultInjector* chaos = nullptr;
  std::string chaos_prefix = "logsvc";
  /// Optional durable backing store (not owned; nullptr keeps the
  /// service memory-only, exactly as before). When set, the store's
  /// ct::TileCascade is the log's one Merkle state, which the service
  /// stages on and proves through. The constructor ADOPTS the store's
  /// recovered state and republishes the recovered STH verbatim (the
  /// store must have been opened with the same log name: the recovered
  /// STH's signature is verified against this service's key, and a
  /// mismatch throws). Adoption keeps only the recovered WAL tail
  /// resident: leaf hashes and entries below the recovered checkpoint
  /// page in from the store's tile cache and entry segment, so reopening
  /// a huge log costs O(WAL tail) memory (plus the upper tile levels,
  /// 1/255 of the leaf hashes). Dedup and get-proof-by-hash still cover
  /// the whole log: each builds an index over the checkpointed prefix on
  /// first use (see PrefixIndex). Each sealed batch is committed (WAL +
  /// fsync) BEFORE its snapshot is published or its SCTs are released,
  /// so get-sth never serves a root the disk cannot prove. The first
  /// storage failure poisons the write path fail-stop: later batches
  /// complete with ct::SubmitStatus::storage_error while reads keep
  /// serving the last durable snapshot.
  storage::LogStore* storage = nullptr;
};

/// logsvc's former names for ct's vocabulary, kept only because ctbench/
/// still spells them; everything else uses the ct names. ct::SubmitStatus
/// documents the logsvc-only values (shutdown, dropped, internal_error,
/// storage_error), and a ct::LogEntry here keeps its signed_entry body only
/// when Config::store_bodies.
using SubmitStatus = ct::SubmitStatus;
using SubmitOutcome = ct::SubmitResult;
using EntryRecord = ct::LogEntry;

/// Invoked exactly once per accepted submission, from the sequencer
/// thread, after the batch's STH snapshot is published (so inclusion can
/// be proven immediately). Must be cheap and must not call back into the
/// service's write path.
using CompletionFn = std::function<void(const ct::SubmitResult&)>;

/// An immutable published view of the tree: what every read serves from.
struct TreeSnapshot {
  ct::SignedTreeHead sth;
  std::uint64_t seal_seq = 0;  ///< number of sealed batches behind this head
};

class LogService {
 public:
  /// Starts the sequencer; the service accepts submissions immediately.
  explicit LogService(Config config);
  /// Graceful: equivalent to stop().
  ~LogService();

  LogService(const LogService&) = delete;
  LogService& operator=(const LogService&) = delete;

  /// Seals everything already queued, publishes the final STH, joins the
  /// sequencer and fanout threads. Idempotent. Submissions racing with
  /// stop() fail with `shutdown` or `overloaded`.
  void stop();

  // --- identity ---
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] Bytes public_key() const { return signer_->public_key(); }
  [[nodiscard]] const ct::LogId& log_id() const { return log_id_; }

  // --- write path (any thread) ---

  /// Raw submission: a pre-built SignedEntry plus its certificate
  /// fingerprint (dedup key) and issuer CN. Returns `ok` when queued; the
  /// outcome (SCT + index) arrives via `done` at seal time.
  ct::SubmitStatus submit(ct::SignedEntry entry, const crypto::Digest& fingerprint,
                          std::string issuer_cn, SimTime now, CompletionFn done = {});

  /// add-chain: validates (per Config::verify_submissions) and submits a
  /// final certificate.
  ct::SubmitStatus submit_chain(const x509::Certificate& cert, BytesView issuer_public_key,
                                SimTime now, CompletionFn done = {});
  /// add-pre-chain: validates and submits a precertificate.
  ct::SubmitStatus submit_pre_chain(const x509::Certificate& precert, BytesView issuer_public_key,
                                    SimTime now, CompletionFn done = {});

  /// Blocking convenience over submit_chain/submit_pre_chain (picks by
  /// the poison extension): waits through the merge delay for the SCT.
  ct::SubmitResult submit_and_wait(const x509::Certificate& cert, BytesView issuer_public_key,
                                   SimTime now);

  // --- read path (any thread; never contends with the sequencer) ---

  /// The latest published snapshot (never null; starts as the signed
  /// empty tree).
  [[nodiscard]] std::shared_ptr<const TreeSnapshot> snapshot() const;
  /// get-sth: the latest signed tree head.
  [[nodiscard]] ct::SignedTreeHead get_sth() const { return snapshot()->sth; }

  /// Inclusion proof for `index` in the tree of `tree_size`; `tree_size`
  /// may be any published size (current or stale snapshot).
  [[nodiscard]] std::vector<crypto::Digest> inclusion_proof(std::uint64_t index,
                                                            std::uint64_t tree_size) const;
  /// Consistency proof between two published sizes.
  [[nodiscard]] std::vector<crypto::Digest> consistency_proof(std::uint64_t old_size,
                                                              std::uint64_t new_size) const;
  /// Merkle leaf hash of an integrated entry (what inclusion verifies).
  [[nodiscard]] crypto::Digest leaf_hash_at(std::uint64_t index) const;
  /// get-proof-by-hash support: the leaf index whose Merkle leaf hash is
  /// `leaf_hash`, if integrated (first occurrence wins for duplicates).
  [[nodiscard]] std::optional<std::uint64_t> leaf_index_of(const crypto::Digest& leaf_hash) const;
  /// get-entries [start, start+count), clamped: empty when start is at or
  /// beyond the published size, the window capped at
  /// Config::max_get_entries, and start+count overflow is harmless.
  [[nodiscard]] std::vector<ct::LogEntry> get_entries(std::uint64_t start,
                                                      std::uint64_t count) const;
  /// Published tree size (== get_sth().tree_size). A storage-backed
  /// service's resident stores hold only [leaf_base_, tree_size).
  [[nodiscard]] std::uint64_t tree_size() const { return leaf_base_ + leaves_.size(); }
  /// First entry the resident stores hold; everything below is served
  /// from storage. The adopted store's checkpointed size, or zero for a
  /// memory-only service.
  [[nodiscard]] std::uint64_t resident_base() const { return resident_base_; }

  // --- streaming ---

  /// Registers a streaming consumer (own dispatch thread; lossy when its
  /// ring fills — see StreamFanout).
  void subscribe(std::string name, StreamFanout::Callback callback) {
    fanout_.subscribe(std::move(name), std::move(callback));
  }
  [[nodiscard]] const StreamFanout& fanout() const { return fanout_; }

  // --- stats ---
  [[nodiscard]] std::size_t queue_depth() const { return queue_.depth(); }
  [[nodiscard]] std::uint64_t overload_rejections() const {
    return overload_rejections_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sealed_batches() const {
    return sealed_batches_.load(std::memory_order_relaxed);
  }
  /// Chaos accounting: ingress drops and seal-time signer failures. Both
  /// are zero without a fault injector.
  [[nodiscard]] std::uint64_t chaos_dropped() const {
    return chaos_dropped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t signer_failures() const {
    return signer_failures_.load(std::memory_order_relaxed);
  }
  /// Batches refused because the durable commit failed (fail-stop: once
  /// nonzero, every later batch fails too until the store is reopened).
  [[nodiscard]] std::uint64_t storage_failures() const {
    return storage_failures_.load(std::memory_order_relaxed);
  }

  // --- test hooks ---

  /// TEST HOOK: freezes the sequencer (it stops draining), so tests can
  /// deterministically fill the queue to provoke `overloaded`.
  void pause_sequencer_for_test() { paused_.store(true, std::memory_order_relaxed); }
  void resume_sequencer_for_test() { paused_.store(false, std::memory_order_relaxed); }

 private:
  struct Pending {
    ct::SignedEntry entry;
    crypto::Digest fingerprint{};
    std::string issuer_cn;
    std::uint64_t timestamp_ms = 0;
    std::chrono::steady_clock::time_point enqueued_at;
    /// Submitter's trace position: sequencer-side spans parent to the
    /// submit span, stitching the batch hand-off across threads.
    obs::TraceContext trace{};
    CompletionFn done;
  };

  /// An index over the checkpointed prefix [0, resident_base_): the
  /// prefix's keys (leaf hashes or fingerprints), read from storage into
  /// a resident vector by the first lookup that needs them, and a
  /// ct::DigestIndex over that vector, where position == leaf index.
  /// Immutable once built, so lookups after the build take no lock.
  struct PrefixIndex {
    std::once_flag built;
    std::vector<crypto::Digest> keys;
    ct::DigestIndex index;
  };

  ct::SubmitStatus submit_validated(const x509::Certificate& cert, BytesView issuer_public_key,
                                    SimTime now, ct::EntryType type, CompletionFn done);
  void sequencer_main();
  void seal_batch(std::vector<Pending>& batch);
  /// Re-integrates a durable store's recovered state before the
  /// sequencer starts (constructor only; throws on key mismatch).
  void adopt_storage();
  /// First index of `key` in `prefix`, building the prefix index first
  /// (once) by calling `load(keys)`. Throws if the prefix cannot be read.
  template <typename Load>
  std::optional<std::uint64_t> find_in_prefix(PrefixIndex& prefix, const crypto::Digest& key,
                                              const Load& load) const;
  /// The checkpointed record first submitted with `fingerprint`, if any
  /// (sequencer only; throws if the prefix cannot be read).
  std::optional<ct::LogEntry> prefix_record(const crypto::Digest& fingerprint);
  /// Publishes an already-signed STH — the exact object that was
  /// committed to storage (or recovered from it), never a re-signing.
  void publish_snapshot(ct::SignedTreeHead sth);
  /// Runs `proof(source)` over the tile source every proof reads and
  /// records the tile-cache pages it fetched (service.cpp).
  template <typename Proof>
  std::vector<crypto::Digest> prove(const Proof& proof) const;
  /// The log's one Merkle cascade: the store's when storage-backed, else
  /// own_cascade_. Readers use only its published levels; the sequencer
  /// stages on it.
  [[nodiscard]] const ct::TileCascade& cascade() const {
    return config_.storage != nullptr ? config_.storage->cascade() : *own_cascade_;
  }
  /// Key readers for the two DigestIndexes: their keys live in the stores.
  [[nodiscard]] auto leaf_at() const {
    return [this](std::uint64_t position) -> const crypto::Digest& {
      return leaves_.at(position);
    };
  }
  [[nodiscard]] auto fingerprint_at() const {
    return [this](std::uint64_t position) -> const crypto::Digest& {
      return entries_.at(position).fingerprint;
    };
  }

  Config config_;
  std::unique_ptr<crypto::Signer> signer_;
  ct::LogId log_id_;

  BoundedQueue<Pending> queue_;
  ct::AppendOnlyStore<crypto::Digest> leaves_;  ///< leaf hashes [leaf_base_, tree_size)
  ct::AppendOnlyStore<ct::LogEntry> entries_;   ///< records [resident_base_, tree_size)
  /// A memory-only service's cascade; empty when the service is
  /// storage-backed (see cascade()).
  std::unique_ptr<ct::TileCascade> own_cascade_;

  // Sequencer-private state (no locking: single thread).
  /// fingerprint -> position in entries_ (index - resident_base_).
  ct::DigestIndex dedup_;
  /// fingerprint -> index below resident_base_. Built by the first
  /// submission after adoption, so a read-only monitor never builds it.
  PrefixIndex prefix_fingerprints_;
  std::uint64_t last_timestamp_ms_ = 0;
  std::uint64_t seal_seq_ = 0;

  mutable std::mutex snapshot_mu_;  // held only for the shared_ptr swap/copy
  std::shared_ptr<const TreeSnapshot> snapshot_;

  // leaf hash -> position in leaves_ (index - leaf_base_), written by the
  // sequencer at seal time, read by get-proof-by-hash. Its own narrow
  // lock: readers never touch the snapshot or queue locks. Covers
  // [resident_base_, tree_size).
  mutable std::mutex leaf_index_mu_;
  ct::DigestIndex leaf_index_;
  /// leaf hash -> index below resident_base_, built by the first
  /// get-proof-by-hash (one streaming pass over the level-0 tile pages).
  mutable PrefixIndex prefix_leaves_;

  /// Where the resident entry records begin (the adopted store's
  /// checkpointed size), and where the resident leaf hashes begin
  /// (resident_base_ floored to a tile, so every level-0 tile is either
  /// wholly resident or wholly paged). Set once during construction
  /// (before the sequencer or any reader exists), then immutable.
  std::uint64_t resident_base_ = 0;
  std::uint64_t leaf_base_ = 0;

  StreamFanout fanout_;
  std::thread sequencer_;
  std::atomic<bool> running_{false};
  std::atomic<bool> paused_{false};
  std::atomic<std::uint64_t> overload_rejections_{0};
  std::atomic<std::uint64_t> chaos_dropped_{0};
  std::atomic<std::uint64_t> signer_failures_{0};
  std::atomic<std::uint64_t> storage_failures_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> sealed_batches_{0};
};

}  // namespace ctwatch::logsvc
