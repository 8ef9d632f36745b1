// An RFC 6962 CT log server.
//
// Supports add-chain / add-pre-chain submissions with cryptographic
// validation, immediate Merkle integration, SCT issuance, signed tree
// heads, inclusion/consistency proofs, get-entries range reads, and
// streaming subscribers (the primitive behind CertStream-style monitors).
//
// Capacity modelling: the paper documents the Nimbus incident — mass
// submission overwhelmed a log into issuing bad SCTs and risking
// disqualification. A log can therefore be given a rate capacity; beyond
// it submissions fail with `overloaded`, which the simulator uses for the
// load-balance analysis of Fig. 1c.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ctwatch/ct/digest_index.hpp"
#include "ctwatch/ct/merkle.hpp"
#include "ctwatch/ct/sct.hpp"
#include "ctwatch/util/time.hpp"

namespace ctwatch::ct {

/// One integrated log entry: the record both log cores (CtLog here,
/// logsvc::LogService) keep and serve from get-entries. The certificate
/// itself lives only in `signed_entry`; entry_tbs() decodes it.
struct LogEntry {
  std::uint64_t index = 0;
  std::uint64_t timestamp_ms = 0;
  SignedEntry signed_entry;      ///< empty unless the log stores bodies
  std::string issuer_cn;         ///< convenience for the §2 analyses
  crypto::Digest fingerprint{};  ///< SHA-256 of the submitted DER; kept even
                                 ///< in slim mode so cross-log entries of
                                 ///< one certificate can be deduplicated
};

/// The serialized MerkleTreeLeaf for an entry (RFC 6962 §3.4).
Bytes merkle_leaf_bytes(std::uint64_t timestamp_ms, const SignedEntry& entry);

struct LogConfig {
  std::string name;           ///< e.g. "Google Pilot"
  std::string operator_name;  ///< e.g. "Google"
  std::string url;            ///< e.g. "ct.googleapis.com/pilot"
  crypto::SignatureScheme scheme = crypto::SignatureScheme::ecdsa_p256_sha256;
  /// Reject submissions whose CA signature does not verify. Bulk
  /// simulations may disable this for speed (documented substitution).
  bool verify_submissions = true;
  /// Submissions per hour the log can absorb; 0 = unlimited.
  std::uint64_t capacity_per_hour = 0;
  /// Retain entry bodies (the signed entry). Bulk timeline simulations
  /// disable this and keep only (index, time, issuer, fingerprint) — the
  /// Merkle tree always keeps every leaf hash either way. Deduplication
  /// requires bodies and is disabled alongside.
  bool store_bodies = true;
};

/// How a submission ended, for both log cores. CtLog only ever reports
/// the first three; the rest come from logsvc::LogService.
enum class SubmitStatus : std::uint8_t {
  ok,                ///< accepted: SCT issued (logsvc: via the CompletionFn)
  rejected_invalid,  ///< chain did not verify / wrong entry kind
  overloaded,        ///< capacity exceeded or queue full (Nimbus incident model)
  shutdown,          ///< logsvc: service is stopping
  dropped,           ///< logsvc chaos: submission lost at ingress (injected fault)
  internal_error,    ///< logsvc chaos: signer failed at seal time
  storage_error,     ///< logsvc: durable commit failed, entry NOT integrated
};

struct SubmitResult {
  SubmitStatus status = SubmitStatus::ok;
  std::uint64_t index = 0;  ///< leaf index when ok (the original one on a dedup hit)
  std::optional<SignedCertificateTimestamp> sct;
};

/// A submission as every log sees it, derived from the certificate alone:
/// the entry is encoded, fingerprinted and leaf-hashed once, however many
/// logs it goes to. Building one touches no log state, so it may run on
/// any thread; CtLog::add_prepared integrates it.
struct PreparedSubmission {
  SignedEntry entry;              ///< what the SCT and the Merkle leaf cover
  SimTime time;                   ///< submission time: the SCT and leaf timestamp
  crypto::Digest fingerprint{};   ///< SHA-256 of the submitted DER
  Digest leaf_hash{};             ///< RFC 6962 hash of the MerkleTreeLeaf
  Bytes sct_input;                ///< what every log's SCT signs (no log id in it)
  std::string issuer_cn;
  /// The CA signature check against the issuer key; nullopt when it was
  /// not asked for (a log that verifies submissions refuses those).
  std::optional<bool> chain_valid;

  [[nodiscard]] std::uint64_t timestamp_ms() const {
    return static_cast<std::uint64_t>(time.unix_seconds()) * 1000;
  }
};

/// Prepares `cert` for submission at `now`: a precert entry when it
/// carries the poison, an x509 entry otherwise. `check_chain` runs the
/// CA signature check a verifying log needs.
PreparedSubmission prepare_submission(const x509::Certificate& cert,
                                      BytesView issuer_public_key, SimTime now,
                                      bool check_chain);
/// The same from bytes the caller already holds: `entry` as
/// make_x509_entry / make_precert_entry build it, `certificate_der` the
/// submitted certificate's DER, and the chain check's result if it ran.
PreparedSubmission prepare_submission(SignedEntry entry, BytesView certificate_der,
                                      std::string issuer_cn, SimTime now,
                                      std::optional<bool> chain_valid);

class CtLog {
 public:
  /// The signing key is derived from the log's name (reproducible).
  explicit CtLog(LogConfig config);

  [[nodiscard]] const LogConfig& config() const { return config_; }
  [[nodiscard]] const std::string& name() const { return config_.name; }
  [[nodiscard]] Bytes public_key() const { return signer_->public_key(); }
  [[nodiscard]] const LogId& log_id() const { return log_id_; }

  /// add-chain (final certificate). `issuer_public_key` is the issuing
  /// CA's key for chain validation.
  SubmitResult add_chain(const x509::Certificate& cert, BytesView issuer_public_key, SimTime now);
  /// add-pre-chain (precertificate). Rejects inputs without the poison.
  SubmitResult add_pre_chain(const x509::Certificate& precert, BytesView issuer_public_key,
                             SimTime now);
  // Both are prepare_submission() followed by add_prepared().

  /// The SCT this log issues for `prepared` if it accepts it as a new
  /// entry. Pure (reads only the log's key), so it may be computed ahead
  /// of add_prepared() on any thread.
  [[nodiscard]] SignedCertificateTimestamp speculative_sct(
      const PreparedSubmission& prepared) const;
  /// Integrates a prepared submission: capacity, chain check, dedup,
  /// Merkle append, subscribers. `sct` must be speculative_sct(prepared)
  /// if given (it is signed here otherwise); it is discarded when the
  /// submission is refused or deduplicated.
  SubmitResult add_prepared(const PreparedSubmission& prepared,
                            std::optional<SignedCertificateTimestamp> sct = std::nullopt);

  [[nodiscard]] std::uint64_t tree_size() const { return tree_.size(); }
  [[nodiscard]] const std::vector<LogEntry>& entries() const { return entries_; }
  /// get-entries [start, start+count).
  [[nodiscard]] std::vector<LogEntry> get_entries(std::uint64_t start, std::uint64_t count) const;

  /// Signs the current tree head.
  [[nodiscard]] SignedTreeHead get_sth(SimTime now) const;
  [[nodiscard]] std::vector<Digest> get_inclusion_proof(std::uint64_t index,
                                                        std::uint64_t tree_size) const;
  [[nodiscard]] std::vector<Digest> get_consistency_proof(std::uint64_t old_size,
                                                          std::uint64_t new_size) const;

  /// Streaming subscription; the callback fires for every accepted entry.
  using Subscriber = std::function<void(const CtLog&, const LogEntry&)>;
  void subscribe(Subscriber subscriber) { subscribers_.push_back(std::move(subscriber)); }

  /// Submissions rejected for overload so far (the Fig. 1c load analysis).
  [[nodiscard]] std::uint64_t overload_rejections() const { return overload_rejections_; }

  /// TEST HOOK: corrupts the Merkle leaf at `index` in place, simulating a
  /// log that rewrote history. Subsequent proofs/roots will betray it.
  void corrupt_leaf_for_test(std::uint64_t index);

 private:
  LogConfig config_;
  std::unique_ptr<crypto::Signer> signer_;
  LogId log_id_;
  MerkleTree tree_;
  std::vector<LogEntry> entries_;
  DigestIndex dedup_;  ///< fingerprint -> entry index (keys read from entries_)
  std::vector<Subscriber> subscribers_;
  // Per-hour submission counts for capacity enforcement. A map (rather
  // than a single sliding window) because simulations may submit out of
  // chronological order within a day.
  std::map<std::int64_t, std::uint64_t> hourly_submissions_;
  std::uint64_t overload_rejections_ = 0;
};

}  // namespace ctwatch::ct
