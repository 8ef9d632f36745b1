#include "ctwatch/ct/log.hpp"

#include <stdexcept>

#include "ctwatch/ct/wire.hpp"
#include "ctwatch/obs/obs.hpp"

namespace ctwatch::ct {

namespace {

// Shared across all log instances: the pipeline-wide view of submission
// traffic. Handles resolved once; each event is one relaxed atomic.
struct SubmitMetrics {
  obs::Counter& submissions = obs::Registry::global().counter("ct.log.submissions");
  obs::Counter& accepted = obs::Registry::global().counter("ct.log.accepted");
  obs::Counter& rejected_invalid = obs::Registry::global().counter("ct.log.rejected_invalid");
  obs::Counter& overloaded = obs::Registry::global().counter("ct.log.overload_rejections");
  obs::Counter& dedup_hits = obs::Registry::global().counter("ct.log.dedup_hits");
  obs::LogLinearHistogram& merkle_integrate_us =
      obs::Registry::global().latency("ct.log.merkle_integrate_us");
};

SubmitMetrics& submit_metrics() {
  static SubmitMetrics metrics;
  return metrics;
}

}  // namespace

Bytes merkle_leaf_bytes(std::uint64_t timestamp_ms, const SignedEntry& entry) {
  Bytes out;
  wire::put_u8(out, 0);  // version v1
  wire::put_u8(out, 0);  // leaf_type timestamped_entry
  wire::put_u64(out, timestamp_ms);
  wire::put_u16(out, static_cast<std::uint16_t>(entry.type));
  if (entry.type == EntryType::precert_entry) {
    wire::put_bytes(out, BytesView{entry.issuer_key_hash.data(), entry.issuer_key_hash.size()});
  }
  wire::put_opaque24(out, entry.data);
  wire::put_u16(out, 0);  // no extensions
  return out;
}

CtLog::CtLog(LogConfig config)
    : config_(std::move(config)),
      signer_(crypto::make_signer("ct-log/" + config_.name, config_.scheme)),
      log_id_(signer_->key_id()) {}

PreparedSubmission prepare_submission(const x509::Certificate& cert,
                                      BytesView issuer_public_key, SimTime now,
                                      bool check_chain) {
  std::optional<bool> chain_valid;
  if (check_chain) chain_valid = cert.verify(issuer_public_key);
  return prepare_submission(cert.is_precertificate()
                                ? make_precert_entry(cert, issuer_public_key)
                                : make_x509_entry(cert),
                            cert.encode(), cert.tbs.issuer.common_name, now, chain_valid);
}

PreparedSubmission prepare_submission(SignedEntry entry, BytesView certificate_der,
                                      std::string issuer_cn, SimTime now,
                                      std::optional<bool> chain_valid) {
  PreparedSubmission prepared;
  prepared.entry = std::move(entry);
  prepared.time = now;
  prepared.fingerprint = crypto::Sha256::hash(certificate_der);
  prepared.leaf_hash = leaf_hash(merkle_leaf_bytes(prepared.timestamp_ms(), prepared.entry));
  SignedCertificateTimestamp unsigned_sct;
  unsigned_sct.timestamp_ms = prepared.timestamp_ms();
  prepared.sct_input = sct_signing_input(unsigned_sct, prepared.entry);
  prepared.issuer_cn = std::move(issuer_cn);
  prepared.chain_valid = chain_valid;
  return prepared;
}

SubmitResult CtLog::add_chain(const x509::Certificate& cert, BytesView issuer_public_key,
                              SimTime now) {
  if (cert.is_precertificate()) return {SubmitStatus::rejected_invalid, 0, std::nullopt};
  return add_prepared(
      prepare_submission(cert, issuer_public_key, now, config_.verify_submissions));
}

SubmitResult CtLog::add_pre_chain(const x509::Certificate& precert, BytesView issuer_public_key,
                                  SimTime now) {
  if (!precert.is_precertificate()) return {SubmitStatus::rejected_invalid, 0, std::nullopt};
  return add_prepared(
      prepare_submission(precert, issuer_public_key, now, config_.verify_submissions));
}

SignedCertificateTimestamp CtLog::speculative_sct(const PreparedSubmission& prepared) const {
  return sign_sct(*signer_, log_id_, prepared.timestamp_ms(), prepared.sct_input);
}

SubmitResult CtLog::add_prepared(const PreparedSubmission& prepared,
                                 std::optional<SignedCertificateTimestamp> sct) {
  SubmitMetrics& metrics = submit_metrics();
  metrics.submissions.inc();

  // Capacity enforcement (per UTC hour).
  if (config_.capacity_per_hour > 0) {
    const std::int64_t hour = prepared.time.unix_seconds() / 3600;
    std::uint64_t& count = hourly_submissions_[hour];
    if (count >= config_.capacity_per_hour) {
      ++overload_rejections_;
      metrics.overloaded.inc();
      obs::log_debug("ct.log", "submission rejected for overload",
                     {{"log", config_.name}, {"hour", hour}});
      return {SubmitStatus::overloaded, 0, std::nullopt};
    }
    ++count;
  }

  if (config_.verify_submissions) {
    if (!prepared.chain_valid) {
      throw std::invalid_argument("CtLog::add_prepared: chain not checked for a verifying log");
    }
    if (!*prepared.chain_valid) {
      metrics.rejected_invalid.inc();
      obs::log_debug("ct.log", "submission failed chain verification",
                     {{"log", config_.name}, {"issuer", prepared.issuer_cn}});
      return {SubmitStatus::rejected_invalid, 0, std::nullopt};
    }
  }

  // Logs deduplicate resubmissions of the same (pre)certificate: return the
  // original SCT. (Requires stored bodies.)
  const auto fingerprint_at = [this](std::uint64_t index) -> const crypto::Digest& {
    return entries_[index].fingerprint;
  };
  if (config_.store_bodies) {
    if (const auto index = dedup_.find(prepared.fingerprint, fingerprint_at)) {
      metrics.dedup_hits.inc();
      const LogEntry& existing = entries_[*index];
      return {SubmitStatus::ok, existing.index,
              sign_sct(*signer_, log_id_, existing.timestamp_ms, existing.signed_entry)};
    }
  }

  if (!sct) sct = speculative_sct(prepared);

  LogEntry log_entry;
  log_entry.index = tree_.size();
  log_entry.timestamp_ms = prepared.timestamp_ms();
  log_entry.issuer_cn = prepared.issuer_cn;
  log_entry.fingerprint = prepared.fingerprint;
  {
    obs::ScopedTimer timer(metrics.merkle_integrate_us);
    tree_.append(prepared.leaf_hash);
  }
  if (config_.store_bodies) log_entry.signed_entry = prepared.entry;
  metrics.accepted.inc();
  entries_.push_back(std::move(log_entry));
  if (config_.store_bodies) {
    dedup_.insert(prepared.fingerprint, entries_.back().index, fingerprint_at);
  }
  for (const Subscriber& subscriber : subscribers_) subscriber(*this, entries_.back());
  return {SubmitStatus::ok, entries_.back().index, std::move(sct)};
}

std::vector<LogEntry> CtLog::get_entries(std::uint64_t start, std::uint64_t count) const {
  std::vector<LogEntry> out;
  for (std::uint64_t i = start; i < start + count && i < entries_.size(); ++i) {
    out.push_back(entries_[i]);
  }
  return out;
}

SignedTreeHead CtLog::get_sth(SimTime now) const {
  return sign_sth(*signer_, tree_.size(), static_cast<std::uint64_t>(now.unix_seconds()) * 1000,
                  tree_.root());
}

std::vector<Digest> CtLog::get_inclusion_proof(std::uint64_t index,
                                               std::uint64_t tree_size) const {
  return tree_.inclusion_proof(index, tree_size);
}

std::vector<Digest> CtLog::get_consistency_proof(std::uint64_t old_size,
                                                 std::uint64_t new_size) const {
  return tree_.consistency_proof(old_size, new_size);
}

void CtLog::corrupt_leaf_for_test(std::uint64_t index) {
  if (index >= entries_.size()) throw std::out_of_range("corrupt_leaf_for_test: bad index");
  // Rebuild the tree with one leaf replaced — the rewritten history a
  // malicious or broken log would present.
  MerkleTree rebuilt;
  for (std::uint64_t i = 0; i < tree_.size(); ++i) {
    if (i == index) {
      rebuilt.append(crypto::Sha256::hash(to_bytes("tampered-leaf")));
    } else {
      rebuilt.append(tree_.leaf(i));
    }
  }
  tree_ = std::move(rebuilt);
}

}  // namespace ctwatch::ct
