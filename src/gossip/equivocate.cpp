#include "ctwatch/gossip/equivocate.hpp"

#include <future>
#include <stdexcept>

#include "ctwatch/util/encoding.hpp"

namespace ctwatch::gossip {

namespace {

logsvc::Config face_config(const EquivocationPlan& plan, Side side) {
  logsvc::Config config = plan.base;
  config.storage = side == Side::left ? plan.storage_left : plan.storage_right;
  // Each face gets its own chaos stream so injecting a fault into one
  // never shifts the other's sequence.
  if (config.chaos != nullptr) {
    config.chaos_prefix = config.chaos_prefix + "." + side_name(side);
  }
  return config;
}

}  // namespace

EquivocatingLog::EquivocatingLog(EquivocationPlan plan)
    : fork_index_(plan.fork_index),
      oracle_(crypto::make_signer("ct-log/" + plan.base.name, plan.base.scheme)),
      left_(std::make_unique<logsvc::LogService>(face_config(plan, Side::left))),
      right_(std::make_unique<logsvc::LogService>(face_config(plan, Side::right))),
      left_view_(*left_),
      right_view_(*right_),
      next_left_(left_->tree_size()),
      next_right_(right_->tree_size()) {}

ct::SignedEntry EquivocatingLog::entry_at(std::uint64_t index, std::uint64_t fork_index,
                                          Side side) {
  ct::SignedEntry entry;
  entry.type = ct::EntryType::x509_entry;
  std::string payload = "gossip-entry-" + std::to_string(index);
  if (index >= fork_index) payload += std::string("/") + side_name(side);
  entry.data = to_bytes(payload);
  return entry;
}

crypto::Digest EquivocatingLog::fingerprint_at(std::uint64_t index, std::uint64_t fork_index,
                                               Side side) {
  std::string payload = "gossip-fp-" + std::to_string(index);
  if (index >= fork_index) payload += std::string("/") + side_name(side);
  return crypto::Sha256::hash(to_bytes(payload));
}

void EquivocatingLog::append(logsvc::LogService& svc, std::uint64_t index, Side side,
                             SimTime now) {
  std::promise<ct::SubmitResult> promise;
  auto future = promise.get_future();
  const ct::SubmitStatus status = svc.submit(
      entry_at(index, fork_index_, side), fingerprint_at(index, fork_index_, side),
      "Equivocation CA", now,
      [&promise](const ct::SubmitResult& outcome) { promise.set_value(outcome); });
  if (status != ct::SubmitStatus::ok) {
    throw std::runtime_error("EquivocatingLog: submit refused");
  }
  const ct::SubmitResult outcome = future.get();
  if (outcome.status != ct::SubmitStatus::ok) {
    throw std::runtime_error("EquivocatingLog: submission failed at seal");
  }
}

void EquivocatingLog::grow(SimTime now) {
  append(*left_, next_left_++, Side::left, now);
  append(*right_, next_right_++, Side::right, now);
}

void EquivocatingLog::grow(std::uint64_t n, SimTime now) {
  for (std::uint64_t i = 0; i < n; ++i) grow(now);
}

void EquivocatingLog::grow_side(Side side, SimTime now) {
  if (side == Side::left) {
    append(*left_, next_left_++, Side::left, now);
  } else {
    append(*right_, next_right_++, Side::right, now);
  }
}

ct::SignedTreeHead EquivocatingLog::sign_arbitrary_sth(std::uint64_t tree_size,
                                                       std::uint64_t timestamp_ms,
                                                       const crypto::Digest& root) const {
  return ct::sign_sth(*oracle_, tree_size, timestamp_ms, root);
}

}  // namespace ctwatch::gossip
