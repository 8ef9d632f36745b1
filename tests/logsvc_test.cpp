// ctwatch::logsvc — service-level behaviour: asynchronous SCT delivery,
// batching under the merge delay, dedup semantics, backpressure, snapshot
// reads (including stale heads), streaming fanout loss accounting, graceful
// shutdown, a multi-threaded smoke test that is the ThreadSanitizer
// target for the whole subsystem, proof parity of memory-only and
// storage-backed services against the merkle_* reference recursion, and
// whole-log dedup and by-hash over a paged checkpointed prefix.
#include <gtest/gtest.h>
#include <stdlib.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ctwatch/ct/merkle.hpp"
#include "ctwatch/logsvc/logsvc.hpp"
#include "ctwatch/obs/obs.hpp"
#include "ctwatch/sim/ca.hpp"
#include "ctwatch/util/rng.hpp"

namespace ctwatch::logsvc {
namespace {

using namespace std::chrono_literals;

ct::SignedEntry entry_of(std::uint64_t n) {
  ct::SignedEntry entry;
  entry.type = ct::EntryType::x509_entry;
  entry.data = to_bytes("entry-" + std::to_string(n));
  return entry;
}

crypto::Digest fingerprint_of(std::uint64_t n) {
  return crypto::Sha256::hash(to_bytes("fp-" + std::to_string(n)));
}

Config fast_config(const std::string& name) {
  Config config;
  config.name = name;
  config.scheme = crypto::SignatureScheme::hmac_sha256_simulated;
  config.merge_delay = 500us;
  return config;
}

/// Raw submit + block for the outcome (the async path, synchronized).
ct::SubmitResult submit_wait(LogService& service, std::uint64_t n, SimTime now) {
  std::promise<ct::SubmitResult> promise;
  auto future = promise.get_future();
  const ct::SubmitStatus status =
      service.submit(entry_of(n), fingerprint_of(n), "Test CA", now,
                     [&promise](const ct::SubmitResult& outcome) { promise.set_value(outcome); });
  if (status != ct::SubmitStatus::ok) return ct::SubmitResult{status, 0, std::nullopt};
  return future.get();
}

const SimTime kNow = SimTime::parse("2018-04-01");

TEST(LogServiceTest, SubmissionCompletesWithVerifiableSctAndProof) {
  LogService service(fast_config("Svc A"));
  const ct::SubmitResult outcome = submit_wait(service, 1, kNow);
  ASSERT_EQ(outcome.status, ct::SubmitStatus::ok);
  ASSERT_TRUE(outcome.sct.has_value());
  EXPECT_EQ(outcome.index, 0u);
  EXPECT_EQ(outcome.sct->timestamp_ms, static_cast<std::uint64_t>(kNow.unix_seconds()) * 1000);

  // The SCT verifies with the service's key over the submitted entry.
  EXPECT_TRUE(ct::verify_sct(*outcome.sct, entry_of(1), service.public_key()));

  // Completion fires after publication: the entry is provable immediately.
  const ct::SignedTreeHead sth = service.get_sth();
  EXPECT_TRUE(ct::verify_sth(sth, service.public_key()));
  ASSERT_EQ(sth.tree_size, 1u);
  EXPECT_TRUE(ct::verify_inclusion(service.leaf_hash_at(0), 0, 1,
                                   service.inclusion_proof(0, 1), sth.root_hash));
}

TEST(LogServiceTest, MergeDelayBatchesConcurrentSubmissionsIntoOneSth) {
  Config config = fast_config("Svc Batch");
  config.merge_delay = 20ms;
  LogService service(config);
  service.pause_sequencer_for_test();  // hold the window open deterministically

  std::vector<std::future<ct::SubmitResult>> outcomes;
  std::vector<std::promise<ct::SubmitResult>> promises(3);
  for (std::size_t i = 0; i < promises.size(); ++i) {
    outcomes.push_back(promises[i].get_future());
    auto* promise = &promises[i];
    ASSERT_EQ(service.submit(entry_of(i), fingerprint_of(i), "Test CA", kNow,
                             [promise](const ct::SubmitResult& o) { promise->set_value(o); }),
              ct::SubmitStatus::ok);
  }
  service.resume_sequencer_for_test();
  for (auto& future : outcomes) EXPECT_EQ(future.get().status, ct::SubmitStatus::ok);

  // One seal integrated all three: a single batch, a single new head.
  EXPECT_EQ(service.sealed_batches(), 1u);
  EXPECT_EQ(service.tree_size(), 3u);
  EXPECT_EQ(service.snapshot()->seal_seq, 1u);
}

TEST(LogServiceTest, DedupReturnsOriginalIndexAndTimestamp) {
  LogService service(fast_config("Svc Dedup"));
  const ct::SubmitResult first = submit_wait(service, 7, kNow);
  ASSERT_EQ(first.status, ct::SubmitStatus::ok);

  // Resubmission an hour later: same index, the *original* timestamp, and
  // the tree does not grow (RFC 6962 resubmission semantics).
  const ct::SubmitResult again = submit_wait(service, 7, kNow + 3600);
  ASSERT_EQ(again.status, ct::SubmitStatus::ok);
  EXPECT_EQ(again.index, first.index);
  EXPECT_EQ(again.sct->timestamp_ms, first.sct->timestamp_ms);
  EXPECT_EQ(service.tree_size(), 1u);
  EXPECT_TRUE(ct::verify_sct(*again.sct, entry_of(7), service.public_key()));
}

/// Submits certificate 7 twice, an hour apart, as ONE batch (the
/// sequencer is paused while both queue) and returns both outcomes.
std::vector<ct::SubmitResult> submit_duplicate_in_one_batch(LogService& service) {
  std::vector<std::promise<ct::SubmitResult>> promises(2);
  service.pause_sequencer_for_test();
  for (std::size_t i = 0; i < promises.size(); ++i) {
    std::promise<ct::SubmitResult>& promise = promises[i];
    const ct::SubmitStatus status =
        service.submit(entry_of(7), fingerprint_of(7), "Test CA", i == 0 ? kNow : kNow + 3600,
                       [&promise](const ct::SubmitResult& outcome) { promise.set_value(outcome); });
    if (status != ct::SubmitStatus::ok) promise.set_value({status, 0, std::nullopt});
  }
  service.resume_sequencer_for_test();
  return {promises[0].get_future().get(), promises[1].get_future().get()};
}

// The second submission of a certificate in the same batch hits the
// batch's own dedup: both get the first one's index and an SCT over its
// timestamp, and the tree grows by one leaf.
TEST(LogServiceTest, DuplicateInOneBatchSharesTheFirstIndexAndTimestamp) {
  obs::LogLinearHistogram& batch_sizes = obs::Registry::global().latency("logsvc.batch_size");
  LogService service(fast_config("Svc Batch Dedup"));
  ASSERT_EQ(submit_wait(service, 1, kNow).status, ct::SubmitStatus::ok);
  const std::uint64_t batches_before = batch_sizes.count();
  const std::vector<ct::SubmitResult> outcomes = submit_duplicate_in_one_batch(service);
  EXPECT_EQ(batch_sizes.count(), batches_before + 1);  // one seal held both
  const std::uint64_t first_ms = static_cast<std::uint64_t>(kNow.unix_seconds()) * 1000;
  for (const ct::SubmitResult& outcome : outcomes) {
    ASSERT_EQ(outcome.status, ct::SubmitStatus::ok);
    ASSERT_TRUE(outcome.sct.has_value());
    EXPECT_EQ(outcome.index, 1u);
    EXPECT_EQ(outcome.sct->timestamp_ms, first_ms);
    EXPECT_TRUE(ct::verify_sct(*outcome.sct, entry_of(7), service.public_key()));
  }
  EXPECT_EQ(service.tree_size(), 2u);
  // Once integrated, the entry answers a later resubmission the same way.
  const ct::SubmitResult later = submit_wait(service, 7, kNow + 7200);
  ASSERT_EQ(later.status, ct::SubmitStatus::ok);
  EXPECT_EQ(later.index, 1u);
  EXPECT_EQ(later.sct->timestamp_ms, first_ms);
  EXPECT_EQ(service.tree_size(), 2u);
}

TEST(LogServiceTest, QueueFullFailsFastWithOverloaded) {
  Config config = fast_config("Svc Overload");
  config.queue_capacity = 4;
  LogService service(config);
  service.pause_sequencer_for_test();  // freeze draining: the queue can fill

  std::atomic<int> completed{0};
  auto count = [&completed](const ct::SubmitResult&) { completed.fetch_add(1); };
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(service.submit(entry_of(i), fingerprint_of(i), "Test CA", kNow, count),
              ct::SubmitStatus::ok);
  }
  EXPECT_EQ(service.queue_depth(), 4u);
  // Beyond capacity: fail fast, nothing blocks, the rejection is counted.
  EXPECT_EQ(service.submit(entry_of(99), fingerprint_of(99), "Test CA", kNow, count),
            ct::SubmitStatus::overloaded);
  EXPECT_EQ(service.overload_rejections(), 1u);

  service.resume_sequencer_for_test();
  service.stop();  // drains the four accepted submissions before exiting
  EXPECT_EQ(completed.load(), 4);
  EXPECT_EQ(service.tree_size(), 4u);
}

TEST(LogServiceTest, StopCompletesEverythingQueued) {
  LogService service(fast_config("Svc Stop"));
  service.pause_sequencer_for_test();
  std::atomic<int> completed{0};
  for (std::uint64_t i = 0; i < 16; ++i) {
    ASSERT_EQ(service.submit(entry_of(i), fingerprint_of(i), "Test CA", kNow,
                             [&completed](const ct::SubmitResult& o) {
                               if (o.status == ct::SubmitStatus::ok) completed.fetch_add(1);
                             }),
              ct::SubmitStatus::ok);
  }
  service.resume_sequencer_for_test();
  service.stop();
  EXPECT_EQ(completed.load(), 16);
  EXPECT_EQ(service.tree_size(), 16u);
  // After stop, new submissions are refused.
  EXPECT_EQ(service.submit(entry_of(99), fingerprint_of(99), "Test CA", kNow),
            ct::SubmitStatus::shutdown);
}

TEST(LogServiceTest, StaleSnapshotProofsKeepVerifying) {
  LogService service(fast_config("Svc Stale"));
  for (std::uint64_t i = 0; i < 5; ++i) {
    ASSERT_EQ(submit_wait(service, i, kNow).status, ct::SubmitStatus::ok);
  }
  const ct::SignedTreeHead stale = service.get_sth();
  ASSERT_EQ(stale.tree_size, 5u);
  for (std::uint64_t i = 5; i < 12; ++i) {
    ASSERT_EQ(submit_wait(service, i, kNow + 60).status, ct::SubmitStatus::ok);
  }
  const ct::SignedTreeHead fresh = service.get_sth();
  ASSERT_EQ(fresh.tree_size, 12u);

  // Inclusion still proves into the stale head at its recorded size...
  EXPECT_TRUE(ct::verify_inclusion(service.leaf_hash_at(2), 2, stale.tree_size,
                                   service.inclusion_proof(2, stale.tree_size),
                                   stale.root_hash));
  // ...and the stale head connects forward to the fresh one.
  EXPECT_TRUE(ct::verify_consistency(stale.tree_size, fresh.tree_size, stale.root_hash,
                                     fresh.root_hash,
                                     service.consistency_proof(stale.tree_size, fresh.tree_size)));
  // Requests beyond the published size are rejected, not served garbage.
  EXPECT_THROW((void)service.inclusion_proof(0, 99), std::out_of_range);
  EXPECT_THROW((void)service.consistency_proof(5, 99), std::out_of_range);
  EXPECT_THROW((void)service.leaf_hash_at(12), std::out_of_range);
}

TEST(LogServiceTest, GetEntriesReturnsStoredRecordsAndClamps) {
  LogService service(fast_config("Svc Entries"));
  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_EQ(submit_wait(service, i, kNow).status, ct::SubmitStatus::ok);
  }
  const auto records = service.get_entries(1, 10);  // clamped to [1, 3)
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].index, 1u);
  EXPECT_EQ(records[1].index, 2u);
  EXPECT_EQ(records[0].fingerprint, fingerprint_of(1));
  EXPECT_EQ(records[0].signed_entry.data, entry_of(1).data);  // store_bodies on
  EXPECT_TRUE(service.get_entries(5, 2).empty());
}

TEST(LogServiceTest, GetEntriesRangeClampRegressions) {
  // Pinned behaviours for the range arithmetic the HTTP get-entries
  // endpoint leans on: every hostile (start, count) pair must come back
  // empty or clamped, never wrapped or thrown.
  Config config = fast_config("Svc Entries Clamp");
  config.max_get_entries = 4;  // small window cap to exercise the clamp
  LogService service(config);
  for (std::uint64_t i = 0; i < 6; ++i) {
    ASSERT_EQ(submit_wait(service, i, kNow).status, ct::SubmitStatus::ok);
  }
  ASSERT_EQ(service.tree_size(), 6u);

  // start at/past the tree is empty, not an error.
  EXPECT_TRUE(service.get_entries(6, 1).empty());
  EXPECT_TRUE(service.get_entries(UINT64_MAX, 1).empty());
  // count == 0 is empty.
  EXPECT_TRUE(service.get_entries(0, 0).empty());

  // An oversized window is capped at max_get_entries...
  const auto capped = service.get_entries(0, 1000);
  ASSERT_EQ(capped.size(), 4u);
  EXPECT_EQ(capped.front().index, 0u);
  EXPECT_EQ(capped.back().index, 3u);
  // ...and the published size still clamps below the cap.
  const auto tail = service.get_entries(4, 1000);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail.front().index, 4u);
  EXPECT_EQ(tail.back().index, 5u);

  // start + count overflowing u64 must not wrap into a bogus window.
  const auto overflow = service.get_entries(5, UINT64_MAX);
  ASSERT_EQ(overflow.size(), 1u);
  EXPECT_EQ(overflow.front().index, 5u);
  const auto overflow_full = service.get_entries(0, UINT64_MAX);
  ASSERT_EQ(overflow_full.size(), 4u);  // window cap applies first
}

TEST(LogServiceTest, RejectsInvalidChainsInTheCallerThread) {
  Config config = fast_config("Svc Validate");
  LogService service(config);  // verify_submissions defaults to true
  sim::CertificateAuthority ca("Svc CA", "Svc Issuing CA",
                               crypto::SignatureScheme::hmac_sha256_simulated);
  sim::CertificateAuthority other("Other CA", "Other Issuing CA",
                                  crypto::SignatureScheme::hmac_sha256_simulated);
  sim::IssuanceRequest request;
  request.subject_cn = "www.example.org";
  request.sans = {x509::SanEntry::dns("www.example.org")};
  request.not_before = kNow;
  request.not_after = kNow + 90 * 86400;
  const auto issued = ca.issue(request, kNow);

  // Wrong issuer key: synchronous rejection, no completion pending.
  EXPECT_EQ(service.submit_chain(issued.final_certificate, other.public_key(), kNow),
            ct::SubmitStatus::rejected_invalid);
  // Entry-kind confusion is refused on both endpoints.
  EXPECT_EQ(service.submit_chain(issued.precertificate, ca.public_key(), kNow),
            ct::SubmitStatus::rejected_invalid);
  EXPECT_EQ(service.submit_pre_chain(issued.final_certificate, ca.public_key(), kNow),
            ct::SubmitStatus::rejected_invalid);
  EXPECT_EQ(service.tree_size(), 0u);

  // The valid flavors land: add-pre-chain then add-chain (distinct leaves).
  const ct::SubmitResult pre =
      service.submit_and_wait(issued.precertificate, ca.public_key(), kNow);
  ASSERT_EQ(pre.status, ct::SubmitStatus::ok);
  const ct::SignedEntry entry = ct::make_precert_entry(issued.precertificate, ca.public_key());
  EXPECT_TRUE(ct::verify_sct(*pre.sct, entry, service.public_key()));
  const ct::SubmitResult fin =
      service.submit_and_wait(issued.final_certificate, ca.public_key(), kNow);
  ASSERT_EQ(fin.status, ct::SubmitStatus::ok);
  EXPECT_EQ(service.tree_size(), 2u);
}

TEST(LogServiceTest, FanoutDropsForSlowConsumerWithoutStallingSeal) {
  Config config = fast_config("Svc Fanout");
  config.fanout_buffer = 2;  // tiny ring: a blocked consumer overflows fast
  LogService service(config);

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<std::uint64_t> seen{0};
  service.subscribe("slow", [&](const StreamEvent&) {
    seen.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });

  constexpr std::uint64_t kEvents = 32;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    ASSERT_EQ(submit_wait(service, i, kNow).status, ct::SubmitStatus::ok);
  }
  // All 32 submissions completed (sealing never waited on the consumer)
  // even though the consumer has processed at most one event.
  EXPECT_EQ(service.tree_size(), kEvents);
  EXPECT_GT(service.fanout().dropped(), 0u);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  service.stop();  // drains what the ring still holds, then joins
  EXPECT_EQ(service.fanout().delivered() + service.fanout().dropped(), kEvents);
  EXPECT_EQ(service.fanout().delivered(), seen.load());
}

// The ThreadSanitizer target: concurrent submitters racing the sequencer
// while readers serve proofs from snapshots and a streaming consumer
// drains the fanout. Any locking mistake in queue/store/snapshot/fanout
// shows up here as a TSAN race report.
TEST(LogServiceTest, ConcurrentSubmittersAndReadersSmoke) {
  Config config = fast_config("Svc Smoke");
  config.max_batch = 64;
  LogService service(config);

  std::atomic<std::uint64_t> streamed{0};
  service.subscribe("smoke", [&streamed](const StreamEvent&) { streamed.fetch_add(1); });

  constexpr int kSubmitters = 4;
  constexpr std::uint64_t kPerThread = 200;
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<bool> writers_done{false};
  std::atomic<std::uint64_t> proof_failures{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        const std::uint64_t n = static_cast<std::uint64_t>(t) * kPerThread + i;
        const ct::SubmitStatus status = service.submit(
            entry_of(n), fingerprint_of(n), "Smoke CA", kNow,
            [&completed](const ct::SubmitResult& o) {
              if (o.status == ct::SubmitStatus::ok) completed.fetch_add(1);
            });
        if (status == ct::SubmitStatus::ok) {
          accepted.fetch_add(1);
        } else {
          std::this_thread::yield();  // overloaded: retry the next ordinal
        }
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0x5111feedULL + static_cast<std::uint64_t>(t));
      const Bytes key = service.public_key();
      while (!writers_done.load(std::memory_order_acquire)) {
        const ct::SignedTreeHead sth = service.get_sth();
        if (!ct::verify_sth(sth, key)) proof_failures.fetch_add(1);
        if (sth.tree_size > 0) {
          const std::uint64_t index = rng() % sth.tree_size;
          if (!ct::verify_inclusion(service.leaf_hash_at(index), index, sth.tree_size,
                                    service.inclusion_proof(index, sth.tree_size),
                                    sth.root_hash)) {
            proof_failures.fetch_add(1);
          }
          const std::uint64_t old_size = index + 1;
          if (!ct::verify_consistency(old_size, sth.tree_size,
                                      ct::merkle_root_of(
                                          [&](std::uint64_t i) { return service.leaf_hash_at(i); },
                                          old_size),
                                      sth.root_hash,
                                      service.consistency_proof(old_size, sth.tree_size))) {
            proof_failures.fetch_add(1);
          }
        }
        std::this_thread::sleep_for(1ms);
      }
    });
  }

  for (int t = 0; t < kSubmitters; ++t) threads[static_cast<std::size_t>(t)].join();
  writers_done.store(true, std::memory_order_release);
  for (std::size_t t = kSubmitters; t < threads.size(); ++t) threads[t].join();
  service.stop();

  EXPECT_EQ(completed.load(), accepted.load());
  EXPECT_EQ(service.tree_size(), accepted.load());
  EXPECT_EQ(proof_failures.load(), 0u);
  EXPECT_EQ(streamed.load() + service.fanout().dropped(), accepted.load());
}

// The queue primitive on its own: capacity, close semantics, bulk drain.
// try_push distinguishes backpressure (full) from teardown (closed) so the
// producer can attribute the refusal correctly.
TEST(BoundedQueueTest, CapacityCloseAndDrain) {
  BoundedQueue<int> queue(2);
  EXPECT_EQ(queue.try_push(1), PushResult::ok);
  EXPECT_EQ(queue.try_push(2), PushResult::ok);
  EXPECT_EQ(queue.try_push(3), PushResult::full);  // full: fail fast
  EXPECT_EQ(queue.depth(), 2u);

  std::vector<int> out;
  EXPECT_EQ(queue.drain(out, 1), 1u);
  EXPECT_EQ(out.back(), 1);
  EXPECT_EQ(queue.try_push(3), PushResult::ok);

  queue.close();
  EXPECT_EQ(queue.try_push(4), PushResult::closed);  // closed: no new work
  EXPECT_TRUE(queue.wait_nonempty());  // ...but queued items stay drainable
  EXPECT_EQ(queue.drain(out, 10), 2u);
  EXPECT_FALSE(queue.wait_nonempty());  // closed and empty: sequencer exits
}

// closed wins over full: a closed-at-capacity queue reports teardown, not
// backpressure — retrying "overloaded" against a dead queue would spin.
TEST(BoundedQueueTest, ClosedTakesPrecedenceOverFull) {
  BoundedQueue<int> queue(1);
  EXPECT_EQ(queue.try_push(1), PushResult::ok);
  queue.close();
  EXPECT_EQ(queue.try_push(2), PushResult::closed);
}

// A deadline already in the past: wait_nonempty_until must not block, and
// must still report queued items truthfully.
TEST(BoundedQueueTest, WaitUntilPastDeadline) {
  BoundedQueue<int> queue(4);
  const auto past = std::chrono::steady_clock::now() - 1s;
  EXPECT_FALSE(queue.wait_nonempty_until(past));  // empty, expired: no block
  EXPECT_EQ(queue.try_push(7), PushResult::ok);
  EXPECT_TRUE(queue.wait_nonempty_until(past));  // expired but nonempty
}

// close() racing a consumer parked in wait_nonempty_until: the consumer
// must wake well before the (distant) deadline and see "closed and empty".
TEST(BoundedQueueTest, CloseWakesWaitingConsumer) {
  BoundedQueue<int> queue(4);
  std::atomic<bool> woke{false};
  std::atomic<bool> saw_nonempty{true};
  std::thread consumer([&] {
    const auto far = std::chrono::steady_clock::now() + 60s;
    saw_nonempty.store(queue.wait_nonempty_until(far));
    woke.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(10ms);  // let the consumer park
  queue.close();
  consumer.join();
  EXPECT_TRUE(woke.load(std::memory_order_acquire));
  EXPECT_FALSE(saw_nonempty.load());
}

// Drain-after-close completeness: items accepted before close() are all
// recoverable afterwards, in order — graceful shutdown loses nothing.
TEST(BoundedQueueTest, DrainAfterCloseIsComplete) {
  BoundedQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(queue.try_push(std::move(i)), PushResult::ok);
  queue.close();
  std::vector<int> out;
  // Drain in small bites to exercise repeated post-close drains.
  while (queue.drain(out, 2) > 0) {
  }
  ASSERT_EQ(out.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
  EXPECT_FALSE(queue.wait_nonempty());
  EXPECT_EQ(queue.depth(), 0u);
}

// The store primitive: readers only see published elements.
TEST(AppendOnlyStoreTest, PublishGatesVisibility) {
  ct::AppendOnlyStore<std::uint64_t> store(/*chunk_bits=*/2, /*max_chunks=*/4);
  EXPECT_EQ(store.size(), 0u);
  for (std::uint64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(store.append(i * 10), PushResult::ok);  // spans chunks
  }
  EXPECT_EQ(store.size(), 0u);  // appended but not yet published
  EXPECT_EQ(store.write_pos(), 6u);
  store.publish();
  ASSERT_EQ(store.size(), 6u);
  for (std::uint64_t i = 0; i < 6; ++i) EXPECT_EQ(store.at(i), i * 10);
}

// Capacity exhaustion is a typed refusal (the same vocabulary as the
// queue's backpressure), not an exception, and it leaves the store fully
// usable: published elements keep serving reads, later appends keep
// failing the same way.
TEST(AppendOnlyStoreTest, CapacityExhaustionIsTypedAndNonDestructive) {
  ct::AppendOnlyStore<std::uint64_t> store(/*chunk_bits=*/2, /*max_chunks=*/4);
  EXPECT_EQ(store.capacity(), 16u);
  for (std::uint64_t i = 0; i < 16; ++i) EXPECT_EQ(store.append(i), PushResult::ok);
  // The exact boundary: element 16 is one past the last chunk slot.
  EXPECT_EQ(store.append(99), PushResult::full);
  EXPECT_EQ(store.append(99), PushResult::full);  // stays full, no throw
  EXPECT_EQ(store.write_pos(), 16u);              // refused appends left no trace
  store.publish();
  ASSERT_EQ(store.size(), 16u);
  for (std::uint64_t i = 0; i < 16; ++i) EXPECT_EQ(store.at(i), i);
}

// The hash index over a store keeps positions only and reads keys back
// from the store: the first occurrence of a key wins, misses stay misses,
// and every key survives the table's growth.
TEST(DigestIndexTest, FirstOccurrenceWinsThroughGrowth) {
  std::vector<crypto::Digest> keys;
  for (std::uint64_t i = 0; i < 5000; ++i) keys.push_back(fingerprint_of(i % 3000));
  const auto key_of = [&keys](std::uint64_t position) -> const crypto::Digest& {
    return keys[static_cast<std::size_t>(position)];
  };
  ct::DigestIndex index;
  EXPECT_EQ(index.find(keys[0], key_of), std::nullopt);
  for (std::uint64_t i = 0; i < keys.size(); ++i) index.insert(keys[i], i, key_of);
  for (std::uint64_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(index.find(keys[i], key_of), i % 3000) << "key " << i;
  }
  EXPECT_EQ(index.find(fingerprint_of(3000), key_of), std::nullopt);
}

// One submission's causal span tree: the submit span (caller thread), the
// sequencer's per-entry span, and the fanout dispatch span (dispatcher
// thread) share one trace id and chain parent -> child across all three
// threads — visible as two cross-thread flow links.
TEST(LogServiceTest, SubmissionSpanTreeCrossesThreeThreads) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);

  {
    Config config = fast_config("Svc Trace");
    LogService service(config);
    std::promise<void> streamed;
    service.subscribe("trace-probe", [&streamed](const StreamEvent& event) {
      if (event.index == 0) streamed.set_value();
    });
    const ct::SubmitResult outcome = submit_wait(service, 900, kNow);
    ASSERT_EQ(outcome.status, ct::SubmitStatus::ok);
    streamed.get_future().wait();
    service.stop();
  }
  tracer.set_enabled(false);

  const std::vector<obs::SpanRecord> spans = tracer.spans();
  const obs::SpanRecord* submit = nullptr;
  const obs::SpanRecord* seal_entry = nullptr;
  const obs::SpanRecord* dispatch = nullptr;
  for (const obs::SpanRecord& span : spans) {
    if (span.name == "logsvc.submit") submit = &span;
    if (span.name == "logsvc.seal_entry") seal_entry = &span;
    if (span.name == "logsvc.fanout.dispatch") dispatch = &span;
  }
  ASSERT_NE(submit, nullptr);
  ASSERT_NE(seal_entry, nullptr);
  ASSERT_NE(dispatch, nullptr);

  // One trace, parent chain submit -> seal_entry -> dispatch.
  EXPECT_NE(submit->trace_id, 0u);
  EXPECT_EQ(seal_entry->trace_id, submit->trace_id);
  EXPECT_EQ(dispatch->trace_id, submit->trace_id);
  EXPECT_EQ(seal_entry->parent_id, submit->id);
  EXPECT_EQ(dispatch->parent_id, seal_entry->id);

  // Three distinct threads: submitter, sequencer, fanout dispatcher.
  EXPECT_NE(submit->thread_id, seal_entry->thread_id);
  EXPECT_NE(seal_entry->thread_id, dispatch->thread_id);
  EXPECT_NE(submit->thread_id, dispatch->thread_id);

  // Both hand-offs appear as flow links (and so as chrome flow events).
  const std::vector<obs::FlowLink> links = obs::flow_links(spans);
  bool submit_to_seal = false;
  bool seal_to_dispatch = false;
  for (const obs::FlowLink& link : links) {
    if (link.parent_id == submit->id && link.child_id == seal_entry->id) submit_to_seal = true;
    if (link.parent_id == seal_entry->id && link.child_id == dispatch->id) {
      seal_to_dispatch = true;
    }
  }
  EXPECT_TRUE(submit_to_seal);
  EXPECT_TRUE(seal_to_dispatch);
  tracer.clear();
}

// Per-stage latency histograms fill during normal operation: every stage
// of a submission's journey lands at least one observation.
TEST(LogServiceTest, StageLatencyHistogramsObserveTraffic) {
  obs::Registry& registry = obs::Registry::global();
  obs::LogLinearHistogram& queue_wait = registry.latency("logsvc.queue_wait_us");
  obs::LogLinearHistogram& merge_delay = registry.latency("logsvc.merge_delay_us");
  obs::LogLinearHistogram& sign = registry.latency("logsvc.sign_us");
  obs::LogLinearHistogram& dispatch = registry.latency("logsvc.fanout_dispatch_us");
  const std::uint64_t queue_wait_before = queue_wait.count();
  const std::uint64_t merge_delay_before = merge_delay.count();
  const std::uint64_t sign_before = sign.count();
  const std::uint64_t dispatch_before = dispatch.count();

  {
    LogService service(fast_config("Svc Stage Metrics"));
    std::promise<void> streamed;
    service.subscribe("stage-probe", [&streamed](const StreamEvent& event) {
      if (event.index == 2) streamed.set_value();
    });
    for (std::uint64_t n = 0; n < 3; ++n) {
      ASSERT_EQ(submit_wait(service, 1000 + n, kNow).status, ct::SubmitStatus::ok);
    }
    streamed.get_future().wait();
    service.stop();
  }

  EXPECT_GE(queue_wait.count(), queue_wait_before + 3);
  EXPECT_GE(merge_delay.count(), merge_delay_before + 1);
  EXPECT_GE(sign.count(), sign_before + 3);
  EXPECT_GE(dispatch.count(), dispatch_before + 3);
}

// Every proof a monitor asks for is timed and its tile-cache cost is
// recorded: one sample per proof in each histogram, page fetches 0 when
// the proof ran fully resident.
TEST(LogServiceTest, ProofHistogramsCountEveryProofServed) {
  obs::Registry& registry = obs::Registry::global();
  obs::LogLinearHistogram& inclusion = registry.latency("logsvc.inclusion_proof_us");
  obs::LogLinearHistogram& consistency = registry.latency("logsvc.consistency_proof_us");
  obs::LogLinearHistogram& fetches = registry.latency("storage.proof_page_fetches");
  LogService service(fast_config("Svc Proof Metrics"));
  for (std::uint64_t n = 0; n < 3; ++n) {
    ASSERT_EQ(submit_wait(service, 2000 + n, kNow).status, ct::SubmitStatus::ok);
  }
  const std::uint64_t inclusion_before = inclusion.count();
  const std::uint64_t consistency_before = consistency.count();
  const std::uint64_t fetches_before = fetches.count();
  const double fetched_before = fetches.sum();
  (void)service.inclusion_proof(1, 3);
  (void)service.inclusion_proof(0, 2);
  (void)service.consistency_proof(1, 3);
  EXPECT_EQ(inclusion.count(), inclusion_before + 2);
  EXPECT_EQ(consistency.count(), consistency_before + 1);
  EXPECT_EQ(fetches.count(), fetches_before + 3);
  EXPECT_EQ(fetches.sum(), fetched_before);  // all resident: no page fetched
  service.stop();
}

// ---------------------------------------------------------------------------
// Proof parity: memory-only and storage-backed, byte-for-byte against the
// merkle_* oracle
// ---------------------------------------------------------------------------

/// A throwaway storage directory, removed on scope exit.
struct TempDir {
  std::string path;
  explicit TempDir(const std::string& tag) {
    std::string tmpl = "ctwatch_" + tag + ".XXXXXX";
    path = ::mkdtemp(tmpl.data());
    EXPECT_FALSE(path.empty());
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

/// The batch shapes the parity tests seal: both neighbours of a tile
/// boundary, the boundary itself, and a batch that spans several tiles.
constexpr std::uint64_t kBatchShapes[] = {1, 7, 255, 256, 257, 1000};

/// What the parity tests know independently of the service: the leaf
/// hash of every submission, and every head the service published.
struct History {
  std::vector<crypto::Digest> leaves;
  std::vector<ct::SignedTreeHead> heads;
  std::uint64_t next_ordinal = 0;
};

/// Seals `count` fresh submissions as ONE batch (the sequencer is paused
/// while they queue, so its next drain takes them all) and waits for
/// every completion. Returns how many integrated; records their leaves
/// and the new head in `history`.
std::uint64_t seal_batch_of(LogService& service, std::uint64_t count, History& history) {
  struct Waiter {
    std::mutex mu;
    std::condition_variable cv;
    std::uint64_t done = 0;
    std::uint64_t ok = 0;
  };
  auto waiter = std::make_shared<Waiter>();
  const std::uint64_t first = history.next_ordinal;
  service.pause_sequencer_for_test();
  std::uint64_t queued = 0;
  for (std::uint64_t n = first; n < first + count; ++n) {
    const ct::SubmitStatus status =
        service.submit(entry_of(n), fingerprint_of(n), "Parity CA", kNow,
                       [waiter](const ct::SubmitResult& outcome) {
                         std::lock_guard<std::mutex> lock(waiter->mu);
                         ++waiter->done;
                         if (outcome.status == ct::SubmitStatus::ok) ++waiter->ok;
                         waiter->cv.notify_all();
                       });
    if (status == ct::SubmitStatus::ok) ++queued;
  }
  service.resume_sequencer_for_test();
  std::unique_lock<std::mutex> lock(waiter->mu);
  waiter->cv.wait(lock, [&] { return waiter->done == queued; });
  EXPECT_EQ(queued, count);
  history.next_ordinal += count;
  if (waiter->ok == count) {
    for (std::uint64_t n = first; n < first + count; ++n) {
      history.leaves.push_back(ct::leaf_hash(
          ct::merkle_leaf_bytes(static_cast<std::uint64_t>(kNow.unix_seconds()) * 1000,
                                entry_of(n))));
    }
    history.heads.push_back(service.get_sth());
    EXPECT_EQ(history.heads.back().tree_size, history.leaves.size());
  }
  return waiter->ok;
}

/// Grows the log through every batch shape (crossing 256), then in bulk
/// to just below 65,536, then through the shapes again (crossing 65,536,
/// where the first level-2 tile entry completes).
void grow_across_tile_levels(LogService& service, History& history) {
  for (const std::uint64_t shape : kBatchShapes) seal_batch_of(service, shape, history);
  while (history.leaves.size() + 1000 < 65536) {
    seal_batch_of(service, std::min<std::uint64_t>(4096, 65536 - 1000 - history.leaves.size()),
                  history);
  }
  for (const std::uint64_t shape : kBatchShapes) seal_batch_of(service, shape, history);
  ASSERT_GT(history.leaves.size(), 65536u);
}

/// Checks `service`'s proofs against every head in `history`: each
/// consistency proof between consecutive heads and from every head to
/// the latest verifies against the signed roots, and a sampled inclusion
/// proof at every (stale) size verifies. Sampled proofs at the small
/// heads and at the latest one are also compared byte-for-byte with the
/// O(n) merkle_* oracle. `extra_indices` are leaf indices worth proving
/// at each of those heads (e.g. a paged boundary).
void expect_proof_parity(const LogService& service, const History& history,
                         std::vector<std::uint64_t> extra_indices = {}) {
  const auto leaf_fn = [&](std::uint64_t i) -> const crypto::Digest& {
    return history.leaves[static_cast<std::size_t>(i)];
  };
  ASSERT_FALSE(history.heads.empty());
  const ct::SignedTreeHead& latest = history.heads.back();
  ASSERT_EQ(service.tree_size(), latest.tree_size);
  EXPECT_EQ(latest.root_hash, ct::merkle_root_of(leaf_fn, latest.tree_size));
  Rng rng(history.heads.size());
  for (std::size_t h = 0; h < history.heads.size(); ++h) {
    const ct::SignedTreeHead& head = history.heads[h];
    const std::uint64_t n = head.tree_size;
    // Cheap checks at every head: the proofs verify against signed roots.
    if (h > 0) {
      const ct::SignedTreeHead& prev = history.heads[h - 1];
      EXPECT_TRUE(ct::verify_consistency(prev.tree_size, n, prev.root_hash, head.root_hash,
                                         service.consistency_proof(prev.tree_size, n)))
          << prev.tree_size << " -> " << n;
    }
    EXPECT_TRUE(ct::verify_consistency(n, latest.tree_size, head.root_hash, latest.root_hash,
                                       service.consistency_proof(n, latest.tree_size)))
        << n << " -> " << latest.tree_size;
    const std::uint64_t index = rng() % n;
    EXPECT_TRUE(ct::verify_inclusion(history.leaves[static_cast<std::size_t>(index)], index, n,
                                     service.inclusion_proof(index, n), head.root_hash))
        << "index " << index << " at " << n;
    // Byte parity with the oracle at the small heads and the latest.
    if (n > 2048 && h + 1 < history.heads.size()) continue;
    std::vector<std::uint64_t> indices{n - 1, rng() % n};
    for (const std::uint64_t i : extra_indices) {
      if (i < n) indices.push_back(i);
    }
    for (const std::uint64_t i : indices) {
      EXPECT_EQ(service.inclusion_proof(i, n), ct::merkle_inclusion_path(leaf_fn, i, n))
          << "index " << i << " at " << n;
    }
    if (h > 0) {
      const std::uint64_t prev = history.heads[h - 1].tree_size;
      EXPECT_EQ(service.consistency_proof(prev, n), ct::merkle_consistency_path(leaf_fn, prev, n))
          << prev << " -> " << n;
    }
    const std::uint64_t old_size = 1 + rng() % n;
    EXPECT_EQ(service.consistency_proof(old_size, n),
              ct::merkle_consistency_path(leaf_fn, old_size, n))
        << old_size << " -> " << n;
  }
}

TEST(LogServiceProofParityTest, MemoryOnlyServiceMatchesOracle) {
  LogService service(fast_config("Svc Parity Memory"));
  History history;
  grow_across_tile_levels(service, history);
  expect_proof_parity(service, history);
  service.stop();
}

storage::LogStoreOptions parity_store_options(const std::string& dir) {
  storage::LogStoreOptions options;
  options.dir = dir;
  options.checkpoint_interval_batches = 8;  // pages on disk AND a WAL tail
  return options;
}

TEST(LogServiceProofParityTest, AdoptedAfterCrashMatchesOracleUnderBothVerifyModes) {
  TempDir dir("parity_adopt");
  History history;
  {
    storage::LogStore::Open open = storage::LogStore::open(parity_store_options(dir.path));
    ASSERT_NE(open.store, nullptr) << open.detail;
    Config config = fast_config("Svc Parity Adopt");
    config.storage = open.store.get();
    LogService service(config);
    grow_across_tile_levels(service, history);
    open.store->env().crash_now();  // no shutdown checkpoint: recovery replays the WAL
    service.stop();
  }
  for (const auto verify :
       {storage::LogStoreOptions::Verify::full, storage::LogStoreOptions::Verify::structural}) {
    storage::LogStoreOptions options = parity_store_options(dir.path);
    options.recovery_verify = verify;
    storage::LogStore::Open open = storage::LogStore::open(options);
    ASSERT_NE(open.store, nullptr) << open.detail;
    EXPECT_GT(open.store->recovery().replayed_batches, 0u);
    Config config = fast_config("Svc Parity Adopt");
    config.storage = open.store.get();
    LogService service(config);
    // Adoption republishes the last head, and the seeded upper levels
    // keep growing through the sink; every head before and after the
    // crash stays provable.
    EXPECT_EQ(service.get_sth(), history.heads.back());
    seal_batch_of(service, 257, history);
    seal_batch_of(service, 1000, history);
    expect_proof_parity(service, history);
    open.store->env().crash_now();
    service.stop();
  }
}

TEST(LogServiceProofParityTest, PagedReadsMatchOracleAcrossTheResidentBoundary) {
  TempDir dir("parity_paged");
  History history;
  {
    storage::LogStoreOptions options = parity_store_options(dir.path);
    options.checkpoint_interval_batches = 0;
    storage::LogStore::Open open = storage::LogStore::open(options);
    ASSERT_NE(open.store, nullptr) << open.detail;
    Config config = fast_config("Svc Parity Paged");
    config.storage = open.store.get();
    LogService service(config);
    grow_across_tile_levels(service, history);
    service.stop();  // checkpoints at a size that is not a tile multiple
  }
  const std::uint64_t checkpointed = history.leaves.size();
  ASSERT_NE(checkpointed % 256, 0u);
  {
    // A WAL tail past the checkpoint, left by a crash.
    storage::LogStoreOptions options = parity_store_options(dir.path);
    options.checkpoint_interval_batches = 0;
    storage::LogStore::Open open = storage::LogStore::open(options);
    ASSERT_NE(open.store, nullptr) << open.detail;
    Config config = fast_config("Svc Parity Paged");
    config.storage = open.store.get();
    LogService service(config);
    seal_batch_of(service, 257, history);
    seal_batch_of(service, 7, history);
    open.store->env().crash_now();
    service.stop();
  }
  storage::LogStoreOptions options = parity_store_options(dir.path);
  options.checkpoint_interval_batches = 0;
  storage::LogStore::Open open = storage::LogStore::open(options);
  ASSERT_NE(open.store, nullptr) << open.detail;
  Config config = fast_config("Svc Parity Paged");
  config.storage = open.store.get();
  LogService service(config);
  ASSERT_EQ(service.resident_base(), checkpointed);
  const std::uint64_t tile_floor = checkpointed / 256 * 256;
  const std::vector<std::uint64_t> boundary{tile_floor - 1, tile_floor, checkpointed - 1,
                                            checkpointed, checkpointed + 1};
  EXPECT_EQ(service.get_sth(), history.heads.back());
  for (const std::uint64_t shape : kBatchShapes) seal_batch_of(service, shape, history);
  expect_proof_parity(service, history, boundary);
  for (const std::uint64_t i : boundary) {
    EXPECT_EQ(service.leaf_hash_at(i), history.leaves[static_cast<std::size_t>(i)]);
  }
  open.store->env().crash_now();
  service.stop();
}

TEST(LogServiceProofParityTest, RefusedCommitLeavesProofsAtTheLastDurableHead) {
  TempDir dir("parity_refused");
  chaos::FaultInjector chaos(23);
  chaos::FaultPlan plan;
  plan.outages = {{8, 9}};  // the fifth batch's WAL append (each batch: append + fsync)
  plan.outage_kind = chaos::FaultKind::error;
  chaos.plan("storage.write", plan);
  storage::LogStoreOptions options = parity_store_options(dir.path);
  options.chaos = &chaos;
  options.checkpoint_interval_batches = 0;
  storage::LogStore::Open open = storage::LogStore::open(options);
  ASSERT_NE(open.store, nullptr) << open.detail;
  Config config = fast_config("Svc Parity Refused");
  config.storage = open.store.get();
  LogService service(config);
  History history;
  for (const std::uint64_t shape : {1, 7, 255, 256}) {
    ASSERT_EQ(seal_batch_of(service, shape, history), shape);
  }
  // The refused batch would have completed a tile (519 -> 776 crosses
  // 768); fail-stop refuses the one after it too.
  EXPECT_EQ(seal_batch_of(service, 257, history), 0u);
  EXPECT_EQ(seal_batch_of(service, 1000, history), 0u);
  EXPECT_EQ(service.storage_failures(), 2u);
  EXPECT_EQ(service.get_sth(), history.heads.back());
  expect_proof_parity(service, history);
  service.stop();
}

// Both fail together when the durable commit is refused: the duplicate's
// outcome presumed the batch would integrate.
TEST(LogServiceTest, DuplicateInOneBatchReportsStorageErrorWhenTheCommitIsRefused) {
  TempDir dir("batch_dedup_refused");
  chaos::FaultInjector chaos(29);
  chaos::FaultPlan plan;
  plan.outages = {{2, std::uint64_t(1) << 62}};  // every op after the first batch's append + fsync
  plan.outage_kind = chaos::FaultKind::error;
  chaos.plan("storage.write", plan);
  storage::LogStoreOptions options = parity_store_options(dir.path);
  options.chaos = &chaos;
  options.checkpoint_interval_batches = 0;
  storage::LogStore::Open open = storage::LogStore::open(options);
  ASSERT_NE(open.store, nullptr) << open.detail;
  Config config = fast_config("Svc Batch Dedup Refused");
  config.storage = open.store.get();
  LogService service(config);
  ASSERT_EQ(submit_wait(service, 1, kNow).status, ct::SubmitStatus::ok);
  for (const ct::SubmitResult& outcome : submit_duplicate_in_one_batch(service)) {
    EXPECT_EQ(outcome.status, ct::SubmitStatus::storage_error);
    EXPECT_FALSE(outcome.sct.has_value());
  }
  EXPECT_EQ(service.storage_failures(), 1u);  // one refused batch held both
  EXPECT_EQ(service.tree_size(), 1u);
  EXPECT_EQ(open.store->tree_size(), 1u);
  service.stop();
}

/// Readers prove against whatever head is current while `service` seals
/// three rounds of every batch shape; every proof must verify.
void prove_while_sealing(LogService& service, History& history) {
  std::atomic<bool> writer_done{false};
  std::atomic<std::uint64_t> failures{0};
  std::atomic<std::uint64_t> proofs{0};
  std::vector<std::thread> readers;
  for (unsigned t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(0x9a41ULL + t);
      ct::SignedTreeHead seen = service.get_sth();
      while (!writer_done.load(std::memory_order_acquire)) {
        const ct::SignedTreeHead sth = service.get_sth();
        if (sth.tree_size == 0) continue;
        const std::uint64_t index = rng() % sth.tree_size;
        if (!ct::verify_inclusion(service.leaf_hash_at(index), index, sth.tree_size,
                                  service.inclusion_proof(index, sth.tree_size), sth.root_hash)) {
          failures.fetch_add(1);
        }
        if (seen.tree_size > 0 &&
            !ct::verify_consistency(seen.tree_size, sth.tree_size, seen.root_hash, sth.root_hash,
                                    service.consistency_proof(seen.tree_size, sth.tree_size))) {
          failures.fetch_add(1);
        }
        seen = sth;
        proofs.fetch_add(1);
      }
    });
  }
  for (int round = 0; round < 3; ++round) {
    for (const std::uint64_t shape : kBatchShapes) seal_batch_of(service, shape, history);
  }
  writer_done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(proofs.load(), 0u);
}

// TSAN target: readers prove against whatever head is current while the
// sequencer seals batches of every shape, publishing leaves and upper
// tile entries underneath them.
TEST(LogServiceProofParityTest, ReadersProveConcurrentlyWithSealing) {
  Config config = fast_config("Svc Parity Concurrent");
  LogService service(config);
  History history;
  prove_while_sealing(service, history);
  service.stop();
  expect_proof_parity(service, history);
}

// TSAN target, storage-backed: the service owns no cascade, so readers
// prove through the store's while the sequencer commits into it (and
// checkpoints every eighth batch).
TEST(LogServiceProofParityTest, StorageBackedReadersProveConcurrentlyWithCommits) {
  TempDir dir("parity_concurrent");
  storage::LogStore::Open open = storage::LogStore::open(parity_store_options(dir.path));
  ASSERT_NE(open.store, nullptr) << open.detail;
  Config config = fast_config("Svc Parity Concurrent Storage");
  config.storage = open.store.get();
  LogService service(config);
  History history;
  prove_while_sealing(service, history);
  service.stop();
  EXPECT_EQ(open.store->tree_size(), history.leaves.size());
  EXPECT_EQ(open.store->cascade().root(), history.heads.back().root_hash);
  expect_proof_parity(service, history);
}

// ---------------------------------------------------------------------------
// Whole-log dedup and get-proof-by-hash over a paged checkpointed prefix
// ---------------------------------------------------------------------------

constexpr std::uint64_t kPrefixEntries = 300;  // checkpointed; not a tile multiple
constexpr std::uint64_t kTailEntries = 264;    // left in the WAL by a crash

/// Leaves `dir` holding a checkpointed prefix of kPrefixEntries
/// submissions (ordinals 0..299, one per index) and a WAL tail of
/// kTailEntries more, as a crash leaves it. `history` records them.
void build_prefix_and_wal_tail(const std::string& dir, const std::string& name,
                               History& history) {
  storage::LogStoreOptions options = parity_store_options(dir);
  options.checkpoint_interval_batches = 0;
  {
    storage::LogStore::Open open = storage::LogStore::open(options);
    ASSERT_NE(open.store, nullptr) << open.detail;
    Config config = fast_config(name);
    config.storage = open.store.get();
    LogService service(config);
    seal_batch_of(service, 257, history);
    seal_batch_of(service, kPrefixEntries - 257, history);
    service.stop();  // the one checkpoint
  }
  storage::LogStore::Open open = storage::LogStore::open(options);
  ASSERT_NE(open.store, nullptr) << open.detail;
  Config config = fast_config(name);
  config.storage = open.store.get();
  LogService service(config);
  seal_batch_of(service, 257, history);
  seal_batch_of(service, kTailEntries - 257, history);
  open.store->env().crash_now();
  service.stop();
  ASSERT_EQ(history.leaves.size(), kPrefixEntries + kTailEntries);
}

/// Recovers what build_prefix_and_wal_tail left, with the service on top.
struct RecoveredService {
  storage::LogStore::Open open;
  std::unique_ptr<LogService> service;

  RecoveredService(const std::string& dir, const std::string& name) {
    storage::LogStoreOptions options = parity_store_options(dir);
    options.checkpoint_interval_batches = 0;
    open = storage::LogStore::open(options);
    if (open.store == nullptr) return;
    Config config = fast_config(name);
    config.storage = open.store.get();
    service = std::make_unique<LogService>(config);
  }
  ~RecoveredService() {
    if (service == nullptr) return;
    open.store->env().crash_now();  // leave the directory as recovery found it
    service->stop();
  }
};

std::uint64_t now_ms() { return static_cast<std::uint64_t>(kNow.unix_seconds()) * 1000; }

TEST(LogServiceWholeLogTest, ResubmissionsFromPrefixAndTailReturnTheOriginal) {
  TempDir dir("wholelog_dedup");
  History history;
  build_prefix_and_wal_tail(dir.path, "Svc Whole Log Dedup", history);
  RecoveredService recovered(dir.path, "Svc Whole Log Dedup");
  ASSERT_NE(recovered.service, nullptr) << recovered.open.detail;
  LogService& service = *recovered.service;
  ASSERT_EQ(service.resident_base(), kPrefixEntries);
  const ct::SignedTreeHead head = service.get_sth();
  ASSERT_EQ(head.tree_size, kPrefixEntries + kTailEntries);

  // An hour later, one resubmission from each side of the checkpoint
  // and one from either edge of it.
  for (const std::uint64_t n : {std::uint64_t{42}, kPrefixEntries - 1, kPrefixEntries,
                                kPrefixEntries + 17}) {
    const ct::SubmitResult again = submit_wait(service, n, kNow + 3600);
    ASSERT_EQ(again.status, ct::SubmitStatus::ok) << "n=" << n;
    EXPECT_EQ(again.index, n);
    ASSERT_TRUE(again.sct.has_value());
    EXPECT_EQ(again.sct->timestamp_ms, now_ms()) << "n=" << n;
    EXPECT_TRUE(ct::verify_sct(*again.sct, entry_of(n), service.public_key()));
  }
  // The tree did not grow, and no new head was signed.
  EXPECT_EQ(service.tree_size(), kPrefixEntries + kTailEntries);
  EXPECT_EQ(service.get_sth(), head);

  // A fresh certificate still integrates at the end.
  const ct::SubmitResult fresh = submit_wait(service, 10'000, kNow);
  ASSERT_EQ(fresh.status, ct::SubmitStatus::ok);
  EXPECT_EQ(fresh.index, kPrefixEntries + kTailEntries);
}

TEST(LogServiceWholeLogTest, ByHashResolvesLeavesOnBothSidesOfTheCheckpoint) {
  obs::LogLinearHistogram& builds =
      obs::Registry::global().latency("logsvc.prefix_index_build_us");
  TempDir dir("wholelog_byhash");
  History history;
  build_prefix_and_wal_tail(dir.path, "Svc Whole Log By Hash", history);
  RecoveredService recovered(dir.path, "Svc Whole Log By Hash");
  ASSERT_NE(recovered.service, nullptr) << recovered.open.detail;
  const LogService& service = *recovered.service;
  const std::uint64_t builds_before = builds.count();
  const std::uint64_t size = kPrefixEntries + kTailEntries;
  for (const std::uint64_t i : {std::uint64_t{0}, std::uint64_t{255}, std::uint64_t{256},
                                kPrefixEntries - 1, kPrefixEntries, kPrefixEntries + 1,
                                size - 1}) {
    EXPECT_EQ(service.leaf_index_of(history.leaves[static_cast<std::size_t>(i)]), i)
        << "i=" << i;
  }
  EXPECT_EQ(service.leaf_index_of(crypto::Sha256::hash(to_bytes("never-logged"))),
            std::nullopt);
  // Reads built the leaf-hash prefix index once, and never the
  // fingerprint one: a read-only monitor pays for no dedup state.
  EXPECT_EQ(builds.count(), builds_before + 1);
}

// TSAN target: the first by-hash lookups (which build the leaf-hash
// prefix index) race submissions whose dedup builds the fingerprint one.
TEST(LogServiceWholeLogTest, FirstLookupsRaceSubmissions) {
  TempDir dir("wholelog_race");
  History history;
  build_prefix_and_wal_tail(dir.path, "Svc Whole Log Race", history);
  RecoveredService recovered(dir.path, "Svc Whole Log Race");
  ASSERT_NE(recovered.service, nullptr) << recovered.open.detail;
  LogService& service = *recovered.service;
  const std::uint64_t size = kPrefixEntries + kTailEntries;

  std::atomic<std::uint64_t> wrong{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> readers;
  for (unsigned t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(0x1ea7ULL + t);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int q = 0; q < 200; ++q) {
        const std::uint64_t i = rng() % size;
        if (service.leaf_index_of(history.leaves[static_cast<std::size_t>(i)]) != i) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::uint64_t k = 0; k < 20; ++k) {
    const std::uint64_t n = (k * 37) % size;  // resubmissions across the whole log
    const ct::SubmitResult again = submit_wait(service, n, kNow + 60);
    EXPECT_EQ(again.status, ct::SubmitStatus::ok);
    EXPECT_EQ(again.index, n);
    const ct::SubmitResult fresh = submit_wait(service, 20'000 + k, kNow);
    EXPECT_EQ(fresh.status, ct::SubmitStatus::ok);
    EXPECT_EQ(fresh.index, size + k);
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(service.tree_size(), size + 20);
}

}  // namespace
}  // namespace ctwatch::logsvc
