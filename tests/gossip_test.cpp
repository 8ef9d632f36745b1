// ctwatch::gossip — the split-view adversarial harness.
//
// The adversary is a real equivocating log (two LogService faces, one
// signing key); the countermeasure is STH gossip with aggregation
// points. The matrix drives every fork position (first entry, second
// entry, tile boundary, tail) through every partition shape and
// requires detection with full aggregation coverage — and the verdict's
// evidence is re-verified *cryptographically here*, never trusted from
// the detector. The honest-log leg proves the dual: heavy chaos
// (outages, losses, delayed challenges) may slow gossip down but can
// never manufacture a SplitViewDetected.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "ctwatch/gossip/gossip.hpp"
#include "ctwatch/storage/log_store.hpp"
#include "ctwatch/util/rng.hpp"

namespace ctwatch::gossip {
namespace {

using namespace std::chrono_literals;

const SimTime kNow = SimTime::parse("2018-04-01");

SimTime at_round(std::uint64_t round) {
  return SimTime{kNow.unix_seconds() + static_cast<std::int64_t>(round) * 60};
}

logsvc::Config fast_config(const std::string& name) {
  logsvc::Config config;
  config.name = name;
  config.scheme = crypto::SignatureScheme::hmac_sha256_simulated;
  config.merge_delay = 500us;
  return config;
}

EquivocationPlan fast_plan(std::uint64_t fork_index, const std::string& name = "Equivocator") {
  EquivocationPlan plan;
  plan.base = fast_config(name);
  plan.fork_index = fork_index;
  return plan;
}

/// The adversarial gate's teeth: a verdict is accepted only when its
/// evidence re-verifies from scratch — both signatures under the log's
/// public key, plus either a same-size root conflict or the log's own
/// proof failing `ct::verify_consistency`. Nothing about the detector is
/// trusted.
void verify_evidence(const SplitViewDetected& detection, BytesView public_key) {
  ASSERT_TRUE(ct::verify_sth(detection.sth_a, public_key)) << detection.reason;
  ASSERT_TRUE(ct::verify_sth(detection.sth_b, public_key)) << detection.reason;
  if (detection.same_size) {
    EXPECT_EQ(detection.sth_a.tree_size, detection.sth_b.tree_size);
    EXPECT_NE(detection.sth_a.root_hash, detection.sth_b.root_hash);
    EXPECT_TRUE(detection.proof.empty());
    return;
  }
  const ct::SignedTreeHead& old_sth =
      detection.sth_a.tree_size <= detection.sth_b.tree_size ? detection.sth_a : detection.sth_b;
  const ct::SignedTreeHead& new_sth =
      detection.sth_a.tree_size <= detection.sth_b.tree_size ? detection.sth_b : detection.sth_a;
  ASSERT_NE(old_sth.tree_size, new_sth.tree_size);
  EXPECT_FALSE(ct::verify_consistency(old_sth.tree_size, new_sth.tree_size, old_sth.root_hash,
                                      new_sth.root_hash, detection.proof))
      << "the carried proof reconciles the pair; this is not evidence";
}

// ---------------------------------------------------------------------------
// The attack baseline: per-client auditing is blind.

TEST(GossipTest, NaivePerClientAuditingNeverFiresOnEitherFace) {
  EquivocatingLog log(fast_plan(/*fork_index=*/1));
  for (const Side side : {Side::left, Side::right}) {
    logsvc::LogService& face = log.service(side);
    ct::SignedTreeHead previous = face.get_sth();
    EXPECT_TRUE(ct::verify_sth(previous, log.public_key()));
    for (int step = 0; step < 6; ++step) {
      log.grow(at_round(static_cast<std::uint64_t>(step)));
      const ct::SignedTreeHead sth = face.get_sth();
      // Signature checks out...
      EXPECT_TRUE(ct::verify_sth(sth, log.public_key()));
      // ...the face proves its own history consistent...
      EXPECT_TRUE(ct::verify_consistency(
          previous.tree_size, sth.tree_size, previous.root_hash, sth.root_hash,
          face.consistency_proof(previous.tree_size, sth.tree_size)));
      // ...and every leaf it serves is included. A solo auditor is happy.
      const std::uint64_t last = sth.tree_size - 1;
      EXPECT_TRUE(ct::verify_inclusion(face.leaf_hash_at(last), last, sth.tree_size,
                                       face.inclusion_proof(last, sth.tree_size),
                                       sth.root_hash));
      previous = sth;
    }
  }
  // Yet the two faces diverged from entry 1 on.
  EXPECT_NE(log.service(Side::left).get_sth().root_hash,
            log.service(Side::right).get_sth().root_hash);
}

// ---------------------------------------------------------------------------
// The adversarial matrix: every fork position x every partition shape.

enum class Shape { split, bridge, isolated };

const char* shape_name(Shape shape) {
  switch (shape) {
    case Shape::split: return "split";
    case Shape::bridge: return "bridge";
    case Shape::isolated: return "isolated";
  }
  return "?";
}

/// Builds the partitioned topology: 2 peers per side. `split` has no
/// cross-partition gossip (only the straddling aggregation point sees
/// both); `bridge` adds one cross edge; `isolated` strands one left peer
/// entirely (coverage is its only link to the world).
struct Topology {
  GossipNet* net;
  std::vector<std::size_t> left_peers;
  std::vector<std::size_t> right_peers;
  std::size_t aggregator = 0;
};

Topology build_topology(GossipNet& net, EquivocatingLog& log, Shape shape) {
  Topology topo{&net, {}, {}, 0};
  for (int i = 0; i < 2; ++i) topo.left_peers.push_back(net.add_peer(log.view(Side::left)));
  for (int i = 0; i < 2; ++i) topo.right_peers.push_back(net.add_peer(log.view(Side::right)));
  // Intra-partition gossip is always on (it is what makes the partitions
  // internally convincing) — except the isolated peer, which talks to
  // nobody.
  const bool strand_first_left = shape == Shape::isolated;
  if (!strand_first_left) net.connect(topo.left_peers[0], topo.left_peers[1]);
  net.connect(topo.right_peers[0], topo.right_peers[1]);
  if (shape == Shape::bridge) net.connect(topo.left_peers[1], topo.right_peers[0]);
  // Full aggregation coverage: the aggregation point observes a peer in
  // each partition (its own face is the left one; any face works — the
  // challenge only needs *some* window onto the log).
  topo.aggregator = net.add_aggregator(log.view(Side::left));
  net.cover(topo.aggregator, topo.left_peers[0]);
  net.cover(topo.aggregator, topo.right_peers[0]);
  return topo;
}

TEST(GossipAdversarialTest, ForkMatrixDetectsWithFullAggregationCoverage) {
  // Fork positions: the very first entry, the second, the tile boundary
  // (256-leaf pages are the storage layer's unit), and the tail (only
  // the newest entry diverges). Trees grow a few entries past the fork.
  const struct { std::uint64_t fork; std::uint64_t extra; } forks[] = {
      {0, 4}, {1, 4}, {256, 3}, {6, 1} /* tail: fork at final entry */};
  for (const auto& fork_case : forks) {
    const std::uint64_t total = fork_case.fork + fork_case.extra;
    for (const Shape shape : {Shape::split, Shape::bridge, Shape::isolated}) {
      SCOPED_TRACE(std::string("fork=") + std::to_string(fork_case.fork) +
                   " shape=" + shape_name(shape));
      EquivocatingLog log(fast_plan(fork_case.fork));
      log.grow(total, kNow);
      ASSERT_EQ(log.size(Side::left), total);
      ASSERT_NE(log.service(Side::left).get_sth().root_hash,
                log.service(Side::right).get_sth().root_hash);

      NetConfig config;
      config.fanout = 2;
      config.seed = 0x90551f + fork_case.fork;
      GossipNet net(config, log.public_key());
      build_topology(net, log, shape);
      for (std::uint64_t round = 1; round <= 8 && !net.detected(); ++round) {
        net.step(at_round(round));
      }
      ASSERT_TRUE(net.detected());
      for (const SplitViewDetected& detection : net.detections()) {
        verify_evidence(detection, log.public_key());
      }
      EXPECT_EQ(net.stats().forged_dropped, 0u);
    }
  }
}

TEST(GossipAdversarialTest, SplitShapeWithoutCoverageNeverLearns) {
  // The control for the aggregation math: remove the straddling
  // aggregation point from the `split` shape and the partitions stay
  // mutually invisible — no actor ever holds both views, so the (real)
  // equivocation goes undetected. Coverage is what detection buys.
  EquivocatingLog log(fast_plan(/*fork_index=*/1));
  log.grow(5, kNow);
  GossipNet net(NetConfig{}, log.public_key());
  const std::size_t l0 = net.add_peer(log.view(Side::left));
  const std::size_t l1 = net.add_peer(log.view(Side::left));
  const std::size_t r0 = net.add_peer(log.view(Side::right));
  const std::size_t r1 = net.add_peer(log.view(Side::right));
  net.connect(l0, l1);
  net.connect(r0, r1);
  for (std::uint64_t round = 1; round <= 10; ++round) net.step(at_round(round));
  EXPECT_FALSE(net.detected());
  EXPECT_GT(net.stats().sths_gossiped, 0u);
}

TEST(GossipAdversarialTest, AsymmetricGrowthDetectsViaFailingProof) {
  // Faces of different sizes: the same-size shortcut cannot fire, so
  // detection must come from the log's own consistency proof failing to
  // verify against the cross-partition head.
  EquivocatingLog log(fast_plan(/*fork_index=*/2));
  log.grow(3, kNow);                                      // both faces: 3
  for (int i = 0; i < 3; ++i) log.grow_side(Side::left, kNow);  // left: 6
  ASSERT_EQ(log.size(Side::left), 6u);
  ASSERT_EQ(log.size(Side::right), 3u);

  GossipNet net(NetConfig{}, log.public_key());
  const std::size_t left_peer = net.add_peer(log.view(Side::left));
  const std::size_t right_peer = net.add_peer(log.view(Side::right));
  net.connect(left_peer, right_peer);
  for (std::uint64_t round = 1; round <= 4 && !net.detected(); ++round) {
    net.step(at_round(round));
  }
  ASSERT_TRUE(net.detected());
  const SplitViewDetected& detection = net.detections().front();
  EXPECT_FALSE(detection.same_size);
  EXPECT_EQ(detection.actor, left_peer);  // only the bigger face can serve the pair
  verify_evidence(detection, log.public_key());
  // The right peer's face cannot serve (3, 6): its pair stays pending —
  // unavailability is never treated as evidence.
  EXPECT_GT(net.stats().challenges_pending, 0u);
}

TEST(GossipAdversarialTest, SignedZeroSizeJunkRootIsCaughtEndToEnd) {
  // Regression lock for the verify_consistency empty-tree fix: a signed
  // size-0 head with a junk root used to be "consistent with anything"
  // (empty proof), so an equivocating log could hand them out freely.
  // Through the challenge path it must now yield a verdict.
  EquivocationPlan plan = fast_plan(/*fork_index=*/1000);  // beyond growth: faces identical
  EquivocatingLog log(plan);
  log.grow(5, kNow);

  GossipNet net(NetConfig{}, log.public_key());
  const std::size_t peer = net.add_peer(log.view(Side::left));
  net.step(at_round(1));  // fetches the honest size-5 head
  ASSERT_FALSE(net.detected());

  crypto::Digest junk = crypto::Sha256::hash(to_bytes("not-the-empty-root"));
  const ct::SignedTreeHead forged_empty = log.sign_arbitrary_sth(0, 1522540800000, junk);
  ASSERT_TRUE(ct::verify_sth(forged_empty, log.public_key()));  // it IS validly signed
  ASSERT_TRUE(net.inject(peer, forged_empty, at_round(1)));
  net.step(at_round(2));

  ASSERT_TRUE(net.detected());
  const SplitViewDetected& detection = net.detections().front();
  EXPECT_FALSE(detection.same_size);
  EXPECT_TRUE(detection.proof.empty());  // the face's 0->5 proof is empty, and still fails
  verify_evidence(detection, log.public_key());
}

TEST(GossipAdversarialTest, DegenerateSameSizePairsResolveCorrectly) {
  EquivocationPlan plan = fast_plan(/*fork_index=*/1000);
  EquivocatingLog log(plan);
  log.grow(4, kNow);

  GossipNet net(NetConfig{}, log.public_key());
  const std::size_t peer = net.add_peer(log.view(Side::left));
  net.step(at_round(1));

  // first == second with the SAME root: a re-signed duplicate head is
  // deduped, never challenged, never a verdict.
  const ct::SignedTreeHead sth = log.service(Side::left).get_sth();
  const ct::SignedTreeHead resigned =
      log.sign_arbitrary_sth(sth.tree_size, sth.timestamp_ms + 1, sth.root_hash);
  ASSERT_TRUE(net.inject(peer, resigned, at_round(1)));
  net.step(at_round(2));
  EXPECT_FALSE(net.detected());

  // first == second with a DIFFERENT root: immediate verdict, no proof
  // fetch involved.
  crypto::Digest junk = crypto::Sha256::hash(to_bytes("same-size-junk"));
  const ct::SignedTreeHead conflicting =
      log.sign_arbitrary_sth(sth.tree_size, sth.timestamp_ms + 2, junk);
  ASSERT_TRUE(net.inject(peer, conflicting, at_round(2)));
  ASSERT_TRUE(net.detected());
  const SplitViewDetected& detection = net.detections().front();
  EXPECT_TRUE(detection.same_size);
  verify_evidence(detection, log.public_key());
}

TEST(GossipTest, ForgedSthIsDroppedNotTrusted) {
  // A head signed by a DIFFERENT key must be rejected at the gossip
  // boundary — otherwise anyone could frame an honest log.
  EquivocatingLog log(fast_plan(1));
  log.grow(3, kNow);
  EquivocatingLog impostor(fast_plan(1, "Impostor"));
  impostor.grow(3, kNow);

  GossipNet net(NetConfig{}, log.public_key());
  const std::size_t peer = net.add_peer(log.view(Side::left));
  net.step(at_round(1));
  const ct::SignedTreeHead forged = impostor.service(Side::right).get_sth();
  EXPECT_FALSE(net.inject(peer, forged, at_round(1)));
  net.step(at_round(2));
  EXPECT_FALSE(net.detected());
  EXPECT_EQ(net.stats().forged_dropped, 1u);
}

// ---------------------------------------------------------------------------
// No false positives: an honest log under heavy chaos.

TEST(GossipTest, HonestLogUnderHeavyChaosNeverYieldsAVerdict) {
  logsvc::Config config = fast_config("Honest Under Fire");
  logsvc::LogService honest(config);
  ServiceView view(honest);

  chaos::FaultInjector injector(0xbadbadbadULL);
  chaos::FaultPlan flaky;
  flaky.error_probability = 0.45;
  flaky.timeout_fraction = 0.5;
  flaky.latency_base_us = 1000;
  flaky.latency_jitter_us = 5000;
  injector.plan("gossip.fetch", flaky);
  injector.plan("gossip.challenge", flaky);
  // Link outages: every edge dies for a stretch of virtual time mid-run
  // (rounds are 60 virtual seconds apart).
  chaos::FaultPlan outage = flaky;
  outage.outages.push_back(
      {static_cast<std::uint64_t>(at_round(5).unix_seconds()) * 1'000'000,
       static_cast<std::uint64_t>(at_round(12).unix_seconds()) * 1'000'000});
  for (const char* edge : {"gossip.link.0-1", "gossip.link.1-2", "gossip.link.2-3",
                           "gossip.link.0-3", "gossip.link.1-4", "gossip.link.3-4"}) {
    injector.plan(edge, outage);
  }

  NetConfig net_config;
  net_config.fanout = 2;
  net_config.chaos = &injector;
  GossipNet net(net_config, honest.public_key());
  std::vector<std::size_t> peers;
  for (int i = 0; i < 5; ++i) peers.push_back(net.add_peer(view));
  net.connect(peers[0], peers[1]);
  net.connect(peers[1], peers[2]);
  net.connect(peers[2], peers[3]);
  net.connect(peers[0], peers[3]);
  net.connect(peers[1], peers[4]);
  net.connect(peers[3], peers[4]);
  const std::size_t agg = net.add_aggregator(view);
  for (const std::size_t p : peers) net.cover(agg, p);

  for (std::uint64_t round = 1; round <= 25; ++round) {
    // The log keeps growing mid-gossip, so actors constantly hold stale
    // + fresh head pairs — all of which the honest log must reconcile.
    std::promise<void> done;
    auto wait = done.get_future();
    const ct::SubmitStatus status = honest.submit(
        ct::SignedEntry{ct::EntryType::x509_entry, to_bytes("h-" + std::to_string(round)), {}},
        crypto::Sha256::hash(to_bytes("hfp-" + std::to_string(round))), "CA", at_round(round),
        [&done](const ct::SubmitResult&) { done.set_value(); });
    ASSERT_EQ(status, ct::SubmitStatus::ok);
    wait.get();
    net.step(at_round(round));
  }

  // Chaos genuinely fired...
  EXPECT_GT(net.stats().fetch_faults, 0u);
  EXPECT_GT(net.stats().link_faults, 0u);
  EXPECT_GT(net.stats().challenge_faults, 0u);
  // ...heads flowed and challenges ran...
  EXPECT_GT(net.stats().sths_accepted, 0u);
  EXPECT_GT(net.stats().challenges_run, 0u);
  // ...and not one verdict: outages and losses are not misbehaviour.
  EXPECT_FALSE(net.detected());
  EXPECT_TRUE(net.detections().empty());
}

// ---------------------------------------------------------------------------
// Storage-backed faces: the adversary runs two durable databases.

TEST(GossipAdversarialTest, StorageBackedFacesEquivocateAndAreDetected) {
  struct TempDir {
    std::string path;
    explicit TempDir(const char* tag) {
      std::string tmpl = std::string("ctwatch_") + tag + ".XXXXXX";
      path = ::mkdtemp(tmpl.data());
      EXPECT_FALSE(path.empty());
    }
    ~TempDir() { std::filesystem::remove_all(path); }
  };
  TempDir left_dir("gossip_left");
  TempDir right_dir("gossip_right");
  storage::LogStoreOptions left_options;
  left_options.dir = left_dir.path;
  storage::LogStoreOptions right_options;
  right_options.dir = right_dir.path;
  storage::LogStore::Open left_open = storage::LogStore::open(left_options);
  storage::LogStore::Open right_open = storage::LogStore::open(right_options);
  ASSERT_NE(left_open.store, nullptr) << left_open.detail;
  ASSERT_NE(right_open.store, nullptr) << right_open.detail;

  ct::SignedTreeHead left_sth, right_sth;
  Bytes public_key;
  {
    EquivocationPlan plan = fast_plan(/*fork_index=*/2, "Durable Equivocator");
    plan.storage_left = left_open.store.get();
    plan.storage_right = right_open.store.get();
    EquivocatingLog log(plan);
    log.grow(6, kNow);

    GossipNet net(NetConfig{}, log.public_key());
    const std::size_t left_peer = net.add_peer(log.view(Side::left));
    const std::size_t right_peer = net.add_peer(log.view(Side::right));
    net.connect(left_peer, right_peer);
    for (std::uint64_t round = 1; round <= 4 && !net.detected(); ++round) {
      net.step(at_round(round));
    }
    ASSERT_TRUE(net.detected());
    verify_evidence(net.detections().front(), log.public_key());
    left_sth = log.service(Side::left).get_sth();
    right_sth = log.service(Side::right).get_sth();
    public_key = log.public_key();
  }
  ASSERT_TRUE(left_open.store->close().ok()) << "left face close";
  ASSERT_TRUE(right_open.store->close().ok()) << "right face close";
  left_open.store.reset();
  right_open.store.reset();

  // Both divergent histories are durable: each face recovers to its own
  // committed head — the equivocation survives a restart intact.
  storage::LogStore::Open left_again = storage::LogStore::open(left_options);
  storage::LogStore::Open right_again = storage::LogStore::open(right_options);
  ASSERT_NE(left_again.store, nullptr) << left_again.detail;
  ASSERT_NE(right_again.store, nullptr) << right_again.detail;
  {
    logsvc::Config config = fast_config("Durable Equivocator");
    config.storage = left_again.store.get();
    logsvc::LogService recovered(config);
    EXPECT_EQ(recovered.get_sth(), left_sth);
  }
  {
    logsvc::Config config = fast_config("Durable Equivocator");
    config.storage = right_again.store.get();
    logsvc::LogService recovered(config);
    EXPECT_EQ(recovered.get_sth(), right_sth);
    EXPECT_TRUE(ct::verify_sth(recovered.get_sth(), public_key));
  }
}

// ---------------------------------------------------------------------------
// Differential parity: one face == an honest log with that history.

class GossipParityTest : public ::testing::TestWithParam<crypto::SignatureScheme> {};

TEST_P(GossipParityTest, SingleFaceIsByteIndistinguishableFromHonestLog) {
  // The attack's viability rests on this: a client pinned to one face
  // can NEVER tell it from an honest log, byte for byte — STHs
  // (signatures included), every proof, every entry. The harness grows
  // an equivocating face and an honest twin through the identical
  // submission history and diffs the full read surface at every step.
  const std::uint64_t fork = 3;
  const std::uint64_t total = 8;

  EquivocationPlan plan = fast_plan(fork, "Parity Log");
  plan.base.scheme = GetParam();
  EquivocatingLog equivocating(plan);

  logsvc::Config honest_config = fast_config("Parity Log");  // same name => same key
  honest_config.scheme = GetParam();
  logsvc::LogService honest(honest_config);

  for (std::uint64_t i = 0; i < total; ++i) {
    const SimTime now{kNow.unix_seconds() + static_cast<std::int64_t>(i) * 7};
    equivocating.grow(now);
    // The honest twin integrates the left face's exact history.
    std::promise<ct::SubmitResult> promise;
    auto future = promise.get_future();
    ASSERT_EQ(honest.submit(EquivocatingLog::entry_at(i, fork, Side::left),
                            EquivocatingLog::fingerprint_at(i, fork, Side::left),
                            "Equivocation CA", now,
                            [&promise](const ct::SubmitResult& outcome) {
                              promise.set_value(outcome);
                            }),
              ct::SubmitStatus::ok);
    ASSERT_EQ(future.get().status, ct::SubmitStatus::ok);

    logsvc::LogService& face = equivocating.service(Side::left);
    const std::uint64_t size = i + 1;
    ASSERT_EQ(face.tree_size(), size);
    ASSERT_EQ(honest.tree_size(), size);
    // STH parity is byte-exact INCLUDING the signature (deterministic
    // nonces), so even signature bytes carry no tell.
    EXPECT_EQ(face.get_sth(), honest.get_sth()) << "step " << i;
    for (std::uint64_t j = 0; j < size; ++j) {
      EXPECT_EQ(face.leaf_hash_at(j), honest.leaf_hash_at(j));
      EXPECT_EQ(face.inclusion_proof(j, size), honest.inclusion_proof(j, size));
    }
    for (std::uint64_t old_size = 0; old_size <= size; ++old_size) {
      EXPECT_EQ(face.consistency_proof(old_size, size), honest.consistency_proof(old_size, size));
    }
  }

  // Full entry-stream parity, and cross-check against the reference
  // in-core recursion (the PR 9 parity style: two independent
  // implementations of the same math must agree).
  const auto face_entries = equivocating.service(Side::left).get_entries(0, total);
  const auto honest_entries = honest.get_entries(0, total);
  ASSERT_EQ(face_entries.size(), honest_entries.size());
  ct::MerkleTree reference;
  for (std::size_t i = 0; i < face_entries.size(); ++i) {
    EXPECT_EQ(face_entries[i].signed_entry.data, honest_entries[i].signed_entry.data);
    EXPECT_EQ(face_entries[i].timestamp_ms, honest_entries[i].timestamp_ms);
    reference.append(equivocating.service(Side::left).leaf_hash_at(i));
  }
  EXPECT_EQ(reference.root(), honest.get_sth().root_hash);
}

INSTANTIATE_TEST_SUITE_P(Schemes, GossipParityTest,
                         ::testing::Values(crypto::SignatureScheme::hmac_sha256_simulated,
                                           crypto::SignatureScheme::ecdsa_p256_sha256));

// ---------------------------------------------------------------------------
// Concurrency: pollination + challenges racing the growing log (the
// ThreadSanitizer target for the gossip subsystem).

TEST(GossipTest, ConcurrentPollinationAndChallengesAreRaceFree) {
  EquivocatingLog log(fast_plan(/*fork_index=*/1));
  log.grow(2, kNow);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> verdicts{0};
  std::atomic<std::uint64_t> challenges{0};

  std::thread grower([&] {
    for (int i = 0; i < 40 && !stop.load(std::memory_order_relaxed); ++i) {
      log.grow(SimTime{kNow.unix_seconds() + i});
    }
    stop.store(true, std::memory_order_relaxed);
  });

  std::vector<std::thread> challengers;
  for (int t = 0; t < 4; ++t) {
    challengers.emplace_back([&, t] {
      const Side mine = (t % 2 == 0) ? Side::left : Side::right;
      const Side other = (t % 2 == 0) ? Side::right : Side::left;
      ServiceView view(log.service(mine));
      while (!stop.load(std::memory_order_relaxed)) {
        const ct::SignedTreeHead ours = view.get_sth();
        const ct::SignedTreeHead theirs = log.service(other).get_sth();
        ASSERT_TRUE(ct::verify_sth(ours, log.public_key()));
        const ChallengeResult result = challenge_pair(view, ours, theirs);
        challenges.fetch_add(1, std::memory_order_relaxed);
        if (result.status == ChallengeStatus::split_view) {
          verdicts.fetch_add(1, std::memory_order_relaxed);
          // Evidence must re-verify even when sampled mid-growth.
          if (result.same_size_conflict) {
            ASSERT_EQ(ours.tree_size, theirs.tree_size);
            ASSERT_NE(ours.root_hash, theirs.root_hash);
          } else {
            const auto& old_sth = ours.tree_size <= theirs.tree_size ? ours : theirs;
            const auto& new_sth = ours.tree_size <= theirs.tree_size ? theirs : ours;
            ASSERT_FALSE(ct::verify_consistency(old_sth.tree_size, new_sth.tree_size,
                                                old_sth.root_hash, new_sth.root_hash,
                                                result.proof));
          }
        }
      }
    });
  }
  grower.join();
  for (auto& thread : challengers) thread.join();

  EXPECT_GT(challenges.load(), 0u);
  // Both faces diverge from entry 1 on, so racing challengers must have
  // caught the split many times over.
  EXPECT_GT(verdicts.load(), 0u);
}

}  // namespace
}  // namespace ctwatch::gossip
