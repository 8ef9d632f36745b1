// Edge cases for Merkle proof math and the log auditor: empty trees,
// single leaves, degenerate consistency, stale tree-head snapshots, the
// RootAccumulator / bulk-append paths the logsvc sequencer relies on, and
// MerkleTree's tiled proofs against the merkle_* reference recursion.
#include <gtest/gtest.h>

#include "ctwatch/ct/auditor.hpp"
#include "ctwatch/sim/ca.hpp"

namespace ctwatch::ct {
namespace {

Digest leaf_of(const std::string& data) { return leaf_hash(to_bytes(data)); }

// --- empty tree ---

TEST(ProofEdgeTest, EmptyTreeRootIsSha256OfEmptyString) {
  EXPECT_EQ(hex_encode(BytesView{empty_tree_root().data(), empty_tree_root().size()}),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  MerkleTree tree;
  EXPECT_EQ(tree.root(), empty_tree_root());
  EXPECT_EQ(RootAccumulator{}.root(), empty_tree_root());
  EXPECT_EQ(tree.root_at(0), empty_tree_root());
}

TEST(ProofEdgeTest, NothingIsIncludedInTheEmptyTree) {
  EXPECT_FALSE(verify_inclusion(leaf_of("x"), 0, 0, {}, empty_tree_root()));
}

TEST(ProofEdgeTest, EverythingIsConsistentWithTheEmptyTree) {
  MerkleTree tree;
  for (int i = 0; i < 5; ++i) tree.append(leaf_of("l" + std::to_string(i)));
  EXPECT_TRUE(verify_consistency(0, 5, empty_tree_root(), tree.root(), tree.consistency_proof(0, 5)));
  EXPECT_TRUE(tree.consistency_proof(0, 5).empty());
  // ...but a non-empty proof from size 0 is malformed.
  EXPECT_FALSE(verify_consistency(0, 5, empty_tree_root(), tree.root(), {leaf_of("junk")}));
  // Empty-to-empty is the fully degenerate case.
  EXPECT_TRUE(verify_consistency(0, 0, empty_tree_root(), empty_tree_root(), {}));
}

TEST(ProofEdgeTest, OnlyTheRealEmptyRootIsConsistentWithEverything) {
  // Regression: a signed size-0 head with an arbitrary root used to pass
  // consistency with ANY tree (the old-size-0 branch ignored old_root).
  // An equivocating log could mint such heads freely and every gossip
  // challenge on them would succeed. Size 0 pins the one root the empty
  // tree actually has.
  MerkleTree tree;
  for (int i = 0; i < 5; ++i) tree.append(leaf_of("e" + std::to_string(i)));
  const Digest junk = leaf_of("junk-empty-root");
  EXPECT_FALSE(verify_consistency(0, 5, junk, tree.root(), {}));
  EXPECT_FALSE(verify_consistency(0, 1, junk, leaf_of("e0"), {}));
  EXPECT_FALSE(verify_consistency(0, 0, junk, empty_tree_root(), {}));
  // The real empty root still passes, proof-free, against any tree.
  EXPECT_TRUE(verify_consistency(0, 5, empty_tree_root(), tree.root(), {}));
}

// --- single leaf ---

TEST(ProofEdgeTest, SingleLeafTreeRootIsTheLeafHash) {
  MerkleTree tree;
  tree.append(leaf_of("only"));
  EXPECT_EQ(tree.root(), leaf_of("only"));
  // The inclusion proof for the only leaf is empty and verifies.
  const auto proof = tree.inclusion_proof(0, 1);
  EXPECT_TRUE(proof.empty());
  EXPECT_TRUE(verify_inclusion(leaf_of("only"), 0, 1, proof, tree.root()));
  EXPECT_FALSE(verify_inclusion(leaf_of("other"), 0, 1, proof, tree.root()));
  // Consistency 1 -> 1 is empty too.
  EXPECT_TRUE(verify_consistency(1, 1, tree.root(), tree.root(), tree.consistency_proof(1, 1)));
}

// --- consistency where old == new ---

TEST(ProofEdgeTest, ConsistencySameSizeRequiresIdenticalRoots) {
  MerkleTree tree;
  for (int i = 0; i < 9; ++i) tree.append(leaf_of("c" + std::to_string(i)));
  EXPECT_TRUE(tree.consistency_proof(9, 9).empty());
  EXPECT_TRUE(verify_consistency(9, 9, tree.root(), tree.root(), {}));
  EXPECT_FALSE(verify_consistency(9, 9, tree.root(), leaf_of("imposter"), {}));
  // A same-size claim with a non-empty proof is malformed.
  EXPECT_FALSE(verify_consistency(9, 9, tree.root(), tree.root(), {leaf_of("junk")}));
}

// --- stale snapshot proofs ---

TEST(ProofEdgeTest, ProofsVerifyAgainstStaleTreeHeadSnapshot) {
  // A client pins the STH of a 13-leaf tree; the log grows to 40. Proofs
  // requested *at the stale size* must still verify against the old root,
  // and must not verify against the new one.
  MerkleTree tree;
  for (int i = 0; i < 13; ++i) tree.append(leaf_of("s" + std::to_string(i)));
  const Digest stale_root = tree.root();
  for (int i = 13; i < 40; ++i) tree.append(leaf_of("s" + std::to_string(i)));

  for (std::uint64_t index : {0ULL, 7ULL, 12ULL}) {
    const auto proof = tree.inclusion_proof(index, 13);
    EXPECT_TRUE(verify_inclusion(leaf_of("s" + std::to_string(index)), index, 13, proof,
                                 stale_root));
    EXPECT_FALSE(verify_inclusion(leaf_of("s" + std::to_string(index)), index, 13, proof,
                                  tree.root()));
  }
  // And the stale head connects forward to the current one.
  EXPECT_TRUE(verify_consistency(13, 40, stale_root, tree.root(), tree.consistency_proof(13, 40)));
}

// --- RootAccumulator / bulk append (the sequencer's integration path) ---

TEST(ProofEdgeTest, RootAccumulatorMatchesRecursiveRootAtEverySize) {
  RootAccumulator accumulator;
  MerkleTree reference;
  EXPECT_EQ(accumulator.root(), reference.root());
  for (int i = 0; i < 70; ++i) {
    const Digest leaf = leaf_of("a" + std::to_string(i));
    accumulator.add(leaf);
    reference.append(leaf);
    ASSERT_EQ(accumulator.size(), reference.size());
    ASSERT_EQ(accumulator.root(), reference.root()) << "size " << reference.size();
  }
}

TEST(ProofEdgeTest, AppendBatchEquivalentToSequentialAppend) {
  std::vector<Digest> batch;
  for (int i = 0; i < 33; ++i) batch.push_back(leaf_of("b" + std::to_string(i)));

  MerkleTree sequential;
  for (const Digest& leaf : batch) sequential.append(leaf);

  MerkleTree bulk;
  bulk.append(batch[0]);
  EXPECT_EQ(bulk.append_batch(std::span<const Digest>(batch).subspan(1)), 1u);
  EXPECT_EQ(bulk.size(), sequential.size());
  EXPECT_EQ(bulk.root(), sequential.root());
  EXPECT_EQ(bulk.inclusion_proof(17, 33), sequential.inclusion_proof(17, 33));
  EXPECT_EQ(bulk.append_batch({}), 33u);  // empty batch: no-op, returns next index
}

// --- MerkleTree's tiled proofs against the merkle_* oracle ---

TEST(ProofEdgeTest, MerkleTreeMatchesOracleAtEverySizeTo1100) {
  std::vector<Digest> leaves;
  std::vector<Digest> roots{empty_tree_root()};  // oracle root at every size
  const auto leaf_fn = [&](std::uint64_t i) -> const Digest& {
    return leaves[static_cast<std::size_t>(i)];
  };
  MerkleTree tree;
  for (std::uint64_t n = 1; n <= 1100; ++n) {
    leaves.push_back(leaf_of("t" + std::to_string(n)));
    tree.append(leaves.back());
    roots.push_back(merkle_root_of(leaf_fn, n));
    ASSERT_EQ(tree.root(), roots[n]) << "size " << n;
    // Strides coprime to 256 walk the probes across every tile offset.
    const std::uint64_t index = (n * 37) % n;
    const std::uint64_t old_size = 1 + (n * 101) % n;
    ASSERT_EQ(tree.root_at(old_size), roots[old_size]) << old_size << " of " << n;
    ASSERT_EQ(tree.inclusion_proof(index, n), merkle_inclusion_path(leaf_fn, index, n))
        << "index " << index << " at " << n;
    ASSERT_EQ(tree.consistency_proof(old_size, n), merkle_consistency_path(leaf_fn, old_size, n))
        << old_size << " -> " << n;
    if (n % 50 == 0) {
      // A stale size, proven while the tree is larger.
      ASSERT_EQ(tree.inclusion_proof(index % old_size, old_size),
                merkle_inclusion_path(leaf_fn, index % old_size, old_size))
          << "index " << index % old_size << " at stale " << old_size;
    }
  }
}

TEST(ProofEdgeTest, MerkleTreeMatchesOracleAcrossTheSecondTileLevel) {
  // 65,537 leaves: one complete level-2 entry plus one leaf past it.
  constexpr std::uint64_t n = 65537;
  std::vector<Digest> leaves;
  MerkleTree tree;
  for (std::uint64_t i = 0; i < n; ++i) {
    leaves.push_back(leaf_of(std::to_string(i) + "-u"));
    tree.append(leaves.back());
  }
  const auto leaf_fn = [&](std::uint64_t i) -> const Digest& {
    return leaves[static_cast<std::size_t>(i)];
  };
  for (const std::uint64_t size : {std::uint64_t{65535}, std::uint64_t{65536}, n}) {
    EXPECT_EQ(tree.root_at(size), merkle_root_of(leaf_fn, size)) << "size " << size;
  }
  for (const std::uint64_t index : {0, 255, 256, 40000, 65535, 65536}) {
    EXPECT_EQ(tree.inclusion_proof(index, n), merkle_inclusion_path(leaf_fn, index, n))
        << "index " << index;
  }
  EXPECT_EQ(tree.inclusion_proof(300, 65536), merkle_inclusion_path(leaf_fn, 300, 65536));
  for (const std::uint64_t old_size : {1, 256, 257, 32768, 65535, 65536}) {
    EXPECT_EQ(tree.consistency_proof(old_size, n), merkle_consistency_path(leaf_fn, old_size, n))
        << old_size << " -> " << n;
  }
}

// --- auditor edge cases ---

class AuditorEdgeTest : public ::testing::Test {
 protected:
  AuditorEdgeTest()
      : ca_("Edge CA", "Edge Issuing CA", crypto::SignatureScheme::hmac_sha256_simulated),
        now_(SimTime::parse("2018-04-01")) {
    LogConfig config;
    config.name = "Edge Log";
    config.scheme = crypto::SignatureScheme::hmac_sha256_simulated;
    log_ = std::make_unique<CtLog>(config);
  }

  void issue(const std::string& cn) {
    sim::IssuanceRequest request;
    request.subject_cn = cn;
    request.sans = {x509::SanEntry::dns(cn)};
    request.not_before = now_;
    request.not_after = now_ + 90 * 86400;
    request.logs = {log_.get()};
    ca_.issue(request, now_);
  }

  sim::CertificateAuthority ca_;
  std::unique_ptr<CtLog> log_;
  SimTime now_;
};

TEST_F(AuditorEdgeTest, AuditOfEmptyLogSucceeds) {
  LogAuditor auditor;
  const auto outcome = auditor.audit(*log_, now_);
  EXPECT_TRUE(outcome.ok) << outcome.problem;
  EXPECT_EQ(outcome.sth.tree_size, 0u);
  EXPECT_EQ(outcome.sth.root_hash, empty_tree_root());
}

TEST_F(AuditorEdgeTest, RepeatAuditWithoutGrowthSucceeds) {
  issue("www.example.org");
  LogAuditor auditor;
  EXPECT_TRUE(auditor.audit(*log_, now_).ok);
  // Same tree, later time: consistency old == new.
  EXPECT_TRUE(auditor.audit(*log_, now_ + 3600).ok);
}

TEST_F(AuditorEdgeTest, AuditFromEmptyThroughGrowth) {
  LogAuditor auditor;
  EXPECT_TRUE(auditor.audit(*log_, now_).ok);  // records the size-0 head
  issue("www.example.org");
  issue("api.example.org");
  const auto outcome = auditor.audit(*log_, now_ + 3600);
  EXPECT_TRUE(outcome.ok) << outcome.problem;
  EXPECT_EQ(outcome.sth.tree_size, 2u);
}

TEST_F(AuditorEdgeTest, DetectsHistoryRewriteAfterStaleSnapshot) {
  for (int i = 0; i < 6; ++i) issue("host" + std::to_string(i) + ".example.org");
  LogAuditor auditor;
  EXPECT_TRUE(auditor.audit(*log_, now_).ok);  // pins the honest 6-leaf head
  issue("host6.example.org");
  log_->corrupt_leaf_for_test(2);  // rewrite below the pinned head
  const auto outcome = auditor.audit(*log_, now_ + 3600);
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.problem.find("consistency"), std::string::npos);
}

TEST_F(AuditorEdgeTest, CheckInclusionAgainstStaleHead) {
  issue("a.example.org");
  issue("b.example.org");
  const SignedTreeHead stale = log_->get_sth(now_);  // size 2
  for (int i = 0; i < 4; ++i) issue("c" + std::to_string(i) + ".example.org");

  // Entries below the stale head still prove into it; later ones cannot.
  EXPECT_TRUE(LogAuditor::check_inclusion(*log_, 0, stale));
  EXPECT_TRUE(LogAuditor::check_inclusion(*log_, 1, stale));
  EXPECT_FALSE(LogAuditor::check_inclusion(*log_, 3, stale));
  // And out-of-range indexes are rejected outright.
  EXPECT_FALSE(LogAuditor::check_inclusion(*log_, 99, stale));
}

}  // namespace
}  // namespace ctwatch::ct
