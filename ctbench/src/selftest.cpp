// ctbench_selftest: checks the benchmark's own machinery.
//
//  * the percentile rule behind tail_ms;
//  * the independent Merkle reference agrees with ctwatch on roots and
//    accepts its proofs, and every deliberately corrupted proof is caught;
//  * the reference leaf serialization matches RFC 6962 as ctwatch writes it;
//  * an SCT issued by a live LogService verifies under the derived log key,
//    and a corrupted SCT does not;
//  * a corrupted artifact digest is caught;
//  * the traced result carries only layer metrics plus the overhead.
//
// Prints one line per failed check and exits non-zero if any failed.
#include <algorithm>
#include <cstdio>
#include <random>
#include <string>

#include "ctwatch/crypto/signature.hpp"
#include "ctwatch/ct/log.hpp"
#include "ctwatch/ct/merkle.hpp"
#include "ctwatch/ct/sct.hpp"
#include "ctwatch/logsvc/service.hpp"
#include "workloads.hpp"

using namespace ctbench;
namespace ct = ctwatch::ct;

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void test_percentile_rule() {
  Tail t = tail_of(ramp(1000));
  check(t.percentile == 99 && t.value == 990 && t.samples == 1000, "1000 samples -> p99 = 990");
  t = tail_of(ramp(999));
  check(t.percentile == 95, "999 samples: p99 has 9 beyond, falls back to p95");
  t = tail_of(ramp(20));
  check(t.percentile == 50 && t.value == 10, "20 samples -> p50 (10 beyond)");
  t = tail_of(ramp(19));
  check(t.percentile == 100 && t.value == 19, "19 samples -> maximum");
  t = tail_of({42.0});
  check(t.percentile == 100 && t.value == 42 && t.samples == 1, "one sample -> itself");
  std::vector<double> shuffled = ramp(1000);
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937_64(7));
  check(tail_of(shuffled).value == 990, "tail_of sorts its input");
  check(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2.5, "median");
}

std::vector<Digest> random_leaves(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Digest> leaves(n);
  for (Digest& d : leaves) {
    for (auto& b : d) b = static_cast<std::uint8_t>(rng());
  }
  return leaves;
}

void test_reference_tree() {
  for (const std::size_t n : {1, 2, 3, 5, 8, 13, 64, 100, 257, 1000}) {
    const std::vector<Digest> leaves = random_leaves(n, n);
    const RefTree ref(leaves);
    const auto leaf_fn = [&](std::uint64_t i) { return leaves[i]; };
    for (std::uint64_t m = 1; m <= n; m = m * 2 + 1) {
      check(ref.root(m) == ct::merkle_root_of(leaf_fn, m), "root(" + std::to_string(m) + ")");
    }
    const Digest root = ref.root(n);
    for (std::uint64_t i = 0; i < n; i += 1 + n / 7) {
      std::vector<Digest> path = ct::merkle_inclusion_path(leaf_fn, i, n);
      check(ref_verify_inclusion(i, n, leaves[i], path, root),
            "inclusion " + std::to_string(i) + "/" + std::to_string(n));
      check(!ref_verify_inclusion(i, n, leaves[(i + 1) % n], path, root) || n == 1,
            "wrong leaf rejected");
      if (!path.empty()) {
        std::vector<Digest> bad = path;
        bad[bad.size() / 2][5] ^= 0x20;
        check(!ref_verify_inclusion(i, n, leaves[i], bad, root), "corrupted inclusion caught");
        bad = path;
        bad.pop_back();
        check(!ref_verify_inclusion(i, n, leaves[i], bad, root), "truncated inclusion caught");
        bad = path;
        bad.push_back(path.front());
        check(!ref_verify_inclusion(i, n, leaves[i], bad, root), "padded inclusion caught");
      }
      check(!ref_verify_inclusion(n, n, leaves[i], path, root), "index beyond size caught");
    }
    for (std::uint64_t m = 1; m < n; m = m * 3 + 1) {
      std::vector<Digest> proof = ct::merkle_consistency_path(leaf_fn, m, n);
      check(ref_verify_consistency(m, n, ref.root(m), root, proof),
            "consistency " + std::to_string(m) + "->" + std::to_string(n));
      check(!ref_verify_consistency(m, n, ref.root(m == 1 ? 2 : m - 1), root, proof),
            "consistency against a wrong old root caught");
      if (!proof.empty()) {
        proof.back()[0] ^= 1;
        check(!ref_verify_consistency(m, n, ref.root(m), root, proof),
              "corrupted consistency caught");
      }
    }
  }
}

void test_leaf_serialization_and_sct() {
  const CertPool pool = make_cert_pool(3, 4, 2);
  const ct::SignedEntry entry = ct::make_x509_entry(pool.leaves[1]);
  check(ref_x509_leaf_input(1522540800123ULL, pool.leaf_der[1]) ==
            ct::merkle_leaf_bytes(1522540800123ULL, entry),
        "reference MerkleTreeLeaf matches ct::merkle_leaf_bytes");

  ctwatch::logsvc::Config config;
  config.name = kSubmitLogName;
  ctwatch::logsvc::LogService service(config);
  const auto outcome = service.submit_and_wait(pool.leaves[1], pool.issuer.tbs.public_key,
                                               ctwatch::SimTime{1522540800});
  check(outcome.status == ctwatch::logsvc::SubmitStatus::ok && outcome.sct.has_value(),
        "live LogService issues an SCT for a generated certificate");
  if (!outcome.sct) return;
  const Bytes log_key =
      ctwatch::crypto::EcdsaSigner::derive(std::string("ct-log/") + kSubmitLogName)->public_key();
  check(ct::verify_sct(*outcome.sct, entry, log_key), "SCT verifies under the derived log key");
  ct::SignedCertificateTimestamp bad = *outcome.sct;
  bad.signature.data[bad.signature.data.size() / 2] ^= 0x01;
  check(!ct::verify_sct(bad, entry, log_key), "corrupted SCT signature caught");
  bad = *outcome.sct;
  bad.timestamp_ms += 1;
  check(!ct::verify_sct(bad, entry, log_key), "SCT with a shifted timestamp caught");
  check(!ct::verify_sct(*outcome.sct, ct::make_x509_entry(pool.leaves[2]), log_key),
        "SCT presented for another certificate caught");
  service.stop();
}

void test_artifact_digest() {
  const std::string artifact = "www 9861\nmail 3034\n";
  std::string corrupted = artifact;
  corrupted[4] = '8';
  check(sha256_hex(artifact) != sha256_hex(corrupted), "one-byte artifact change moves the digest");
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const char* golden = golden_paper_digest(seed);
    if (golden == nullptr) continue;
    const std::string g = golden;
    check(g.size() == 64 && g.find_first_not_of("0123456789abcdef") == std::string::npos,
          "golden digest for seed " + std::to_string(seed) + " is 64 hex digits");
    std::string flipped = g;
    flipped[0] = flipped[0] == '0' ? '1' : '0';
    check(flipped != golden, "corrupted golden digest caught");
  }
}

void test_traced_result() {
  Outcome untraced, traced, layers;
  for (const char* name : kEndToEndMetrics) {
    untraced.add(name, 10, "x");
    traced.add(name, 11, "x");
  }
  layers.add("crypto.sha256_node_ns", 500, "ns");
  traced.attempted = 5;
  traced.failed = 1;
  traced.correct = false;
  const Outcome result = traced_result(untraced, traced, layers, 123);
  for (const char* name : kEndToEndMetrics) {
    check(!result.value(name).has_value(), std::string("traced result omits ") + name);
  }
  check(result.value("trace.overhead_pct") == 10.0, "overhead = (11 - 10) / 10");
  check(result.value("trace.spans") == 123.0, "span count reported");
  check(!result.correct && result.failed == 1 && result.attempted == 5,
        "traced result keeps the halves' verdicts");
}

}  // namespace

int main() {
  test_percentile_rule();
  test_reference_tree();
  test_leaf_serialization_and_sct();
  test_artifact_digest();
  test_traced_result();
  std::printf("%s (%d failures)\n", failures == 0 ? "ctbench_selftest: OK" : "ctbench_selftest: FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}
