// Micro-benchmarks of the hot substrate operations: hashing, signatures,
// Merkle tree maintenance, DER encoding, PSL splitting, DNS resolution.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "ctwatch/ct/log.hpp"
#include "ctwatch/dns/psl.hpp"
#include "ctwatch/sim/ca.hpp"

using namespace ctwatch;

namespace {

void BM_Sha256_1KiB(benchmark::State& state) {
  const Bytes data(1024, 0xa5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KiB);

void BM_EcdsaSign(benchmark::State& state) {
  const auto key = crypto::EcdsaKeyPair::derive("bench");
  const Bytes msg = to_bytes("benchmark message");
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.sign(msg));
  }
}
BENCHMARK(BM_EcdsaSign);

void BM_EcdsaVerify(benchmark::State& state) {
  const auto key = crypto::EcdsaKeyPair::derive("bench");
  const Bytes msg = to_bytes("benchmark message");
  const auto sig = key.sign(msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::ecdsa_verify(key.public_point(), msg, sig));
  }
}
BENCHMARK(BM_EcdsaVerify);

void BM_SimulatedSign(benchmark::State& state) {
  const auto signer = crypto::SimulatedSigner::derive("bench");
  const Bytes msg = to_bytes("benchmark message");
  for (auto _ : state) {
    benchmark::DoNotOptimize(signer->sign(msg));
  }
}
BENCHMARK(BM_SimulatedSign);

void BM_MerkleAppend(benchmark::State& state) {
  ct::MerkleTree tree;
  const crypto::Digest leaf = crypto::Sha256::hash(to_bytes("leaf"));
  for (auto _ : state) {
    tree.append(leaf);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MerkleAppend);

/// One tree per size, built once: google-benchmark calls a function
/// several times per argument, and a 2^20-leaf build costs seconds.
const ct::MerkleTree& proof_tree(std::uint64_t leaves) {
  static std::map<std::uint64_t, std::unique_ptr<ct::MerkleTree>> trees;
  std::unique_ptr<ct::MerkleTree>& tree = trees[leaves];
  if (!tree) {
    tree = std::make_unique<ct::MerkleTree>();
    for (std::uint64_t i = 0; i < leaves; ++i) {
      tree->append(crypto::Sha256::hash(to_bytes("leaf" + std::to_string(i))));
    }
  }
  return *tree;
}

/// Proof targets spread over the whole tree (a multiplicative stride),
/// not clustered at its left edge.
std::uint64_t spread(std::uint64_t i, std::uint64_t n) { return (i * 2654435761ULL) % n; }

void BM_MerkleInclusionProof(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const ct::MerkleTree& tree = proof_tree(n);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.inclusion_proof(spread(i++, n), n));
  }
}
BENCHMARK(BM_MerkleInclusionProof)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_MerkleConsistencyProof(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const ct::MerkleTree& tree = proof_tree(n);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.consistency_proof(1 + spread(i++, n - 1), n));
  }
}
BENCHMARK(BM_MerkleConsistencyProof)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_CertificateIssuance(benchmark::State& state) {
  sim::CertificateAuthority ca("Bench CA", "Bench Issuing CA",
                               crypto::SignatureScheme::hmac_sha256_simulated);
  ct::LogConfig config;
  config.name = "Bench Log";
  config.operator_name = "Bench";
  config.scheme = crypto::SignatureScheme::hmac_sha256_simulated;
  config.verify_submissions = false;
  config.store_bodies = false;
  ct::CtLog log(config);
  const SimTime when = SimTime::parse("2018-04-01");
  std::uint64_t n = 0;
  for (auto _ : state) {
    sim::IssuanceRequest request;
    request.subject_cn = "bench-" + std::to_string(n++) + ".example.org";
    request.sans = {x509::SanEntry::dns(request.subject_cn)};
    request.not_before = when;
    request.not_after = when + 90 * 86400;
    request.logs = {&log};
    benchmark::DoNotOptimize(ca.issue(request, when));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CertificateIssuance);

void BM_PslSplit(benchmark::State& state) {
  const auto psl = dns::PublicSuffixList::bundled();
  const std::string name = "www.dev.example.co.uk";
  for (auto _ : state) {
    benchmark::DoNotOptimize(psl.split(name));
  }
}
BENCHMARK(BM_PslSplit);

}  // namespace

BENCHMARK_MAIN();
