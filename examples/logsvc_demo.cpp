// logsvc demo: the production-shaped log service end to end.
//
// A CA mints a precertificate, submits it over the asynchronous add-pre-chain
// path, and the SCT arrives via completion callback once the sequencer seals
// the batch (the merge delay). A streaming subscriber sees the new entry, and
// a client verifies the SCT, the STH, and an inclusion proof against the
// published snapshot — all without ever touching the sequencer's write lock.
//
// A second act restarts the same log from its durable store: the service
// flushes and closes on stop(), a fresh process-model open() replays the
// WAL, and the republished STH is byte-identical to the one signed before
// the restart — the log never forks its own history.
//
// Build & run:  ./build/examples/logsvc_demo
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <future>

#include "ctwatch/logsvc/logsvc.hpp"
#include "ctwatch/sim/ca.hpp"
#include "ctwatch/storage/log_store.hpp"

using namespace ctwatch;

int main() {
  // 1. The service: bounded queue in front, sequencer behind, snapshot reads.
  logsvc::Config config;
  config.name = "Demo Log";
  config.operator_name = "Example";
  config.merge_delay = std::chrono::milliseconds(20);  // a miniature MMD
  logsvc::LogService service(config);
  std::printf("log '%s' key id: %s...\n", config.name.c_str(),
              hex_encode(BytesView{service.log_id().data(), 8}).c_str());

  // 2. A streaming consumer, as ct_search/Censys-style trackers attach.
  std::atomic<std::uint64_t> streamed{0};
  service.subscribe("demo-watcher", [&streamed](const logsvc::StreamEvent& event) {
    streamed.fetch_add(1);
    std::printf("  [stream] new entry #%llu at t=%llums\n",
                static_cast<unsigned long long>(event.index),
                static_cast<unsigned long long>(event.timestamp_ms));
  });

  // 3. A CA mints a precertificate (no legacy log attached) and submits it
  //    through the asynchronous add-pre-chain path.
  sim::CertificateAuthority ca("Demo CA", "Demo Issuing CA",
                               crypto::SignatureScheme::ecdsa_p256_sha256);
  sim::IssuanceRequest request;
  request.subject_cn = "www.example.org";
  request.sans = {x509::SanEntry::dns("www.example.org")};
  request.not_before = SimTime::parse("2018-04-01");
  request.not_after = SimTime::parse("2018-06-30");
  const x509::Certificate precert =
      ca.issue(request, SimTime::parse("2018-04-01 10:00:00")).precertificate;

  std::promise<ct::SubmitResult> promise;
  auto outcome_future = promise.get_future();
  const ct::SubmitStatus status = service.submit_pre_chain(
      precert, ca.public_key(), SimTime::parse("2018-04-01 10:00:00"),
      [&promise](const ct::SubmitResult& outcome) { promise.set_value(outcome); });
  if (status != ct::SubmitStatus::ok) {
    std::printf("submission rejected\n");
    return 1;
  }
  std::printf("submitted; waiting out the merge delay...\n");
  const ct::SubmitResult outcome = outcome_future.get();  // sealed + published
  std::printf("SCT received for leaf index %llu\n",
              static_cast<unsigned long long>(outcome.index));

  // 4. Client-side verification: SCT signature, STH signature, inclusion.
  const ct::SignedEntry entry = ct::make_precert_entry(precert, ca.public_key());
  const bool sct_ok = ct::verify_sct(*outcome.sct, entry, service.public_key());
  const ct::SignedTreeHead sth = service.get_sth();
  const bool sth_ok = ct::verify_sth(sth, service.public_key());
  const auto proof = service.inclusion_proof(outcome.index, sth.tree_size);
  const bool proof_ok = ct::verify_inclusion(service.leaf_hash_at(outcome.index), outcome.index,
                                             sth.tree_size, proof, sth.root_hash);
  std::printf("SCT valid: %s | STH valid: %s | inclusion proven: %s\n", sct_ok ? "yes" : "NO",
              sth_ok ? "yes" : "NO", proof_ok ? "yes" : "NO");

  // 5. Shut down gracefully: drains the queue, joins sequencer and fanout.
  service.stop();
  std::printf("streamed events seen: %llu (dropped %llu)\n",
              static_cast<unsigned long long>(streamed.load()),
              static_cast<unsigned long long>(service.fanout().dropped()));

  // 6. The durable act: the same log, twice. A storage-backed service
  //    commits every sealed batch (WAL + fsync) before releasing SCTs;
  //    stop() flushes and closes; a fresh open() replays to the last
  //    durable STH and the restarted service republishes the exact bytes.
  const std::string store_dir = "logsvc_demo.store";
  std::filesystem::remove_all(store_dir);
  bool durable_ok = false;
  {
    auto opened = storage::LogStore::open({.dir = store_dir});
    if (!opened.store) {
      std::printf("storage open failed: %s\n", opened.detail.c_str());
      return 1;
    }
    logsvc::Config durable_config = config;
    durable_config.name = "Durable Demo Log";
    durable_config.storage = opened.store.get();
    ct::SignedTreeHead before_restart;
    {
      logsvc::LogService durable(durable_config);
      std::promise<ct::SubmitResult> sealed;
      auto sealed_future = sealed.get_future();
      durable.submit_pre_chain(
          precert, ca.public_key(), SimTime::parse("2018-04-01 10:05:00"),
          [&sealed](const ct::SubmitResult& o) { sealed.set_value(o); });
      sealed_future.get();
      before_restart = durable.get_sth();
      durable.stop();  // flush-and-close: seals are already on disk
    }
    opened.store->close();
    opened.store.reset();

    auto reopened = storage::LogStore::open({.dir = store_dir});
    if (!reopened.store) {
      std::printf("storage reopen failed: %s\n", reopened.detail.c_str());
      return 1;
    }
    std::printf("recovered tree size %llu (replayed %llu batch(es) from the WAL)\n",
                static_cast<unsigned long long>(reopened.store->tree_size()),
                static_cast<unsigned long long>(reopened.store->recovery().replayed_batches));
    durable_config.storage = reopened.store.get();
    logsvc::LogService restarted(durable_config);
    durable_ok = restarted.get_sth() == before_restart;
    std::printf("STH after restart byte-identical: %s\n", durable_ok ? "yes" : "NO");
    restarted.stop();
  }
  std::filesystem::remove_all(store_dir);

  return sct_ok && sth_ok && proof_ok && streamed.load() == 1 && durable_ok ? 0 : 1;
}
