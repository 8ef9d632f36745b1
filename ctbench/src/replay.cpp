// The per-layer replay of the traced run. Each named layer call is made
// in process on inputs generated from the seed — the same generators the
// workloads use — with one span per call (or per fixed batch, for calls
// too short to time alone). A layer metric is the median span duration,
// except where noted. The replay is identical for every workload, so
// each traced run reports every layer.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>
#include <set>
#include <thread>

#include "ctwatch/core/log_evolution.hpp"
#include "ctwatch/crypto/signature.hpp"
#include "ctwatch/ct/log.hpp"
#include "ctwatch/ct/sct.hpp"
#include "ctwatch/dns/name.hpp"
#include "ctwatch/dns/resolver.hpp"
#include "ctwatch/enumeration/census.hpp"
#include "ctwatch/enumeration/enumerator.hpp"
#include "ctwatch/httpd/ct_handlers.hpp"
#include "ctwatch/httpd/json.hpp"
#include "ctwatch/httpd/server.hpp"
#include "ctwatch/logsvc/service.hpp"
#include "ctwatch/par/task_pool.hpp"
#include "ctwatch/sim/ca.hpp"
#include "ctwatch/sim/domains.hpp"
#include "ctwatch/sim/ecosystem.hpp"
#include "ctwatch/sim/timeline.hpp"
#include "ctwatch/storage/log_store.hpp"
#include "ctwatch/util/encoding.hpp"
#include "workloads.hpp"

namespace ctbench {

namespace {

namespace crypto = ctwatch::crypto;
namespace ct = ctwatch::ct;
namespace httpd = ctwatch::httpd;
namespace json = ctwatch::httpd::json;
namespace logsvc = ctwatch::logsvc;
namespace sim = ctwatch::sim;
namespace storage = ctwatch::storage;

/// Submissions of the in-process submit replay: enough for a p99 with ten
/// samples beyond it.
constexpr std::size_t kSubmitReplay = 1000;
constexpr std::size_t kWireSamples = 256;
constexpr std::size_t kCryptoSamples = 64;
constexpr std::size_t kNodeBatch = 4096;

double median_us(const SpanRecorder& spans, const std::string& name) {
  return median(spans.durations_us(name));
}

/// Wire-format and crypto layers on the add-chain inputs.
void replay_submission_layers(const CertPool& pool, SpanRecorder& spans, Outcome& out) {
  const Bytes issuer_key = pool.issuer.tbs.public_key;
  for (std::size_t i = 0; i < kWireSamples; ++i) {
    const std::string wire = post_request("/ct/v1/add-chain", pool.add_chain_body[i]);
    httpd::Request request;
    bool parsed = false;
    {
      ScopedSpan span(spans, "httpd.request_parse", i);
      httpd::RequestParser parser;
      parser.feed(wire);
      parsed = parser.next(request) == httpd::ParseResult::request;
    }
    std::optional<json::Value> doc;
    {
      ScopedSpan span(spans, "httpd.json_parse", i);
      doc = json::parse(request.body);
    }
    const json::Value* chain = doc ? doc->get("chain") : nullptr;
    if (!parsed || chain == nullptr || !chain->is_array() || chain->as_array().empty()) {
      out.problem("replay: add-chain request did not parse");
      return;
    }
    const std::string& leaf_b64 = chain->as_array().front().as_string();
    std::optional<Bytes> der;
    {
      ScopedSpan span(spans, "util.base64_decode", i);
      der = ctwatch::try_base64_decode(leaf_b64);
    }
    ctwatch::x509::Certificate cert;
    {
      ScopedSpan span(spans, "x509.decode", i);
      cert = ctwatch::x509::Certificate::decode(*der);
    }
    if (cert != pool.leaves[i]) out.problem("replay: decoded certificate differs");
  }

  const auto log_signer = crypto::EcdsaSigner::derive(std::string("ct-log/") + kSubmitLogName);
  const auto hmac_signer = crypto::SimulatedSigner::derive("ctbench-replay-hmac");
  for (std::size_t i = 0; i < kCryptoSamples; ++i) {
    bool valid = false;
    {
      ScopedSpan span(spans, "x509.verify", i);
      valid = pool.leaves[i].verify(issuer_key);
    }
    if (!valid) out.problem("replay: generated certificate does not verify");
    ct::SignedCertificateTimestamp sct;
    sct.timestamp_ms = 1522540800000ULL + i;
    const Bytes input = ct::sct_signing_input(sct, ct::make_x509_entry(pool.leaves[i]));
    {
      ScopedSpan span(spans, "crypto.ecdsa_sign", i);
      sct.signature = log_signer->sign(input);
    }
    {
      ScopedSpan span(spans, "crypto.hmac_sign", i);
      (void)hmac_signer->sign(input);
    }
  }
  // 65-byte node inputs, timed per batch. Each hash feeds the next input,
  // so no iteration can be skipped.
  Bytes node(65, 0x01);
  Digest acc{};
  for (std::size_t b = 0; b < 16; ++b) {
    ScopedSpan span(spans, "crypto.sha256_node_batch", b);
    for (std::size_t i = 0; i < kNodeBatch; ++i) {
      std::copy(acc.begin(), acc.end(), node.begin() + 1);
      acc = crypto::Sha256::hash(node);
    }
  }
  if (acc == Digest{}) out.problem("replay: node hash chain collapsed to zero");

  out.add("httpd.request_parse_us", median_us(spans, "httpd.request_parse"), "us");
  out.add("httpd.json_parse_us", median_us(spans, "httpd.json_parse"), "us");
  out.add("util.base64_decode_us", median_us(spans, "util.base64_decode"), "us");
  out.add("x509.decode_us", median_us(spans, "x509.decode"), "us");
  out.add("x509.verify_us", median_us(spans, "x509.verify"), "us");
  out.add("crypto.ecdsa_sign_us", median_us(spans, "crypto.ecdsa_sign"), "us");
  out.add("crypto.hmac_sign_us", median_us(spans, "crypto.hmac_sign"), "us");
  out.add("crypto.sha256_node_ns",
          median_us(spans, "crypto.sha256_node_batch") * 1e3 / static_cast<double>(kNodeBatch),
          "ns");
}

/// submit_chain -> CompletionFn without the wire, open loop at the
/// ct_submit phase-A rate; then commit_batch / checkpoint at the mean
/// batch size that run produced.
void replay_write_path(const CertPool& pool, const std::string& scratch, std::uint64_t seed,
                       SpanRecorder& spans, Outcome& out) {
  storage::LogStoreOptions store_options;
  store_options.dir = fresh_dir(scratch + "/replay-submit");
  auto open = storage::LogStore::open(store_options);
  if (!open.store) {
    out.problem("replay: submit store open failed: " + open.detail);
    return;
  }
  logsvc::Config config;
  config.name = kSubmitLogName;
  config.storage = open.store.get();
  auto service = std::make_unique<logsvc::LogService>(config);

  std::vector<std::int64_t> due(kSubmitReplay), called(kSubmitReplay);
  std::vector<std::atomic<std::int64_t>> done(kSubmitReplay);
  std::vector<std::atomic<int>> status(kSubmitReplay);
  std::mt19937_64 rng(seed ^ 0x5e1ecULL);
  std::exponential_distribution<double> gap(kSubmitOfferedRate);
  std::int64_t t = now_ns() + 1000000;
  for (std::size_t i = 0; i < kSubmitReplay; ++i) {
    t += static_cast<std::int64_t>(gap(rng) * 1e9);
    due[i] = t;
    done[i].store(0);
    status[i].store(-1);
  }
  std::atomic<std::size_t> completed{0};
  const Bytes issuer_key = pool.issuer.tbs.public_key;
  // submit_chain validates the chain on the caller's thread, so the
  // arrivals are spread over the generator threads (as the wire path
  // spreads them over server workers) to keep the generator on time.
  const auto generator = [&](unsigned first, unsigned stride) {
    for (std::size_t i = first; i < kSubmitReplay; i += stride) {
      std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(due[i])));
      called[i] = now_ns();
      const auto st = service->submit_chain(
          pool.leaves[i], issuer_key, ctwatch::SimTime{1522540800},
          [&, i](const logsvc::SubmitOutcome& outcome) {
            done[i].store(now_ns());
            status[i].store(static_cast<int>(outcome.status));
            completed.fetch_add(1);
          });
      if (st != logsvc::SubmitStatus::ok) {
        done[i].store(now_ns());
        status[i].store(static_cast<int>(st));
        completed.fetch_add(1);
      }
    }
  };
  const unsigned threads = generator_thread_cap();
  std::vector<std::thread> generators;
  for (unsigned t = 0; t < threads; ++t) generators.emplace_back(generator, t, threads);
  for (std::thread& g : generators) g.join();
  const std::int64_t deadline = now_ns() + 10'000'000'000LL;
  while (completed.load() < kSubmitReplay && now_ns() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const double batch_entries =
      static_cast<double>(service->accepted()) /
      static_cast<double>(std::max<std::uint64_t>(1, service->sealed_batches()));
  service->stop();
  std::vector<double> lateness_ms;
  for (std::size_t i = 0; i < kSubmitReplay; ++i) {
    if (status[i].load() != static_cast<int>(logsvc::SubmitStatus::ok)) {
      out.problem("replay: in-process submission " + std::to_string(i) + " failed");
      break;
    }
    spans.record("logsvc.submit_to_sct", i, 0, due[i], done[i].load());
    lateness_ms.push_back((called[i] - due[i]) / 1e6);
  }
  std::vector<double> sct_us = spans.durations_us("logsvc.submit_to_sct");
  out.add("logsvc.submit_to_sct_p50_us", median(sct_us), "us");
  out.add("logsvc.submit_to_sct_p99_us", tail_of(sct_us).value, "us");
  out.add("logsvc.batch_entries", batch_entries, "count");
  out.add("gen.lateness_p99_ms", tail_of(lateness_ms).value, "ms");

  // commit_batch at the mean batch size, checkpoint every 8 batches.
  storage::LogStoreOptions commit_options;
  commit_options.dir = fresh_dir(scratch + "/replay-commit");
  commit_options.checkpoint_interval_batches = 0;
  auto commit_open = storage::LogStore::open(commit_options);
  if (!commit_open.store) {
    out.problem("replay: commit store open failed");
    return;
  }
  storage::LogStore& store = *commit_open.store;
  const auto signer = crypto::EcdsaSigner::derive("ct-log/ctbench replay commit");
  const std::size_t per_batch =
      std::max<std::size_t>(1, static_cast<std::size_t>(batch_entries + 0.5));
  ct::RootAccumulator probe;
  std::vector<double> write_ops;
  std::size_t cert = 0;
  for (std::size_t b = 0; b < 40; ++b) {
    storage::BatchCommit batch;
    for (std::size_t k = 0; k < per_batch; ++k, ++cert) {
      const std::size_t c = cert % pool.leaves.size();
      storage::DurableEntry entry;
      entry.index = store.tree_size() + k;
      entry.timestamp_ms = 1522540800000ULL + entry.index;
      entry.entry = ct::make_x509_entry(pool.leaves[c]);
      entry.has_body = true;
      entry.leaf_hash = ref_leaf_hash(ref_x509_leaf_input(entry.timestamp_ms, pool.leaf_der[c]));
      entry.fingerprint = pool.leaves[c].fingerprint();
      entry.issuer_cn = "ctbench CA";
      probe.add(entry.leaf_hash);
      batch.entries.push_back(std::move(entry));
    }
    batch.sth.tree_size = probe.size();
    batch.sth.timestamp_ms = batch.entries.back().timestamp_ms;
    batch.sth.root_hash = probe.root();
    batch.sth.signature = signer->sign(ct::sth_signing_input(batch.sth));
    batch.seal_seq = store.seal_seq() + 1;
    const std::uint64_t ops_before = store.env().write_ops();
    bool ok = false;
    {
      ScopedSpan span(spans, "storage.commit_batch", b);
      ok = store.commit_batch(batch).ok();
    }
    write_ops.push_back(static_cast<double>(store.env().write_ops() - ops_before));
    if (!ok) {
      out.problem("replay: commit_batch refused");
      return;
    }
    if (b % 8 == 7) {
      ScopedSpan span(spans, "storage.checkpoint", b);
      if (!store.checkpoint().ok()) out.problem("replay: checkpoint refused");
    }
  }
  out.add("storage.commit_batch_us", median_us(spans, "storage.commit_batch"), "us");
  out.add("storage.checkpoint_us", median_us(spans, "storage.checkpoint"), "us");
  out.add("storage.write_ops_per_batch", median(write_ops), "count");
}

/// Recovery and the LogService read calls on the monitor's tree, plus
/// the wire overhead of one read.
void replay_read_path(std::uint64_t seed, const std::string& scratch, SpanRecorder& spans,
                      Outcome& out) {
  const MonitorInputs inputs = make_monitor_inputs(seed, kMonitorLeaves);
  const RefTree& ref = *inputs.ref;
  const std::string dir = scratch + "/replay-monitor";
  std::string error;
  if (!build_monitor_store(inputs, dir, error)) {
    out.problem("replay: " + error);
    return;
  }
  storage::LogStoreOptions options;
  options.dir = dir;
  options.tile_cache_bytes = kTileCacheBytes;
  storage::LogStore::Open open;
  {
    ScopedSpan span(spans, "storage.open");
    open = storage::LogStore::open(options);
  }
  if (!open.store) {
    out.problem("replay: recovery refused: " + open.detail);
    return;
  }
  logsvc::Config config;
  config.name = kMonitorLogName;
  config.storage = open.store.get();
  std::unique_ptr<logsvc::LogService> service;
  {
    ScopedSpan span(spans, "logsvc.adopt");
    service = std::make_unique<logsvc::LogService>(config);
  }
  const std::uint64_t n = ref.size();
  const Digest root = ref.root(n);
  std::mt19937_64 rng(seed ^ 0x7eadULL);
  for (std::size_t i = 0; i < 2000; ++i) {
    ct::SignedTreeHead sth;
    {
      ScopedSpan span(spans, "logsvc.get_sth", i);
      sth = service->get_sth();
    }
    if (sth.tree_size != n || sth.root_hash != root) {
      out.problem("replay: get_sth serves the wrong head");
      break;
    }
    const std::uint64_t index = rng() % n;
    std::optional<std::uint64_t> found;
    {
      ScopedSpan span(spans, "logsvc.leaf_index_of", i);
      found = service->leaf_index_of(ref.leaf(index));
    }
    if (found != index) {
      out.problem("replay: leaf_index_of returned the wrong index");
      break;
    }
  }
  for (std::size_t i = 0; i < 300; ++i) {
    const std::uint64_t start = rng() % (n - kEntriesWindow);
    std::vector<logsvc::EntryRecord> records;
    {
      ScopedSpan span(spans, "logsvc.get_entries", i);
      records = service->get_entries(start, kEntriesWindow);
    }
    json::Array entries;
    for (const logsvc::EntryRecord& record : records) {
      json::Object entry;
      entry.emplace("leaf_input", json::Value(ctwatch::base64_encode(
                                      ct::merkle_leaf_bytes(record.timestamp_ms,
                                                            record.signed_entry))));
      entry.emplace("extra_data", json::Value(std::string()));
      entries.push_back(json::Value(std::move(entry)));
    }
    json::Object body;
    body.emplace("entries", json::Value(std::move(entries)));
    const json::Value value(std::move(body));
    ScopedSpan span(spans, "httpd.json_dump", i);
    (void)value.dump();
  }
  for (std::size_t i = 0; i < 24; ++i) {
    const std::uint64_t index = rng() % n;
    std::vector<Digest> path;
    {
      ScopedSpan span(spans, "logsvc.inclusion_proof", i);
      path = service->inclusion_proof(index, n);
    }
    if (!ref_verify_inclusion(index, n, ref.leaf(index), path, root)) {
      out.problem("replay: inclusion proof does not verify");
    }
    const std::uint64_t first = 1 + rng() % (n - 1);
    std::vector<Digest> consistency;
    {
      ScopedSpan span(spans, "logsvc.consistency_proof", i);
      consistency = service->consistency_proof(first, n);
    }
    if (!ref_verify_consistency(first, n, ref.root(first), root, consistency)) {
      out.problem("replay: consistency proof does not verify");
    }
    json::Array audit;
    for (const Digest& d : path) audit.emplace_back(ctwatch::base64_encode(d));
    json::Object body;
    body.emplace("audit_path", json::Value(std::move(audit)));
    body.emplace("leaf_index", json::Value(index));
    const json::Value value(std::move(body));
    ScopedSpan span(spans, "httpd.json_dump", 1000 + i);
    (void)value.dump();
  }

  // Wire overhead: the same get-sth, over loopback HTTP.
  httpd::Router router;
  httpd::register_ct_api(router, *service);
  httpd::Server server(httpd::ServerOptions{}, std::move(router));
  if (server.start()) {
    BlockingClient client(server.port());
    const std::string wire = get_request("/ct/v1/get-sth");
    for (std::size_t i = 0; i < 1000; ++i) {
      std::optional<httpd::ParsedResponse> reply;
      {
        ScopedSpan span(spans, "httpd.wire_get_sth", i);
        reply = client.round_trip(wire);
      }
      if (!reply || reply->status != 200) {
        out.problem("replay: wire get-sth failed");
        break;
      }
    }
    server.stop();
  } else {
    out.problem("replay: server start failed");
  }
  const storage::TileCache& cache = open.store->tile_cache();
  const double lookups = static_cast<double>(cache.hits() + cache.misses());
  service->stop();

  out.add("httpd.json_dump_us", median_us(spans, "httpd.json_dump"), "us");
  out.add("httpd.wire_overhead_us",
          median_us(spans, "httpd.wire_get_sth") - median_us(spans, "logsvc.get_sth"), "us");
  out.add("logsvc.get_sth_us", median_us(spans, "logsvc.get_sth"), "us");
  out.add("logsvc.leaf_index_of_us", median_us(spans, "logsvc.leaf_index_of"), "us");
  out.add("logsvc.get_entries_us", median_us(spans, "logsvc.get_entries"), "us");
  out.add("logsvc.inclusion_proof_us", median_us(spans, "logsvc.inclusion_proof"), "us");
  out.add("logsvc.consistency_proof_us", median_us(spans, "logsvc.consistency_proof"), "us");
  out.add("storage.open_s", median_us(spans, "storage.open") / 1e6, "s");
  out.add("storage.tile_pages_scanned",
          static_cast<double>(open.store->recovery().tile_pages_scanned), "count");
  out.add("logsvc.adopt_s", median_us(spans, "logsvc.adopt") / 1e6, "s");
  out.add("storage.tile_cache_lookups", lookups, "count");
  out.add("storage.tile_cache_hit_ratio",
          lookups > 0 ? static_cast<double>(cache.hits()) / lookups : 0.0, "ratio");
}

/// The analysis layers: a one-month timeline, the Fig 1 analysis over
/// it, single issuances and pre-chain submissions, and the §4 pipeline
/// pieces on the default corpus.
void replay_analysis(std::uint64_t seed, SpanRecorder& spans, Outcome& out) {
  sim::EcosystemOptions options;
  options.seed = 42 + seed;
  sim::Ecosystem ecosystem(options);
  sim::TimelineOptions month;
  month.start = "2018-03-01";
  month.end = "2018-04-01";
  {
    ScopedSpan span(spans, "sim.timeline");
    sim::TimelineSimulator(ecosystem, month).run();
  }
  {
    ScopedSpan span(spans, "core.fig1_analysis");
    (void)ctwatch::core::LogEvolutionStudy(ecosystem).run("2018-03");
  }

  ct::LogConfig log_config;
  log_config.name = "ctbench replay log";
  log_config.scheme = crypto::SignatureScheme::hmac_sha256_simulated;
  log_config.verify_submissions = false;
  log_config.store_bodies = false;
  ct::CtLog issuance_log(log_config);
  log_config.name = "ctbench replay pre-chain log";
  ct::CtLog prechain_log(log_config);
  sim::CertificateAuthority ca("ctbench replay CA", "ctbench Replay Issuing CA",
                               crypto::SignatureScheme::hmac_sha256_simulated);
  const ctwatch::SimTime now = ctwatch::SimTime::parse("2018-03-15");
  std::vector<ctwatch::x509::Certificate> precerts;
  for (std::size_t i = 0; i < 300; ++i) {
    sim::IssuanceRequest request;
    request.subject_cn = "r" + std::to_string(i) + ".s" + std::to_string(seed) + ".replay.example";
    request.sans.push_back(ctwatch::x509::SanEntry::dns(request.subject_cn));
    request.not_before = now;
    request.not_after = ctwatch::SimTime::parse("2018-06-15");
    request.logs = {&issuance_log};
    ScopedSpan span(spans, "sim.issue", i);
    precerts.push_back(ca.issue(request, now).precertificate);
  }
  const Bytes ca_key = ca.public_key();
  for (std::size_t i = 0; i < precerts.size(); ++i) {
    ScopedSpan span(spans, "ct.ctlog_add_pre_chain", i);
    if (prechain_log.add_pre_chain(precerts[i], ca_key, now).status != ct::SubmitStatus::ok) {
      out.problem("replay: add_pre_chain refused");
    }
  }

  std::unique_ptr<sim::DomainCorpus> corpus;
  {
    ScopedSpan span(spans, "sim.corpus_build");
    sim::DomainCorpusOptions corpus_options;
    corpus_options.seed = 7 + seed;
    corpus = std::make_unique<sim::DomainCorpus>(corpus_options);
  }
  const ctwatch::dns::RecursiveResolver resolver(
      corpus->universe(),
      ctwatch::dns::RecursiveResolver::Identity{ctwatch::net::IPv4(192, 0, 2, 53), 64496,
                                                "measurement", false});
  const std::set<std::string> sonar(corpus->sonar_names().begin(), corpus->sonar_names().end());
  const auto funnel = [&](unsigned width, const char* span_name) {
    ctwatch::par::TaskPool::set_global_threads(width);
    ctwatch::enumeration::SubdomainCensus census(corpus->psl());
    {
      ScopedSpan span(spans, width == 1 ? "enumeration.census_serial" : "enumeration.census");
      census.add_names(corpus->ct_names());
    }
    ctwatch::Rng rng(corpus->options().seed ^ 0xabcdef);
    const ctwatch::enumeration::SubdomainEnumerator enumerator(census, corpus->psl());
    ScopedSpan span(spans, span_name);
    return enumerator.run(corpus->registrable_domains(), sonar, resolver,
                          corpus->routing_table(), rng, ctwatch::SimTime::parse("2018-04-27"));
  };
  const auto parallel = funnel(4, "enumeration.funnel");
  const auto serial = funnel(1, "enumeration.funnel_serial");
  ctwatch::par::TaskPool::set_global_threads(4);
  if (parallel.confirmed != serial.confirmed || parallel.candidates != serial.candidates ||
      parallel.novel != serial.novel || parallel.discoveries != serial.discoveries) {
    out.problem("replay: funnel differs between par width 1 and 4");
  }
  const auto& domains = corpus->registrable_domains();
  const ctwatch::SimTime when = ctwatch::SimTime::parse("2018-04-27");
  for (std::size_t i = 0; i < 2000; ++i) {
    const auto name = ctwatch::dns::DnsName::parse("www." + domains[(i * 7919) % domains.size()]);
    if (!name) continue;
    ScopedSpan span(spans, "dns.resolve", i);
    (void)resolver.resolve(*name, ctwatch::dns::RrType::A, when);
  }

  out.add("sim.timeline_s", median_us(spans, "sim.timeline") / 1e6, "s");
  out.add("core.fig1_analysis_s", median_us(spans, "core.fig1_analysis") / 1e6, "s");
  out.add("sim.issue_us", median_us(spans, "sim.issue"), "us");
  out.add("ct.ctlog_add_pre_chain_us", median_us(spans, "ct.ctlog_add_pre_chain"), "us");
  out.add("sim.corpus_build_s", median_us(spans, "sim.corpus_build") / 1e6, "s");
  out.add("enumeration.census_s", median_us(spans, "enumeration.census") / 1e6, "s");
  out.add("enumeration.funnel_s", median_us(spans, "enumeration.funnel") / 1e6, "s");
  out.add("dns.resolve_us", median_us(spans, "dns.resolve"), "us");
  out.add("par.funnel_speedup",
          median_us(spans, "enumeration.funnel_serial") / median_us(spans, "enumeration.funnel"),
          "ratio");
}

}  // namespace

void run_layer_replay(const Args& args, SpanRecorder& spans, Outcome& out,
                      const std::string& scratch) {
  const CertPool pool = make_cert_pool(args.seed, kSubmitReplay, generator_thread_cap());
  replay_submission_layers(pool, spans, out);
  replay_write_path(pool, scratch, args.seed, spans, out);
  replay_read_path(args.seed, scratch, spans, out);
  replay_analysis(args.seed, spans, out);
}

Outcome traced_result(const Outcome& untraced, const Outcome& traced, Outcome layers,
                      std::size_t span_count) {
  for (const Outcome* half : {&untraced, &traced}) {
    layers.attempted += half->attempted;
    layers.failed += half->failed;
    if (!half->correct) layers.correct = false;
  }
  const double base = untraced.value("p50_ms").value_or(0);
  const double with_spans = traced.value("p50_ms").value_or(0);
  layers.add("trace.overhead_pct", base > 0 ? (with_spans - base) / base * 100.0 : 0.0, "%");
  layers.add("trace.spans", static_cast<double>(span_count), "count");
  return layers;
}

}  // namespace ctbench
