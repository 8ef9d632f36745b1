// ct_monitor: monitors reading a large, already-built log — the read path.
//
// Set-up builds a kMonitorLeaves-leaf log with bodies through
// LogStore::commit_batch once, leaving a few batches in the WAL as after a
// crash. That build is the log's history, like the generated inputs, and
// is not timed. A set-up then recovers the store (LogStore::open with full
// verify plus LogService adoption) and starts the RFC 6962 front end, as a
// restarting log does; setup_s is the median of three, two of them in
// child processes so that only one counts toward peak RSS. Recovery
// writes nothing to a cleanly crashed store, so all three see the same
// files. The tile cache is smaller than the tree's tiles. Latency and rate
// are medians over time slices of the window.
//
// The window is a closed loop: two connections, one request outstanding
// each, mixing 40% get-sth, 30% get-entries (32-entry windows), 20%
// get-proof-by-hash and 10% get-sth-consistency with uniform targets.
// Every reply is checked against the reference tree the generator built
// on its own; each distinct STH signature is verified once.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <random>
#include <set>
#include <thread>

#include "ctwatch/crypto/signature.hpp"
#include "ctwatch/ct/sct.hpp"
#include "ctwatch/httpd/ct_handlers.hpp"
#include "ctwatch/httpd/json.hpp"
#include "ctwatch/httpd/server.hpp"
#include "ctwatch/logsvc/service.hpp"
#include "ctwatch/storage/log_store.hpp"
#include "ctwatch/util/encoding.hpp"
#include "workloads.hpp"

namespace ctbench {

namespace {

namespace httpd = ctwatch::httpd;
namespace json = ctwatch::httpd::json;
namespace ct = ctwatch::ct;
namespace storage = ctwatch::storage;

constexpr std::uint64_t kEpochMs = 1522540800000ULL;  // 2018-04-01

enum class Endpoint { sth, entries, proof, consistency };
const char* endpoint_name(Endpoint e) {
  switch (e) {
    case Endpoint::sth: return "get-sth";
    case Endpoint::entries: return "get-entries";
    case Endpoint::proof: return "get-proof-by-hash";
    case Endpoint::consistency: return "get-sth-consistency";
  }
  return "?";
}

std::optional<std::vector<Digest>> digest_array(const json::Value* array) {
  if (array == nullptr || !array->is_array()) return std::nullopt;
  std::vector<Digest> out;
  for (const json::Value& node : array->as_array()) {
    if (!node.is_string()) return std::nullopt;
    const auto raw = ctwatch::try_base64_decode(node.as_string());
    Digest d{};
    if (!raw || raw->size() != d.size()) return std::nullopt;
    std::copy(raw->begin(), raw->end(), d.begin());
    out.push_back(d);
  }
  return out;
}

/// Checks replies against the reference tree; STH signatures are
/// verified once per distinct head.
class ReplyChecker {
 public:
  ReplyChecker(const RefTree& ref, Bytes log_key) : ref_(ref), log_key_(std::move(log_key)) {}

  bool sth(const std::string& body) {
    const auto doc = json::parse(body);
    if (!doc) return false;
    const auto size = doc->get_u64("tree_size");
    const auto ts = doc->get_u64("timestamp");
    const auto root = doc->get_string("sha256_root_hash");
    const auto sig = doc->get_string("tree_head_signature");
    if (!size || !ts || !root || !sig || *size != ref_.size()) return false;
    const auto root_raw = ctwatch::try_base64_decode(*root);
    const Digest expected = ref_.root(ref_.size());
    if (!root_raw || !std::equal(root_raw->begin(), root_raw->end(), expected.begin(),
                                 expected.end())) {
      return false;
    }
    {
      std::lock_guard lock(mu_);
      if (verified_heads_.count(body) != 0) return true;
    }
    const auto sig_raw = ctwatch::try_base64_decode(*sig);
    if (!sig_raw || sig_raw->size() < 3) return false;
    ct::SignedTreeHead head;
    head.tree_size = *size;
    head.timestamp_ms = *ts;
    head.root_hash = expected;
    head.signature.scheme = static_cast<ctwatch::crypto::SignatureScheme>((*sig_raw)[0]);
    head.signature.data.assign(sig_raw->begin() + 3, sig_raw->end());
    if (!ct::verify_sth(head, log_key_)) return false;
    std::lock_guard lock(mu_);
    verified_heads_.insert(body);
    return true;
  }

  bool entries(const std::string& body, std::uint64_t start) const {
    const auto doc = json::parse(body);
    const json::Value* list = doc ? doc->get("entries") : nullptr;
    if (list == nullptr || !list->is_array()) return false;
    const std::uint64_t want = std::min(kEntriesWindow, ref_.size() - start);
    if (list->as_array().size() != want) return false;
    std::uint64_t index = start;
    for (const json::Value& entry : list->as_array()) {
      const auto input = entry.get_string("leaf_input");
      const auto raw = input ? ctwatch::try_base64_decode(*input) : std::nullopt;
      if (!raw || ref_leaf_hash(*raw) != ref_.leaf(index)) return false;
      ++index;
    }
    return true;
  }

  bool proof(const std::string& body, std::uint64_t index) const {
    const auto doc = json::parse(body);
    if (!doc || doc->get_u64("leaf_index") != index) return false;
    const auto path = digest_array(doc->get("audit_path"));
    return path && ref_verify_inclusion(index, ref_.size(), ref_.leaf(index), *path,
                                        ref_.root(ref_.size()));
  }

  bool consistency(const std::string& body, std::uint64_t first) const {
    const auto doc = json::parse(body);
    const auto path = doc ? digest_array(doc->get("consistency")) : std::nullopt;
    return path && ref_verify_consistency(first, ref_.size(), ref_.root(first),
                                          ref_.root(ref_.size()), *path);
  }

 private:
  const RefTree& ref_;
  Bytes log_key_;
  std::mutex mu_;
  std::set<std::string> verified_heads_;
};

struct ReadSample {
  Endpoint endpoint = Endpoint::sth;
  std::int64_t done_ns = 0;
  double latency_ms = 0;
  bool ok = false;
};

/// The store, the recovered service and the front end, torn down in
/// reverse order.
struct MonitorStack {
  std::unique_ptr<storage::LogStore> store;
  std::unique_ptr<ctwatch::logsvc::LogService> service;
  std::unique_ptr<httpd::Server> server;

  ~MonitorStack() {
    if (server) server->stop();
    if (service) service->stop();
  }
};

/// Recovers the store at `dir` and adopts it into a LogService.
std::unique_ptr<MonitorStack> recover(const std::string& dir, std::string& error) {
  auto stack = std::make_unique<MonitorStack>();
  storage::LogStoreOptions options;
  options.dir = dir;
  options.tile_cache_bytes = kTileCacheBytes;
  options.recovery_verify = storage::LogStoreOptions::Verify::full;
  auto open = storage::LogStore::open(options);
  if (!open.store) {
    error = "recovery refused: " + open.detail;
    return nullptr;
  }
  stack->store = std::move(open.store);
  ctwatch::logsvc::Config config;
  config.name = kMonitorLogName;
  config.scheme = ctwatch::crypto::SignatureScheme::ecdsa_p256_sha256;
  config.storage = stack->store.get();
  try {
    stack->service = std::make_unique<ctwatch::logsvc::LogService>(config);
  } catch (const std::exception& e) {
    error = std::string("adoption refused: ") + e.what();
    return nullptr;
  }
  return stack;
}

/// Drops a set-up's stack without letting the service's orderly stop
/// checkpoint the WAL tail.
void discard(std::unique_ptr<MonitorStack> stack) {
  stack->store->env().crash_now();
  if (stack->service) stack->service->stop();
}

struct SetupTimes {
  double recovery_s = 0;
  double total_s = 0;
};

/// One set-up: recover the built store and serve it.
std::unique_ptr<MonitorStack> set_up(const std::string& dir, SetupTimes& times,
                                     std::string& error) {
  const std::int64_t t1 = now_ns();
  auto stack = recover(dir, error);
  if (!stack) return nullptr;
  const std::int64_t t2 = now_ns();
  httpd::Router router;
  httpd::register_ct_api(router, *stack->service);
  httpd::ServerOptions server_options;
  server_options.workers = static_cast<int>(kMonitorConnections);
  stack->server = std::make_unique<httpd::Server>(server_options, std::move(router));
  if (!stack->server->start()) {
    error = "server start failed";
    return nullptr;
  }
  times.recovery_s = (t2 - t1) / 1e9;
  times.total_s = seconds_since(t1);
  return stack;
}

/// Times one set-up in a child process, so that its memory never counts
/// toward this process's peak RSS. Called while this process runs no
/// other thread, which is what makes the fork safe.
std::optional<SetupTimes> set_up_in_child(const std::string& dir) {
  int fds[2];
  if (::pipe(fds) != 0) return std::nullopt;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    ::close(fds[0]);
    SetupTimes times;
    std::string error;
    auto stack = set_up(dir, times, error);
    const bool ok = stack != nullptr && ::write(fds[1], &times, sizeof times) == sizeof times;
    if (stack) discard(std::move(stack));
    ::_exit(ok ? 0 : 1);
  }
  ::close(fds[1]);
  SetupTimes times;
  const ssize_t n = ::read(fds[0], &times, sizeof times);
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (n != sizeof times || !WIFEXITED(status) || WEXITSTATUS(status) != 0) return std::nullopt;
  return times;
}

}  // namespace

Bytes ref_x509_leaf_input(std::uint64_t timestamp_ms, BytesView der) {
  Bytes out;
  out.reserve(der.size() + 15);
  out.push_back(0);  // version v1
  out.push_back(0);  // timestamped_entry
  for (int shift = 56; shift >= 0; shift -= 8) out.push_back((timestamp_ms >> shift) & 0xff);
  out.push_back(0);  // entry_type x509_entry
  out.push_back(0);
  out.push_back((der.size() >> 16) & 0xff);
  out.push_back((der.size() >> 8) & 0xff);
  out.push_back(der.size() & 0xff);
  out.insert(out.end(), der.begin(), der.end());
  out.push_back(0);  // no extensions
  out.push_back(0);
  return out;
}

MonitorInputs make_monitor_inputs(std::uint64_t seed, std::uint64_t count) {
  MonitorInputs inputs;
  inputs.bodies.resize(count);
  inputs.timestamps_ms.resize(count);
  std::vector<Digest> leaves(count);
  const std::string tag = std::to_string(seed);
  const auto key = ctwatch::crypto::make_signer("ctbench-monitor-ca/" + tag,
                                                ctwatch::crypto::SignatureScheme::hmac_sha256_simulated);
  ctwatch::x509::DistinguishedName dn;
  dn.common_name = "ctbench monitor CA " + tag;
  const auto work = [&](std::uint64_t begin, std::uint64_t end) {
    for (std::uint64_t i = begin; i < end; ++i) {
      const std::string host = "m" + std::to_string(i) + ".s" + tag + ".monitor.example";
      ctwatch::x509::CertificateBuilder builder;
      builder.serial(i + 1).issuer(dn).subject_cn(host)
          .validity(ctwatch::SimTime::parse("2018-03-01"), ctwatch::SimTime::parse("2018-06-01"))
          .subject_key(*key).add_dns_san(host);
      inputs.bodies[i] = builder.sign(*key).encode();
      inputs.timestamps_ms[i] = kEpochMs + i * 7;
      leaves[i] = ref_leaf_hash(ref_x509_leaf_input(inputs.timestamps_ms[i], inputs.bodies[i]));
    }
  };
  const unsigned threads = generator_thread_cap();
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back(work, count * t / threads, count * (t + 1) / threads);
  }
  for (std::thread& w : workers) w.join();
  inputs.ref = std::make_unique<RefTree>(std::move(leaves));
  return inputs;
}

bool build_monitor_store(const MonitorInputs& inputs, const std::string& dir,
                         std::string& error) {
  storage::LogStoreOptions options;
  options.dir = fresh_dir(dir);
  options.tile_cache_bytes = kTileCacheBytes;
  auto open = storage::LogStore::open(options);
  if (!open.store) {
    error = "build open refused: " + open.detail;
    return false;
  }
  storage::LogStore& store = *open.store;
  const auto signer = ctwatch::crypto::EcdsaSigner::derive(std::string("ct-log/") + kMonitorLogName);
  const std::uint64_t n = inputs.ref->size();
  for (std::uint64_t first = 0; first < n; first += kMonitorBatch) {
    const std::uint64_t last = std::min(n, first + kMonitorBatch);
    storage::BatchCommit batch;
    batch.entries.reserve(last - first);
    for (std::uint64_t i = first; i < last; ++i) {
      storage::DurableEntry entry;
      entry.index = i;
      entry.timestamp_ms = inputs.timestamps_ms[i];
      entry.leaf_hash = inputs.ref->leaf(i);
      entry.fingerprint = ctwatch::crypto::Sha256::hash(inputs.bodies[i]);
      entry.issuer_cn = "ctbench monitor CA";
      entry.has_body = true;
      entry.entry.type = ct::EntryType::x509_entry;
      entry.entry.data = inputs.bodies[i];
      batch.entries.push_back(std::move(entry));
    }
    batch.sth.tree_size = last;
    batch.sth.timestamp_ms = inputs.timestamps_ms[last - 1];
    batch.sth.root_hash = inputs.ref->root(last);
    batch.sth.signature = signer->sign(ct::sth_signing_input(batch.sth));
    batch.seal_seq = store.seal_seq() + 1;
    if (!store.commit_batch(batch).ok()) {
      error = "commit_batch refused at tree size " + std::to_string(store.tree_size());
      return false;
    }
  }
  // Every batch is fsync'd; the crash keeps them, and the batches after
  // the last checkpoint stay in the WAL for recovery to replay.
  store.env().crash_now();
  return true;
}

Outcome run_ct_monitor(const Args& args, double seconds, SpanRecorder& spans,
                       const std::string& scratch) {
  Outcome out;
  const MonitorInputs inputs = make_monitor_inputs(args.seed, kMonitorLeaves);
  const RefTree& ref = *inputs.ref;
  const Bytes log_key =
      ctwatch::crypto::EcdsaSigner::derive(std::string("ct-log/") + kMonitorLogName)->public_key();

  // --- the log's history, built once ---
  const std::string dir = scratch + "/monitor-store";
  std::string error;
  const std::int64_t build_start = now_ns();
  if (!build_monitor_store(inputs, dir, error)) {
    out.problem("ct_monitor build: " + error);
    return out;
  }
  const double build_s = seconds_since(build_start);

  // --- set-up, three times: two in child processes, then the one whose
  // stack serves the window ---
  std::vector<double> setup_times, recovery_times;
  const auto note = [&](const SetupTimes& t) {
    setup_times.push_back(t.total_s);
    recovery_times.push_back(t.recovery_s);
  };
  for (int rep = 0; rep < 2; ++rep) {
    const auto times = set_up_in_child(dir);
    if (!times) {
      out.problem("ct_monitor: set-up in a child process failed");
      return out;
    }
    note(*times);
  }
  SetupTimes last;
  const std::unique_ptr<MonitorStack> stack = set_up(dir, last, error);
  if (!stack) {
    out.problem("ct_monitor set-up: " + error);
    return out;
  }
  note(last);
  const std::uint64_t replayed_batches = stack->store->recovery().replayed_batches;

  // Honesty: the proofs run on the configured tree, and recovery really
  // replayed a WAL tail.
  if (stack->service->tree_size() != kMonitorLeaves) {
    out.problem("ct_monitor: served tree size " + std::to_string(stack->service->tree_size()) +
                " != configured " + std::to_string(kMonitorLeaves));
  }
  if (replayed_batches == 0) out.problem("ct_monitor: recovery replayed no WAL batches");

  // --- the window: closed loop over kMonitorConnections connections ---
  ReplyChecker checker(ref, log_key);
  const std::uint16_t port = stack->server->port();
  // One connection per thread.
  const unsigned threads = std::min(kMonitorConnections, generator_thread_cap());
  check_generator(out, threads, threads);
  std::vector<std::vector<ReadSample>> samples(threads);
  std::vector<std::uint64_t> transport(threads, 0);
  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  const auto client_main = [&](unsigned t) {
    BlockingClient client(port);
    std::mt19937_64 rng((args.seed << 8) + t + 0x6d6f6eULL);
    // The mix is dealt from a shuffled deck of ten, so every ten requests
    // hold exactly 4 get-sth, 3 get-entries, 2 by-hash and 1 consistency;
    // the rate then does not move with the luck of the draw.
    Endpoint deck[] = {Endpoint::sth,     Endpoint::sth,         Endpoint::sth,
                       Endpoint::sth,     Endpoint::entries,     Endpoint::entries,
                       Endpoint::entries, Endpoint::proof,       Endpoint::proof,
                       Endpoint::consistency};
    std::size_t dealt = std::size(deck);
    std::uniform_int_distribution<std::uint64_t> leaf(0, ref.size() - 1);
    std::uniform_int_distribution<std::uint64_t> window(0, ref.size() - kEntriesWindow);
    std::uniform_int_distribution<std::uint64_t> older(1, ref.size() - 1);
    std::uint64_t request_id = static_cast<std::uint64_t>(t) << 40;
    while (now_ns() < end) {
      if (dealt == std::size(deck)) {
        std::shuffle(std::begin(deck), std::end(deck), rng);
        dealt = 0;
      }
      ReadSample s;
      s.endpoint = deck[dealt++];
      std::string wire;
      std::uint64_t target = 0;
      if (s.endpoint == Endpoint::sth) {
        wire = get_request("/ct/v1/get-sth");
      } else if (s.endpoint == Endpoint::entries) {
        target = window(rng);
        wire = get_request("/ct/v1/get-entries?start=" + std::to_string(target) +
                           "&end=" + std::to_string(target + kEntriesWindow - 1));
      } else if (s.endpoint == Endpoint::proof) {
        target = leaf(rng);
        wire = get_request("/ct/v1/get-proof-by-hash?hash=" +
                           url_b64(ctwatch::base64_encode(ref.leaf(target))) +
                           "&tree_size=" + std::to_string(ref.size()));
      } else {
        target = older(rng);
        wire = get_request("/ct/v1/get-sth-consistency?first=" + std::to_string(target) +
                           "&second=" + std::to_string(ref.size()));
      }
      const std::int64_t t0 = now_ns();
      const auto reply = client.round_trip(wire);
      const std::int64_t t1 = now_ns();
      s.done_ns = t1;
      s.latency_ms = (t1 - t0) / 1e6;
      if (!reply) {
        ++transport[t];
        samples[t].push_back(s);
        break;  // the connection is gone
      }
      if (reply->status == 200) {
        switch (s.endpoint) {
          case Endpoint::sth: s.ok = checker.sth(reply->body); break;
          case Endpoint::entries: s.ok = checker.entries(reply->body, target); break;
          case Endpoint::proof: s.ok = checker.proof(reply->body, target); break;
          case Endpoint::consistency: s.ok = checker.consistency(reply->body, target); break;
        }
      }
      if (spans.enabled()) {
        const std::int64_t t2 = now_ns();
        const std::uint32_t root = spans.next_id();
        spans.record(std::string("wire.") + endpoint_name(s.endpoint), request_id, root, t0, t1);
        spans.record("client.verify", request_id, root, t1, t2);
        spans.record(std::string("ct_monitor.") + endpoint_name(s.endpoint), request_id, 0, t0,
                     t2, root);
      }
      ++request_id;
      samples[t].push_back(s);
    }
  };
  std::vector<std::thread> fleet;
  for (unsigned t = 0; t < threads; ++t) fleet.emplace_back(client_main, t);
  for (std::thread& th : fleet) th.join();

  std::vector<Timed> timed_ms, proof_ms;
  std::uint64_t failures = 0;
  std::vector<double> per_endpoint[4];
  for (const auto& thread_samples : samples) {
    for (const ReadSample& s : thread_samples) {
      timed_ms.push_back({s.done_ns, s.latency_ms});
      per_endpoint[static_cast<int>(s.endpoint)].push_back(s.latency_ms);
      if (s.endpoint == Endpoint::proof || s.endpoint == Endpoint::consistency) {
        proof_ms.push_back({s.done_ns, s.latency_ms});
      }
      if (!s.ok) ++failures;
    }
  }
  out.attempted = timed_ms.size();
  out.failed = failures;
  if (failures > 0) out.problem("ct_monitor: " + std::to_string(failures) + " replies failed checks");
  if (timed_ms.empty()) out.problem("ct_monitor: no reads completed");

  // The median read is a get-sth or get-entries whose latency is mostly
  // kernel and vCPU wake-ups, so p50_ms is the median proof request
  // (proof_p50_ms); the all-reads median goes to stderr.
  const SlicedStats sliced = sliced_stats(timed_ms, start, end);
  const SlicedStats proofs = sliced_stats(proof_ms, start, end);
  std::fprintf(stderr,
               "[ctbench] ct_monitor: build %.3f s (untimed), recovery %.3f s (median of 3); "
               "read p50 %.3f ms; slice tail is p%.0f of %zu\n",
               build_s, median(recovery_times), sliced.p50, sliced.tail_percentile,
               sliced.slice_samples);
  for (const Endpoint e : {Endpoint::sth, Endpoint::entries, Endpoint::proof,
                           Endpoint::consistency}) {
    const std::vector<double>& ms = per_endpoint[static_cast<int>(e)];
    const Tail tail = tail_of(ms);
    std::fprintf(stderr, "[ctbench] ct_monitor: %-20s n=%-6zu p50 %9.3f ms  p%.0f %9.3f ms\n",
                 endpoint_name(e), ms.size(), median(ms), tail.percentile, tail.value);
  }
  out.add("setup_s", median(setup_times), "s");
  out.add("peak_rss_mb", vm_hwm_mb(), "MB");
  out.add("p50_ms", proofs.p50, "ms");
  out.add("tail_ms", sliced.tail, "ms");
  out.add("throughput_per_s", sliced.rate, "1/s");
  return out;
}

}  // namespace ctbench
