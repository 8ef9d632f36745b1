// ct_submit: CAs submitting add-chain over the wire — the write path.
//
// Set-up (timed as setup_s, median of five) opens a storage-backed
// LogService (WAL + fsync, default checkpoint interval, ECDSA log key)
// behind httpd::Server. The certificates are generated before that and
// are not part of setup_s.
//
// Phase A (the first kPhaseAShare of the window) is an open loop: add-chains with
// exponential inter-arrivals at kSubmitOfferedRate, each timed from its
// due time to the last byte of its SCT response, round-robin over four
// keep-alive connections. Phase B is a closed loop: each
// connection keeps kSubmitWindow add-chains outstanding for the rest.
//
// Outside the window: the STH is verified under the log key, the tree
// must have grown by exactly the SCTs issued, and sampled SCTs are
// verified and proven included against the signed root.
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <random>

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

/// Headroom for phase B: certificates for this many SCTs per second.
constexpr double kPhaseBCertRate = 2500;
/// Event-loop threads of the front end. Two of them verify chains about as
/// fast as the one sequencer signs SCTs, so the server's threads plus the
/// generator fit the four cores instead of contending for them.
constexpr int kSubmitServerWorkers = 2;
/// Add-chains of the closed-loop warm-up that ends every set-up.
constexpr std::size_t kWarmup = 256;

/// The server side: store, service and front end, torn down in reverse.
struct SubmitStack {
  std::unique_ptr<ctwatch::storage::LogStore> store;
  std::unique_ptr<ctwatch::logsvc::LogService> service;
  std::unique_ptr<httpd::Server> server;

  ~SubmitStack() {
    if (server) server->stop();
    if (service) service->stop();
  }
};

std::unique_ptr<SubmitStack> start_stack(const std::string& dir, std::string& error) {
  auto stack = std::make_unique<SubmitStack>();
  ctwatch::storage::LogStoreOptions store_options;
  store_options.dir = fresh_dir(dir);
  auto open = ctwatch::storage::LogStore::open(store_options);
  if (!open.store) {
    error = "store open failed: " + open.detail;
    return nullptr;
  }
  stack->store = std::move(open.store);
  ctwatch::logsvc::Config config;
  config.name = kSubmitLogName;
  config.scheme = ctwatch::crypto::SignatureScheme::ecdsa_p256_sha256;
  config.storage = stack->store.get();
  stack->service = std::make_unique<ctwatch::logsvc::LogService>(config);
  httpd::Router router;
  httpd::register_ct_api(router, *stack->service);
  httpd::ServerOptions server_options;
  server_options.workers = kSubmitServerWorkers;
  stack->server = std::make_unique<httpd::Server>(server_options, std::move(router));
  if (!stack->server->start()) {
    error = "server start failed";
    return nullptr;
  }
  BlockingClient probe(stack->server->port());
  const auto reply = probe.round_trip(get_request("/ct/v1/get-sth"));
  if (!reply || reply->status != 200) {
    error = "server did not answer get-sth";
    return nullptr;
  }
  return stack;
}

/// One add-chain; request i carries certificate i.
struct Request {
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = 0;
  int status = 0;
  std::string body;
};

struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_pos = 0;
  httpd::ResponseParser parser;
  std::deque<std::size_t> inflight;  ///< request ids, in send order
};

/// One client thread multiplexing the connections with ppoll. Requests
/// are appended by the caller; completions land in `requests`.
class WireClient {
 public:
  WireClient(std::uint16_t port, std::vector<Request>& requests) : requests_(requests) {
    for (unsigned i = 0; i < kMaxClientConnections; ++i) {
      Conn c;
      c.fd = connect_loopback(port, true);
      conns_.push_back(std::move(c));
    }
  }
  ~WireClient() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
  }
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  [[nodiscard]] bool ok() const {
    return std::all_of(conns_.begin(), conns_.end(), [](const Conn& c) { return c.fd >= 0; });
  }
  [[nodiscard]] std::size_t connections() const { return conns_.size(); }
  /// Connections lost and responses that matched no request.
  [[nodiscard]] std::uint64_t transport_failures() const { return transport_; }
  [[nodiscard]] std::size_t inflight_total() const {
    std::size_t n = 0;
    for (const Conn& c : conns_) n += c.inflight.size();
    return n;
  }

  void send(std::size_t conn, std::size_t id, const std::string& wire) {
    Conn& c = conns_[conn];
    if (c.fd < 0) {
      ++transport_;
      requests_[id].done_ns = now_ns();
      return;
    }
    requests_[id].sent_ns = now_ns();
    c.out += wire;
    c.inflight.push_back(id);
    flush(c);
  }

  /// Waits up to `timeout_ns` for socket activity and processes it;
  /// `on_done(conn, id)` runs for each completed request.
  template <typename OnDone>
  void pump(std::int64_t timeout_ns, const OnDone& on_done) {
    std::vector<pollfd> fds(conns_.size());
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      fds[i].fd = conns_[i].fd;
      fds[i].events = POLLIN;
      if (conns_[i].out_pos < conns_[i].out.size()) fds[i].events |= POLLOUT;
      fds[i].revents = 0;
    }
    timespec ts{};
    timeout_ns = std::max<std::int64_t>(0, timeout_ns);
    ts.tv_sec = timeout_ns / 1000000000;
    ts.tv_nsec = timeout_ns % 1000000000;
    ::ppoll(fds.data(), static_cast<nfds_t>(fds.size()), &ts, nullptr);
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = conns_[i];
      if (c.fd < 0) continue;
      if ((fds[i].revents & POLLOUT) != 0) flush(c);
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      char chunk[16384];
      for (;;) {
        const ssize_t n = ::read(c.fd, chunk, sizeof chunk);
        if (n > 0) {
          c.parser.feed(chunk, static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        // Peer closed: everything outstanding on it is lost.
        for (const std::size_t id : c.inflight) {
          requests_[id].done_ns = now_ns();
          ++transport_;
          on_done(i, id);
        }
        c.inflight.clear();
        ::close(c.fd);
        c.fd = -1;
        break;
      }
      if (c.fd < 0) continue;
      httpd::ParsedResponse response;
      while (c.parser.next(response) == httpd::ParseResult::request) {
        if (c.inflight.empty()) {
          ++transport_;
          continue;
        }
        const std::size_t id = c.inflight.front();
        c.inflight.pop_front();
        Request& r = requests_[id];
        r.done_ns = now_ns();
        r.status = response.status;
        r.body = std::move(response.body);
        on_done(i, id);
      }
    }
  }

 private:
  void flush(Conn& c) {
    while (c.out_pos < c.out.size()) {
      const ssize_t n =
          ::send(c.fd, c.out.data() + c.out_pos, c.out.size() - c.out_pos, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_pos += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      break;  // EAGAIN: POLLOUT resumes it
    }
    if (c.out_pos == c.out.size()) {
      c.out.clear();
      c.out_pos = 0;
    }
  }

  std::vector<Request>& requests_;
  std::vector<Conn> conns_;
  std::uint64_t transport_ = 0;
};

struct ParsedSct {
  ct::SignedCertificateTimestamp sct;
  bool ok = false;
};

ParsedSct parse_sct(const std::string& body) {
  ParsedSct out;
  const auto doc = json::parse(body);
  if (!doc) return out;
  const auto id = doc->get_string("id");
  const auto sig = doc->get_string("signature");
  const auto ts = doc->get_u64("timestamp");
  if (!id || !sig || !ts) return out;
  const auto id_raw = ctwatch::try_base64_decode(*id);
  const auto sig_raw = ctwatch::try_base64_decode(*sig);
  if (!id_raw || id_raw->size() != out.sct.log_id.size() || !sig_raw || sig_raw->size() < 3) {
    return out;
  }
  std::copy(id_raw->begin(), id_raw->end(), out.sct.log_id.begin());
  out.sct.timestamp_ms = *ts;
  // TLS digitally-signed: u8 scheme, u16 length, signature bytes.
  const std::size_t len = (std::size_t{(*sig_raw)[1]} << 8) | (*sig_raw)[2];
  if (sig_raw->size() != 3 + len) return out;
  out.sct.signature.scheme = static_cast<ctwatch::crypto::SignatureScheme>((*sig_raw)[0]);
  out.sct.signature.data.assign(sig_raw->begin() + 3, sig_raw->end());
  out.ok = true;
  return out;
}

std::optional<ct::SignedTreeHead> fetch_sth(BlockingClient& client) {
  const auto reply = client.round_trip(get_request("/ct/v1/get-sth"));
  if (!reply || reply->status != 200) return std::nullopt;
  const auto doc = json::parse(reply->body);
  if (!doc) return std::nullopt;
  const auto size = doc->get_u64("tree_size");
  const auto ts = doc->get_u64("timestamp");
  const auto root = doc->get_string("sha256_root_hash");
  const auto sig = doc->get_string("tree_head_signature");
  if (!size || !ts || !root || !sig) return std::nullopt;
  const auto root_raw = ctwatch::try_base64_decode(*root);
  const auto sig_raw = ctwatch::try_base64_decode(*sig);
  ct::SignedTreeHead sth;
  if (!root_raw || root_raw->size() != sth.root_hash.size() || !sig_raw || sig_raw->size() < 3) {
    return std::nullopt;
  }
  sth.tree_size = *size;
  sth.timestamp_ms = *ts;
  std::copy(root_raw->begin(), root_raw->end(), sth.root_hash.begin());
  sth.signature.scheme = static_cast<ctwatch::crypto::SignatureScheme>((*sig_raw)[0]);
  sth.signature.data.assign(sig_raw->begin() + 3, sig_raw->end());
  return sth;
}

bool is_overloaded(const Request& r) {
  return r.status == 503 && r.body.find("overloaded") != std::string::npos;
}

/// Closed loop: each connection keeps kSubmitWindow requests outstanding,
/// issuing ids from [first, last) until `until_ns`, then drains (bounded
/// by ten seconds past `until_ns`). Returns one past the last id issued.
std::size_t closed_loop(WireClient& client, std::vector<Request>& requests,
                        const std::vector<std::string>& wires, std::size_t first,
                        std::size_t last, std::int64_t until_ns) {
  std::size_t next = first;
  const auto issue = [&](std::size_t conn) {
    if (next >= last || now_ns() >= until_ns) return;
    requests[next].due_ns = now_ns();
    client.send(conn, next, wires[next]);
    ++next;
  };
  for (std::size_t c = 0; c < client.connections(); ++c) {
    for (unsigned w = 0; w < kSubmitWindow; ++w) issue(c);
  }
  // A stalled server releases the loop ten seconds after the window (a
  // minute after the start, for the open-ended warm-up).
  const std::int64_t deadline =
      std::min<std::int64_t>(until_ns, now_ns() + 60'000'000'000LL) + 10'000'000'000LL;
  while (client.inflight_total() > 0 && now_ns() < deadline) {
    client.pump(2000000, [&](std::size_t conn, std::size_t) { issue(conn); });
  }
  return next;
}

}  // namespace

Outcome run_ct_submit(const Args& args, double seconds, SpanRecorder& spans,
                      const std::string& scratch) {
  Outcome out;
  const double phase_a_s = seconds * kPhaseAShare;
  const double phase_b_s = seconds - phase_a_s;

  // --- inputs: arrival schedule and certificates (not part of setup_s) ---
  std::mt19937_64 rng(args.seed ^ 0xc7a5b1d2ULL);
  std::exponential_distribution<double> gap(kSubmitOfferedRate);
  std::vector<double> arrivals_s;
  for (double t = gap(rng); t < phase_a_s; t += gap(rng)) arrivals_s.push_back(t);
  const std::size_t a_count = arrivals_s.size();
  const std::size_t b_budget = static_cast<std::size_t>(kPhaseBCertRate * phase_b_s);
  // Request i sends certificate i: [0, kWarmup) warm up every set-up,
  // then phase A, then phase B.
  const std::size_t a_first = kWarmup;
  const std::size_t b_first = a_first + a_count;
  const CertPool pool = make_cert_pool(args.seed, b_first + b_budget, generator_thread_cap());
  std::vector<std::string> wires(pool.add_chain_body.size());
  for (std::size_t i = 0; i < wires.size(); ++i) {
    wires[i] = post_request("/ct/v1/add-chain", pool.add_chain_body[i]);
  }
  const Bytes log_key =
      ctwatch::crypto::EcdsaSigner::derive(std::string("ct-log/") + kSubmitLogName)->public_key();
  std::vector<Request> requests(wires.size());

  // --- set-up, five times; the last stack serves the window. Each set-up
  // ends with a closed-loop warm-up of kWarmup add-chains, so caches,
  // allocators and files are warm before anything is timed. ---
  std::vector<double> setup_times;
  std::unique_ptr<SubmitStack> stack;
  std::uint64_t ok_warm = 0;
  for (int rep = 0; rep < 5; ++rep) {
    stack.reset();
    const std::int64_t t0 = now_ns();
    std::string error;
    stack = start_stack(scratch + "/submit-" + std::to_string(rep), error);
    if (!stack) {
      out.problem("ct_submit set-up: " + error);
      return out;
    }
    WireClient warm(stack->server->port(), requests);
    closed_loop(warm, requests, wires, 0, kWarmup, INT64_MAX);
    setup_times.push_back(seconds_since(t0));
    ok_warm = 0;
    for (std::size_t i = 0; i < kWarmup; ++i) ok_warm += requests[i].status == 200 ? 1 : 0;
    if (ok_warm != kWarmup) {
      out.problem("ct_submit: warm-up add-chains failed");
      return out;
    }
  }
  const std::uint16_t port = stack->server->port();

  WireClient client(port, requests);
  if (!client.ok()) {
    out.problem("ct_submit: client connections failed");
    return out;
  }
  check_generator(out, 1, client.connections());  // this thread drives every connection

  // --- phase A: open loop ---
  const std::int64_t a_start = now_ns() + 1000000;  // 1 ms lead
  for (std::size_t i = 0; i < a_count; ++i) {
    requests[a_first + i].due_ns = a_start + static_cast<std::int64_t>(arrivals_s[i] * 1e9);
  }
  const std::int64_t a_deadline = a_start + static_cast<std::int64_t>((phase_a_s + 10) * 1e9);
  std::size_t next = a_first;
  std::size_t a_done = 0;
  const auto on_done_a = [&](std::size_t, std::size_t) { ++a_done; };
  while (a_done < a_count && now_ns() < a_deadline) {
    const std::int64_t now = now_ns();
    while (next < b_first && requests[next].due_ns <= now) {
      client.send(next % client.connections(), next, wires[next]);
      ++next;
    }
    const std::int64_t wait = next < b_first ? requests[next].due_ns - now_ns() : 2000000;
    client.pump(std::min<std::int64_t>(wait, 2000000), on_done_a);
  }
  if (a_done < a_count) out.problem("ct_submit: phase A did not drain");

  // --- phase B: closed loop, a fixed window per connection ---
  const std::int64_t b_start = now_ns();
  const std::int64_t b_end = b_start + static_cast<std::int64_t>(phase_b_s * 1e9);
  const std::size_t b_next =
      closed_loop(client, requests, wires, b_first, requests.size(), b_end);
  if (client.inflight_total() > 0) out.problem("ct_submit: phase B did not drain");

  // --- tally ---
  std::vector<Timed> latency_ms;  // phase A, stamped with the due time
  std::vector<Timed> sct_done;    // phase B SCTs, stamped with their arrival
  std::vector<double> lateness_ms;
  std::uint64_t ok_a = 0, ok_b = 0, overloaded_b = 0;
  std::vector<std::size_t> ok_ids;
  for (std::size_t i = a_first; i < b_next; ++i) {
    const Request& r = requests[i];
    const bool ok = r.status == 200;
    if (i < b_first) {
      latency_ms.push_back({r.due_ns, (r.done_ns - r.due_ns) / 1e6});
      lateness_ms.push_back((r.sent_ns - r.due_ns) / 1e6);
      ok_a += ok ? 1 : 0;
    } else {
      ok_b += ok ? 1 : 0;
      if (ok) sct_done.push_back({r.done_ns, 1});
      overloaded_b += is_overloaded(r) ? 1 : 0;
    }
    if (ok) ok_ids.push_back(i);
    if (spans.enabled()) {
      const std::uint32_t root = spans.next_id();
      if (i < b_first) {
        spans.record("gen.lateness", i, root, r.due_ns, r.sent_ns);
        spans.record("wire.add_chain", i, root, r.sent_ns, r.done_ns);
        spans.record("ct_submit.open_loop", i, 0, r.due_ns, r.done_ns, root);
      } else {
        spans.record("wire.add_chain", i, root, r.sent_ns, r.done_ns);
        spans.record("ct_submit.closed_loop", i, 0, r.due_ns, r.done_ns, root);
      }
    }
  }
  out.attempted += b_next;
  out.failed += b_next - ok_warm - ok_a - ok_b;
  if (client.transport_failures() > 0) {
    out.failed += client.transport_failures();
    out.problem("ct_submit: " + std::to_string(client.transport_failures()) +
                " transport failures");
  }
  if (overloaded_b > 0) out.problem("ct_submit: phase B saw 'overloaded' " + std::to_string(overloaded_b) + "x");
  const Tail lateness = tail_of(lateness_ms);
  std::fprintf(stderr, "[ctbench] ct_submit phase A: %zu sent, %llu ok, lateness p%.0f=%.3f ms\n",
               a_count, static_cast<unsigned long long>(ok_a), lateness.percentile,
               lateness.value);
  if (lateness.value > kLatenessBoundMs) {
    out.problem("ct_submit: generator ran late (p" + std::to_string(lateness.percentile) +
                " lateness " + std::to_string(lateness.value) + " ms > bound)");
  }

  // --- correctness, outside the window ---
  BlockingClient checker(port);
  const auto sth = fetch_sth(checker);
  out.attempted += 1;
  if (!sth || !ct::verify_sth(*sth, log_key)) {
    out.failed += 1;
    out.problem("ct_submit: STH missing or its signature does not verify");
  } else if (sth->tree_size != ok_warm + ok_a + ok_b) {
    out.failed += 1;
    out.problem("ct_submit: tree size " + std::to_string(sth->tree_size) + " != SCTs issued " +
                std::to_string(ok_warm + ok_a + ok_b));
  }
  const std::size_t stride = std::max<std::size_t>(1, ok_ids.size() / 48);
  for (std::size_t k = 0; sth && k < ok_ids.size(); k += stride) {
    const Request& r = requests[ok_ids[k]];
    out.attempted += 1;
    const ParsedSct parsed = parse_sct(r.body);
    const ct::SignedEntry entry = ct::make_x509_entry(pool.leaves[ok_ids[k]]);
    if (!parsed.ok || !ct::verify_sct(parsed.sct, entry, log_key)) {
      out.failed += 1;
      out.problem("ct_submit: SCT for request " + std::to_string(ok_ids[k]) + " does not verify");
      continue;
    }
    const Digest leaf =
        ref_leaf_hash(ref_x509_leaf_input(parsed.sct.timestamp_ms, pool.leaf_der[ok_ids[k]]));
    const auto reply = checker.round_trip(get_request(
        "/ct/v1/get-proof-by-hash?hash=" + url_b64(ctwatch::base64_encode(leaf)) +
        "&tree_size=" + std::to_string(sth->tree_size)));
    bool proven = false;
    if (reply && reply->status == 200) {
      const auto doc = json::parse(reply->body);
      const auto index = doc ? doc->get_u64("leaf_index") : std::nullopt;
      const json::Value* path = doc ? doc->get("audit_path") : nullptr;
      if (index && path != nullptr && path->is_array()) {
        std::vector<Digest> proof;
        for (const json::Value& node : path->as_array()) {
          const auto raw = ctwatch::try_base64_decode(node.as_string());
          Digest d{};
          if (raw && raw->size() == d.size()) std::copy(raw->begin(), raw->end(), d.begin());
          proof.push_back(d);
        }
        proven = ref_verify_inclusion(*index, sth->tree_size, leaf, proof, sth->root_hash);
      }
    }
    if (!proven) {
      out.failed += 1;
      out.problem("ct_submit: SCT'd entry " + std::to_string(ok_ids[k]) + " not proven included");
    }
  }

  const SlicedStats open_loop = sliced_stats(
      latency_ms, a_start, a_start + static_cast<std::int64_t>(phase_a_s * 1e9));
  const SlicedStats closed = sliced_stats(sct_done, b_start, b_end);
  std::fprintf(stderr,
               "[ctbench] ct_submit: phase B %llu SCTs; batches %llu; slice tail is p%.0f of "
               "%zu\n",
               static_cast<unsigned long long>(ok_b),
               static_cast<unsigned long long>(stack->service->sealed_batches()),
               open_loop.tail_percentile, open_loop.slice_samples);
  out.add("setup_s", median(setup_times), "s");
  out.add("peak_rss_mb", vm_hwm_mb(), "MB");
  out.add("p50_ms", open_loop.p50, "ms");
  out.add("tail_ms", open_loop.tail, "ms");
  out.add("throughput_per_s", closed.rate, "1/s");
  return out;
}

}  // namespace ctbench
