// httpd_wire: wire-level load generator for the ctwatch::httpd front end.
//
// An in-process client fleet opens >= 1k real TCP connections to a live
// Server serving the RFC 6962 API over a LogService, then drives an
// open-loop request stream (exponential inter-arrivals at a target rate
// — arrivals never wait for completions, so queueing delay is measured,
// not hidden) with a Zipf-distributed endpoint mix: get-sth dominates,
// then get-entries, get-proof-by-hash, add-chain, get-sth-consistency —
// the shape real log front ends see (monitors poll heads far more often
// than anyone submits).
//
// Each client thread runs a poll loop over its share of the connections:
// requests are pipelined onto keep-alive connections at their arrival
// instants, responses stream back through the shared ResponseParser, and
// every completion records wire latency (arrival -> last response byte).
//
// Prints the unified RESULT schema:
//   RESULT {"bench":"httpd_wire","config":{...},"metrics":{rps,
//           rps_per_core, p50_us, p99_us, ...}}
//
// Before the fleet starts, the log is prefilled with kPrefillEntries
// distinct entries, so get-proof-by-hash and get-sth-consistency prove
// against a 65,537-leaf tree (a leaf in its middle; first=size/2+1) —
// never a 1-leaf tree that would make proofs look free.
//
// --strict gates zero transport/HTTP errors (CI smoke). Deterministic
// endpoint mix per --seed; timings are hardware-dependent, correctness
// (status codes, response parse) is not.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

#include "bench_common.hpp"
#include "ctwatch/crypto/signature.hpp"
#include "ctwatch/ct/log.hpp"
#include "ctwatch/ct/merkle.hpp"
#include "ctwatch/httpd/ct_handlers.hpp"
#include "ctwatch/httpd/http.hpp"
#include "ctwatch/httpd/json.hpp"
#include "ctwatch/httpd/server.hpp"
#include "ctwatch/logsvc/logsvc.hpp"
#include "ctwatch/util/encoding.hpp"
#include "ctwatch/x509/certificate.hpp"

using namespace ctwatch;
using Clock = std::chrono::steady_clock;

namespace {

/// Distinct entries submitted before the run: past 256² leaves, so a
/// proof crosses two tile levels.
constexpr std::uint64_t kPrefillEntries = 65537;

struct Options {
  std::size_t connections = 1024;
  int client_threads = 8;
  int server_workers = 4;
  double duration_seconds = 3.0;
  double target_rps = 8000.0;
  double zipf_s = 1.0;
  std::uint64_t seed = 42;
  bool strict = false;
};

/// Raises RLIMIT_NOFILE to its hard cap; returns the resulting soft cap.
std::size_t raise_nofile_limit() {
  rlimit lim{};
  if (getrlimit(RLIMIT_NOFILE, &lim) != 0) return 1024;
  if (lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = lim.rlim_max;
    setrlimit(RLIMIT_NOFILE, &lim);
    getrlimit(RLIMIT_NOFILE, &lim);
  }
  return static_cast<std::size_t>(lim.rlim_cur);
}

// --- request templates -----------------------------------------------------

struct Endpoint {
  const char* name;
  std::string wire;  ///< full serialized request (keep-alive)
};

std::string get_request(const std::string& path) {
  return "GET " + path + " HTTP/1.1\r\nHost: bench\r\n\r\n";
}

std::string post_request(const std::string& path, const std::string& body) {
  return "POST " + path + " HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
         "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n" + body;
}

std::string url_encode_b64(const std::string& b64) {
  std::string out;
  for (const char c : b64) {
    if (c == '+') out += "%2B";
    else if (c == '/') out += "%2F";
    else if (c == '=') out += "%3D";
    else out.push_back(c);
  }
  return out;
}

// --- per-thread client loop ------------------------------------------------

struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_pos = 0;
  httpd::ResponseParser parser;
  std::deque<std::pair<Clock::time_point, std::size_t>> inflight;  // (sent_at, endpoint)
};

struct ThreadStats {
  std::vector<std::uint32_t> latencies_us;
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;       ///< non-200 statuses
  std::uint64_t transport = 0;    ///< socket/parse failures
  std::uint64_t sent = 0;
};

int connect_client(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  const int flags = fcntl(fd, F_GETFL, 0);
  fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  return fd;
}

void client_thread(std::uint16_t port, const Options& options,
                   const std::vector<Endpoint>& endpoints, const std::vector<double>& cdf,
                   std::size_t n_conns, std::uint64_t seed, Clock::time_point deadline,
                   ThreadStats& stats) {
  std::vector<Conn> conns(n_conns);
  for (Conn& c : conns) {
    c.fd = connect_client(port);
    if (c.fd < 0) {
      ++stats.transport;
    }
  }
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  const double thread_rate =
      options.target_rps / static_cast<double>(options.client_threads);
  std::exponential_distribution<double> interarrival(thread_rate);

  Clock::time_point next_arrival = Clock::now();
  std::size_t rr = 0;
  std::vector<pollfd> fds(conns.size());

  while (Clock::now() < deadline) {
    // Open loop: emit every arrival whose instant has passed, regardless
    // of how many responses are still outstanding.
    const Clock::time_point now = Clock::now();
    while (next_arrival <= now) {
      const double u = uniform(rng);
      const std::size_t pick = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      const std::size_t endpoint = std::min(pick, endpoints.size() - 1);
      Conn& c = conns[rr++ % conns.size()];
      if (c.fd >= 0) {
        c.out += endpoints[endpoint].wire;
        c.inflight.emplace_back(next_arrival, endpoint);
        ++stats.sent;
      }
      next_arrival += std::chrono::microseconds(
          static_cast<std::int64_t>(interarrival(rng) * 1e6));
    }

    for (std::size_t i = 0; i < conns.size(); ++i) {
      fds[i].fd = conns[i].fd;
      fds[i].events = POLLIN;
      if (conns[i].out_pos < conns[i].out.size()) fds[i].events |= POLLOUT;
      fds[i].revents = 0;
    }
    const auto wait_us = std::chrono::duration_cast<std::chrono::microseconds>(
        next_arrival - Clock::now()).count();
    const int timeout_ms = static_cast<int>(std::clamp<std::int64_t>(wait_us / 1000, 0, 10));
    ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);

    for (std::size_t i = 0; i < conns.size(); ++i) {
      Conn& c = conns[i];
      if (c.fd < 0) continue;
      if ((fds[i].revents & POLLOUT) != 0 && c.out_pos < c.out.size()) {
        const ssize_t n = ::write(c.fd, c.out.data() + c.out_pos, c.out.size() - c.out_pos);
        if (n > 0) {
          c.out_pos += static_cast<std::size_t>(n);
          if (c.out_pos == c.out.size()) {
            c.out.clear();
            c.out_pos = 0;
          }
        }
      }
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        char chunk[8192];
        for (;;) {
          const ssize_t n = ::read(c.fd, chunk, sizeof chunk);
          if (n > 0) {
            c.parser.feed(chunk, static_cast<std::size_t>(n));
            continue;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (n < 0 && errno == EINTR) continue;
          // Peer closed or error: everything outstanding is lost.
          stats.transport += c.inflight.size();
          c.inflight.clear();
          ::close(c.fd);
          c.fd = -1;
          break;
        }
        if (c.fd < 0) continue;
        httpd::ParsedResponse response;
        while (c.parser.next(response) == httpd::ParseResult::request) {
          if (c.inflight.empty()) {
            ++stats.transport;  // response with no matching request
            continue;
          }
          const auto [sent_at, endpoint] = c.inflight.front();
          c.inflight.pop_front();
          (void)endpoint;
          ++stats.completed;
          if (response.status != 200) ++stats.errors;
          const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
              Clock::now() - sent_at).count();
          stats.latencies_us.push_back(
              static_cast<std::uint32_t>(std::clamp<std::int64_t>(us, 0, UINT32_MAX)));
        }
      }
    }
  }

  // Drain grace: give outstanding responses a moment to land.
  const Clock::time_point drain_end = Clock::now() + std::chrono::milliseconds(500);
  for (Conn& c : conns) {
    while (c.fd >= 0 && !c.inflight.empty() && Clock::now() < drain_end) {
      if (c.out_pos < c.out.size()) {
        const ssize_t n = ::write(c.fd, c.out.data() + c.out_pos, c.out.size() - c.out_pos);
        if (n > 0) c.out_pos += static_cast<std::size_t>(n);
      }
      char chunk[8192];
      const ssize_t n = ::read(c.fd, chunk, sizeof chunk);
      if (n > 0) {
        c.parser.feed(chunk, static_cast<std::size_t>(n));
        httpd::ParsedResponse response;
        while (c.parser.next(response) == httpd::ParseResult::request) {
          if (c.inflight.empty()) break;
          const auto [sent_at, endpoint] = c.inflight.front();
          (void)endpoint;
          c.inflight.pop_front();
          ++stats.completed;
          if (response.status != 200) ++stats.errors;
          const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
              Clock::now() - sent_at).count();
          stats.latencies_us.push_back(
              static_cast<std::uint32_t>(std::clamp<std::int64_t>(us, 0, UINT32_MAX)));
        }
      } else if (n == 0) {
        break;
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }
  for (Conn& c : conns) {
    if (c.fd >= 0) ::close(c.fd);
  }
}

/// Blocking startup round trip: the server must answer before the clock
/// starts, and the tree must be seeded so every read endpoint has data.
std::optional<std::string> blocking_round_trip(std::uint16_t port, const std::string& wire) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return std::nullopt;
  }
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::send(fd, wire.data() + sent, wire.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return std::nullopt;
    }
    sent += static_cast<std::size_t>(n);
  }
  httpd::ResponseParser parser;
  httpd::ParsedResponse response;
  for (;;) {
    const httpd::ParseResult r = parser.next(response);
    if (r == httpd::ParseResult::request) {
      ::close(fd);
      if (response.status != 200) return std::nullopt;
      return response.body;
    }
    if (r != httpd::ParseResult::need_more) break;
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;
    parser.feed(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return std::nullopt;
}

std::uint32_t percentile(std::vector<std::uint32_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const std::size_t index = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1));
  return sorted[index];
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg](const char* prefix) -> std::optional<std::string> {
      if (arg.rfind(prefix, 0) == 0) return arg.substr(std::strlen(prefix));
      return std::nullopt;
    };
    if (const auto v = value("--connections=")) options.connections = std::stoull(*v);
    else if (const auto v = value("--client-threads=")) options.client_threads = std::stoi(*v);
    else if (const auto v = value("--workers=")) options.server_workers = std::stoi(*v);
    else if (const auto v = value("--duration-seconds=")) options.duration_seconds = std::stod(*v);
    else if (const auto v = value("--target-rps=")) options.target_rps = std::stod(*v);
    else if (const auto v = value("--zipf-s=")) options.zipf_s = std::stod(*v);
    else if (const auto v = value("--seed=")) options.seed = std::stoull(*v);
    else if (arg == "--strict") options.strict = true;
    else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  const std::size_t nofile = raise_nofile_limit();
  // Both ends of every connection live in this process, plus headroom
  // for the listener, wake pipes, and runtime fds.
  const std::size_t max_conns = nofile > 256 ? (nofile - 256) / 2 : 64;
  if (options.connections > max_conns) {
    std::printf("[httpd_wire] clamping connections %zu -> %zu (RLIMIT_NOFILE %zu)\n",
                options.connections, max_conns, nofile);
    options.connections = max_conns;
  }

  // --- server under test ---
  logsvc::Config config;
  config.name = "Wire Bench Log";
  config.scheme = crypto::SignatureScheme::hmac_sha256_simulated;
  config.merge_delay = std::chrono::milliseconds(1);
  logsvc::LogService service(config);

  httpd::Router router;
  httpd::register_ct_api(router, service);
  httpd::ServerOptions server_options;
  server_options.workers = options.server_workers;
  server_options.max_connections = options.connections + 64;
  httpd::Server server(server_options, std::move(router));
  if (!server.start()) {
    std::fprintf(stderr, "cannot start server\n");
    return 1;
  }

  // --- prefill: a tree worth proving against ---
  {
    struct Waiter {
      std::mutex mu;
      std::condition_variable cv;
      std::uint64_t ok = 0, failed = 0;
    } waiter;
    const SimTime prefill_time = SimTime::parse("2018-04-01");
    for (std::uint64_t i = 0; i < kPrefillEntries;) {
      ct::SignedEntry entry;
      entry.type = ct::EntryType::x509_entry;
      entry.data = to_bytes("wire-bench-prefill-" + std::to_string(i));
      const crypto::Digest fingerprint = crypto::Sha256::hash(entry.data);
      const ct::SubmitStatus status = service.submit(
          std::move(entry), fingerprint, "Wire Bench CA", prefill_time,
          [&waiter](const ct::SubmitResult& outcome) {
            std::lock_guard<std::mutex> lock(waiter.mu);
            ++(outcome.status == ct::SubmitStatus::ok ? waiter.ok : waiter.failed);
            waiter.cv.notify_all();
          });
      if (status == ct::SubmitStatus::ok) {
        ++i;
      } else if (status == ct::SubmitStatus::overloaded) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));  // let the sequencer drain
      } else {
        std::fprintf(stderr, "prefill refused: status %d\n", static_cast<int>(status));
        return 1;
      }
    }
    std::unique_lock<std::mutex> lock(waiter.mu);
    waiter.cv.wait(lock, [&] { return waiter.ok + waiter.failed == kPrefillEntries; });
    if (waiter.failed != 0 || service.tree_size() != kPrefillEntries) {
      std::fprintf(stderr, "prefill failed: %llu of %llu entries integrated\n",
                   static_cast<unsigned long long>(service.tree_size()),
                   static_cast<unsigned long long>(kPrefillEntries));
      return 1;
    }
  }
  const std::uint64_t prefilled = service.tree_size();
  const crypto::Digest proof_target = service.leaf_hash_at(prefilled / 2);

  // --- seed the tree + startup round-trip check ---
  auto signer = crypto::make_signer("wire-bench-ca", crypto::SignatureScheme::hmac_sha256_simulated);
  x509::DistinguishedName dn;
  dn.common_name = "Wire Bench CA";
  x509::CertificateBuilder issuer_builder;
  issuer_builder.serial(1).issuer(dn).subject_cn("Wire Bench CA")
      .validity(SimTime::parse("2018-01-01"), SimTime::parse("2020-01-01"))
      .subject_key(*signer);
  const x509::Certificate issuer_cert = issuer_builder.sign(*signer);
  x509::CertificateBuilder leaf_builder;
  leaf_builder.serial(2).issuer(dn).subject_cn("bench.example.org")
      .validity(SimTime::parse("2018-04-01"), SimTime::parse("2018-07-01"))
      .subject_key(*signer).add_dns_san("bench.example.org");
  const x509::Certificate leaf = leaf_builder.sign(*signer);
  httpd::json::Array chain;
  chain.emplace_back(base64_encode(leaf.encode()));
  chain.emplace_back(base64_encode(issuer_cert.encode()));
  httpd::json::Object chain_obj;
  chain_obj.emplace("chain", httpd::json::Value(std::move(chain)));
  const std::string chain_body = httpd::json::Value(std::move(chain_obj)).dump();

  const auto seeded = blocking_round_trip(
      server.port(), post_request("/ct/v1/add-chain", chain_body) );
  if (!seeded) {
    std::fprintf(stderr, "startup round trip failed: add-chain did not answer 200\n");
    return 1;
  }
  if (!blocking_round_trip(server.port(), get_request("/ct/v1/get-sth"))) {
    std::fprintf(stderr, "startup round trip failed: get-sth did not answer 200\n");
    return 1;
  }

  // --- Zipf endpoint mix (rank order: what real front ends see) ---
  std::vector<Endpoint> endpoints;
  endpoints.push_back({"get-sth", get_request("/ct/v1/get-sth")});
  endpoints.push_back({"get-entries", get_request("/ct/v1/get-entries?start=0&end=31")});
  endpoints.push_back(
      {"get-proof-by-hash",
       get_request("/ct/v1/get-proof-by-hash?hash=" +
                   url_encode_b64(base64_encode(proof_target)) +
                   "&tree_size=" + std::to_string(prefilled))});
  endpoints.push_back({"add-chain", post_request("/ct/v1/add-chain", chain_body)});
  endpoints.push_back(
      {"get-sth-consistency",
       get_request("/ct/v1/get-sth-consistency?first=" + std::to_string(prefilled / 2 + 1) +
                   "&second=" + std::to_string(prefilled))});
  std::vector<double> cdf;
  double total = 0;
  for (std::size_t k = 0; k < endpoints.size(); ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), options.zipf_s);
  }
  double acc = 0;
  for (std::size_t k = 0; k < endpoints.size(); ++k) {
    acc += (1.0 / std::pow(static_cast<double>(k + 1), options.zipf_s)) / total;
    cdf.push_back(acc);
  }

  // --- the fleet ---
  bench::banner("httpd_wire: open-loop wire load on the RFC 6962 front end",
                "Zipf endpoint mix over >= 1k keep-alive connections; "
                "latency is arrival -> last response byte (queueing included).");
  const int threads = std::max(1, options.client_threads);
  std::vector<ThreadStats> stats(static_cast<std::size_t>(threads));
  std::vector<std::thread> fleet;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::microseconds(
                  static_cast<std::int64_t>(options.duration_seconds * 1e6));
  const std::size_t base = options.connections / static_cast<std::size_t>(threads);
  std::size_t extra = options.connections % static_cast<std::size_t>(threads);
  for (int t = 0; t < threads; ++t) {
    const std::size_t n_conns = base + (static_cast<std::size_t>(t) < extra ? 1 : 0);
    fleet.emplace_back(client_thread, server.port(), std::cref(options), std::cref(endpoints),
                       std::cref(cdf), n_conns, options.seed + static_cast<std::uint64_t>(t),
                       deadline, std::ref(stats[static_cast<std::size_t>(t)]));
  }
  for (std::thread& thread : fleet) thread.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();

  // --- aggregate ---
  std::vector<std::uint32_t> latencies;
  std::uint64_t completed = 0, errors = 0, transport = 0, sent = 0;
  for (const ThreadStats& s : stats) {
    completed += s.completed;
    errors += s.errors;
    transport += s.transport;
    sent += s.sent;
    latencies.insert(latencies.end(), s.latencies_us.begin(), s.latencies_us.end());
  }
  std::sort(latencies.begin(), latencies.end());
  const double rps = completed / elapsed;
  const double rps_per_core = rps / std::max(1, options.server_workers);

  std::printf("connections=%zu sent=%llu completed=%llu errors=%llu transport=%llu\n",
              options.connections, static_cast<unsigned long long>(sent),
              static_cast<unsigned long long>(completed),
              static_cast<unsigned long long>(errors),
              static_cast<unsigned long long>(transport));
  std::printf("rps=%.0f rps/core=%.0f p50=%uus p90=%uus p99=%uus max=%uus\n", rps, rps_per_core,
              percentile(latencies, 0.50), percentile(latencies, 0.90),
              percentile(latencies, 0.99), latencies.empty() ? 0 : latencies.back());

  bench::Json config_json;
  config_json.field("connections", static_cast<std::uint64_t>(options.connections))
      .field("client_threads", options.client_threads)
      .field("server_workers", options.server_workers)
      .field("duration_seconds", options.duration_seconds, 2)
      .field("target_rps", options.target_rps, 0)
      .field("zipf_s", options.zipf_s, 2)
      .field("seed", options.seed);
  bench::Json metrics_json;
  metrics_json.field("sent", sent)
      .field("completed", completed)
      .field("errors", errors)
      .field("transport_failures", transport)
      .field("rps", rps, 1)
      .field("rps_per_core", rps_per_core, 1)
      .field("p50_us", static_cast<std::uint64_t>(percentile(latencies, 0.50)))
      .field("p90_us", static_cast<std::uint64_t>(percentile(latencies, 0.90)))
      .field("p99_us", static_cast<std::uint64_t>(percentile(latencies, 0.99)))
      .field("max_us",
             static_cast<std::uint64_t>(latencies.empty() ? 0 : latencies.back()))
      .field("server_accepted", server.connections_accepted())
      .field("server_requests", server.requests_served())
      .field("tree_size", service.tree_size());
  bench::emit_result("httpd_wire", config_json, metrics_json);

  server.stop();
  service.stop();

  if (options.strict) {
    if (completed == 0 || errors != 0 || transport != 0) {
      std::fprintf(stderr, "STRICT FAIL: completed=%llu errors=%llu transport=%llu\n",
                   static_cast<unsigned long long>(completed),
                   static_cast<unsigned long long>(errors),
                   static_cast<unsigned long long>(transport));
      return 1;
    }
    std::printf("STRICT OK\n");
  }
  return 0;
}
