// ctwatch::obs — ExpoServer: live scrapes of a working process.
//
// These tests run a real LogService under submission traffic and scrape
// the exposition endpoint over actual TCP: the /metrics body must carry
// the per-stage latency summaries (p50/p99) while the service works, the
// poll loop must survive keep-alive, pipelined, and concurrent clients
// (the TSAN target for the endpoint), and unknown paths must 404 without
// disturbing the loop.
#include <gtest/gtest.h>

#ifndef _WIN32
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

#include <cctype>
#include <cstdlib>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "ctwatch/logsvc/logsvc.hpp"
#include "ctwatch/obs/obs.hpp"

namespace ctwatch::obs {
namespace {

using namespace std::chrono_literals;

// ---------- tiny blocking HTTP client ----------

class Client {
 public:
  explicit Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = fd_ >= 0 && ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                                       sizeof(addr)) == 0;
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  [[nodiscard]] bool connected() const { return connected_; }

  bool send_all(const std::string& data) {
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent, 0);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Reads one full response off the stream: headers, then exactly
  /// Content-Length body bytes. Leaves any pipelined follow-up buffered.
  [[nodiscard]] std::string read_response() {
    std::string headers;
    while (true) {
      const std::size_t end = buffer_.find("\r\n\r\n");
      if (end != std::string::npos) {
        headers = buffer_.substr(0, end + 4);
        buffer_.erase(0, end + 4);
        break;
      }
      if (!fill()) return "";
    }
    const std::size_t length = content_length(headers);
    while (buffer_.size() < length) {
      if (!fill()) return "";
    }
    const std::string body = buffer_.substr(0, length);
    buffer_.erase(0, length);
    return headers + body;
  }

 private:
  static std::size_t content_length(const std::string& headers) {
    // Case-insensitive scan for the Content-Length header.
    std::string lowered = headers;
    for (char& c : lowered) c = static_cast<char>(std::tolower(c));
    const std::size_t pos = lowered.find("content-length:");
    if (pos == std::string::npos) return 0;
    return static_cast<std::size_t>(
        std::strtoull(headers.c_str() + pos + 15, nullptr, 10));
  }

  bool fill() {
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

std::string http_get(std::uint16_t port, const std::string& path) {
  Client client(port);
  if (!client.connected()) return "";
  if (!client.send_all("GET " + path + " HTTP/1.1\r\nHost: localhost\r\n"
                       "Connection: close\r\n\r\n")) {
    return "";
  }
  return client.read_response();
}

// ---------- logsvc traffic helpers ----------

ct::SignedEntry entry_of(std::uint64_t n) {
  ct::SignedEntry entry;
  entry.type = ct::EntryType::x509_entry;
  entry.data = to_bytes("expo-entry-" + std::to_string(n));
  return entry;
}

ct::SubmitResult submit_wait(logsvc::LogService& service, std::uint64_t n) {
  static const SimTime kNow = SimTime::parse("2018-04-01");
  std::promise<ct::SubmitResult> promise;
  auto future = promise.get_future();
  const ct::SubmitStatus status = service.submit(
      entry_of(n), crypto::Sha256::hash(to_bytes("expo-fp-" + std::to_string(n))), "Test CA",
      kNow, [&promise](const ct::SubmitResult& outcome) { promise.set_value(outcome); });
  if (status != ct::SubmitStatus::ok) {
    return ct::SubmitResult{status, 0, std::nullopt};
  }
  return future.get();
}

logsvc::Config fast_config(const std::string& name) {
  logsvc::Config config;
  config.name = name;
  config.scheme = crypto::SignatureScheme::hmac_sha256_simulated;
  config.merge_delay = 500us;
  return config;
}

// ---------- tests ----------

TEST(ExpoServerTest, BindsEphemeralPortAndStopsCleanly) {
  ExpoServer server;
  ASSERT_TRUE(server.start());
  EXPECT_TRUE(server.running());
  EXPECT_NE(server.port(), 0);
  EXPECT_TRUE(server.start());  // idempotent while running
  server.stop();
  EXPECT_FALSE(server.running());
  server.stop();  // safe when already stopped
}

TEST(ExpoServerTest, ServesMetricsDuringLiveTraffic) {
  logsvc::LogService service(fast_config("Expo Svc"));
  ExpoServer server;
  ASSERT_TRUE(server.start());

  for (std::uint64_t n = 0; n < 5; ++n) {
    ASSERT_EQ(submit_wait(service, n).status, ct::SubmitStatus::ok);
  }

  const std::string response = http_get(server.port(), "/metrics");
  ASSERT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);

  // Per-stage latency summaries are present with their quantile samples —
  // the scrape observed the pipeline while it worked.
  for (const std::string stage :
       {"ctwatch_logsvc_queue_wait_us", "ctwatch_logsvc_merge_delay_us",
        "ctwatch_logsvc_sign_us", "ctwatch_logsvc_submit_us"}) {
    EXPECT_NE(response.find("# TYPE " + stage + " summary"), std::string::npos) << stage;
    const std::string s50 = stage + "{quantile=\"0.5\"} ";
    const std::string s99 = stage + "{quantile=\"0.99\"} ";
    const std::size_t p50 = response.find(s50);
    const std::size_t p99 = response.find(s99);
    ASSERT_NE(p50, std::string::npos) << stage;
    ASSERT_NE(p99, std::string::npos) << stage;
    // The samples parse as non-negative numbers.
    const double v50 = std::strtod(response.c_str() + p50 + s50.size(), nullptr);
    const double v99 = std::strtod(response.c_str() + p99 + s99.size(), nullptr);
    EXPECT_GE(v50, 0.0) << stage;
    EXPECT_GE(v99, v50) << stage;
    EXPECT_NE(response.find(stage + "_count "), std::string::npos) << stage;
    EXPECT_NE(response.find(stage + "_sum "), std::string::npos) << stage;
  }
  // Counters flow through too.
  EXPECT_NE(response.find("ctwatch_logsvc_submissions "), std::string::npos);

  service.stop();
  server.stop();
}

TEST(ExpoServerTest, VarsTraceRootAndErrors) {
  ExpoServer server;
  ASSERT_TRUE(server.start());

  const std::string vars = http_get(server.port(), "/vars");
  EXPECT_NE(vars.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(vars.find("application/json"), std::string::npos);
  EXPECT_NE(vars.find("\"counters\""), std::string::npos);
  EXPECT_NE(vars.find("\"histograms\""), std::string::npos);

  Tracer& tracer = Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  { Span span("expo_test.traced"); }
  tracer.set_enabled(false);
  const std::string trace = http_get(server.port(), "/trace");
  EXPECT_NE(trace.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(trace.find("expo_test.traced"), std::string::npos);
  tracer.clear();

  // Query strings are routing-irrelevant; unknown paths 404; the loop
  // answers politely and keeps serving afterwards.
  EXPECT_NE(http_get(server.port(), "/metrics?x=1").find("200 OK"), std::string::npos);
  EXPECT_NE(http_get(server.port(), "/no-such").find("404"), std::string::npos);
  EXPECT_NE(http_get(server.port(), "/").find("ctwatch obs"), std::string::npos);
  EXPECT_NE(http_get(server.port(), "/healthz").find("200 OK"), std::string::npos);

  Client poster(server.port());
  ASSERT_TRUE(poster.connected());
  ASSERT_TRUE(poster.send_all("POST /metrics HTTP/1.1\r\nHost: x\r\n"
                              "Connection: close\r\n\r\n"));
  EXPECT_NE(poster.read_response().find("405"), std::string::npos);

  EXPECT_GE(server.requests_served(), 7u);
  server.stop();
}

TEST(ExpoServerTest, KeepAliveServesPipelinedRequestsOnOneConnection) {
  ExpoServer server;
  ASSERT_TRUE(server.start());
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  // Two requests in one write; HTTP/1.1 defaults to keep-alive, so both
  // answers arrive on the same connection, in order.
  ASSERT_TRUE(client.send_all("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
                              "GET /vars HTTP/1.1\r\nHost: x\r\n\r\n"));
  const std::string first = client.read_response();
  const std::string second = client.read_response();
  EXPECT_NE(first.find("ctwatch obs"), std::string::npos);
  EXPECT_NE(second.find("\"counters\""), std::string::npos);
  server.stop();
}

TEST(ExpoServerTest, ConcurrentScrapesDuringTrafficAreRaceFree) {
  // The TSAN target: several clients hammer every endpoint while a
  // LogService generates metrics and spans on its own threads.
  logsvc::LogService service(fast_config("Expo Race Svc"));
  ExpoServer server;
  ASSERT_TRUE(server.start());

  std::thread traffic([&service] {
    for (std::uint64_t n = 100; n < 140; ++n) submit_wait(service, n);
  });
  std::vector<std::thread> scrapers;
  std::atomic<int> ok{0};
  for (int t = 0; t < 4; ++t) {
    scrapers.emplace_back([&server, &ok, t] {
      const char* paths[] = {"/metrics", "/vars", "/trace"};
      for (int i = 0; i < 12; ++i) {
        const std::string response = http_get(server.port(), paths[(t + i) % 3]);
        if (response.find("200 OK") != std::string::npos) ok.fetch_add(1);
      }
    });
  }
  traffic.join();
  for (std::thread& t : scrapers) t.join();
  EXPECT_EQ(ok.load(), 48);
  service.stop();
  server.stop();
}

}  // namespace
}  // namespace ctwatch::obs
