// ctwatch::httpd — the epoll front end under adversarial and concurrent
// load.
//
// Three layers of coverage: (1) the incremental HTTP parser against torn
// reads, pipelined bursts, oversized heads/bodies, and malformed request
// lines — pure state-machine tests, no sockets; (2) the JSON layer's
// strict parse/dump; (3) the live server over real TCP — keep-alive
// churn, in-order pipelined responses, the full RFC 6962 round trip
// (add-chain → SCT → get-proof-by-hash → verify), abrupt disconnects,
// idle eviction, chaos at the accept seam, and the TSAN target: many
// concurrent clients submitting and reading at once across multiple
// worker loops.
#include <gtest/gtest.h>

#ifndef _WIN32
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <latch>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ctwatch/chaos/fault.hpp"
#include "ctwatch/crypto/signature.hpp"
#include "ctwatch/ct/log.hpp"
#include "ctwatch/ct/merkle.hpp"
#include "ctwatch/ct/wire.hpp"
#include "ctwatch/gossip/gossip.hpp"
#include "ctwatch/httpd/ct_handlers.hpp"
#include "ctwatch/httpd/http.hpp"
#include "ctwatch/httpd/json.hpp"
#include "ctwatch/httpd/router.hpp"
#include "ctwatch/httpd/server.hpp"
#include "ctwatch/logsvc/logsvc.hpp"
#include "ctwatch/storage/log_store.hpp"
#include "ctwatch/util/encoding.hpp"
#include "ctwatch/x509/certificate.hpp"

namespace ctwatch::httpd {
namespace {

using namespace std::chrono_literals;

// ===========================================================================
// 1. RequestParser: adversarial byte streams
// ===========================================================================

TEST(HttpdParserTest, SimpleRequestParses) {
  RequestParser parser;
  parser.feed("GET /ct/v1/get-sth HTTP/1.1\r\nHost: log.example\r\n\r\n");
  Request request;
  ASSERT_EQ(parser.next(request), ParseResult::request);
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.path, "/ct/v1/get-sth");
  EXPECT_TRUE(request.http11);
  EXPECT_TRUE(request.keep_alive);
  ASSERT_TRUE(request.header("host").has_value());
  EXPECT_EQ(*request.header("HOST"), "log.example");
  EXPECT_EQ(parser.next(request), ParseResult::need_more);
}

TEST(HttpdParserTest, ByteAtATimeTornReads) {
  const std::string wire =
      "POST /ct/v1/add-chain HTTP/1.1\r\n"
      "Host: log\r\n"
      "Content-Type: application/json\r\n"
      "Content-Length: 17\r\n"
      "\r\n"
      "{\"chain\":[\"AA==\"]}"
      ;
  // Body is 18 bytes; declare exactly 17 and append one more request to
  // prove the parser cuts the body at Content-Length, not at the buffer.
  const std::string body = "{\"chain\":[\"AA=\"]}";
  ASSERT_EQ(body.size(), 17u);
  const std::string stream =
      "POST /ct/v1/add-chain HTTP/1.1\r\nContent-Length: 17\r\n\r\n" + body +
      "GET /ct/v1/get-sth HTTP/1.1\r\n\r\n";
  (void)wire;
  RequestParser parser;
  Request request;
  std::vector<Request> seen;
  for (const char c : stream) {
    parser.feed(&c, 1);
    while (parser.next(request) == ParseResult::request) seen.push_back(request);
  }
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].method, "POST");
  EXPECT_EQ(seen[0].body, body);
  EXPECT_EQ(seen[1].method, "GET");
  EXPECT_EQ(seen[1].path, "/ct/v1/get-sth");
  EXPECT_TRUE(seen[1].body.empty());
}

TEST(HttpdParserTest, PipelinedBurstComesOutInOrder) {
  RequestParser parser;
  std::string burst;
  for (int i = 0; i < 32; ++i) {
    burst += "GET /r" + std::to_string(i) + " HTTP/1.1\r\nHost: x\r\n\r\n";
  }
  parser.feed(burst);
  Request request;
  for (int i = 0; i < 32; ++i) {
    ASSERT_EQ(parser.next(request), ParseResult::request) << i;
    EXPECT_EQ(request.path, "/r" + std::to_string(i));
  }
  EXPECT_EQ(parser.next(request), ParseResult::need_more);
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(HttpdParserTest, OversizedHeadIsTypedAndSticky) {
  Limits limits;
  limits.max_head_bytes = 256;
  RequestParser parser(limits);
  parser.feed("GET / HTTP/1.1\r\nX-Pad: " + std::string(512, 'a') + "\r\n\r\n");
  Request request;
  EXPECT_EQ(parser.next(request), ParseResult::head_too_large);
  // Sticky: the buffer is poisoned until reset().
  EXPECT_EQ(parser.next(request), ParseResult::head_too_large);
  parser.reset();
  parser.feed("GET /ok HTTP/1.1\r\n\r\n");
  EXPECT_EQ(parser.next(request), ParseResult::request);
  EXPECT_EQ(request.path, "/ok");
}

TEST(HttpdParserTest, OversizedDeclaredBodyIs413BeforeTheBodyArrives) {
  Limits limits;
  limits.max_body_bytes = 64;
  RequestParser parser(limits);
  parser.feed("POST / HTTP/1.1\r\nContent-Length: 65\r\n\r\n");
  Request request;
  // The verdict lands from the declaration alone — no need to stream 65
  // bytes at a server that will refuse them.
  EXPECT_EQ(parser.next(request), ParseResult::body_too_large);
}

TEST(HttpdParserTest, MalformedRequestLines) {
  const char* bad[] = {
      "GET\r\n\r\n",                          // no target
      "GET /\r\n\r\n",                        // no version
      "GET / HTTP/1.1 extra\r\n\r\n",         // three spaces
      "GET noslash HTTP/1.1\r\n\r\n",         // target must start with /
      " / HTTP/1.1\r\n\r\n",                  // empty method
      "G@T / HTTP/1.1\r\n\r\n",               // non-token method
      "GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",  // header without colon
      "GET / HTTP/1.1\r\nBad Name: x\r\n\r\n",  // space in header name
      "GET / HTTP/1.1\r\nContent-Length: 4x\r\n\r\n",  // non-numeric length
      "GET / HTTP/1.1\r\nContent-Length: -1\r\n\r\n",  // negative length
  };
  for (const char* wire : bad) {
    RequestParser parser;
    parser.feed(wire);
    Request request;
    EXPECT_EQ(parser.next(request), ParseResult::bad_request) << wire;
  }
}

TEST(HttpdParserTest, UnsupportedVersionAndTransferEncoding) {
  {
    RequestParser parser;
    parser.feed("GET / HTTP/2.0\r\n\r\n");
    Request request;
    EXPECT_EQ(parser.next(request), ParseResult::unsupported);
  }
  {
    RequestParser parser;
    parser.feed("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
    Request request;
    EXPECT_EQ(parser.next(request), ParseResult::unsupported);
  }
}

TEST(HttpdParserTest, KeepAliveDefaultsAndOverrides) {
  struct Case {
    const char* wire;
    bool expect_keep_alive;
  } cases[] = {
      {"GET / HTTP/1.1\r\n\r\n", true},
      {"GET / HTTP/1.0\r\n\r\n", false},
      {"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", false},
      {"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", true},
      {"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n", false},  // token is case-insensitive
  };
  for (const Case& c : cases) {
    RequestParser parser;
    parser.feed(c.wire);
    Request request;
    ASSERT_EQ(parser.next(request), ParseResult::request) << c.wire;
    EXPECT_EQ(request.keep_alive, c.expect_keep_alive) << c.wire;
  }
}

TEST(HttpdParserTest, QueryStringSplitAndDecode) {
  RequestParser parser;
  parser.feed("GET /ct/v1/get-proof-by-hash?hash=qt%2B%2Fx%3D%3D&tree_size=42 HTTP/1.1\r\n\r\n");
  Request request;
  ASSERT_EQ(parser.next(request), ParseResult::request);
  EXPECT_EQ(request.path, "/ct/v1/get-proof-by-hash");
  ASSERT_TRUE(request.query_param("hash").has_value());
  EXPECT_EQ(*request.query_param("hash"), "qt+/x==");
  EXPECT_EQ(*request.query_param("tree_size"), "42");
  EXPECT_FALSE(request.query_param("absent").has_value());
}

TEST(HttpdParserTest, UrlDecodeEdgeCases) {
  EXPECT_EQ(url_decode("a%20b"), "a b");
  EXPECT_EQ(url_decode("a+b"), "a b");
  EXPECT_EQ(url_decode("%2F%2f"), "//");
  EXPECT_FALSE(url_decode("%").has_value());
  EXPECT_FALSE(url_decode("%2").has_value());
  EXPECT_FALSE(url_decode("%zz").has_value());
}

TEST(HttpdParserTest, ResponseParserRoundTrip) {
  Response response = json_response(200, "{\"ok\":true}");
  ResponseParser parser;
  const std::string wire = response.serialize();
  // Torn in half to exercise the incremental path.
  parser.feed(wire.substr(0, wire.size() / 2));
  ParsedResponse parsed;
  EXPECT_EQ(parser.next(parsed), ParseResult::need_more);
  parser.feed(wire.substr(wire.size() / 2));
  ASSERT_EQ(parser.next(parsed), ParseResult::request);
  EXPECT_EQ(parsed.status, 200);
  EXPECT_EQ(parsed.body, "{\"ok\":true}");
  ASSERT_TRUE(parsed.header("content-type").has_value());
  EXPECT_EQ(*parsed.header("Content-Type"), "application/json");
}

// ===========================================================================
// 2. JSON layer
// ===========================================================================

TEST(HttpdJsonTest, ParseDumpRoundTrip) {
  const std::string text =
      R"({"chain":["QUJD"],"n":42,"nested":{"a":[1,2,3],"b":true,"c":null},"s":"x\"y"})";
  const auto value = json::parse(text);
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->get_u64("n"), 42u);
  ASSERT_NE(value->get("chain"), nullptr);
  ASSERT_TRUE(value->get("chain")->is_array());
  EXPECT_EQ(value->get("chain")->as_array()[0].as_string(), "QUJD");
  const auto round = json::parse(value->dump());
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ(round->dump(), value->dump());
}

TEST(HttpdJsonTest, RejectsMalformedAndHostileInputs) {
  const char* bad[] = {
      "",        "{",         "[1,]",       "{\"a\":}",  "{\"a\":1,}",
      "tru",     "01",        "1 2",        "\"unterminated",
      "{\"a\":1}x",  // trailing garbage
      "\"\\ud800\"",  // surrogate escape
  };
  for (const char* text : bad) {
    EXPECT_FALSE(json::parse(text).has_value()) << text;
  }
  // Depth bomb: far past the cap, must fail cleanly (no stack overflow).
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(json::parse(deep).has_value());
}

TEST(HttpdJsonTest, EscapesControlCharactersInDump) {
  json::Object obj;
  obj.emplace("k", json::Value(std::string("a\nb\x01" "c\"d")));
  const std::string dumped = json::Value(std::move(obj)).dump();
  EXPECT_NE(dumped.find("\\n"), std::string::npos);
  EXPECT_NE(dumped.find("\\u0001"), std::string::npos);
  EXPECT_NE(dumped.find("\\\""), std::string::npos);
  EXPECT_EQ(json::parse(dumped)->get_string("k"), "a\nb\x01" "c\"d");
}

TEST(HttpdJsonTest, ErrorResponseDetailKeepsControlCharactersEscaped) {
  const Response response = error_response(400, "bad_request", "field\t\"chain\" \\ bad");
  EXPECT_NE(response.body.find("\\t"), std::string::npos) << response.body;
  const auto parsed = json::parse(response.body);
  ASSERT_TRUE(parsed.has_value()) << response.body;
  EXPECT_EQ(parsed->get_string("error"), "bad_request");
  EXPECT_EQ(parsed->get_string("detail"), "field\t\"chain\" \\ bad");
}

// ===========================================================================
// 3. Live server over real TCP
// ===========================================================================

/// Minimal blocking client speaking to the server under test.
class WireClient {
 public:
  explicit WireClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        fd_ >= 0 && ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~WireClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  [[nodiscard]] bool connected() const { return connected_; }

  bool send_all(const std::string& data) {
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Reads exactly one response; fails the optional when the peer closes
  /// first.
  std::optional<ParsedResponse> read_response() {
    ParsedResponse parsed;
    for (;;) {
      const ParseResult r = parser_.next(parsed);
      if (r == ParseResult::request) return parsed;
      if (r != ParseResult::need_more) return std::nullopt;
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return std::nullopt;
      parser_.feed(chunk, static_cast<std::size_t>(n));
    }
  }

  /// True once the peer has closed (recv sees EOF).
  bool peer_closed() {
    char chunk[256];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    return n == 0;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  ResponseParser parser_;
};

std::optional<ParsedResponse> wire_get(std::uint16_t port, const std::string& path) {
  WireClient client(port);
  if (!client.connected()) return std::nullopt;
  if (!client.send_all("GET " + path + " HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")) {
    return std::nullopt;
  }
  return client.read_response();
}

std::optional<ParsedResponse> wire_post(std::uint16_t port, const std::string& path,
                                        const std::string& body) {
  WireClient client(port);
  if (!client.connected()) return std::nullopt;
  if (!client.send_all("POST " + path + " HTTP/1.1\r\nHost: t\r\n"
                       "Content-Type: application/json\r\nContent-Length: " +
                       std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" + body)) {
    return std::nullopt;
  }
  return client.read_response();
}

Router echo_routes() {
  Router router;
  router.get("/ping", [](const Request&, Completion done) { done(text_response(200, "pong")); });
  router.get("/echo-query", [](const Request& request, Completion done) {
    done(text_response(200, request.query_param("q").value_or("")));
  });
  router.post("/echo-body", [](const Request& request, Completion done) {
    done(text_response(200, request.body));
  });
  return router;
}

TEST(HttpdServerTest, StartsStopsAndServes) {
  Server server(ServerOptions{}, echo_routes());
  ASSERT_TRUE(server.start());
  EXPECT_TRUE(server.running());
  EXPECT_NE(server.port(), 0);
  EXPECT_TRUE(server.start());  // idempotent

  const auto pong = wire_get(server.port(), "/ping");
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->status, 200);
  EXPECT_EQ(pong->body, "pong");

  server.stop();
  EXPECT_FALSE(server.running());
  server.stop();  // safe when stopped
}

TEST(HttpdServerTest, RoutesMisses404AndWrongMethod405) {
  Server server(ServerOptions{}, echo_routes());
  ASSERT_TRUE(server.start());
  const auto missing = wire_get(server.port(), "/no-such");
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->status, 404);
  EXPECT_NE(missing->body.find("\"error\":\"not_found\""), std::string::npos);
  const auto wrong = wire_post(server.port(), "/ping", "x");
  ASSERT_TRUE(wrong.has_value());
  EXPECT_EQ(wrong->status, 405);
  server.stop();
}

TEST(HttpdServerTest, KeepAliveChurnOnOneConnection) {
  Server server(ServerOptions{}, echo_routes());
  ASSERT_TRUE(server.start());
  WireClient client(server.port());
  ASSERT_TRUE(client.connected());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(client.send_all("GET /echo-query?q=n" + std::to_string(i) +
                                " HTTP/1.1\r\nHost: t\r\n\r\n"));
    const auto response = client.read_response();
    ASSERT_TRUE(response.has_value()) << i;
    EXPECT_EQ(response->body, "n" + std::to_string(i));
  }
  EXPECT_EQ(server.connections_accepted(), 1u);
  EXPECT_EQ(server.requests_served(), 50u);
  server.stop();
}

TEST(HttpdServerTest, PipelinedRequestsAnswerInOrder) {
  Server server(ServerOptions{}, echo_routes());
  ASSERT_TRUE(server.start());
  WireClient client(server.port());
  ASSERT_TRUE(client.connected());
  std::string burst;
  for (int i = 0; i < 16; ++i) {
    burst += "GET /echo-query?q=p" + std::to_string(i) + " HTTP/1.1\r\nHost: t\r\n\r\n";
  }
  ASSERT_TRUE(client.send_all(burst));
  for (int i = 0; i < 16; ++i) {
    const auto response = client.read_response();
    ASSERT_TRUE(response.has_value()) << i;
    EXPECT_EQ(response->body, "p" + std::to_string(i)) << i;
  }
  server.stop();
}

TEST(HttpdServerTest, ParseRejectsAnswerTypedStatusAndClose) {
  ServerOptions options;
  options.limits.max_head_bytes = 256;
  options.limits.max_body_bytes = 128;
  Server server(options, echo_routes());
  ASSERT_TRUE(server.start());

  {  // malformed request line -> 400, connection closes after the reply
    WireClient client(server.port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.send_all("BAD@METHOD / HTTP/1.1\r\n\r\n"));
    const auto response = client.read_response();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 400);
    EXPECT_TRUE(client.peer_closed());
  }
  {  // oversized headers -> 431
    WireClient client(server.port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.send_all("GET / HTTP/1.1\r\nX-Pad: " + std::string(512, 'a') +
                                "\r\n\r\n"));
    const auto response = client.read_response();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 431);
  }
  {  // oversized declared body -> 413
    WireClient client(server.port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.send_all("POST /echo-body HTTP/1.1\r\nContent-Length: 4096\r\n\r\n"));
    const auto response = client.read_response();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 413);
  }
  {  // chunked transfer encoding -> 501
    WireClient client(server.port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.send_all(
        "POST /echo-body HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"));
    const auto response = client.read_response();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 501);
  }
  EXPECT_EQ(server.parse_rejects(), 4u);
  // The server is still healthy afterwards.
  const auto pong = wire_get(server.port(), "/ping");
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->body, "pong");
  server.stop();
}

TEST(HttpdServerTest, AbruptDisconnectsMidRequestDoNotWedgeTheLoop) {
  Server server(ServerOptions{}, echo_routes());
  ASSERT_TRUE(server.start());
  for (int i = 0; i < 8; ++i) {
    WireClient client(server.port());
    ASSERT_TRUE(client.connected());
    // Half a request line, then the destructor slams the connection.
    ASSERT_TRUE(client.send_all("GET /pi"));
  }
  // New work still flows.
  const auto pong = wire_get(server.port(), "/ping");
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->body, "pong");
  server.stop();
}

TEST(HttpdServerTest, IdleConnectionsAreEvicted) {
  ServerOptions options;
  options.idle_timeout = 100ms;
  Server server(options, echo_routes());
  ASSERT_TRUE(server.start());
  WireClient client(server.port());
  ASSERT_TRUE(client.connected());
  // recv() returning 0 proves the server closed us, not the reverse.
  EXPECT_TRUE(client.peer_closed());
  EXPECT_GE(server.evicted_idle(), 1u);
  server.stop();
}

TEST(HttpdServerTest, AsyncCompletionFromAnotherThread) {
  std::atomic<int> fired{0};
  Router router;
  router.get("/deferred", [&fired](const Request&, Completion done) {
    // Complete from a detached thread after the handler returned: the
    // response must route through the worker's inbox.
    std::thread([done = std::move(done), &fired] {
      std::this_thread::sleep_for(10ms);
      fired.fetch_add(1);
      done(text_response(200, "late"));
    }).detach();
  });
  Server server(ServerOptions{}, std::move(router));
  ASSERT_TRUE(server.start());
  const auto response = wire_get(server.port(), "/deferred");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->body, "late");
  EXPECT_EQ(fired.load(), 1);
  server.stop();
}

TEST(HttpdServerTest, ChaosAcceptDropsSeverConnections) {
  chaos::FaultPlan plan;
  plan.error_probability = 1.0;  // every accept faulted
  chaos::FaultInjector injector(7);
  injector.plan("httpd.accept", plan);
  ServerOptions options;
  options.chaos = &injector;
  Server server(options, echo_routes());
  ASSERT_TRUE(server.start());
  int refused = 0;
  for (int i = 0; i < 4; ++i) {
    WireClient client(server.port());
    // connect() itself succeeds (the backlog accepts), but the server
    // drops the fd: the first read sees EOF.
    if (!client.connected() || client.peer_closed()) ++refused;
  }
  EXPECT_EQ(refused, 4);
  EXPECT_EQ(server.chaos_accept_drops(), 4u);
  server.stop();
}

TEST(HttpdServerTest, MultiWorkerConcurrentClientsAreRaceFree) {
  // The TSAN target: 4 worker loops under two inputs. First, 8 keep-alive
  // clients on their own threads. Second, 256 clients (8 threads x 32)
  // that all connect before any of them sends, so the workers hold every
  // socket open at once; 256 client plus 256 server fds fit the default
  // 1024 soft limit.
  ServerOptions options;
  options.workers = 4;
  Server server(options, echo_routes());
  ASSERT_TRUE(server.start());
  const auto open_reaches = [&server](std::uint64_t want) {
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (server.connections_open() != want) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(1ms);
    }
    return true;
  };
  // Sends `requests` tagged echo requests on `client`, counting the
  // responses whose body is the tag.
  const auto echo = [](WireClient& client, const std::string& prefix, int requests,
                       std::atomic<int>& ok) {
    for (int i = 0; i < requests; ++i) {
      const std::string tag = prefix + "." + std::to_string(i);
      if (!client.send_all("GET /echo-query?q=" + tag + " HTTP/1.1\r\nHost: t\r\n\r\n")) {
        return;
      }
      const auto response = client.read_response();
      if (response && response->body == tag) ok.fetch_add(1);
    }
  };

  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 8; ++t) {
    clients.emplace_back([&server, &ok, &echo, t] {
      WireClient client(server.port());
      if (client.connected()) echo(client, std::to_string(t), 25, ok);
    });
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(ok.load(), 200);
  EXPECT_EQ(server.requests_served(), 200u);
  EXPECT_TRUE(open_reaches(0));

  constexpr int kThreads = 8;
  constexpr int kPerThread = 32;
  constexpr int kRequests = 4;
  ok.store(0);
  clients.clear();
  std::latch connected(kThreads);
  std::latch go(1);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&server, &ok, &echo, &connected, &go, t] {
      std::vector<std::unique_ptr<WireClient>> fleet;
      for (int c = 0; c < kPerThread; ++c) {
        fleet.push_back(std::make_unique<WireClient>(server.port()));
      }
      connected.count_down();
      go.wait();
      for (int c = 0; c < kPerThread; ++c) {
        if (fleet[c]->connected()) {
          echo(*fleet[c], std::to_string(t) + "/" + std::to_string(c), kRequests, ok);
        }
      }
    });
  }
  connected.wait();
  EXPECT_TRUE(open_reaches(kThreads * kPerThread)) << server.connections_open();
  go.count_down();
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(ok.load(), kThreads * kPerThread * kRequests);
  EXPECT_EQ(server.requests_served(), 200u + kThreads * kPerThread * kRequests);
  EXPECT_TRUE(open_reaches(0)) << server.connections_open();
  server.stop();
}

// ===========================================================================
// 4. RFC 6962 API over the wire
// ===========================================================================

struct TestCa {
  std::unique_ptr<crypto::Signer> signer =
      crypto::make_signer("httpd-test-ca", crypto::SignatureScheme::ecdsa_p256_sha256);
  x509::Certificate issuer_cert = make_issuer(*signer);

  static x509::Certificate make_issuer(const crypto::Signer& signer) {
    x509::CertificateBuilder builder;
    x509::DistinguishedName dn;
    dn.common_name = "Httpd Test CA";
    builder.serial(1)
        .issuer(dn)
        .subject_cn("Httpd Test CA")
        .validity(SimTime::parse("2018-01-01"), SimTime::parse("2020-01-01"))
        .subject_key(signer);
    return builder.sign(signer);
  }

  [[nodiscard]] x509::Certificate leaf(const std::string& cn, std::uint64_t serial) const {
    x509::CertificateBuilder builder;
    x509::DistinguishedName dn;
    dn.common_name = "Httpd Test CA";
    builder.serial(serial)
        .issuer(dn)
        .subject_cn(cn)
        .validity(SimTime::parse("2018-04-01"), SimTime::parse("2018-07-01"))
        .subject_key(*signer)  // key reuse is fine for transport tests
        .add_dns_san(cn);
    return builder.sign(*signer);
  }

  [[nodiscard]] std::string chain_body(const x509::Certificate& leaf_cert) const {
    json::Array chain;
    chain.emplace_back(base64_encode(leaf_cert.encode()));
    chain.emplace_back(base64_encode(issuer_cert.encode()));
    json::Object body;
    body.emplace("chain", json::Value(std::move(chain)));
    return json::Value(std::move(body)).dump();
  }
};

logsvc::Config fast_log(const std::string& name) {
  logsvc::Config config;
  config.name = name;
  config.merge_delay = 500us;
  return config;
}

/// Percent-encodes base64 for use in a query string.
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

TEST(HttpdCtApiTest, AddChainToProofRoundTrip) {
  logsvc::LogService service(fast_log("Httpd API Log"));
  Router router;
  register_ct_api(router, service);
  Server server(ServerOptions{}, std::move(router));
  ASSERT_TRUE(server.start());
  TestCa ca;

  // add-chain: the SCT comes back through the async completion path
  // (handler -> sequencer seal -> inbox -> in-order flush).
  const x509::Certificate leaf = ca.leaf("rt.example.org", 100);
  const auto added = wire_post(server.port(), "/ct/v1/add-chain", ca.chain_body(leaf));
  ASSERT_TRUE(added.has_value());
  ASSERT_EQ(added->status, 200) << added->body;
  const auto sct_doc = json::parse(added->body);
  ASSERT_TRUE(sct_doc.has_value());
  EXPECT_EQ(sct_doc->get_u64("sct_version"), 0u);
  ASSERT_TRUE(sct_doc->get_u64("timestamp").has_value());
  ASSERT_TRUE(sct_doc->get_string("signature").has_value());
  const crypto::Digest log_id = service.log_id();
  EXPECT_EQ(base64_decode(std::string(*sct_doc->get_string("id"))),
            Bytes(log_id.begin(), log_id.end()));

  // Reassemble the SCT and verify it cryptographically.
  ct::SignedCertificateTimestamp sct;
  sct.version = 0;
  const Bytes id = base64_decode(std::string(*sct_doc->get_string("id")));
  std::copy(id.begin(), id.end(), sct.log_id.begin());
  sct.timestamp_ms = *sct_doc->get_u64("timestamp");
  sct.extensions = base64_decode(std::string(*sct_doc->get_string("extensions")));
  const Bytes sig = base64_decode(std::string(*sct_doc->get_string("signature")));
  ct::wire::Reader sig_reader(sig);
  sct.signature.scheme = static_cast<crypto::SignatureScheme>(sig_reader.u8());
  const BytesView sig_bytes = sig_reader.opaque16();
  sct.signature.data.assign(sig_bytes.begin(), sig_bytes.end());
  const ct::SignedEntry entry = ct::make_x509_entry(leaf);
  EXPECT_TRUE(ct::verify_sct(sct, entry, service.public_key()));

  // get-sth reflects the integration.
  const auto sth_response = wire_get(server.port(), "/ct/v1/get-sth");
  ASSERT_TRUE(sth_response.has_value());
  ASSERT_EQ(sth_response->status, 200);
  const auto sth_doc = json::parse(sth_response->body);
  ASSERT_TRUE(sth_doc.has_value());
  ASSERT_EQ(sth_doc->get_u64("tree_size"), 1u);

  // get-proof-by-hash: look the leaf up by its Merkle hash and verify
  // the audit path against the served root.
  const crypto::Digest leaf_hash =
      ct::leaf_hash(ct::merkle_leaf_bytes(sct.timestamp_ms, entry));
  const auto proof_response = wire_get(
      server.port(), "/ct/v1/get-proof-by-hash?hash=" +
                         url_encode_b64(base64_encode(leaf_hash)) + "&tree_size=1");
  ASSERT_TRUE(proof_response.has_value());
  ASSERT_EQ(proof_response->status, 200) << proof_response->body;
  const auto proof_doc = json::parse(proof_response->body);
  ASSERT_TRUE(proof_doc.has_value());
  EXPECT_EQ(proof_doc->get_u64("leaf_index"), 0u);
  std::vector<crypto::Digest> path;
  for (const json::Value& node : proof_doc->get("audit_path")->as_array()) {
    const Bytes raw = base64_decode(node.as_string());
    crypto::Digest digest{};
    std::copy(raw.begin(), raw.end(), digest.begin());
    path.push_back(digest);
  }
  const Bytes root = base64_decode(std::string(*sth_doc->get_string("sha256_root_hash")));
  crypto::Digest root_digest{};
  std::copy(root.begin(), root.end(), root_digest.begin());
  EXPECT_TRUE(ct::verify_inclusion(leaf_hash, 0, 1, path, root_digest));

  // get-entries round-trips the leaf_input bytes.
  const auto entries_response = wire_get(server.port(), "/ct/v1/get-entries?start=0&end=0");
  ASSERT_TRUE(entries_response.has_value());
  ASSERT_EQ(entries_response->status, 200);
  const auto entries_doc = json::parse(entries_response->body);
  const auto& entries = entries_doc->get("entries")->as_array();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(base64_decode(std::string(*entries[0].get_string("leaf_input"))),
            ct::merkle_leaf_bytes(sct.timestamp_ms, entry));

  service.stop();
  server.stop();
}

TEST(HttpdCtApiTest, ConsistencyAcrossGrowth) {
  logsvc::LogService service(fast_log("Httpd Consistency Log"));
  Router router;
  register_ct_api(router, service);
  Server server(ServerOptions{}, std::move(router));
  ASSERT_TRUE(server.start());
  TestCa ca;

  for (int i = 0; i < 4; ++i) {
    const auto added =
        wire_post(server.port(), "/ct/v1/add-chain",
                  ca.chain_body(ca.leaf("c" + std::to_string(i) + ".example", 200 + i)));
    ASSERT_TRUE(added.has_value());
    ASSERT_EQ(added->status, 200) << added->body;
  }
  const auto proof = wire_get(server.port(), "/ct/v1/get-sth-consistency?first=2&second=4");
  ASSERT_TRUE(proof.has_value());
  ASSERT_EQ(proof->status, 200) << proof->body;
  const auto doc = json::parse(proof->body);
  ASSERT_TRUE(doc.has_value());
  EXPECT_FALSE(doc->get("consistency")->as_array().empty());

  service.stop();
  server.stop();
}

// ===========================================================================
// 5. Graceful shutdown
// ===========================================================================

TEST(HttpdServerTest, ShutdownDrainsInFlightAndRefusesNew) {
  // A handler that parks its completion so one request stays in flight
  // until the test decides to answer it.
  struct Held {
    std::mutex mu;
    std::condition_variable cv;
    std::optional<Completion> done;
  };
  auto held = std::make_shared<Held>();
  Router router;
  router.get("/held", [held](const Request&, Completion done) {
    std::lock_guard<std::mutex> lock(held->mu);
    held->done = std::move(done);
    held->cv.notify_all();
  });
  Server server(ServerOptions{}, std::move(router));
  ASSERT_TRUE(server.start());

  WireClient in_flight(server.port());
  ASSERT_TRUE(in_flight.connected());
  ASSERT_TRUE(in_flight.send_all("GET /held HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"));
  {
    std::unique_lock<std::mutex> lock(held->mu);
    ASSERT_TRUE(held->cv.wait_for(lock, 5s, [&] { return held->done.has_value(); }));
  }

  // Drain in the background: it must wait out the parked response.
  std::atomic<bool> drained{false};
  std::thread drainer([&] { drained.store(server.shutdown(std::chrono::seconds(5))); });
  while (!server.draining()) std::this_thread::sleep_for(1ms);

  // New connections are refused while draining...
  WireClient late(server.port());
  EXPECT_TRUE(!late.connected() || late.peer_closed());

  // ...but the in-flight request still completes and its response flushes.
  {
    std::lock_guard<std::mutex> lock(held->mu);
    (*held->done)(text_response(200, "drained"));
  }
  const auto response = in_flight.read_response();
  drainer.join();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->body, "drained");
  EXPECT_TRUE(drained.load());
  EXPECT_FALSE(server.running());
  EXPECT_FALSE(server.draining());
  EXPECT_TRUE(server.shutdown(std::chrono::milliseconds(10)));  // safe when stopped
}

TEST(HttpdCtApiTest, GracefulShutdownLosesNoSealedEntry) {
  // A throwaway store directory under the build tree.
  struct TempDir {
    std::string path;
    TempDir() {
      std::string tmpl = "ctwatch_httpd_shutdown.XXXXXX";
      path = ::mkdtemp(tmpl.data());
      EXPECT_FALSE(path.empty());
    }
    ~TempDir() { std::filesystem::remove_all(path); }
  } dir;

  auto opened = storage::LogStore::open({.dir = dir.path});
  ASSERT_NE(opened.store, nullptr) << opened.detail;
  logsvc::Config config = fast_log("Httpd Durable Log");
  config.storage = opened.store.get();

  ct::SignedTreeHead before;
  {
    logsvc::LogService service(config);
    Router router;
    register_ct_api(router, service);
    Server server(ServerOptions{}, std::move(router));
    ASSERT_TRUE(server.start());
    TestCa ca;
    for (int i = 0; i < 5; ++i) {
      const auto added = wire_post(
          server.port(), "/ct/v1/add-chain",
          ca.chain_body(ca.leaf("d" + std::to_string(i) + ".example", 300 + i)));
      ASSERT_TRUE(added.has_value());
      // A 200 means the SCT was released, which means the sealed batch
      // is already on disk (commit-before-publish).
      ASSERT_EQ(added->status, 200) << added->body;
    }
    before = service.get_sth();
    ASSERT_EQ(before.tree_size, 5u);
    EXPECT_TRUE(server.shutdown(std::chrono::seconds(5)));
    EXPECT_FALSE(server.running());
    service.stop();
  }
  opened.store->close();
  opened.store.reset();

  // The process model restarts: recovery replays the WAL and the adopted
  // service republishes the exact pre-shutdown STH — no sealed entry lost.
  auto reopened = storage::LogStore::open({.dir = dir.path});
  ASSERT_NE(reopened.store, nullptr) << reopened.detail;
  EXPECT_EQ(reopened.store->tree_size(), 5u);
  config.storage = reopened.store.get();
  logsvc::LogService restarted(config);
  EXPECT_TRUE(restarted.get_sth() == before);
  for (std::uint64_t i = 0; i < 5; ++i) {
    const auto proof = restarted.inclusion_proof(i, 5);
    EXPECT_TRUE(ct::verify_inclusion(restarted.leaf_hash_at(i), i, 5, proof, before.root_hash));
  }
  restarted.stop();
}

TEST(HttpdCtApiTest, PartitionAwareSelectorServesCoherentSplitViews) {
  // The ViewSelector overload is the split-view serving seam: one front
  // end, two divergent faces behind it, routed on a client attribute.
  // Each partition must see a coherent log (repeat reads agree, proofs
  // come from its own tree) while the two partitions diverge — the
  // precondition for the gossip tests' detection scenarios.
  gossip::EquivocationPlan plan;
  plan.base = fast_log("Httpd Split Log");
  plan.base.scheme = crypto::SignatureScheme::hmac_sha256_simulated;
  plan.fork_index = 1;
  gossip::EquivocatingLog log(plan);
  log.grow(3, SimTime::parse("2018-04-01"));

  Router router;
  register_ct_api(router, [&log](const Request& request) -> logsvc::LogService* {
    const auto partition = request.header("x-partition");
    if (!partition || *partition == "left") return &log.service(gossip::Side::left);
    if (*partition == "right") return &log.service(gossip::Side::right);
    return nullptr;  // unknown partition: fail closed, don't pick a face
  });
  Server server(ServerOptions{}, std::move(router));
  ASSERT_TRUE(server.start());

  const auto get = [&server](const std::string& path, const std::string& partition) {
    WireClient client(server.port());
    EXPECT_TRUE(client.connected());
    EXPECT_TRUE(client.send_all("GET " + path + " HTTP/1.1\r\nHost: t\r\nX-Partition: " +
                                partition + "\r\nConnection: close\r\n\r\n"));
    return client.read_response();
  };

  // Each partition sees a stable head across repeat reads...
  const auto left_a = get("/ct/v1/get-sth", "left");
  const auto left_b = get("/ct/v1/get-sth", "left");
  const auto right = get("/ct/v1/get-sth", "right");
  ASSERT_TRUE(left_a && left_b && right);
  EXPECT_EQ(left_a->status, 200);
  EXPECT_EQ(right->status, 200);
  EXPECT_EQ(left_a->body, left_b->body);
  // ...but the two partitions are handed divergent signed heads.
  EXPECT_NE(left_a->body, right->body);

  // Consistency is answered from the partition's own tree, so a client
  // that only ever talks to one face sees a log consistent with itself.
  const auto left_proof = get("/ct/v1/get-sth-consistency?first=1&second=3", "left");
  const auto right_proof = get("/ct/v1/get-sth-consistency?first=1&second=3", "right");
  ASSERT_TRUE(left_proof && right_proof);
  EXPECT_EQ(left_proof->status, 200);
  EXPECT_EQ(right_proof->status, 200);
  EXPECT_NE(left_proof->body, right_proof->body);  // fork at 1: paths differ

  // No partition header: routed to the default (left) face.
  const auto naked = wire_get(server.port(), "/ct/v1/get-sth");
  ASSERT_TRUE(naked);
  EXPECT_EQ(naked->body, left_a->body);

  // Unknown partition: the selector declines and the API fails closed.
  const auto unknown = get("/ct/v1/get-sth", "mars");
  ASSERT_TRUE(unknown);
  EXPECT_EQ(unknown->status, 503);
  EXPECT_NE(unknown->body.find("no_backend"), std::string::npos);
}

TEST(HttpdCtApiTest, ErrorShapes) {
  logsvc::LogService service(fast_log("Httpd Error Log"));
  Router router;
  register_ct_api(router, service);
  Server server(ServerOptions{}, std::move(router));
  ASSERT_TRUE(server.start());

  struct Case {
    const char* path;
    int status;
    const char* code;
  } gets[] = {
      {"/ct/v1/get-sth-consistency?first=abc&second=2", 400, "bad_parameter"},
      {"/ct/v1/get-sth-consistency?first=3&second=2", 400, "bad_range"},
      {"/ct/v1/get-proof-by-hash?hash=!!&tree_size=1", 400, "bad_hash"},
      {"/ct/v1/get-proof-by-hash?hash=QQ%3D%3D&tree_size=1", 400, "bad_hash"},  // wrong length
      {"/ct/v1/get-entries?start=5&end=2", 400, "bad_parameter"},
      {"/ct/v1/get-entries?start=0&end=0", 400, "bad_range"},  // empty tree
      {"/ct/v1/get-entries?start=18446744073709551615&end=18446744073709551615", 400,
       "bad_range"},
  };
  for (const Case& c : gets) {
    const auto response = wire_get(server.port(), c.path);
    ASSERT_TRUE(response.has_value()) << c.path;
    EXPECT_EQ(response->status, c.status) << c.path;
    EXPECT_NE(response->body.find(std::string("\"error\":\"") + c.code + "\""),
              std::string::npos)
        << c.path << " -> " << response->body;
  }

  // add-chain rejects garbage bodies with typed errors.
  const auto bad_json = wire_post(server.port(), "/ct/v1/add-chain", "not json");
  ASSERT_TRUE(bad_json.has_value());
  EXPECT_EQ(bad_json->status, 400);
  const auto no_chain = wire_post(server.port(), "/ct/v1/add-chain", "{\"chain\":[]}");
  ASSERT_TRUE(no_chain.has_value());
  EXPECT_EQ(no_chain->status, 400);
  const auto bad_cert =
      wire_post(server.port(), "/ct/v1/add-chain", "{\"chain\":[\"QUJD\"]}");
  ASSERT_TRUE(bad_cert.has_value());
  EXPECT_EQ(bad_cert->status, 400);

  // A precertificate on add-chain is rejected (wrong entry kind).
  TestCa ca;
  x509::CertificateBuilder builder;
  x509::DistinguishedName dn;
  dn.common_name = "Httpd Test CA";
  builder.serial(999)
      .issuer(dn)
      .subject_cn("pre.example")
      .validity(SimTime::parse("2018-04-01"), SimTime::parse("2018-07-01"))
      .subject_key(*ca.signer)
      .poison();
  const x509::Certificate precert = builder.sign(*ca.signer);
  const auto wrong_kind =
      wire_post(server.port(), "/ct/v1/add-chain", ca.chain_body(precert));
  ASSERT_TRUE(wrong_kind.has_value());
  EXPECT_EQ(wrong_kind->status, 400);
  EXPECT_NE(wrong_kind->body.find("rejected_invalid"), std::string::npos);

  service.stop();
  server.stop();
}

TEST(HttpdCtApiTest, ConcurrentSubmittersAndReadersAreRaceFree) {
  // The API-level TSAN target: writers push add-chain (async SCT
  // completions crossing sequencer -> worker threads) while readers
  // hammer every read endpoint.
  logsvc::LogService service(fast_log("Httpd Race Log"));
  Router router;
  register_ct_api(router, service);
  ServerOptions options;
  options.workers = 2;
  Server server(options, std::move(router));
  ASSERT_TRUE(server.start());
  TestCa ca;

  std::atomic<int> submitted{0};
  std::atomic<int> read_ok{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 10; ++i) {
        const auto added = wire_post(
            server.port(), "/ct/v1/add-chain",
            ca.chain_body(ca.leaf("w" + std::to_string(t) + "-" + std::to_string(i) + ".ex",
                                  1000 + t * 100 + i)));
        if (added && added->status == 200) submitted.fetch_add(1);
      }
    });
  }
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&, t] {
      const char* paths[] = {"/ct/v1/get-sth", "/ct/v1/get-entries?start=0&end=31",
                             "/ct/v1/get-sth-consistency?first=0&second=0"};
      for (int i = 0; i < 15; ++i) {
        const auto response = wire_get(server.port(), paths[(t + i) % 3]);
        // Reads against an initially-empty tree can 400 (bad_range);
        // both statuses prove the loop answered coherently.
        if (response && (response->status == 200 || response->status == 400)) {
          read_ok.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : workers) thread.join();
  EXPECT_EQ(submitted.load(), 20);
  EXPECT_EQ(read_ok.load(), 45);
  EXPECT_EQ(service.tree_size(), 20u);

  service.stop();
  server.stop();
}

}  // namespace
}  // namespace ctwatch::httpd
