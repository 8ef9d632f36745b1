// ctwatch::obs — ExpoServer: live metrics over HTTP.
//
// A deliberately small exposition endpoint answering
//
//   GET /metrics  Prometheus text exposition 0.0.4 (counters, gauges,
//                 and every histogram as a quantile-labelled summary)
//   GET /vars     the registry's JSON rendering
//   GET /trace    the most recent spans as JSON (id/parent/trace/thread)
//   GET /         "ctwatch obs" banner; /healthz for probes
//
// It exists so a running bench or service can be scraped while it works.
// Since the ctwatch::httpd front end landed, this is a thin facade over
// that shared event loop (one HTTP implementation in the tree): the
// header stays dependency-free via a pimpl, the implementation lives in
// src/httpd/expo.cpp, and binaries that use ExpoServer link ct_httpd.
//
// Thread-safety: handlers only read process-global state through the
// registry's and tracer's own locks; start()/stop() may be called from
// any single thread.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

namespace ctwatch::obs {

class ExpoServer {
 public:
  struct Options {
    /// 0 picks an ephemeral port; read it back with port() after start().
    std::uint16_t port = 0;
    /// Loopback by default: this is an operator endpoint, not a public one.
    std::string bind_address = "127.0.0.1";
  };

  ExpoServer();
  explicit ExpoServer(Options options);
  ~ExpoServer();

  ExpoServer(const ExpoServer&) = delete;
  ExpoServer& operator=(const ExpoServer&) = delete;

  /// Binds, listens, and starts the loop thread. False if the socket
  /// could not be set up (port in use, bad address). Idempotent while
  /// running.
  bool start();

  /// Wakes the loop, closes every socket, joins the thread. Safe to call
  /// when not running.
  void stop();

  [[nodiscard]] bool running() const;

  /// Actual bound port (resolves Options::port == 0). 0 before start().
  [[nodiscard]] std::uint16_t port() const;

  /// Requests answered since start (any status). For tests.
  [[nodiscard]] std::uint64_t requests_served() const;

 private:
  struct Impl;  // wraps the shared httpd::Server (src/httpd/expo.cpp)
  std::unique_ptr<Impl> impl_;
};

}  // namespace ctwatch::obs
