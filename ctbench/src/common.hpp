// ctbench — shared pieces of the benchmark: arguments, statistics,
// the result line, the span recorder, an independent RFC 6962 Merkle
// reference, the certificate generator and a small HTTP client.
//
// Nothing here reads the obs registry: every timing comes from the
// benchmark's own steady_clock, so a CTWATCH_OBS_DISABLED build reports
// the same metrics.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "ctwatch/crypto/sha256.hpp"
#include "ctwatch/httpd/http.hpp"
#include "ctwatch/x509/certificate.hpp"

namespace ctbench {

using ctwatch::Bytes;
using ctwatch::BytesView;
using ctwatch::crypto::Digest;
using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}
inline double seconds_since(std::int64_t start_ns) { return (now_ns() - start_ns) / 1e9; }

/// The load generator's ceiling: threads and client connections.
constexpr unsigned kMaxClientConnections = 4;
unsigned generator_thread_cap();  ///< min(4, hardware threads)

struct Outcome;
/// Honesty check: fails the run when the generator used more threads than
/// the host has or more than kMaxClientConnections connections.
void check_generator(Outcome& out, unsigned threads, std::size_t connections);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
};

// --- statistics -------------------------------------------------------------

double median(std::vector<double> values);

/// A tail latency chosen by the percentile rule: p99 when at least ten
/// samples lie beyond it; otherwise the highest of p95/p90/p75/p50 that
/// has ten samples beyond it; otherwise the maximum (percentile 100).
struct Tail {
  double value = 0;
  double percentile = 0;
  std::size_t samples = 0;
};
Tail tail_of(std::vector<double> values);

/// The timed window is cut into this many equal slices. Latency and rate
/// metrics are medians over the slices, so a noisy stretch of the host
/// moves at most one slice.
constexpr int kSlices = 4;

/// A sample stamped with the time it belongs to.
struct Timed {
  std::int64_t at_ns = 0;
  double value = 0;
};

/// Cuts [start_ns, end_ns) into kSlices equal slices (samples outside it
/// are dropped) and takes the median over slices of each slice's median,
/// tail (by tail_of) and rate (samples per second of slice). Empty slices
/// are skipped.
struct SlicedStats {
  double p50 = 0;
  double tail = 0;
  double rate = 0;
  double tail_percentile = 0;  ///< the percentile tail_of chose in the first slice
  std::size_t slice_samples = 0;  ///< samples in the first slice
};
SlicedStats sliced_stats(const std::vector<Timed>& samples, std::int64_t start_ns,
                         std::int64_t end_ns);

/// Peak resident set size (VmHWM) in MiB; 0 where /proc is unavailable.
double vm_hwm_mb();

// --- the result line ----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run produced: metrics plus the correctness verdict.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  /// Reports a correctness failure on stderr; the run reports correct=false.
  void problem(const std::string& why);
  void add(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] std::optional<double> value(const std::string& name) const;
};

/// The last stdout line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
std::string render_result(const Outcome& outcome);

// --- spans ----------------------------------------------------------------------

struct Span {
  std::string name;
  std::uint64_t trace = 0;   ///< request (or job) identifier shared by its spans
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span store. Disabled recorders ignore every call, so the
/// untraced run pays one branch per would-be span.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Reserves a span id (for a parent recorded after its children).
  std::uint32_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  /// Stores a finished span; returns its id (0 when disabled).
  std::uint32_t record(std::string name, std::uint64_t trace, std::uint32_t parent,
                       std::int64_t start_ns, std::int64_t end_ns, std::uint32_t id = 0);

  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::size_t size() const;
  /// Durations (microseconds) of every span with this name.
  [[nodiscard]] std::vector<double> durations_us(const std::string& name) const;

  /// Self time = a span's duration minus the part its children cover.
  struct SelfTime {
    std::string name;
    std::size_t count = 0;
    double total_self_ms = 0;
    double p50_self_us = 0;
  };
  [[nodiscard]] std::vector<SelfTime> self_times() const;

  /// Writes {"spans":[...],"self_times":[...]}; false on IO failure.
  bool write_json(const std::string& path) const;

 private:
  bool enabled_;
  std::atomic<std::uint32_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span around a block; children opened on the same thread nest
/// under it.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, std::uint64_t trace = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  const char* name_;
  std::uint64_t trace_;
  std::uint32_t id_ = 0;
  std::uint32_t parent_ = 0;
  std::int64_t start_ns_ = 0;
};

// --- independent RFC 6962 Merkle reference ------------------------------------

Digest ref_leaf_hash(BytesView leaf_input);
Digest ref_node_hash(const Digest& left, const Digest& right);

/// Every aligned perfect subtree of a fixed leaf list, so the root of any
/// prefix comes out in O(log n). Written from RFC 6962 §2.1, sharing no
/// code with ct::merkle.
class RefTree {
 public:
  explicit RefTree(std::vector<Digest> leaves);
  [[nodiscard]] std::uint64_t size() const { return levels_.front().size(); }
  [[nodiscard]] const Digest& leaf(std::uint64_t index) const { return levels_.front()[index]; }
  /// MTH(D[0:m]) for 0 <= m <= size().
  [[nodiscard]] Digest root(std::uint64_t m) const;

 private:
  std::vector<std::vector<Digest>> levels_;  ///< levels_[k][j]: block j of 2^k leaves
};

/// RFC 9162 §2.1.3.2.
bool ref_verify_inclusion(std::uint64_t index, std::uint64_t tree_size, const Digest& leaf,
                          const std::vector<Digest>& path, const Digest& root);
/// RFC 9162 §2.1.4.2 (first >= 1).
bool ref_verify_consistency(std::uint64_t first, std::uint64_t second, const Digest& first_root,
                            const Digest& second_root, const std::vector<Digest>& proof);

/// Lower-case hex SHA-256 of a string.
std::string sha256_hex(const std::string& text);

// --- generated certificates ----------------------------------------------------

/// Distinct ECDSA-signed leaf certificates under one ECDSA issuer, all a
/// pure function of the seed.
struct CertPool {
  ctwatch::x509::Certificate issuer;
  std::vector<ctwatch::x509::Certificate> leaves;
  std::vector<Bytes> leaf_der;
  std::vector<std::string> add_chain_body;  ///< {"chain":[leaf, issuer]} per leaf
};
CertPool make_cert_pool(std::uint64_t seed, std::size_t count, unsigned threads);

// --- HTTP over loopback ------------------------------------------------------------

std::string get_request(const std::string& path_and_query);
std::string post_request(const std::string& path, const std::string& body);
/// Percent-encodes the base64 characters that are not URL-safe.
std::string url_b64(const std::string& b64);

/// Opens a TCP_NODELAY connection to 127.0.0.1:port; -1 on failure.
int connect_loopback(std::uint16_t port, bool nonblocking);

/// One keep-alive connection used in lockstep: send a request, read its
/// response.
class BlockingClient {
 public:
  explicit BlockingClient(std::uint16_t port);
  ~BlockingClient();
  BlockingClient(const BlockingClient&) = delete;
  BlockingClient& operator=(const BlockingClient&) = delete;

  /// nullopt on a transport or framing failure (or no connection).
  std::optional<ctwatch::httpd::ParsedResponse> round_trip(const std::string& wire);

 private:
  int fd_ = -1;
  ctwatch::httpd::ResponseParser parser_;
};

/// Removes whatever is at `path` (so a store opens empty) and returns it.
std::string fresh_dir(const std::string& path);

/// A per-run scratch directory inside the work dir, removed on exit.
class ScratchDir {
 public:
  ScratchDir(const std::string& work_dir, const std::string& tag);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace ctbench
