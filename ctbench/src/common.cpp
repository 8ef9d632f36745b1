#include "common.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>
#include <unordered_map>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "ctwatch/crypto/signature.hpp"
#include "ctwatch/httpd/json.hpp"
#include "ctwatch/util/rng.hpp"

namespace ctbench {

namespace x509 = ctwatch::x509;
namespace crypto = ctwatch::crypto;
namespace json = ctwatch::httpd::json;

unsigned generator_thread_cap() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min(hw, kMaxClientConnections);
}

void check_generator(Outcome& out, unsigned threads, std::size_t connections) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  if (threads > hw || connections > kMaxClientConnections) {
    out.problem("generator uses " + std::to_string(threads) + " threads and " +
                std::to_string(connections) + " connections; the cap is " + std::to_string(hw) +
                " and " + std::to_string(kMaxClientConnections));
  }
}

// --- statistics ---------------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

namespace {

/// Nearest-rank percentile (p in [0, 100]) of an ascending vector.
double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

}  // namespace

Tail tail_of(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  for (const double p : {99.0, 95.0, 90.0, 75.0, 50.0}) {
    // Samples strictly beyond the nearest-rank percentile.
    const double beyond = n - std::ceil(p / 100.0 * n);
    if (beyond >= 10) {
      tail.value = percentile_sorted(values, p);
      tail.percentile = p;
      return tail;
    }
  }
  tail.value = values.back();
  tail.percentile = 100;
  return tail;
}

SlicedStats sliced_stats(const std::vector<Timed>& samples, std::int64_t start_ns,
                         std::int64_t end_ns) {
  std::vector<std::vector<double>> slices(kSlices);
  const double width = static_cast<double>(end_ns - start_ns) / kSlices;
  for (const Timed& s : samples) {
    if (width <= 0 || s.at_ns < start_ns || s.at_ns >= end_ns) continue;
    const int k = std::min(kSlices - 1, static_cast<int>((s.at_ns - start_ns) / width));
    slices[static_cast<std::size_t>(k)].push_back(s.value);
  }
  const double slice_s = width / 1e9;
  SlicedStats out;
  std::vector<double> p50s, tails, rates;
  for (const std::vector<double>& slice : slices) {
    if (slice.empty()) continue;
    const Tail tail = tail_of(slice);
    if (tails.empty()) {
      out.tail_percentile = tail.percentile;
      out.slice_samples = tail.samples;
    }
    p50s.push_back(median(slice));
    tails.push_back(tail.value);
    rates.push_back(static_cast<double>(slice.size()) / slice_s);
  }
  out.p50 = median(p50s);
  out.tail = median(tails);
  out.rate = median(rates);
  return out;
}

double vm_hwm_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0;
}

// --- the result line ------------------------------------------------------------

void Outcome::problem(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "[ctbench] FAIL: %s\n", why.c_str());
}

void Outcome::add(const std::string& name, double value, const std::string& unit) {
  metrics.push_back({name, value, unit});
}

std::optional<double> Outcome::value(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  return std::nullopt;
}

std::string render_result(const Outcome& outcome) {
  std::string out = "{\"correct\": ";
  out += outcome.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(outcome.attempted);
  out += ", \"failed\": " + std::to_string(outcome.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : outcome.metrics) {
    char value[64];
    // Finite values only: JSON has no NaN/Inf.
    std::snprintf(value, sizeof value, "%.10g", std::isfinite(m.value) ? m.value : 0.0);
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

// --- spans -------------------------------------------------------------------------

std::uint32_t SpanRecorder::record(std::string name, std::uint64_t trace, std::uint32_t parent,
                                   std::int64_t start_ns, std::int64_t end_ns,
                                   std::uint32_t id) {
  if (!enabled_) return 0;
  if (id == 0) id = next_id();
  std::lock_guard lock(mu_);
  spans_.push_back(Span{std::move(name), trace, id, parent, start_ns, end_ns});
  return id;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard lock(mu_);
  return spans_;
}

std::size_t SpanRecorder::size() const {
  std::lock_guard lock(mu_);
  return spans_.size();
}

std::vector<double> SpanRecorder::durations_us(const std::string& name) const {
  std::lock_guard lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back((s.end_ns - s.start_ns) / 1e3);
  }
  return out;
}

std::vector<SpanRecorder::SelfTime> SpanRecorder::self_times() const {
  const std::vector<Span> all = spans();
  std::unordered_map<std::uint32_t, std::int64_t> child_cover;  // parent id -> covered ns
  std::unordered_map<std::uint32_t, const Span*> by_id;
  for (const Span& s : all) by_id[s.id] = &s;
  for (const Span& s : all) {
    const auto parent = by_id.find(s.parent);
    if (s.parent == 0 || parent == by_id.end()) continue;
    // Children are sequential within their parent; clip to its interval.
    const std::int64_t lo = std::max(s.start_ns, parent->second->start_ns);
    const std::int64_t hi = std::min(s.end_ns, parent->second->end_ns);
    if (hi > lo) child_cover[s.parent] += hi - lo;
  }
  std::map<std::string, std::vector<double>> self_us;
  for (const Span& s : all) {
    const std::int64_t covered = child_cover.count(s.id) != 0 ? child_cover[s.id] : 0;
    self_us[s.name].push_back(std::max<std::int64_t>(0, s.end_ns - s.start_ns - covered) / 1e3);
  }
  std::vector<SelfTime> out;
  for (auto& [name, values] : self_us) {
    SelfTime st;
    st.name = name;
    st.count = values.size();
    for (const double v : values) st.total_self_ms += v / 1e3;
    st.p50_self_us = median(values);
    out.push_back(st);
  }
  std::sort(out.begin(), out.end(),
            [](const SelfTime& a, const SelfTime& b) { return a.total_self_ms > b.total_self_ms; });
  return out;
}

bool SpanRecorder::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\":[";
  bool first = true;
  for (const Span& s : spans()) {
    out << (first ? "" : ",") << "\n{\"name\":\"" << s.name << "\",\"trace\":" << s.trace
        << ",\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}";
    first = false;
  }
  out << "],\n\"self_times\":[";
  first = true;
  for (const SelfTime& st : self_times()) {
    out << (first ? "" : ",") << "\n{\"name\":\"" << st.name << "\",\"count\":" << st.count
        << ",\"total_self_ms\":" << st.total_self_ms << ",\"p50_self_us\":" << st.p50_self_us
        << "}";
    first = false;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

namespace {
thread_local std::uint32_t t_current_span = 0;
}  // namespace

ScopedSpan::ScopedSpan(SpanRecorder& recorder, const char* name, std::uint64_t trace)
    : recorder_(recorder), name_(name), trace_(trace) {
  if (!recorder_.enabled()) return;
  id_ = recorder_.next_id();
  parent_ = t_current_span;
  t_current_span = id_;
  start_ns_ = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (id_ == 0) return;
  const std::int64_t end = now_ns();
  t_current_span = parent_;
  recorder_.record(name_, trace_, parent_, start_ns_, end, id_);
}

// --- Merkle reference ------------------------------------------------------------------

Digest ref_leaf_hash(BytesView leaf_input) {
  crypto::Sha256 h;
  h.update(std::uint8_t{0x00});
  h.update(leaf_input);
  return h.finish();
}

Digest ref_node_hash(const Digest& left, const Digest& right) {
  crypto::Sha256 h;
  h.update(std::uint8_t{0x01});
  h.update(BytesView(left.data(), left.size()));
  h.update(BytesView(right.data(), right.size()));
  return h.finish();
}

RefTree::RefTree(std::vector<Digest> leaves) {
  levels_.push_back(std::move(leaves));
  while (levels_.back().size() >= 2) {
    const std::vector<Digest>& below = levels_.back();
    std::vector<Digest> above(below.size() / 2);
    for (std::size_t j = 0; j < above.size(); ++j) {
      above[j] = ref_node_hash(below[2 * j], below[2 * j + 1]);
    }
    levels_.push_back(std::move(above));
  }
}

Digest RefTree::root(std::uint64_t m) const {
  if (m == 0) return crypto::Sha256::hash(BytesView{});
  // [0, m) splits into aligned perfect subtrees, largest first (the binary
  // expansion of m); RFC 6962's MTH folds them right to left.
  std::vector<Digest> blocks;
  std::uint64_t offset = 0;
  for (int k = 63; k >= 0; --k) {
    const std::uint64_t width = std::uint64_t{1} << k;
    if ((m & width) == 0) continue;
    blocks.push_back(levels_[static_cast<std::size_t>(k)][offset >> k]);
    offset += width;
  }
  Digest acc = blocks.back();
  for (std::size_t i = blocks.size() - 1; i-- > 0;) acc = ref_node_hash(blocks[i], acc);
  return acc;
}

bool ref_verify_inclusion(std::uint64_t index, std::uint64_t tree_size, const Digest& leaf,
                          const std::vector<Digest>& path, const Digest& root) {
  if (index >= tree_size) return false;
  std::uint64_t fn = index;
  std::uint64_t sn = tree_size - 1;
  Digest r = leaf;
  for (const Digest& p : path) {
    if (sn == 0) return false;
    if ((fn & 1) != 0 || fn == sn) {
      r = ref_node_hash(p, r);
      while ((fn & 1) == 0 && fn != 0) {
        fn >>= 1;
        sn >>= 1;
      }
    } else {
      r = ref_node_hash(r, p);
    }
    fn >>= 1;
    sn >>= 1;
  }
  return sn == 0 && r == root;
}

bool ref_verify_consistency(std::uint64_t first, std::uint64_t second, const Digest& first_root,
                            const Digest& second_root, const std::vector<Digest>& proof) {
  if (first == 0 || first > second) return false;
  if (first == second) return proof.empty() && first_root == second_root;
  if (proof.empty()) return false;
  std::vector<Digest> path = proof;
  if ((first & (first - 1)) == 0) path.insert(path.begin(), first_root);
  std::uint64_t fn = first - 1;
  std::uint64_t sn = second - 1;
  while ((fn & 1) != 0) {
    fn >>= 1;
    sn >>= 1;
  }
  Digest fr = path.front();
  Digest sr = path.front();
  for (std::size_t i = 1; i < path.size(); ++i) {
    const Digest& c = path[i];
    if (sn == 0) return false;
    if ((fn & 1) != 0 || fn == sn) {
      fr = ref_node_hash(c, fr);
      sr = ref_node_hash(c, sr);
      while ((fn & 1) == 0 && fn != 0) {
        fn >>= 1;
        sn >>= 1;
      }
    } else {
      sr = ref_node_hash(sr, c);
    }
    fn >>= 1;
    sn >>= 1;
  }
  return fr == first_root && sr == second_root && sn == 0;
}

std::string sha256_hex(const std::string& text) {
  const Digest d = crypto::Sha256::hash(ctwatch::to_bytes(text));
  return ctwatch::hex_encode(BytesView(d.data(), d.size()));
}

// --- certificates ---------------------------------------------------------------------

CertPool make_cert_pool(std::uint64_t seed, std::size_t count, unsigned threads) {
  const std::string tag = std::to_string(seed);
  const auto ca_key = crypto::EcdsaSigner::derive("ctbench-ca/" + tag);
  const auto leaf_key = crypto::EcdsaSigner::derive("ctbench-leaf/" + tag);
  x509::DistinguishedName ca_dn;
  ca_dn.common_name = "ctbench CA " + tag;
  ca_dn.organization = "ctbench";
  ca_dn.country = "DE";

  CertPool pool;
  x509::CertificateBuilder ca;
  ca.serial(1).issuer(ca_dn).subject_cn(ca_dn.common_name)
      .validity(ctwatch::SimTime::parse("2017-01-01"), ctwatch::SimTime::parse("2022-01-01"))
      .subject_key(*ca_key);
  pool.issuer = ca.sign(*ca_key);
  const std::string issuer_b64 = ctwatch::base64_encode(pool.issuer.encode());

  // Host names are drawn up front so the pool does not depend on how the
  // signing work is split across threads.
  ctwatch::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x51ed);
  std::vector<std::string> hosts(count);
  for (std::size_t i = 0; i < count; ++i) {
    char label[32];
    std::snprintf(label, sizeof label, "h%zu-%08llx", i,
                  static_cast<unsigned long long>(rng() & 0xffffffffULL));
    hosts[i] = std::string(label) + ".s" + tag + ".ctbench.example";
  }
  pool.leaves.resize(count);
  pool.leaf_der.resize(count);
  pool.add_chain_body.resize(count);
  const auto work = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      x509::CertificateBuilder leaf;
      leaf.serial(1000 + i).issuer(ca_dn).subject_cn(hosts[i])
          .validity(ctwatch::SimTime::parse("2018-03-01"), ctwatch::SimTime::parse("2018-06-01"))
          .subject_key(*leaf_key).add_dns_san(hosts[i]);
      pool.leaves[i] = leaf.sign(*ca_key);
      pool.leaf_der[i] = pool.leaves[i].encode();
      json::Array chain;
      chain.emplace_back(ctwatch::base64_encode(pool.leaf_der[i]));
      chain.emplace_back(issuer_b64);
      json::Object body;
      body.emplace("chain", json::Value(std::move(chain)));
      pool.add_chain_body[i] = json::Value(std::move(body)).dump();
    }
  };
  const unsigned n_threads = std::max(1u, std::min(threads, generator_thread_cap()));
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < n_threads; ++t) {
    workers.emplace_back(work, count * t / n_threads, count * (t + 1) / n_threads);
  }
  for (std::thread& w : workers) w.join();
  return pool;
}

// --- HTTP ------------------------------------------------------------------------------

std::string get_request(const std::string& path_and_query) {
  return "GET " + path_and_query + " HTTP/1.1\r\nHost: ctbench\r\n\r\n";
}

std::string post_request(const std::string& path, const std::string& body) {
  return "POST " + path +
         " HTTP/1.1\r\nHost: ctbench\r\nContent-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

std::string url_b64(const std::string& b64) {
  std::string out;
  for (const char c : b64) {
    if (c == '+') out += "%2B";
    else if (c == '/') out += "%2F";
    else if (c == '=') out += "%3D";
    else out.push_back(c);
  }
  return out;
}

int connect_loopback(std::uint16_t port, bool nonblocking) {
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
  if (nonblocking) ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

BlockingClient::BlockingClient(std::uint16_t port) : fd_(connect_loopback(port, false)) {}

BlockingClient::~BlockingClient() {
  if (fd_ >= 0) ::close(fd_);
}

std::optional<ctwatch::httpd::ParsedResponse> BlockingClient::round_trip(
    const std::string& wire) {
  if (fd_ < 0) return std::nullopt;
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return std::nullopt;
    sent += static_cast<std::size_t>(n);
  }
  ctwatch::httpd::ParsedResponse response;
  for (;;) {
    const ctwatch::httpd::ParseResult r = parser_.next(response);
    if (r == ctwatch::httpd::ParseResult::request) return response;
    if (r != ctwatch::httpd::ParseResult::need_more) return std::nullopt;
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return std::nullopt;
    parser_.feed(chunk, static_cast<std::size_t>(n));
  }
}

std::string fresh_dir(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  return path;
}

ScratchDir::ScratchDir(const std::string& work_dir, const std::string& tag) {
  path_ = work_dir + "/" + tag + "-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
  std::filesystem::create_directories(path_, ec);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

}  // namespace ctbench
