// ctwatch::httpd — HTTP/1.1 message layer: the one parser in the tree.
//
// The edge serves adversarial bytes: requests arrive torn across reads,
// pipelined many-per-read, oversized, or malformed. `RequestParser` is an
// incremental state machine over an internal buffer — feed() it whatever
// the socket produced, then pull complete requests off the front with
// next() until it reports need_more. Errors are typed (head_too_large /
// body_too_large / bad_request / unsupported) so the connection layer can
// answer 431/413/400/501 and close, instead of guessing.
//
// `ResponseParser` is the mirror image for client-side use: ctbench's
// wire clients, the in-tree tests, and the demo's self-check all parse
// real server bytes with it.
//
// Both parsers are plain deterministic code: no I/O, no allocation
// beyond the buffered bytes, usable under sanitizers and in fuzz-style
// byte-at-a-time tests.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ctwatch::httpd {

/// Parser bounds. Crossing one is a typed error, not a truncation.
struct Limits {
  /// Request line + headers, up to and including the blank line.
  std::size_t max_head_bytes = 16 * 1024;
  /// Declared Content-Length ceiling (413 when exceeded).
  std::size_t max_body_bytes = 1 << 20;
};

/// One parsed request. Header names are kept as received; lookup is
/// case-insensitive. `path` is the percent-decoded target without the
/// query string; `query` is the raw query string (still encoded —
/// query_param() decodes per-value).
struct Request {
  std::string method;
  std::string target;  ///< raw request target as received
  std::string path;    ///< decoded path component
  std::string query;   ///< raw query string ("" when absent)
  bool http11 = true;  ///< false = HTTP/1.0
  bool keep_alive = true;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// Case-insensitive header lookup; first match wins.
  [[nodiscard]] std::optional<std::string_view> header(std::string_view name) const;
  /// Percent-decoded value of `key` in the query string.
  [[nodiscard]] std::optional<std::string> query_param(std::string_view key) const;
};

enum class ParseResult : std::uint8_t {
  need_more,       ///< buffer holds no complete request yet
  request,         ///< one request extracted into `out`
  bad_request,     ///< malformed request line / header / Content-Length
  head_too_large,  ///< headers exceed Limits::max_head_bytes (431)
  body_too_large,  ///< declared body exceeds Limits::max_body_bytes (413)
  unsupported,     ///< parseable but not served (chunked TE, unknown version)
};

/// True for the terminal states: the connection must answer-and-close
/// (the buffer is no longer trustworthy after a malformed request).
[[nodiscard]] constexpr bool parse_failed(ParseResult r) {
  return r != ParseResult::need_more && r != ParseResult::request;
}

class RequestParser {
 public:
  RequestParser() = default;
  explicit RequestParser(Limits limits) : limits_(limits) {}

  /// Appends raw socket bytes. Never fails; errors surface via next().
  void feed(const char* data, std::size_t n) { buffer_.append(data, n); }
  void feed(std::string_view data) { buffer_.append(data); }

  /// Extracts the next complete request, if the buffer holds one.
  /// Pipelined requests come out one next() call at a time. After a
  /// failed result every further next() repeats the failure until
  /// reset().
  ParseResult next(Request& out);

  /// Discards buffered bytes and clears a sticky error.
  void reset();

  /// Bytes currently buffered (tests).
  [[nodiscard]] std::size_t buffered() const { return buffer_.size(); }

 private:
  ParseResult parse_head(Request& out);
  ParseResult fail(ParseResult r) {
    error_ = r;
    return r;
  }

  Limits limits_;
  std::string buffer_;
  std::optional<ParseResult> error_;
  // Body state: set once the head parsed, cleared when the body completes.
  bool in_body_ = false;
  std::size_t body_remaining_ = 0;
  Request pending_;
};

/// One response under construction. serialize() renders status line,
/// Content-Type/Length, Connection, extra headers, then the body.
struct Response {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  bool keep_alive = true;
  std::vector<std::pair<std::string, std::string>> extra_headers;

  [[nodiscard]] std::string serialize() const;
};

/// Canonical reason phrase ("OK", "Not Found", ...; "Unknown" otherwise).
[[nodiscard]] const char* status_reason(int status);

/// Convenience constructors for the common shapes.
Response json_response(int status, std::string body, bool keep_alive = true);
Response text_response(int status, std::string body, bool keep_alive = true);
/// {"error":"<code>","detail":"<detail>"} — the structured error shape
/// every ctwatch endpoint returns.
Response error_response(int status, std::string_view code, std::string_view detail,
                        bool keep_alive = true);

/// A parsed response, for client-side use.
struct ParsedResponse {
  int status = 0;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  [[nodiscard]] std::optional<std::string_view> header(std::string_view name) const;
};

/// Incremental HTTP/1.x response parser (status line + headers +
/// Content-Length body; no chunked decoding — the in-tree server never
/// sends it).
class ResponseParser {
 public:
  void feed(const char* data, std::size_t n) { buffer_.append(data, n); }
  void feed(std::string_view data) { buffer_.append(data); }

  /// need_more / request (one response extracted) / bad_request.
  ParseResult next(ParsedResponse& out);
  void reset();

 private:
  std::string buffer_;
  bool in_body_ = false;
  std::size_t body_remaining_ = 0;
  ParsedResponse pending_;
};

/// Percent-decodes a URL component ('+' also decodes to space, as query
/// strings encode it). Returns nullopt on a malformed %-escape.
[[nodiscard]] std::optional<std::string> url_decode(std::string_view in);

/// ASCII case-insensitive string equality (header names, token values).
[[nodiscard]] bool iequals(std::string_view a, std::string_view b);

}  // namespace ctwatch::httpd
