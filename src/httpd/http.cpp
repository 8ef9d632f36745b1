#include "ctwatch/httpd/http.hpp"

#include "ctwatch/obs/metrics.hpp"

#include <algorithm>
#include <cctype>

namespace ctwatch::httpd {

namespace {

[[nodiscard]] char ascii_lower(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

// RFC 7230 token characters (method and header-name alphabet).
[[nodiscard]] bool is_token_char(char c) {
  if (std::isalnum(static_cast<unsigned char>(c)) != 0) return true;
  switch (c) {
    case '!': case '#': case '$': case '%': case '&': case '\'': case '*':
    case '+': case '-': case '.': case '^': case '_': case '`': case '|':
    case '~':
      return true;
    default:
      return false;
  }
}

[[nodiscard]] std::string_view trim_ows(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) s.remove_suffix(1);
  return s;
}

[[nodiscard]] int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Strict decimal parse for Content-Length / numeric query params.
[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view s) {
  if (s.empty() || s.size() > 19) return std::nullopt;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

/// Finds the end of the head (the blank line), accepting CRLF or bare LF
/// line endings. Returns npos while incomplete; sets `skip` to the
/// terminator length.
std::size_t find_head_end(std::string_view buf, std::size_t& skip) {
  const std::size_t crlf = buf.find("\r\n\r\n");
  const std::size_t lflf = buf.find("\n\n");
  if (crlf == std::string_view::npos && lflf == std::string_view::npos) return std::string_view::npos;
  if (crlf != std::string_view::npos && (lflf == std::string_view::npos || crlf < lflf)) {
    skip = 4;
    return crlf;
  }
  skip = 2;
  return lflf;
}

/// Splits a head into lines, tolerating CRLF or LF endings.
std::vector<std::string_view> split_lines(std::string_view head) {
  std::vector<std::string_view> lines;
  std::size_t pos = 0;
  while (pos <= head.size()) {
    std::size_t nl = head.find('\n', pos);
    if (nl == std::string_view::npos) {
      if (pos < head.size()) lines.push_back(head.substr(pos));
      break;
    }
    std::size_t end = nl;
    if (end > pos && head[end - 1] == '\r') --end;
    lines.push_back(head.substr(pos, end - pos));
    pos = nl + 1;
  }
  return lines;
}

/// Parses the shared header block; false on malformed header line.
bool parse_header_lines(const std::vector<std::string_view>& lines,
                        std::vector<std::pair<std::string, std::string>>& out) {
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string_view line = lines[i];
    if (line.empty()) continue;
    // obs-fold continuation lines are obsolete and ambiguous: reject.
    if (line.front() == ' ' || line.front() == '\t') return false;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) return false;
    const std::string_view name = line.substr(0, colon);
    if (!std::all_of(name.begin(), name.end(), is_token_char)) return false;
    out.emplace_back(std::string(name), std::string(trim_ows(line.substr(colon + 1))));
  }
  return true;
}

[[nodiscard]] std::optional<std::string_view> find_header(
    const std::vector<std::pair<std::string, std::string>>& headers, std::string_view name) {
  for (const auto& [key, value] : headers) {
    if (iequals(key, name)) return std::string_view(value);
  }
  return std::nullopt;
}

}  // namespace

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (ascii_lower(a[i]) != ascii_lower(b[i])) return false;
  }
  return true;
}

std::optional<std::string> url_decode(std::string_view in) {
  std::string out;
  out.reserve(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    if (c == '%') {
      if (i + 2 >= in.size()) return std::nullopt;
      const int hi = hex_digit(in[i + 1]);
      const int lo = hex_digit(in[i + 2]);
      if (hi < 0 || lo < 0) return std::nullopt;
      out.push_back(static_cast<char>(hi << 4 | lo));
      i += 2;
    } else if (c == '+') {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::optional<std::string_view> Request::header(std::string_view name) const {
  return find_header(headers, name);
}

std::optional<std::string> Request::query_param(std::string_view key) const {
  std::string_view rest = query;
  while (!rest.empty()) {
    const std::size_t amp = rest.find('&');
    const std::string_view pair = rest.substr(0, amp);
    rest = (amp == std::string_view::npos) ? std::string_view{} : rest.substr(amp + 1);
    const std::size_t eq = pair.find('=');
    const std::string_view k = pair.substr(0, eq);
    if (k == key) {
      return url_decode(eq == std::string_view::npos ? std::string_view{} : pair.substr(eq + 1));
    }
  }
  return std::nullopt;
}

ParseResult RequestParser::parse_head(Request& out) {
  std::size_t skip = 0;
  const std::size_t head_end = find_head_end(buffer_, skip);
  if (head_end == std::string_view::npos) {
    if (buffer_.size() > limits_.max_head_bytes) return fail(ParseResult::head_too_large);
    return ParseResult::need_more;
  }
  if (head_end + skip > limits_.max_head_bytes) return fail(ParseResult::head_too_large);

  const std::vector<std::string_view> lines =
      split_lines(std::string_view(buffer_).substr(0, head_end));
  if (lines.empty()) return fail(ParseResult::bad_request);

  // Request line: METHOD SP target SP HTTP/1.x — single spaces, no tabs.
  const std::string_view request_line = lines[0];
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 = (sp1 == std::string_view::npos)
                              ? std::string_view::npos
                              : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      request_line.find(' ', sp2 + 1) != std::string_view::npos) {
    return fail(ParseResult::bad_request);
  }
  const std::string_view method = request_line.substr(0, sp1);
  const std::string_view target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view version = request_line.substr(sp2 + 1);
  if (method.empty() || !std::all_of(method.begin(), method.end(), is_token_char)) {
    return fail(ParseResult::bad_request);
  }
  if (target.empty() || (target.front() != '/' && target != "*")) {
    return fail(ParseResult::bad_request);
  }
  bool http11 = true;
  if (version == "HTTP/1.1") {
    http11 = true;
  } else if (version == "HTTP/1.0") {
    http11 = false;
  } else if (version.substr(0, 5) == "HTTP/") {
    return fail(ParseResult::unsupported);
  } else {
    return fail(ParseResult::bad_request);
  }

  Request req;
  req.method = std::string(method);
  req.target = std::string(target);
  req.http11 = http11;
  if (!parse_header_lines(lines, req.headers)) return fail(ParseResult::bad_request);

  // Split and decode the target.
  const std::size_t qmark = target.find('?');
  const std::string_view raw_path = target.substr(0, qmark);
  if (qmark != std::string_view::npos) req.query = std::string(target.substr(qmark + 1));
  std::optional<std::string> decoded =
      (raw_path == "*") ? std::optional<std::string>("*") : url_decode(raw_path);
  // '+' means a literal plus in the path component; url_decode's
  // query-style '+'-to-space does not apply. Re-encode the difference.
  if (!decoded) return fail(ParseResult::bad_request);
  if (raw_path.find('+') != std::string_view::npos) {
    decoded->clear();
    for (std::size_t i = 0; i < raw_path.size(); ++i) {
      if (raw_path[i] == '%') {
        const int hi = i + 2 < raw_path.size() ? hex_digit(raw_path[i + 1]) : -1;
        const int lo = i + 2 < raw_path.size() ? hex_digit(raw_path[i + 2]) : -1;
        if (hi < 0 || lo < 0) return fail(ParseResult::bad_request);
        decoded->push_back(static_cast<char>(hi << 4 | lo));
        i += 2;
      } else {
        decoded->push_back(raw_path[i]);
      }
    }
  }
  req.path = std::move(*decoded);

  // Keep-alive: HTTP/1.1 defaults on, 1.0 defaults off.
  req.keep_alive = http11;
  if (const auto connection = find_header(req.headers, "connection")) {
    if (iequals(*connection, "close")) req.keep_alive = false;
    if (iequals(*connection, "keep-alive")) req.keep_alive = true;
  }

  // Body framing. Chunked transfer encoding is parseable-but-unserved.
  if (find_header(req.headers, "transfer-encoding")) return fail(ParseResult::unsupported);
  std::size_t content_length = 0;
  if (const auto cl = find_header(req.headers, "content-length")) {
    const auto parsed = parse_u64(trim_ows(*cl));
    if (!parsed) return fail(ParseResult::bad_request);
    if (*parsed > limits_.max_body_bytes) return fail(ParseResult::body_too_large);
    content_length = static_cast<std::size_t>(*parsed);
  }

  buffer_.erase(0, head_end + skip);
  if (content_length == 0) {
    out = std::move(req);
    return ParseResult::request;
  }
  pending_ = std::move(req);
  in_body_ = true;
  body_remaining_ = content_length;
  return ParseResult::need_more;  // caller loops; body may already be buffered
}

ParseResult RequestParser::next(Request& out) {
  if (error_) return *error_;
  for (;;) {
    if (in_body_) {
      if (buffer_.size() < body_remaining_) return ParseResult::need_more;
      pending_.body.assign(buffer_, 0, body_remaining_);
      buffer_.erase(0, body_remaining_);
      in_body_ = false;
      body_remaining_ = 0;
      out = std::move(pending_);
      pending_ = Request{};
      return ParseResult::request;
    }
    if (buffer_.empty()) return ParseResult::need_more;
    const ParseResult r = parse_head(out);
    if (r == ParseResult::request || parse_failed(r)) return r;
    if (!in_body_) return ParseResult::need_more;  // head incomplete
    // Head consumed, body pending: loop to try completing it now.
  }
}

void RequestParser::reset() {
  buffer_.clear();
  error_.reset();
  in_body_ = false;
  body_remaining_ = 0;
  pending_ = Request{};
}

const char* status_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

std::string Response::serialize() const {
  std::string out;
  out.reserve(128 + body.size());
  out += "HTTP/1.1 ";
  out += std::to_string(status);
  out += ' ';
  out += status_reason(status);
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: ";
  out += keep_alive ? "keep-alive" : "close";
  out += "\r\n";
  for (const auto& [name, value] : extra_headers) {
    out += name;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  out += "\r\n";
  out += body;
  return out;
}

Response json_response(int status, std::string body, bool keep_alive) {
  Response r;
  r.status = status;
  r.content_type = "application/json";
  r.body = std::move(body);
  r.keep_alive = keep_alive;
  return r;
}

Response text_response(int status, std::string body, bool keep_alive) {
  Response r;
  r.status = status;
  r.content_type = "text/plain; charset=utf-8";
  r.body = std::move(body);
  r.keep_alive = keep_alive;
  return r;
}

Response error_response(int status, std::string_view code, std::string_view detail,
                        bool keep_alive) {
  std::string body = "{\"error\":\"";
  body += code;
  body += "\",\"detail\":\"";
  body += obs::json_escape(detail);
  body += "\"}";
  return json_response(status, std::move(body), keep_alive);
}

std::optional<std::string_view> ParsedResponse::header(std::string_view name) const {
  return find_header(headers, name);
}

ParseResult ResponseParser::next(ParsedResponse& out) {
  for (;;) {
    if (in_body_) {
      if (buffer_.size() < body_remaining_) return ParseResult::need_more;
      pending_.body.assign(buffer_, 0, body_remaining_);
      buffer_.erase(0, body_remaining_);
      in_body_ = false;
      body_remaining_ = 0;
      out = std::move(pending_);
      pending_ = ParsedResponse{};
      return ParseResult::request;
    }
    std::size_t skip = 0;
    const std::size_t head_end = find_head_end(buffer_, skip);
    if (head_end == std::string_view::npos) return ParseResult::need_more;

    const std::vector<std::string_view> lines =
        split_lines(std::string_view(buffer_).substr(0, head_end));
    if (lines.empty()) return ParseResult::bad_request;
    const std::string_view status_line = lines[0];
    if (status_line.substr(0, 5) != "HTTP/") return ParseResult::bad_request;
    const std::size_t sp1 = status_line.find(' ');
    if (sp1 == std::string_view::npos || sp1 + 4 > status_line.size()) {
      return ParseResult::bad_request;
    }
    const auto code = parse_u64(status_line.substr(sp1 + 1, 3));
    if (!code || *code < 100 || *code > 599) return ParseResult::bad_request;

    ParsedResponse resp;
    resp.status = static_cast<int>(*code);
    if (!parse_header_lines(lines, resp.headers)) return ParseResult::bad_request;

    std::size_t content_length = 0;
    if (const auto cl = resp.header("content-length")) {
      const auto parsed = parse_u64(trim_ows(*cl));
      if (!parsed) return ParseResult::bad_request;
      content_length = static_cast<std::size_t>(*parsed);
    }
    buffer_.erase(0, head_end + skip);
    if (content_length == 0) {
      out = std::move(resp);
      return ParseResult::request;
    }
    pending_ = std::move(resp);
    in_body_ = true;
    body_remaining_ = content_length;
  }
}

void ResponseParser::reset() {
  buffer_.clear();
  in_body_ = false;
  body_remaining_ = 0;
  pending_ = ParsedResponse{};
}

}  // namespace ctwatch::httpd
