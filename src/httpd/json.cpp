#include "ctwatch/httpd/json.hpp"

#include "ctwatch/obs/metrics.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace ctwatch::httpd::json {

namespace {

constexpr int kMaxDepth = 32;

struct Parser {
  std::string_view text;
  std::size_t pos = 0;

  [[nodiscard]] bool done() const { return pos >= text.size(); }
  [[nodiscard]] char peek() const { return text[pos]; }

  void skip_ws() {
    while (!done()) {
      const char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos;
    }
  }

  bool consume(char c) {
    if (done() || peek() != c) return false;
    ++pos;
    return true;
  }

  bool consume_literal(std::string_view lit) {
    if (text.substr(pos, lit.size()) != lit) return false;
    pos += lit.size();
    return true;
  }

  std::optional<std::string> parse_string_raw() {
    if (!consume('"')) return std::nullopt;
    std::string out;
    while (!done()) {
      const char c = text[pos++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) return std::nullopt;  // raw control char
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (done()) return std::nullopt;
      const char esc = text[pos++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos + 4 > text.size()) return std::nullopt;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return std::nullopt;
          }
          // UTF-8 encode the BMP code point; surrogate pairs are rejected
          // (the CT API never emits non-BMP text).
          if (code >= 0xD800 && code <= 0xDFFF) return std::nullopt;
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return std::nullopt;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<Value> parse_number() {
    const std::size_t start = pos;
    if (consume('-')) {
    }
    if (done() || peek() < '0' || peek() > '9') return std::nullopt;
    if (peek() == '0') {
      ++pos;
    } else {
      while (!done() && peek() >= '0' && peek() <= '9') ++pos;
    }
    if (!done() && peek() == '.') {
      ++pos;
      if (done() || peek() < '0' || peek() > '9') return std::nullopt;
      while (!done() && peek() >= '0' && peek() <= '9') ++pos;
    }
    if (!done() && (peek() == 'e' || peek() == 'E')) {
      ++pos;
      if (!done() && (peek() == '+' || peek() == '-')) ++pos;
      if (done() || peek() < '0' || peek() > '9') return std::nullopt;
      while (!done() && peek() >= '0' && peek() <= '9') ++pos;
    }
    const std::string token(text.substr(start, pos - start));
    return Value(std::strtod(token.c_str(), nullptr));
  }

  std::optional<Value> parse_value(int depth) {
    if (depth > kMaxDepth) return std::nullopt;
    skip_ws();
    if (done()) return std::nullopt;
    const char c = peek();
    if (c == '"') {
      auto s = parse_string_raw();
      if (!s) return std::nullopt;
      return Value(std::move(*s));
    }
    if (c == '{') {
      ++pos;
      Object obj;
      skip_ws();
      if (consume('}')) return Value(std::move(obj));
      for (;;) {
        skip_ws();
        auto key = parse_string_raw();
        if (!key) return std::nullopt;
        skip_ws();
        if (!consume(':')) return std::nullopt;
        auto val = parse_value(depth + 1);
        if (!val) return std::nullopt;
        obj.insert_or_assign(std::move(*key), std::move(*val));
        skip_ws();
        if (consume(',')) continue;
        if (consume('}')) return Value(std::move(obj));
        return std::nullopt;
      }
    }
    if (c == '[') {
      ++pos;
      Array arr;
      skip_ws();
      if (consume(']')) return Value(std::move(arr));
      for (;;) {
        auto val = parse_value(depth + 1);
        if (!val) return std::nullopt;
        arr.push_back(std::move(*val));
        skip_ws();
        if (consume(',')) continue;
        if (consume(']')) return Value(std::move(arr));
        return std::nullopt;
      }
    }
    if (consume_literal("true")) return Value(true);
    if (consume_literal("false")) return Value(false);
    if (consume_literal("null")) return Value(nullptr);
    return parse_number();
  }
};

void dump_into(const Value& v, std::string& out);

void dump_string(std::string_view s, std::string& out) {
  out.push_back('"');
  out += obs::json_escape(s);
  out.push_back('"');
}

void dump_into(const Value& v, std::string& out) {
  switch (v.kind()) {
    case Value::Kind::null:
      out += "null";
      return;
    case Value::Kind::boolean:
      out += v.as_bool() ? "true" : "false";
      return;
    case Value::Kind::number: {
      const double d = v.as_number();
      if (std::nearbyint(d) == d && std::fabs(d) < 9.0e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(d));
        out += buf;
      } else {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", d);
        out += buf;
      }
      return;
    }
    case Value::Kind::string:
      dump_string(v.as_string(), out);
      return;
    case Value::Kind::array: {
      out.push_back('[');
      bool first = true;
      for (const Value& item : v.as_array()) {
        if (!first) out.push_back(',');
        first = false;
        dump_into(item, out);
      }
      out.push_back(']');
      return;
    }
    case Value::Kind::object: {
      out.push_back('{');
      bool first = true;
      for (const auto& [key, item] : v.as_object()) {
        if (!first) out.push_back(',');
        first = false;
        dump_string(key, out);
        out.push_back(':');
        dump_into(item, out);
      }
      out.push_back('}');
      return;
    }
  }
}

}  // namespace

const Array& Value::as_array() const {
  static const Array empty;
  return arr_ ? *arr_ : empty;
}

const Object& Value::as_object() const {
  static const Object empty;
  return obj_ ? *obj_ : empty;
}

const Value* Value::get(std::string_view key) const {
  if (!is_object()) return nullptr;
  const Object& obj = as_object();
  const auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

std::optional<std::string_view> Value::get_string(std::string_view key) const {
  const Value* v = get(key);
  if (v == nullptr || !v->is_string()) return std::nullopt;
  return std::string_view(v->as_string());
}

std::optional<std::uint64_t> Value::get_u64(std::string_view key) const {
  const Value* v = get(key);
  if (v == nullptr || !v->is_number()) return std::nullopt;
  const double d = v->as_number();
  if (d < 0 || std::nearbyint(d) != d || d > 9.0e15) return std::nullopt;
  return static_cast<std::uint64_t>(d);
}

std::string Value::dump() const {
  std::string out;
  dump_into(*this, out);
  return out;
}

std::optional<Value> parse(std::string_view text) {
  Parser parser{text};
  auto value = parser.parse_value(0);
  if (!value) return std::nullopt;
  parser.skip_ws();
  if (!parser.done()) return std::nullopt;  // trailing garbage
  return value;
}

}  // namespace ctwatch::httpd::json
