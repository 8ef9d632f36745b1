// ctwatch::httpd — a minimal JSON value model for the RFC 6962 bodies.
//
// The CT API's JSON is small and regular: objects of strings, numbers,
// and arrays of strings (add-chain's {"chain":[b64...]}, the SCT and
// proof replies). This is a strict recursive-descent parser over that
// grammar — full escape handling, depth-capped, rejecting trailing
// garbage — plus an escaping writer. It exists so the edge never parses
// hostile bytes with ad-hoc string surgery, and so tests/bench can read
// server replies back without a dependency.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ctwatch::httpd::json {

class Value;
using Array = std::vector<Value>;
/// Ordered map: rendering is deterministic, lookups are by key.
using Object = std::map<std::string, Value, std::less<>>;

class Value {
 public:
  enum class Kind : std::uint8_t { null, boolean, number, string, array, object };

  Value() = default;
  Value(std::nullptr_t) {}
  Value(bool b) : kind_(Kind::boolean), bool_(b) {}
  Value(double d) : kind_(Kind::number), num_(d) {}
  Value(std::int64_t i) : kind_(Kind::number), num_(static_cast<double>(i)) {}
  Value(std::uint64_t u) : kind_(Kind::number), num_(static_cast<double>(u)) {}
  Value(std::string s) : kind_(Kind::string), str_(std::move(s)) {}
  Value(const char* s) : kind_(Kind::string), str_(s) {}
  Value(Array a) : kind_(Kind::array), arr_(std::make_shared<Array>(std::move(a))) {}
  Value(Object o) : kind_(Kind::object), obj_(std::make_shared<Object>(std::move(o))) {}

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::null; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::string; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::number; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::array; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::object; }

  [[nodiscard]] bool as_bool() const { return bool_; }
  [[nodiscard]] double as_number() const { return num_; }
  [[nodiscard]] const std::string& as_string() const { return str_; }
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* get(std::string_view key) const;
  /// get(key) if it is a string.
  [[nodiscard]] std::optional<std::string_view> get_string(std::string_view key) const;
  /// get(key) if it is a number representable as u64 (rejects negatives
  /// and fractions).
  [[nodiscard]] std::optional<std::uint64_t> get_u64(std::string_view key) const;

  /// Renders with full string escaping. Numbers that are integral render
  /// without a decimal point (the CT API's numbers all are).
  [[nodiscard]] std::string dump() const;

 private:
  Kind kind_ = Kind::null;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::shared_ptr<Array> arr_;
  std::shared_ptr<Object> obj_;
};

/// Strict parse of a complete JSON document (trailing garbage rejected,
/// nesting depth capped). nullopt on any malformation.
[[nodiscard]] std::optional<Value> parse(std::string_view text);

}  // namespace ctwatch::httpd::json
