// ctwatch::obs — structured logger.
//
// level + component + message + key=value fields, rendered as one logfmt
// line. Off by default so test and bench stdout stays clean; enable with
// Logger::global().set_level(...) or the CTWATCH_LOG environment variable
// (trace|debug|info|warn|error). A per-(component,message) rate limit
// keeps per-event diagnostics from flooding when enabled.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>

namespace ctwatch::obs {

enum class LogLevel : int { trace = 0, debug = 1, info = 2, warn = 3, error = 4, off = 5 };

[[nodiscard]] const char* to_string(LogLevel level);
/// "debug" -> LogLevel::debug; unknown text -> LogLevel::off.
[[nodiscard]] LogLevel parse_log_level(std::string_view text);

/// One key=value pair. String values are quoted on render; numeric and
/// boolean values are not.
struct Field {
  std::string key;
  std::string value;
  bool quoted = true;

  Field(std::string_view k, std::string_view v) : key(k), value(v) {}
  Field(std::string_view k, const char* v) : key(k), value(v) {}
  Field(std::string_view k, const std::string& v) : key(k), value(v) {}
  Field(std::string_view k, bool v) : key(k), value(v ? "true" : "false"), quoted(false) {}
  Field(std::string_view k, double v) : key(k), value(format_double(v)), quoted(false) {}
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  Field(std::string_view k, T v) : key(k), value(std::to_string(v)), quoted(false) {}

 private:
  static std::string format_double(double v);
};

class Logger {
 public:
  static Logger& global();

  void set_level(LogLevel level) { level_.store(static_cast<int>(level), std::memory_order_relaxed); }
  [[nodiscard]] LogLevel level() const {
    return static_cast<LogLevel>(level_.load(std::memory_order_relaxed));
  }
  [[nodiscard]] bool enabled(LogLevel level) const {
    const int configured = level_.load(std::memory_order_relaxed);
    return configured != static_cast<int>(LogLevel::off) && static_cast<int>(level) >= configured;
  }

  /// Replaces the output sink (default: one line to stderr). Pass nullptr
  /// to restore the default.
  void set_sink(std::function<void(const std::string&)> sink);
  /// At most `n` emitted records per (component, message) key; further
  /// records are counted as suppressed. 0 = unlimited (the default).
  void set_rate_limit(std::uint64_t n);

  void log(LogLevel level, std::string_view component, std::string_view message,
           std::initializer_list<Field> fields = {});

  [[nodiscard]] std::uint64_t emitted() const { return emitted_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t suppressed() const {
    return suppressed_.load(std::memory_order_relaxed);
  }
  /// Resets counters and rate-limit bookkeeping (tests).
  void reset_counters();

 private:
  Logger();  // reads CTWATCH_LOG

  std::atomic<int> level_{static_cast<int>(LogLevel::off)};
  std::atomic<std::uint64_t> rate_limit_{0};
  std::atomic<std::uint64_t> emitted_{0};
  std::atomic<std::uint64_t> suppressed_{0};
  std::mutex mu_;
  std::function<void(const std::string&)> sink_;
  std::unordered_map<std::string, std::uint64_t> per_key_emits_;
};

inline void log_trace(std::string_view component, std::string_view message,
                      std::initializer_list<Field> fields = {}) {
  Logger::global().log(LogLevel::trace, component, message, fields);
}
inline void log_debug(std::string_view component, std::string_view message,
                      std::initializer_list<Field> fields = {}) {
  Logger::global().log(LogLevel::debug, component, message, fields);
}
inline void log_info(std::string_view component, std::string_view message,
                     std::initializer_list<Field> fields = {}) {
  Logger::global().log(LogLevel::info, component, message, fields);
}
inline void log_warn(std::string_view component, std::string_view message,
                     std::initializer_list<Field> fields = {}) {
  Logger::global().log(LogLevel::warn, component, message, fields);
}
inline void log_error(std::string_view component, std::string_view message,
                      std::initializer_list<Field> fields = {}) {
  Logger::global().log(LogLevel::error, component, message, fields);
}

}  // namespace ctwatch::obs
