#include "ctwatch/obs/log.hpp"

#include <cstdio>
#include <cstdlib>

namespace ctwatch::obs {

const char* to_string(LogLevel level) {
  switch (level) {
    case LogLevel::trace: return "trace";
    case LogLevel::debug: return "debug";
    case LogLevel::info: return "info";
    case LogLevel::warn: return "warn";
    case LogLevel::error: return "error";
    case LogLevel::off: return "off";
  }
  return "off";
}

LogLevel parse_log_level(std::string_view text) {
  if (text == "trace") return LogLevel::trace;
  if (text == "debug") return LogLevel::debug;
  if (text == "info") return LogLevel::info;
  if (text == "warn" || text == "warning") return LogLevel::warn;
  if (text == "error") return LogLevel::error;
  return LogLevel::off;
}

std::string Field::format_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

Logger::Logger() {
  if (const char* env = std::getenv("CTWATCH_LOG"); env != nullptr) {
    set_level(parse_log_level(env));
  }
}

Logger& Logger::global() {
  static Logger logger;
  return logger;
}

void Logger::set_sink(std::function<void(const std::string&)> sink) {
  std::lock_guard lock(mu_);
  sink_ = std::move(sink);
}

void Logger::set_rate_limit(std::uint64_t n) {
  rate_limit_.store(n, std::memory_order_relaxed);
}

void Logger::log(LogLevel level, std::string_view component, std::string_view message,
                 std::initializer_list<Field> fields) {
  if (!enabled(level)) return;

  std::string line;
  line.reserve(64 + component.size() + message.size());
  line += "level=";
  line += to_string(level);
  line += " component=";
  line += component;
  line += " msg=\"";
  line += message;
  line += "\"";
  for (const Field& field : fields) {
    line += " ";
    line += field.key;
    line += "=";
    if (field.quoted) {
      line += "\"";
      line += field.value;
      line += "\"";
    } else {
      line += field.value;
    }
  }

  std::lock_guard lock(mu_);
  if (const std::uint64_t limit = rate_limit_.load(std::memory_order_relaxed); limit > 0) {
    std::string key;
    key.reserve(component.size() + message.size() + 1);
    key += component;
    key += '/';
    key += message;
    if (++per_key_emits_[key] > limit) {
      suppressed_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  emitted_.fetch_add(1, std::memory_order_relaxed);
  if (sink_) {
    sink_(line);
  } else {
    std::fprintf(stderr, "%s\n", line.c_str());
  }
}

void Logger::reset_counters() {
  std::lock_guard lock(mu_);
  emitted_.store(0, std::memory_order_relaxed);
  suppressed_.store(0, std::memory_order_relaxed);
  per_key_emits_.clear();
}

}  // namespace ctwatch::obs
