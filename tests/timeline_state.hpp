// The observable state a timeline run leaves in an ecosystem's logs, as
// plain values, so runs in different ecosystems (or at different thread
// counts) compare with one EXPECT_EQ.
#pragma once

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "ctwatch/sim/ecosystem.hpp"

namespace ctwatch::sim {

struct LogState {
  std::string name;
  std::uint64_t tree_size = 0;
  crypto::Digest root{};
  std::uint64_t overload_rejections = 0;
  /// Per entry: (timestamp_ms, issuer_cn, fingerprint).
  std::vector<std::tuple<std::uint64_t, std::string, crypto::Digest>> entries;

  friend bool operator==(const LogState&, const LogState&) = default;
};

inline std::vector<LogState> log_states(Ecosystem& ecosystem) {
  std::vector<LogState> states;
  for (const ct::CtLog* log : ecosystem.all_logs()) {
    LogState state;
    state.name = log->name();
    state.tree_size = log->tree_size();
    state.root = log->get_sth(SimTime{}).root_hash;
    state.overload_rejections = log->overload_rejections();
    for (const ct::LogEntry& entry : log->entries()) {
      state.entries.emplace_back(entry.timestamp_ms, entry.issuer_cn, entry.fingerprint);
    }
    states.push_back(std::move(state));
  }
  return states;
}

}  // namespace ctwatch::sim
