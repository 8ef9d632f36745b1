// Metrics snapshot helpers — the machine-readable end of the registry.
//
// Shared by the bench binaries and the integration tests: resolve where a
// snapshot should go (CTWATCH_METRICS_JSON, or a name derived from
// argv[0]) and write the full registry as one JSON object.
#pragma once

#include <string>

namespace ctwatch::obs {

/// Where dump_metrics_snapshot callers write by default: the
/// CTWATCH_METRICS_JSON environment variable when set and non-empty,
/// otherwise "<basename of argv0>.metrics.json" in the working directory.
std::string metrics_snapshot_path(const char* argv0);

/// Pre-registers the headline pipeline metrics (stable key set), then
/// writes the registry's JSON rendering to `path`, newline-terminated.
/// Returns false (with a note on stderr) when the file cannot be opened.
bool dump_metrics_snapshot(const std::string& path);

}  // namespace ctwatch::obs
