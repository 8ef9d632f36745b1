// ctbench workloads. Each runs one timed window against ctwatch's public
// APIs and reports the end-to-end metrics every workload shares:
//
//   setup_s            time until the timed window opens (median of repeats)
//   peak_rss_mb        VmHWM of the process
//   p50_ms, tail_ms    latency of the workload's operation (tail: see tail_of)
//   throughput_per_s   operations completed per second
//
// The operation is an add-chain (ct_submit), a read request (ct_monitor)
// or one whole research job (paper_pipeline); README.md maps each metric
// to what it means per workload.
#pragma once

#include <memory>
#include <string>

#include "common.hpp"

namespace ctbench {

// ct_submit
/// Phase A add-chains per second: about 30% of the seed's saturation, so a
/// host that runs 1.5x slower still leaves the sequencer headroom and the
/// latency stays service time rather than queueing.
constexpr double kSubmitOfferedRate = 250;
constexpr double kPhaseAShare = 0.6;            ///< share of the window that is phase A
constexpr unsigned kSubmitWindow = 32;          ///< phase B outstanding per connection
constexpr double kLatenessBoundMs = 20;         ///< phase A generator lateness p99 bound
constexpr const char* kSubmitLogName = "ctbench submit log";

// ct_monitor
constexpr std::uint64_t kMonitorLeaves = 100003;
constexpr std::uint64_t kMonitorBatch = 1000;
constexpr std::uint64_t kEntriesWindow = 32;
constexpr std::size_t kTileCacheBytes = std::size_t{1} << 20;
/// Closed-loop connections (and server event loops). Each one keeps about
/// a core busy with O(n) proofs, so two leave the cheap reads and the host
/// free cores instead of measuring the scheduler.
constexpr unsigned kMonitorConnections = 2;
constexpr const char* kMonitorLogName = "ctbench monitor log";

/// RFC 6962 MerkleTreeLeaf of an x509_entry, serialized independently of
/// ct::merkle_leaf_bytes.
Bytes ref_x509_leaf_input(std::uint64_t timestamp_ms, BytesView der);

/// The monitor's log contents, generated from the seed: certificate-shaped
/// DER bodies (signed with the cheap simulated scheme; nobody verifies
/// them), their timestamps, and the reference tree over their leaf hashes.
struct MonitorInputs {
  std::vector<Bytes> bodies;
  std::vector<std::uint64_t> timestamps_ms;
  std::unique_ptr<RefTree> ref;
};
MonitorInputs make_monitor_inputs(std::uint64_t seed, std::uint64_t count);

/// Writes the inputs into a fresh store at `dir` through
/// LogStore::commit_batch (kMonitorBatch entries per batch, ECDSA-signed
/// STHs over the reference roots, default checkpoint interval), then
/// crashes the store's process model so the last uncheckpointed batches
/// stay in the WAL. False (with `error`) on any refusal.
bool build_monitor_store(const MonitorInputs& inputs, const std::string& dir,
                         std::string& error);

Outcome run_ct_submit(const Args& args, double seconds, SpanRecorder& spans,
                      const std::string& scratch);
Outcome run_ct_monitor(const Args& args, double seconds, SpanRecorder& spans,
                       const std::string& scratch);
Outcome run_paper_pipeline(const Args& args, double seconds, SpanRecorder& spans);

/// The per-layer replay: times each named layer call in process on inputs
/// generated from the seed, recording one span per call, and adds the
/// per-layer metrics to `out`.
void run_layer_replay(const Args& args, SpanRecorder& spans, Outcome& out,
                      const std::string& scratch);

/// The end-to-end metric names every untraced run reports.
constexpr const char* kEndToEndMetrics[] = {"setup_s", "peak_rss_mb", "p50_ms", "tail_ms",
                                            "throughput_per_s"};

/// The traced run's result: the replay's layer metrics plus the tracing
/// overhead (traced p50 over untraced p50, as a percentage) and the span
/// count. The traced half's end-to-end numbers enter only as overhead
/// evidence; none of them is reported.
Outcome traced_result(const Outcome& untraced, const Outcome& traced, Outcome layers,
                      std::size_t span_count);

/// Golden digest of the paper artifacts for a seed, when one is recorded.
const char* golden_paper_digest(std::uint64_t seed);

}  // namespace ctbench
