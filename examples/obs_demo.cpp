// Observability demo: run a small issuance timeline with metrics, spans
// and structured logging all enabled, print the metrics table and the
// per-span aggregate, and write a chrome://tracing-loadable trace file.
//
// Build & run:  ./build/examples/obs_demo
// Then open obs_demo.trace.json in chrome://tracing or https://ui.perfetto.dev
//
// With --serve PORT [--serve-seconds N] it also starts the live
// exposition endpoint after the workload and keeps it up, so
//
//   ./build/examples/obs_demo --serve 9464 &
//   curl http://127.0.0.1:9464/metrics
//
// scrapes the Prometheus rendering of everything the run recorded (CI
// uses exactly this as the /metrics smoke test). /vars serves the JSON
// view and /trace the recent spans.
//
// The same instrumentation is reachable without code through environment
// variables: CTWATCH_LOG=info enables the logger, CTWATCH_TRACE=1 the
// tracer, and bench binaries honour CTWATCH_METRICS_JSON for their
// snapshot path.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "ctwatch/core/log_evolution.hpp"
#include "ctwatch/obs/obs.hpp"
#include "ctwatch/sim/timeline.hpp"

using namespace ctwatch;

int main(int argc, char** argv) {
  int serve_port = -1;
  int serve_seconds = 30;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--serve") == 0 && i + 1 < argc) {
      serve_port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--serve-seconds") == 0 && i + 1 < argc) {
      serve_seconds = std::atoi(argv[++i]);
    }
  }

  // Switch everything on via the API (the default is silence). The flight
  // recorder is always on; the signal handler makes `kill -USR1 <pid>`
  // dump its recent events while the demo serves.
  obs::Logger::global().set_level(obs::LogLevel::info);
  obs::Logger::global().set_rate_limit(20);
  obs::Tracer::global().set_enabled(true);
  obs::FlightRecorder::install_signal_handler();
  obs::preregister_pipeline_metrics();
  obs::flight_note("obs_demo.start");

  // A small slice of the 2013-2018 timeline: enough to exercise the CA ->
  // log -> Merkle pipeline and light up the sim.timeline.* / ct.log.*
  // metrics without a long run.
  sim::EcosystemOptions options;
  options.scheme = crypto::SignatureScheme::hmac_sha256_simulated;
  options.verify_submissions = false;
  options.store_bodies = false;
  sim::Ecosystem ecosystem(options);

  sim::TimelineOptions timeline_options;
  timeline_options.start = "2018-03-01";
  timeline_options.end = "2018-03-15";
  timeline_options.scale = 1.0 / 20000.0;
  sim::TimelineSimulator simulator(ecosystem, timeline_options);
  const sim::TimelineStats stats = simulator.run();

  {
    CTWATCH_SPAN("obs_demo.analysis");
    core::LogEvolutionStudy study(ecosystem);
    const core::LogEvolutionReport report = study.run();
    std::printf("analysis: %zu months, top-5 CA share %.1f%%\n",
                report.months.size(), 100.0 * report.top5_share);
  }
  obs::flight_note("obs_demo.workload_done", stats.issued);

  std::printf("\n--- metrics registry ---\n%s",
              obs::Registry::global().render_text().c_str());
  std::printf("\n--- span aggregate ---\n%s",
              obs::Tracer::global().aggregate_table().c_str());

  const char* trace_path = "obs_demo.trace.json";
  if (obs::Tracer::global().write_chrome_trace(trace_path)) {
    std::printf("\nchrome trace written to %s (load it in chrome://tracing)\n", trace_path);
  } else {
    // The working directory is not writable.
    std::printf("\ncannot write %s\n", trace_path);
  }

  if (serve_port >= 0) {
    obs::ExpoServer::Options server_options;
    server_options.port = static_cast<std::uint16_t>(serve_port);
    obs::ExpoServer server(server_options);
    if (!server.start()) {
      std::fprintf(stderr, "failed to start exposition server on port %d\n", serve_port);
      return 1;
    }
    std::printf("\nserving http://127.0.0.1:%u/metrics (/vars, /trace) for %d s\n",
                server.port(), serve_seconds);
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::seconds(serve_seconds));
    std::printf("served %llu requests\n",
                static_cast<unsigned long long>(server.requests_served()));
    server.stop();
  }
  return stats.issued > 0 ? 0 : 1;
}
