// ctwatch::obs — umbrella header.
//
// Observability for the measurement pipeline itself: a metrics registry
// (counters / gauges / log-linear histograms), causal tracing spans with
// chrome://tracing export (cross-thread hand-offs as flow events), an
// always-on flight recorder, a structured logger, and a live HTTP
// exposition endpoint. Sits below util in the layering — it depends on
// nothing else in ctwatch, so every module may instrument itself freely.
//
// Environment knobs (all optional; silence is the default):
//   CTWATCH_LOG=trace|debug|info|warn|error   enable the logger
//   CTWATCH_TRACE=1                           enable span collection
//   CTWATCH_METRICS_JSON=path                 bench metrics snapshot path
//
// There is one build: obs is always compiled in, and these runtime
// switches (plus Tracer::set_enabled and FlightRecorder::set_enabled) are
// the only way to quiet it.
#pragma once

#include "ctwatch/obs/expo.hpp"
#include "ctwatch/obs/flight.hpp"
#include "ctwatch/obs/histogram.hpp"
#include "ctwatch/obs/log.hpp"
#include "ctwatch/obs/metrics.hpp"
#include "ctwatch/obs/snapshot.hpp"
#include "ctwatch/obs/trace.hpp"

namespace ctwatch::obs {

/// Registers the pipeline's headline metrics (ct.log.*, sim.timeline.*,
/// monitor.*, dns.resolver.*, enum.funnel.*) so that a snapshot taken
/// before the corresponding code path ran still carries them as zeros —
/// the BENCH_*.json trajectory wants a stable key set.
void preregister_pipeline_metrics();

}  // namespace ctwatch::obs
