#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ctwatch/logsvc/logsvc.hpp"
#include "ctwatch/obs/obs.hpp"

namespace ctwatch::obs {
namespace {

// ---------- counters / gauges ----------

TEST(ObsMetricsTest, CounterSemantics) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsMetricsTest, GaugeSemantics) {
  Gauge g;
  g.set(7);
  EXPECT_EQ(g.value(), 7);
  g.add(-10);
  EXPECT_EQ(g.value(), -3);
  g.set(100);
  EXPECT_EQ(g.value(), 100);
}

TEST(ObsMetricsTest, RegistryReturnsStableHandles) {
  Registry& registry = Registry::global();
  Counter& a = registry.counter("obs_test.stable");
  Counter& b = registry.counter("obs_test.stable");
  EXPECT_EQ(&a, &b);
  a.reset();
  a.inc(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(ObsMetricsTest, ConcurrentIncrementsSumExactly) {
  Counter c;
  LogLinearHistogram h;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &h] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c.inc();
        h.observe(8.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(h.sum(), 8.0 * kThreads * kPerThread);
}

TEST(ObsMetricsTest, RenderJsonShape) {
  Registry& registry = Registry::global();
  registry.counter("obs_test.json_counter").reset();
  registry.counter("obs_test.json_counter").inc(5);
  registry.latency("obs_test.json_hist").observe(1.5);
  const std::string json = registry.render_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.json_counter\":5"), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.json_hist\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(ObsMetricsTest, PreregisterPipelineMetricsCreatesHeadlineKeys) {
  preregister_pipeline_metrics();
  const std::string json = Registry::global().render_json();
  for (const char* key :
       {"ct.log.submissions", "ct.log.overload_rejections", "monitor.sct.cert",
        "monitor.sct.tls", "monitor.sct.ocsp", "sim.timeline.issued",
        "ct.log.merkle_integrate_us"}) {
    EXPECT_NE(json.find(std::string("\"") + key + "\""), std::string::npos) << key;
  }
}

// ---------- spans ----------

TEST(ObsTraceTest, SpanNestingAndExportShape) {
  Tracer& tracer = Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  {
    Span outer("obs_test.outer");
    {
      Span inner("obs_test.inner");
    }
  }
  tracer.set_enabled(false);
  const std::vector<SpanRecord> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  // Inner finishes first; its parent must be the outer span's id.
  const SpanRecord& inner = spans[0];
  const SpanRecord& outer = spans[1];
  EXPECT_EQ(inner.name, "obs_test.inner");
  EXPECT_EQ(outer.name, "obs_test.outer");
  EXPECT_EQ(inner.parent_id, outer.id);
  EXPECT_EQ(outer.parent_id, 0u);
  EXPECT_GE(inner.start_us, outer.start_us);

  const std::string json = tracer.chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);

  const std::string table = tracer.aggregate_table();
  EXPECT_NE(table.find("obs_test.outer"), std::string::npos);
  tracer.clear();
}

TEST(ObsTraceTest, DisabledTracerRecordsNothing) {
  Tracer& tracer = Tracer::global();
  tracer.clear();
  tracer.set_enabled(false);
  {
    CTWATCH_SPAN("obs_test.should_not_appear");
  }
  EXPECT_TRUE(tracer.spans().empty());
}

// ---------- logger ----------

TEST(ObsLogTest, LevelFiltering) {
  Logger& logger = Logger::global();
  std::vector<std::string> lines;
  logger.set_sink([&lines](const std::string& line) { lines.push_back(line); });
  logger.reset_counters();

  logger.set_level(LogLevel::warn);
  log_debug("obs_test", "hidden");
  log_info("obs_test", "hidden too");
  log_warn("obs_test", "visible", {{"k", "v"}, {"n", 42}});
  log_error("obs_test", "also visible");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("level=warn"), std::string::npos);
  EXPECT_NE(lines[0].find("component=obs_test"), std::string::npos);
  EXPECT_NE(lines[0].find("msg=\"visible\""), std::string::npos);
  EXPECT_NE(lines[0].find("k=\"v\""), std::string::npos);
  EXPECT_NE(lines[0].find("n=42"), std::string::npos);

  lines.clear();
  logger.set_level(LogLevel::off);
  log_error("obs_test", "silent");
  EXPECT_TRUE(lines.empty());

  logger.set_sink(nullptr);
}

TEST(ObsLogTest, RateLimitSuppressesRepeats) {
  Logger& logger = Logger::global();
  std::vector<std::string> lines;
  logger.set_sink([&lines](const std::string& line) { lines.push_back(line); });
  logger.reset_counters();
  logger.set_level(LogLevel::info);
  logger.set_rate_limit(3);

  for (int i = 0; i < 10; ++i) log_info("obs_test", "repeated event");
  EXPECT_EQ(lines.size(), 3u);
  EXPECT_EQ(logger.emitted(), 3u);
  EXPECT_EQ(logger.suppressed(), 7u);

  logger.set_rate_limit(0);
  logger.set_level(LogLevel::off);
  logger.set_sink(nullptr);
}

// ---------- log-linear histogram ----------

TEST(ObsLogLinearTest, IndexAndBoundsInvariants) {
  using H = LogLinearHistogram;
  // Sub-unit, negative, and NaN all land in the underflow bucket.
  EXPECT_EQ(H::index_of(0.0), 0u);
  EXPECT_EQ(H::index_of(0.99), 0u);
  EXPECT_EQ(H::index_of(-5.0), 0u);
  EXPECT_EQ(H::index_of(std::nan("")), 0u);
  // Beyond the top octave clamps into the last bucket.
  EXPECT_EQ(H::index_of(1e30), H::kBucketCount - 1);
  // In range, every value sits inside its bucket's [lower, upper).
  for (double v : {1.0, 1.5, 2.0, 3.1, 64.0, 1000.5, 123456.0, 9.9e8}) {
    const std::size_t index = H::index_of(v);
    EXPECT_GE(v, H::bucket_lower(index)) << v;
    EXPECT_LT(v, H::bucket_upper(index)) << v;
  }
  // Bucket edges tile the range with no gaps.
  for (std::size_t i = 1; i + 1 < H::kBucketCount; ++i) {
    EXPECT_DOUBLE_EQ(H::bucket_upper(i), H::bucket_lower(i + 1)) << i;
  }
}

TEST(ObsLogLinearTest, QuantileRelativeErrorBounded) {
  LogLinearHistogram h;
  std::vector<double> values;
  // Deterministic multiplicative walk covering ~6 decades.
  double v = 1.0;
  for (int i = 0; i < 20000; ++i) {
    values.push_back(v);
    h.observe(v);
    v *= 1.0007;
    if (v > 1e6) v = 1.0 + static_cast<double>(i % 97) / 97.0;
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.01, 0.25, 0.5, 0.9, 0.99}) {
    const double truth =
        values[static_cast<std::size_t>(q * static_cast<double>(values.size() - 1))];
    const double reported = h.quantile(q);
    // Midpoint reporting bounds the error at half a sub-bucket; rank
    // discretization can shift one bucket more. 2/kSubBuckets covers both.
    EXPECT_NEAR(reported, truth, truth * (2.0 / LogLinearHistogram::kSubBuckets) + 1e-9)
        << "q=" << q;
  }
  // Edges: q=0 reports the lowest occupied bucket, q=1 the highest, and
  // out-of-range q clamps.
  EXPECT_NEAR(h.quantile(0.0), values.front(), values.front() * 0.05 + 0.1);
  EXPECT_NEAR(h.quantile(1.0), values.back(), values.back() * 0.05);
  EXPECT_DOUBLE_EQ(h.quantile(-3.0), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(7.0), h.quantile(1.0));
  EXPECT_DOUBLE_EQ(h.quantile(std::nan("")), h.quantile(0.0));
  LogLinearHistogram empty;
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
}

TEST(ObsLogLinearTest, MergeIsOrderIndependent) {
  // Integer-valued observations keep the double sums exact, so merge
  // order must reproduce identical state bit for bit.
  LogLinearHistogram a;
  LogLinearHistogram b;
  LogLinearHistogram c;
  for (int i = 1; i <= 500; ++i) a.observe(static_cast<double>(i));
  for (int i = 1; i <= 300; ++i) b.observe(static_cast<double>(i * 7));
  for (int i = 1; i <= 200; ++i) c.observe(static_cast<double>(i * 131));

  LogLinearHistogram abc;
  abc.merge_from(a);
  abc.merge_from(b);
  abc.merge_from(c);
  LogLinearHistogram cba;
  cba.merge_from(c);
  cba.merge_from(b);
  cba.merge_from(a);

  EXPECT_EQ(abc.count(), 1000u);
  EXPECT_EQ(abc.count(), cba.count());
  EXPECT_DOUBLE_EQ(abc.sum(), cba.sum());
  for (std::size_t i = 0; i < LogLinearHistogram::kBucketCount; ++i) {
    ASSERT_EQ(abc.bucket_count_at(i), cba.bucket_count_at(i)) << i;
  }
  EXPECT_DOUBLE_EQ(abc.quantile(0.5), cba.quantile(0.5));
  EXPECT_DOUBLE_EQ(abc.quantile(0.99), cba.quantile(0.99));
}

TEST(ObsLogLinearTest, PerThreadRecordersCollapseDeterministically) {
  // The sharded-use pattern: each thread records into its own histogram,
  // the shards merge afterwards. The collapse must not depend on how the
  // threads interleaved.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25000;
  std::vector<std::unique_ptr<LogLinearHistogram>> shards;
  for (int t = 0; t < kThreads; ++t) shards.push_back(std::make_unique<LogLinearHistogram>());
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &shards] {
      for (int i = 0; i < kPerThread; ++i) {
        shards[static_cast<std::size_t>(t)]->observe(static_cast<double>(1 + (i * 37) % 100000));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LogLinearHistogram merged;
  for (const auto& shard : shards) merged.merge_from(*shard);
  EXPECT_EQ(merged.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  // Every thread recorded the same value multiset, so the merged p50 must
  // equal a single shard's p50 exactly.
  EXPECT_DOUBLE_EQ(merged.quantile(0.5), shards[0]->quantile(0.5));
}

TEST(ObsLogLinearTest, ConcurrentObserveIsExact) {
  LogLinearHistogram h;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) h.observe(32.0);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  EXPECT_EQ(h.bucket_count_at(LogLinearHistogram::index_of(32.0)), kThreads * kPerThread);
  EXPECT_NEAR(h.quantile(0.5), 32.0, 32.0 / LogLinearHistogram::kSubBuckets);
}

// ---------- metric names / prometheus rendering ----------

TEST(ObsMetricsTest, MetricNameValidator) {
  EXPECT_TRUE(is_valid_metric_name("a"));
  EXPECT_TRUE(is_valid_metric_name("_private"));
  EXPECT_TRUE(is_valid_metric_name("par.tasks"));
  EXPECT_TRUE(is_valid_metric_name("logsvc.queue_wait_us"));
  EXPECT_TRUE(is_valid_metric_name("x9.y_2"));
  EXPECT_FALSE(is_valid_metric_name(""));
  EXPECT_FALSE(is_valid_metric_name("9x"));
  EXPECT_FALSE(is_valid_metric_name(".leading.dot"));
  EXPECT_FALSE(is_valid_metric_name("has-dash"));
  EXPECT_FALSE(is_valid_metric_name("has space"));
  EXPECT_FALSE(is_valid_metric_name("has/slash"));
}

TEST(ObsMetricsTest, RenderPrometheusShape) {
  Registry& registry = Registry::global();
  registry.counter("obs_test.prom.hits").reset();
  registry.counter("obs_test.prom.hits").inc(7);
  registry.gauge("obs_test.prom.depth").set(-3);
  LogLinearHistogram& lat = registry.latency("obs_test.prom.lat_us");
  lat.reset();
  for (int i = 0; i < 100; ++i) lat.observe(100.0);

  const std::string text = registry.render_prometheus();
  // Dots map to underscores under the ctwatch_ prefix, with TYPE lines.
  EXPECT_NE(text.find("# TYPE ctwatch_obs_test_prom_hits counter\n"
                      "ctwatch_obs_test_prom_hits 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ctwatch_obs_test_prom_depth gauge\n"
                      "ctwatch_obs_test_prom_depth -3\n"),
            std::string::npos);
  // Distributions render as summaries: quantile samples plus _sum/_count.
  EXPECT_NE(text.find("# TYPE ctwatch_obs_test_prom_lat_us summary"), std::string::npos);
  EXPECT_NE(text.find("ctwatch_obs_test_prom_lat_us{quantile=\"0.5\"} "), std::string::npos);
  EXPECT_NE(text.find("ctwatch_obs_test_prom_lat_us{quantile=\"0.99\"} "), std::string::npos);
  EXPECT_NE(text.find("ctwatch_obs_test_prom_lat_us_sum 10000\n"), std::string::npos);
  EXPECT_NE(text.find("ctwatch_obs_test_prom_lat_us_count 100\n"), std::string::npos);
}

TEST(ObsMetricsTest, LatencyHistogramsShareRenderedHistogramSection) {
  Registry& registry = Registry::global();
  registry.latency("obs_test.shared.lat_us").reset();
  registry.latency("obs_test.shared.lat_us").observe(42.0);
  const std::string json = registry.render_json();
  EXPECT_NE(json.find("\"obs_test.shared.lat_us\":{\"count\":1"), std::string::npos);
  const std::string text = registry.render_text();
  EXPECT_NE(text.find("obs_test.shared.lat_us count=1"), std::string::npos);

  // A pipeline series recorded by a running service renders exactly once
  // in each output: one JSON distribution, one Prometheus summary.
  {
    logsvc::Config config;
    config.name = "Obs Render Once";
    config.scheme = crypto::SignatureScheme::hmac_sha256_simulated;
    logsvc::LogService service(config);
    ct::SignedEntry entry;
    entry.type = ct::EntryType::x509_entry;
    entry.data = to_bytes("obs-render-once");
    std::promise<ct::SubmitStatus> sealed;
    ASSERT_EQ(service.submit(entry, crypto::Sha256::hash(entry.data), "Test CA",
                             SimTime::parse("2018-04-01"),
                             [&sealed](const ct::SubmitResult& outcome) {
                               sealed.set_value(outcome.status);
                             }),
              ct::SubmitStatus::ok);
    EXPECT_EQ(sealed.get_future().get(), ct::SubmitStatus::ok);
    service.stop();
  }
  EXPECT_GE(registry.latency("logsvc.batch_size").count(), 1u);
  const auto occurrences = [](const std::string& haystack, const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t at = haystack.find(needle); at != std::string::npos;
         at = haystack.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(occurrences(registry.render_json(), "\"logsvc.batch_size\":{\"count\":"), 1u);
  const std::string prom = registry.render_prometheus();
  EXPECT_EQ(occurrences(prom, "# TYPE ctwatch_logsvc_batch_size "), 1u);
  EXPECT_EQ(occurrences(prom, "# TYPE ctwatch_logsvc_batch_size summary\n"), 1u);
}

// ---------- causal tracing ----------

TEST(ObsTraceTest, ContextScopeLinksSpansAcrossThreeThreads) {
  Tracer& tracer = Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  {
    Span root("obs_test.ctx_root");
    const TraceContext root_ctx = root.context();
    EXPECT_TRUE(root_ctx.active());
    std::thread middle([root_ctx] {
      ContextScope link(root_ctx);
      Span mid("obs_test.ctx_mid");
      const TraceContext mid_ctx = mid.context();
      std::thread leaf_thread([mid_ctx] {
        ContextScope inner_link(mid_ctx);
        Span leaf("obs_test.ctx_leaf");
      });
      leaf_thread.join();
    });
    middle.join();
  }
  tracer.set_enabled(false);

  const std::vector<SpanRecord> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  const SpanRecord* root = nullptr;
  const SpanRecord* mid = nullptr;
  const SpanRecord* leaf = nullptr;
  for (const SpanRecord& span : spans) {
    if (span.name == "obs_test.ctx_root") root = &span;
    if (span.name == "obs_test.ctx_mid") mid = &span;
    if (span.name == "obs_test.ctx_leaf") leaf = &span;
  }
  ASSERT_TRUE(root != nullptr && mid != nullptr && leaf != nullptr);
  // One trace spanning three distinct threads, chained root -> mid -> leaf.
  EXPECT_NE(root->trace_id, 0u);
  EXPECT_EQ(mid->trace_id, root->trace_id);
  EXPECT_EQ(leaf->trace_id, root->trace_id);
  EXPECT_EQ(root->parent_id, 0u);
  EXPECT_EQ(mid->parent_id, root->id);
  EXPECT_EQ(leaf->parent_id, mid->id);
  EXPECT_NE(root->thread_id, mid->thread_id);
  EXPECT_NE(mid->thread_id, leaf->thread_id);

  // Both cross-thread edges surface as flow links, ordered by child id.
  const std::vector<FlowLink> links = flow_links(spans);
  ASSERT_EQ(links.size(), 2u);
  EXPECT_EQ(links[0].parent_id, root->id);
  EXPECT_EQ(links[0].child_id, mid->id);
  EXPECT_EQ(links[1].parent_id, mid->id);
  EXPECT_EQ(links[1].child_id, leaf->id);
  EXPECT_EQ(links[0].trace_id, root->trace_id);

  // And as chrome flow events ("s" on the parent slice, "f" bp=e on the
  // child) so chrome://tracing draws the hand-off arrows.
  const std::string json = tracer.chrome_trace_json();
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\",\"bp\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"ctwatch.flow\""), std::string::npos);
  tracer.clear();
}

TEST(ObsTraceTest, SameThreadNestingProducesNoFlowLinks) {
  Tracer& tracer = Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  {
    Span outer("obs_test.noflow_outer");
    Span inner("obs_test.noflow_inner");
  }
  tracer.set_enabled(false);
  EXPECT_TRUE(flow_links(tracer.spans()).empty());
  tracer.clear();
}

TEST(ObsTraceTest, RootSpansMintDistinctTraces) {
  Tracer& tracer = Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  {
    Span first("obs_test.trace_a");
  }
  {
    Span second("obs_test.trace_b");
  }
  tracer.set_enabled(false);
  const std::vector<SpanRecord> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_NE(spans[0].trace_id, 0u);
  EXPECT_NE(spans[1].trace_id, 0u);
  EXPECT_NE(spans[0].trace_id, spans[1].trace_id);
  // recent_spans returns the newest suffix.
  const std::vector<SpanRecord> recent = tracer.recent_spans(1);
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].name, "obs_test.trace_b");
  tracer.clear();
}

TEST(ObsTraceTest, InactiveContextLeavesThreadStateUntouched) {
  Tracer& tracer = Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  {
    Span outer("obs_test.inactive_outer");
    {
      // A default (inactive) context must not re-root the thread.
      ContextScope noop{TraceContext{}};
      Span inner("obs_test.inactive_inner");
    }
  }
  tracer.set_enabled(false);
  const std::vector<SpanRecord> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].parent_id, spans[1].id);  // inner still nests in outer
  EXPECT_EQ(spans[0].trace_id, spans[1].trace_id);
  tracer.clear();
}

// ---------- flight recorder ----------

TEST(ObsFlightTest, RecordsAndSnapshotsInSequenceOrder) {
  FlightRecorder& recorder = FlightRecorder::global();
  recorder.clear();
  recorder.record("obs_test.first", 1, 2);
  recorder.record("obs_test.second", 3);
  flight_note("obs_test.third");
  const std::vector<FlightEvent> events = recorder.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_STREQ(events[0].name, "obs_test.first");
  EXPECT_EQ(events[0].a, 1u);
  EXPECT_EQ(events[0].b, 2u);
  EXPECT_STREQ(events[1].name, "obs_test.second");
  EXPECT_EQ(events[1].a, 3u);
  EXPECT_STREQ(events[2].name, "obs_test.third");
  EXPECT_LT(events[0].seq, events[1].seq);
  EXPECT_LT(events[1].seq, events[2].seq);
  EXPECT_NE(events[0].thread_id, 0u);

  const std::string dump = recorder.dump_text();
  EXPECT_NE(dump.find("obs_test.first"), std::string::npos);
  EXPECT_NE(dump.find("a=1"), std::string::npos);
  recorder.clear();
  EXPECT_TRUE(recorder.snapshot().empty());
}

TEST(ObsFlightTest, RingRetainsNewestEvents) {
  FlightRecorder& recorder = FlightRecorder::global();
  recorder.clear();
  constexpr std::size_t kTotal = FlightRecorder::kRingSize + 50;
  for (std::size_t i = 0; i < kTotal; ++i) recorder.record("obs_test.wrap", i);
  const std::vector<FlightEvent> all = recorder.snapshot();
  ASSERT_EQ(all.size(), FlightRecorder::kRingSize);
  // The oldest 50 were overwritten; the newest event is i == kTotal-1.
  EXPECT_EQ(all.back().a, kTotal - 1);
  EXPECT_EQ(all.front().a, kTotal - FlightRecorder::kRingSize);
  // last_n trims from the old end.
  const std::vector<FlightEvent> tail = recorder.snapshot(10);
  ASSERT_EQ(tail.size(), 10u);
  EXPECT_EQ(tail.back().a, kTotal - 1);
  recorder.clear();
}

TEST(ObsFlightTest, PerThreadRingsMergeAcrossThreads) {
  FlightRecorder& recorder = FlightRecorder::global();
  recorder.clear();
  constexpr int kThreads = 3;
  constexpr std::size_t kEach = 20;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder] {
      for (std::size_t i = 0; i < kEach; ++i) recorder.record("obs_test.mt", i);
    });
  }
  for (std::thread& t : threads) t.join();
  const std::vector<FlightEvent> events = recorder.snapshot();
  // This thread's ring may hold leftovers=0; the three workers' rings hold
  // kEach each. Sequence order is total across threads.
  std::size_t ours = 0;
  for (const FlightEvent& event : events) {
    if (std::string_view(event.name) == "obs_test.mt") ++ours;
  }
  EXPECT_EQ(ours, kThreads * kEach);
  for (std::size_t i = 1; i < events.size(); ++i) EXPECT_LT(events[i - 1].seq, events[i].seq);
  recorder.clear();
}

TEST(ObsFlightTest, SnapshotRacingWritersSeesOnlyWholeEvents) {
  FlightRecorder& recorder = FlightRecorder::global();
  recorder.clear();
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&recorder, &stop] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        recorder.record("obs_test.race", i, i * 2);
        ++i;
      }
    });
  }
  for (int round = 0; round < 200; ++round) {
    for (const FlightEvent& event : recorder.snapshot()) {
      // A torn slot would violate the a/b invariant; the seqlock must
      // never let one through.
      ASSERT_EQ(event.b, event.a * 2);
      ASSERT_STREQ(event.name, "obs_test.race");
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : writers) t.join();
  recorder.clear();
}

TEST(ObsFlightTest, DisableDropsEventsWithoutClearing) {
  FlightRecorder& recorder = FlightRecorder::global();
  recorder.clear();
  recorder.record("obs_test.kept");
  recorder.set_enabled(false);
  recorder.record("obs_test.dropped");
  recorder.set_enabled(true);
  const std::vector<FlightEvent> events = recorder.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "obs_test.kept");
  recorder.clear();
}

// ---------- logger under concurrency ----------

TEST(ObsLogTest, ConcurrentEmittersDropExactlyAndNeverInterleave) {
  Logger& logger = Logger::global();
  std::mutex lines_mu;
  std::vector<std::string> lines;
  logger.set_sink([&lines_mu, &lines](const std::string& line) {
    std::lock_guard<std::mutex> lock(lines_mu);
    lines.push_back(line);
  });
  logger.reset_counters();
  logger.set_level(LogLevel::info);
  constexpr std::uint64_t kLimit = 100;
  logger.set_rate_limit(kLimit);

  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        log_info("obs_test.storm", "hammered", {{"thread", t}, {"i", i}});
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Exact accounting: every call either emitted or suppressed, the limit
  // is hit exactly, nothing double-counts under contention.
  EXPECT_EQ(logger.emitted(), kLimit);
  EXPECT_EQ(logger.suppressed(), kThreads * kPerThread - kLimit);
  ASSERT_EQ(lines.size(), kLimit);
  // Whole lines only: each carries exactly one msg= and its own fields —
  // interleaved writes would corrupt the logfmt shape.
  for (const std::string& line : lines) {
    EXPECT_NE(line.find("level=info"), std::string::npos);
    EXPECT_NE(line.find("component=obs_test.storm"), std::string::npos);
    EXPECT_EQ(line.find("msg=\"hammered\""), line.rfind("msg=\"hammered\""));
    EXPECT_NE(line.find("thread="), std::string::npos);
    EXPECT_EQ(line.find('\n'), std::string::npos);
  }

  logger.set_rate_limit(0);
  logger.set_level(LogLevel::off);
  logger.set_sink(nullptr);
}

}  // namespace
}  // namespace ctwatch::obs
