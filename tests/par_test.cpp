// ctwatch::par unit tests: deque steal semantics, chunk-plan properties,
// fork/join execution (nesting, exceptions, reuse), and the sharded
// accumulator. The concurrency-heavy cases double as the TSAN surface for
// the pool (see the tsan CI job).
#include <algorithm>
#include <atomic>
#include <numeric>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ctwatch/dns/resolver.hpp"
#include "ctwatch/obs/obs.hpp"
#include "ctwatch/par/par.hpp"

namespace ctwatch::par {
namespace {

/// Restores the process-wide pool to its default resolution on scope
/// exit, so a test forcing a thread count cannot leak it.
struct GlobalThreadsGuard {
  ~GlobalThreadsGuard() { TaskPool::set_global_threads(0); }
};

// ---- WorkDeque ----

TEST(TaskPoolTest, DequeOwnerEndIsLifo) {
  detail::WorkDeque deque;
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) deque.push([&order, i] { order.push_back(i); });
  Task task;
  while (deque.pop(task)) task();
  EXPECT_EQ(order, (std::vector<int>{2, 1, 0}));
}

TEST(TaskPoolTest, DequeThiefEndIsFifo) {
  detail::WorkDeque deque;
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) deque.push([&order, i] { order.push_back(i); });
  Task task;
  while (deque.take_front(task)) task();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(TaskPoolTest, StealHalfTakesCeilHalfFromFrontInOrder) {
  detail::WorkDeque deque;
  std::vector<int> ran;
  for (int i = 0; i < 5; ++i) deque.push([&ran, i] { ran.push_back(i); });

  std::deque<Task> loot;
  EXPECT_EQ(deque.steal_half(loot), 3u);  // ceil(5/2)
  EXPECT_EQ(loot.size(), 3u);
  EXPECT_EQ(deque.size(), 2u);

  for (Task& task : loot) task();
  EXPECT_EQ(ran, (std::vector<int>{0, 1, 2}));  // oldest first, stolen in order

  Task task;
  while (deque.pop(task)) task();
  EXPECT_EQ(ran, (std::vector<int>{0, 1, 2, 4, 3}));  // owner keeps the newest
}

TEST(TaskPoolTest, StealHalfOnEmptyDequeTakesNothing) {
  detail::WorkDeque deque;
  std::deque<Task> loot;
  EXPECT_EQ(deque.steal_half(loot), 0u);
  EXPECT_TRUE(loot.empty());
}

// ---- ChunkPlan ----

TEST(ChunkPlanTest, ChunksPartitionTheRange) {
  for (const std::size_t n : {0u, 1u, 7u, 100u, 255u, 256u, 257u, 10000u}) {
    for (const std::size_t grain : {1u, 3u, 64u}) {
      const ChunkPlan plan = ChunkPlan::over(n, grain);
      std::size_t covered = 0;
      std::size_t expect_begin = 0;
      for (std::size_t c = 0; c < plan.chunks; ++c) {
        const IndexRange range = plan.chunk(c);
        EXPECT_EQ(range.begin, expect_begin);
        EXPECT_LE(range.begin, range.end);
        covered += range.size();
        expect_begin = range.end;
      }
      EXPECT_EQ(covered, n) << "n=" << n << " grain=" << grain;
      if (plan.chunks > 0) {
        EXPECT_EQ(plan.chunk(plan.chunks - 1).end, n);
      }
    }
  }
}

TEST(ChunkPlanTest, ChunkSizesDifferByAtMostOne) {
  const ChunkPlan plan = ChunkPlan::over(1003, 1, 64);
  ASSERT_EQ(plan.chunks, 64u);
  std::size_t min_size = ~0u, max_size = 0;
  for (std::size_t c = 0; c < plan.chunks; ++c) {
    const std::size_t s = plan.chunk(c).size();
    min_size = std::min(min_size, s);
    max_size = std::max(max_size, s);
  }
  EXPECT_LE(max_size - min_size, 1u);
}

TEST(ChunkPlanTest, GrainBoundsChunkCount) {
  EXPECT_EQ(ChunkPlan::over(100, 10).chunks, 10u);
  EXPECT_EQ(ChunkPlan::over(95, 10).chunks, 10u);  // ceil(95/10)
  EXPECT_EQ(ChunkPlan::over(5, 10).chunks, 1u);
  EXPECT_EQ(ChunkPlan::over(0, 10).chunks, 0u);
  // The cap wins over the grain.
  EXPECT_EQ(ChunkPlan::over(100000, 1, 256).chunks, 256u);
  // Degenerate inputs are normalized, not UB.
  EXPECT_EQ(ChunkPlan::over(10, 0).chunks, 10u);
  EXPECT_EQ(ChunkPlan::over(10, 1, 0).chunks, 1u);
}

TEST(ChunkPlanTest, PlanIsPureFunctionOfInputs) {
  // The decomposition must not depend on the execution environment: two
  // calls with the same inputs agree exactly, whatever the pool looks like.
  GlobalThreadsGuard guard;
  TaskPool::set_global_threads(1);
  const ChunkPlan serial = ChunkPlan::over(1234, 7);
  TaskPool::set_global_threads(4);
  const ChunkPlan parallel = ChunkPlan::over(1234, 7);
  ASSERT_EQ(serial.chunks, parallel.chunks);
  for (std::size_t c = 0; c < serial.chunks; ++c) {
    EXPECT_EQ(serial.chunk(c).begin, parallel.chunk(c).begin);
    EXPECT_EQ(serial.chunk(c).end, parallel.chunk(c).end);
  }
}

// ---- TaskPool / TaskGroup execution ----

TEST(TaskPoolTest, EveryTaskRunsExactlyOnce) {
  TaskPool pool(3);
  std::atomic<std::uint64_t> sum{0};
  TaskGroup group(&pool);
  for (int i = 1; i <= 1000; ++i) {
    group.run([&sum, i] { sum.fetch_add(i, std::memory_order_relaxed); });
  }
  group.wait();
  EXPECT_EQ(sum.load(), 1000u * 1001u / 2);
}

TEST(TaskPoolTest, SubmitPropagatesTraceContextToWorkers) {
  // With the tracer on, a span open at submit() time becomes the parent
  // of spans the task opens on whatever worker thread runs it — the
  // hand-off is one causal tree, not a forest of per-thread roots.
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  {
    obs::Span root("par_test.submit_root");
    TaskPool pool(2);
    TaskGroup group(&pool);
    // The wait()ing caller helps run queued tasks, so tiny tasks can all
    // execute inline on the submitting thread. Hold each task at a
    // rendezvous until two distinct threads have entered one: with two
    // dedicated workers available this cannot deadlock, and it guarantees
    // at least one task runs off-thread.
    std::mutex mu;
    std::condition_variable cv;
    std::set<std::thread::id> entered;
    for (int i = 0; i < 8; ++i) {
      group.run([&mu, &cv, &entered] {
        obs::Span task_span("par_test.pool_task");
        std::unique_lock<std::mutex> lock(mu);
        entered.insert(std::this_thread::get_id());
        cv.notify_all();
        cv.wait(lock, [&entered] { return entered.size() >= 2; });
      });
    }
    group.wait();
  }
  tracer.set_enabled(false);

  const std::vector<obs::SpanRecord> spans = tracer.spans();
  const obs::SpanRecord* root = nullptr;
  std::size_t tasks = 0;
  for (const obs::SpanRecord& span : spans) {
    if (span.name == "par_test.submit_root") root = &span;
  }
  ASSERT_NE(root, nullptr);
  bool crossed_thread = false;
  for (const obs::SpanRecord& span : spans) {
    if (span.name != "par_test.pool_task") continue;
    ++tasks;
    EXPECT_EQ(span.trace_id, root->trace_id);
    EXPECT_EQ(span.parent_id, root->id);
    crossed_thread |= span.thread_id != root->thread_id;
  }
  EXPECT_EQ(tasks, 8u);
  EXPECT_TRUE(crossed_thread);
  // Each cross-thread task edge is a flow link for chrome://tracing.
  std::size_t cross = 0;
  for (const obs::FlowLink& link : obs::flow_links(spans)) {
    EXPECT_EQ(link.parent_id, root->id);
    ++cross;
  }
  EXPECT_GE(cross, 1u);
  tracer.clear();
}

TEST(TaskPoolTest, DisabledTracerAddsNoWrappingAndNoSpans) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  ASSERT_FALSE(tracer.enabled());  // the default: parity mode
  obs::Span root("par_test.inert_root");  // inert while disabled
  TaskPool pool(2);
  std::atomic<int> ran{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 16; ++i) group.run([&ran] { ++ran; });
  group.wait();
  EXPECT_EQ(ran.load(), 16);
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(TaskPoolTest, GroupIsReusableAfterWait) {
  TaskPool pool(2);
  TaskGroup group(&pool);
  std::atomic<int> count{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 50; ++i) group.run([&count] { ++count; });
    group.wait();
  }
  EXPECT_EQ(count.load(), 150);
}

TEST(TaskPoolTest, GroupDestructionAfterWaitIsSafeUnderChurn) {
  // Regression: finish_one once decremented pending_ outside mu_, so a
  // wait()er could observe zero, return, and destroy the stack-local
  // group while a worker was still about to lock its mutex. Thousands of
  // tiny fork/join cycles keep workers in exactly that window; under TSAN
  // a regression shows up as a lock of a destroyed mutex.
  TaskPool pool(4);
  for (int cycle = 0; cycle < 2000; ++cycle) {
    std::atomic<int> ran{0};
    TaskGroup group(&pool);
    for (int i = 0; i < 4; ++i) {
      group.run([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    group.wait();
    ASSERT_EQ(ran.load(), 4);
  }
}

TEST(TaskPoolTest, FirstExceptionIsRethrownAndLaterTasksStillRun) {
  TaskPool pool(2);
  std::atomic<int> ran{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 20; ++i) {
    group.run([&ran, i] {
      ++ran;
      if (i == 7) throw std::runtime_error("task failure");
    });
  }
  EXPECT_THROW(group.wait(), std::runtime_error);
  EXPECT_EQ(ran.load(), 20);

  // The pool and the group both survive a failed wave.
  std::atomic<int> after{0};
  for (int i = 0; i < 10; ++i) group.run([&after] { ++after; });
  group.wait();
  EXPECT_EQ(after.load(), 10);
}

TEST(TaskPoolTest, SerialGroupHasSameExceptionSemantics) {
  TaskGroup group(nullptr);
  int ran = 0;
  for (int i = 0; i < 5; ++i) {
    group.run([&ran, i] {
      ++ran;
      if (i == 1) throw std::runtime_error("inline failure");
    });
  }
  EXPECT_THROW(group.wait(), std::runtime_error);
  EXPECT_EQ(ran, 5);  // later tasks still ran inline
}

TEST(TaskPoolTest, GlobalPoolIsNullAtOneThread) {
  GlobalThreadsGuard guard;
  TaskPool::set_global_threads(1);
  EXPECT_EQ(TaskPool::global(), nullptr);
  EXPECT_EQ(TaskPool::effective_threads(), 1u);
  TaskPool::set_global_threads(3);
  ASSERT_NE(TaskPool::global(), nullptr);
  EXPECT_EQ(TaskPool::global()->worker_count(), 3u);
  EXPECT_EQ(TaskPool::effective_threads(), 3u);
}

TEST(ParallelForTest, VisitsEveryIndexOnce) {
  GlobalThreadsGuard guard;
  for (const unsigned threads : {1u, 2u, 4u}) {
    TaskPool::set_global_threads(threads);
    std::vector<std::atomic<int>> hits(997);
    parallel_for(hits.size(), 10,
                 [&](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " at " << threads << " threads";
    }
  }
}

TEST(ParallelForTest, NestedParallelForCompletes) {
  GlobalThreadsGuard guard;
  TaskPool::set_global_threads(4);
  // Outer tasks wait() on inner groups while sitting on pool workers; the
  // caller-helps protocol must drain the inner work (no deadlock).
  std::atomic<std::uint64_t> total{0};
  parallel_for(8, 1, [&](std::size_t) {
    parallel_for(200, 10,
                 [&](std::size_t) { total.fetch_add(1, std::memory_order_relaxed); });
  });
  EXPECT_EQ(total.load(), 8u * 200u);
}

TEST(ParallelForTest, LoggingAuthoritativeServerIsSafeUnderConcurrentResolves) {
  GlobalThreadsGuard guard;
  TaskPool::set_global_threads(4);
  // Logging stays ON — this is the funnel-reaches-a-logging-server path
  // (the honeypot's own server keeps logging enabled by design). Every
  // resolve appends to the query log from whichever worker runs the
  // chunk; the log must end up race-free and complete, though entry
  // order is completion order (order-sensitive consumers drive the
  // server serially).
  dns::AuthoritativeServer server;
  dns::Zone& zone = server.add_zone(dns::DnsName::parse_or_throw("example.org"));
  zone.add(dns::ResourceRecord{dns::DnsName::parse_or_throw("www.example.org"), dns::RrType::A,
                               300, net::IPv4(192, 0, 2, 1)});
  dns::DnsUniverse universe;
  universe.add_server(server);
  dns::RecursiveResolver::Identity identity;
  identity.address = net::IPv4(8, 8, 8, 8);
  identity.asn = 15169;
  identity.label = "par-test-resolver";
  const dns::RecursiveResolver resolver(universe, identity);
  const SimTime when = SimTime::parse("2018-04-27");
  const auto qname = dns::DnsName::parse_or_throw("www.example.org");

  constexpr std::size_t kQueries = 512;
  std::atomic<std::size_t> answered{0};
  parallel_for(kQueries, 8, [&](std::size_t) {
    const auto result = resolver.resolve(qname, dns::RrType::A, when);
    if (result.status == dns::ResolveStatus::ok) {
      answered.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(answered.load(), kQueries);
  EXPECT_EQ(server.log().size(), kQueries);
  for (const dns::QueryLogEntry& entry : server.log()) {
    EXPECT_TRUE(entry.answered);
    EXPECT_EQ(entry.context.resolver_label, "par-test-resolver");
  }
}

TEST(ParallelForTest, ExceptionPropagatesFromChunkBody) {
  GlobalThreadsGuard guard;
  TaskPool::set_global_threads(2);
  EXPECT_THROW(parallel_for(100, 1,
                            [](std::size_t i) {
                              if (i == 42) throw std::runtime_error("chunk failure");
                            }),
               std::runtime_error);
  // The global pool is reusable after the failure.
  std::atomic<int> count{0};
  parallel_for(100, 1, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 100);
}

TEST(ParallelReduceTest, MatchesSerialFoldForNonCommutativeMerge) {
  GlobalThreadsGuard guard;
  // String concatenation is associative but NOT commutative: any merge
  // that reorders chunks changes the bytes. The serial left fold is the
  // reference; every thread count must reproduce it exactly.
  const std::size_t n = 1003;
  std::string expected;
  for (std::size_t i = 0; i < n; ++i) expected += std::to_string(i) + ",";

  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    TaskPool::set_global_threads(threads);
    const std::string got = parallel_reduce(
        n, 7, std::string{},
        [](std::size_t, IndexRange range) {
          std::string part;
          for (std::size_t i = range.begin; i < range.end; ++i) {
            part += std::to_string(i) + ",";
          }
          return part;
        },
        [](std::string a, std::string b) { return std::move(a) += b; });
    EXPECT_EQ(got, expected) << "at " << threads << " threads";
  }
}

TEST(ParallelReduceTest, EmptyRangeReturnsInit) {
  const int got = parallel_reduce(
      0, 1, 41, [](std::size_t, IndexRange) { return 1; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(got, 41);
}

// ---- ShardedAccumulator ----

TEST(ShardedAccumulatorTest, ShardOfIsStableAndInRange) {
  const ShardedAccumulator<int> shards(64);
  for (std::uint64_t h : {0ull, 1ull, 64ull, ~0ull, 0xdeadbeefull}) {
    const std::size_t s = shards.shard_of(h);
    EXPECT_LT(s, 64u);
    EXPECT_EQ(s, shards.shard_of(h));
  }
}

TEST(ShardedAccumulatorTest, TotalsInvariantUnderShardCount) {
  // Every key lands in exactly one shard whatever the shard count, so the
  // collapsed total is a constant of the data.
  std::vector<std::uint64_t> keys;
  for (std::uint64_t i = 0; i < 5000; ++i) keys.push_back(i * 2654435761u);

  std::uint64_t reference = 0;
  for (const std::uint64_t key : keys) reference += key % 97;

  for (const std::size_t shard_count : {1u, 16u, 64u, 256u}) {
    ShardedAccumulator<std::uint64_t> shards(shard_count);
    for (const std::uint64_t key : keys) shards.shard(shards.shard_of(key)) += key % 97;
    std::uint64_t total = 0;
    shards.collapse_into(total, [](std::uint64_t& target, std::uint64_t v) { target += v; });
    EXPECT_EQ(total, reference) << shard_count << " shards";
  }
}

TEST(ShardedAccumulatorTest, ForEachOrderedWalksShardsInIndexOrder) {
  ShardedAccumulator<int> shards(8);
  for (std::size_t i = 0; i < 8; ++i) shards.shard(i) = static_cast<int>(i);
  std::vector<std::size_t> visited;
  shards.for_each_ordered([&](std::size_t index, int& value) {
    EXPECT_EQ(value, static_cast<int>(index));
    visited.push_back(index);
  });
  EXPECT_EQ(visited.size(), 8u);
  EXPECT_TRUE(std::is_sorted(visited.begin(), visited.end()));
}

TEST(ShardedAccumulatorTest, ImbalanceMilli) {
  ShardedAccumulator<std::uint64_t> balanced(4);
  for (std::size_t i = 0; i < 4; ++i) balanced.shard(i) = 10;
  EXPECT_EQ(balanced.imbalance_milli([](std::uint64_t v) { return v; }), 1000);

  ShardedAccumulator<std::uint64_t> skewed(4);
  skewed.shard(0) = 40;  // everything on one shard: max/mean = 4.0
  EXPECT_EQ(skewed.imbalance_milli([](std::uint64_t v) { return v; }), 4000);

  ShardedAccumulator<std::uint64_t> empty(4);
  EXPECT_EQ(empty.imbalance_milli([](std::uint64_t v) { return v; }), 0);
}

TEST(ShardedAccumulatorTest, ConcurrentShardMutationIsRaceFree) {
  // TSAN surface: tasks mutate disjoint shards concurrently while the
  // padding keeps them off each other's cache lines.
  GlobalThreadsGuard guard;
  TaskPool::set_global_threads(4);
  ShardedAccumulator<std::uint64_t> shards(64);
  parallel_for(64, 1, [&](std::size_t s) {
    for (int i = 0; i < 10000; ++i) ++shards.shard(s);
  });
  std::uint64_t total = 0;
  shards.collapse_into(total, [](std::uint64_t& target, std::uint64_t v) { target += v; });
  EXPECT_EQ(total, 64u * 10000u);
}

}  // namespace
}  // namespace ctwatch::par
