// ctwatch::obs — auto-ranging log-linear latency histogram.
//
// The registry's one distribution type (latencies, batch sizes, any
// non-negative value). It needs no bounds chosen up front: buckets are
// log-linear — each power-of-two octave is split into kSubBuckets linear
// sub-buckets — so recording is O(1) (a frexp plus two shifts, no bucket
// search) and the relative quantile error is bounded by half a sub-bucket
// width:
//
//     |q_reported - q_true| / q_true  <=  1 / (2 * kSubBuckets)  ~ 1.6%
//
// Every instance has the same bucket layout, so histograms merge by
// bucket-count addition: per-thread or per-shard recorders collapse into
// one deterministic aggregate regardless of merge order (addition is
// commutative and associative on exact integer counts). That is what the
// par::ShardedAccumulator-style collapse and the /metrics exposition
// both rely on.
#pragma once

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace ctwatch::obs {

class LogLinearHistogram {
 public:
  /// Linear sub-buckets per power-of-two octave. 32 bounds the relative
  /// quantile error at 1/64.
  static constexpr std::size_t kSubBuckets = 32;
  /// Octaves covered: [1, 2^kOctaves) — for microsecond latencies that is
  /// one microsecond up to ~12.7 days. Larger values clamp into the top
  /// bucket, smaller (and negative / NaN) into the underflow bucket.
  static constexpr std::size_t kOctaves = 40;
  static constexpr std::size_t kBucketCount = 2 + kOctaves * kSubBuckets;

  LogLinearHistogram() = default;
  LogLinearHistogram(const LogLinearHistogram&) = delete;
  LogLinearHistogram& operator=(const LogLinearHistogram&) = delete;

  /// O(1), lock-free: three relaxed atomic RMWs.
  void observe(double value) {
    buckets_[index_of(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  [[nodiscard]] double sum() const { return sum_.load(std::memory_order_relaxed); }
  [[nodiscard]] double mean() const {
    const std::uint64_t n = count();
    return n > 0 ? sum() / static_cast<double>(n) : 0.0;
  }

  /// q outside [0,1] (or NaN) is clamped into [0,1]. Returns the midpoint
  /// of the bucket holding the rank — never a value interpolated past the
  /// recorded range: q=0 reports the lowest occupied bucket, q=1 the
  /// highest. Empty histogram reports 0.
  [[nodiscard]] double quantile(double q) const;

  /// Bucket-count addition; `other` may be concurrently written (its
  /// counts are read relaxed — the usual snapshot semantics).
  void merge_from(const LogLinearHistogram& other);

  void reset();

  /// The bucket index a value lands in (underflow = 0, top clamp =
  /// kBucketCount-1). Exposed for the error-bound tests.
  [[nodiscard]] static std::size_t index_of(double value) {
    if (!(value >= 1.0)) return 0;  // < 1, negative, NaN
    int exp = 0;
    const double frac = std::frexp(value, &exp);  // value = frac * 2^exp, frac in [0.5, 1)
    const std::size_t octave = static_cast<std::size_t>(exp - 1);
    if (octave >= kOctaves) return kBucketCount - 1;
    std::size_t sub = static_cast<std::size_t>((frac * 2.0 - 1.0) * kSubBuckets);
    if (sub >= kSubBuckets) sub = kSubBuckets - 1;
    return 1 + octave * kSubBuckets + sub;
  }

  /// [lower, upper) value range of a bucket; bucket 0 is [0, 1), the top
  /// bucket's upper edge is 2^kOctaves.
  [[nodiscard]] static double bucket_lower(std::size_t index);
  [[nodiscard]] static double bucket_upper(std::size_t index);

  [[nodiscard]] std::uint64_t bucket_count_at(std::size_t index) const {
    return buckets_[index].load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> buckets_[kBucketCount] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

}  // namespace ctwatch::obs
