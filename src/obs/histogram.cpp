#include "ctwatch/obs/histogram.hpp"

#include <algorithm>

namespace ctwatch::obs {

double LogLinearHistogram::bucket_lower(std::size_t index) {
  if (index == 0) return 0.0;
  if (index >= kBucketCount) index = kBucketCount - 1;
  const std::size_t linear = index - 1;
  const std::size_t octave = linear / kSubBuckets;
  const std::size_t sub = linear % kSubBuckets;
  const double base = std::ldexp(1.0, static_cast<int>(octave));  // 2^octave
  return base * (1.0 + static_cast<double>(sub) / kSubBuckets);
}

double LogLinearHistogram::bucket_upper(std::size_t index) {
  if (index + 1 >= kBucketCount) return std::ldexp(1.0, static_cast<int>(kOctaves));
  return bucket_lower(index + 1);
}

double LogLinearHistogram::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  if (!(q >= 0.0)) q = 0.0;  // also catches NaN
  if (q > 1.0) q = 1.0;
  // rank in [1, n]: the q-th order statistic, so q=0 targets the first
  // recorded value's bucket and q=1 the last.
  const std::uint64_t rank =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(q * static_cast<double>(n) + 0.5));
  std::uint64_t cumulative = 0;
  std::size_t last_occupied = 0;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    const std::uint64_t in_bucket = buckets_[i].load(std::memory_order_relaxed);
    if (in_bucket == 0) continue;
    last_occupied = i;
    cumulative += in_bucket;
    if (cumulative >= rank) {
      return 0.5 * (bucket_lower(i) + bucket_upper(i));
    }
  }
  // Concurrent writers can make the per-bucket sum lag count_; report the
  // highest bucket seen rather than inventing a value past it.
  return 0.5 * (bucket_lower(last_occupied) + bucket_upper(last_occupied));
}

void LogLinearHistogram::merge_from(const LogLinearHistogram& other) {
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    const std::uint64_t c = other.buckets_[i].load(std::memory_order_relaxed);
    if (c != 0) buckets_[i].fetch_add(c, std::memory_order_relaxed);
  }
  count_.fetch_add(other.count_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  sum_.fetch_add(other.sum_.load(std::memory_order_relaxed), std::memory_order_relaxed);
}

void LogLinearHistogram::reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

}  // namespace ctwatch::obs
