// Metrics registry: named counters, gauges and log-bucketed histograms
// with CSV export.
//
// Lookup (counter()/gauge()/histogram()) takes the registry mutex and
// returns a stable reference; cache it in hot loops. A lookup allocates
// only when it registers a new name. Updates on the returned instruments
// are lock-free atomics, safe from every pool worker concurrently.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "common/thread_annotations.h"

namespace txconc::obs {

/// Monotonic counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    // ordering: relaxed — statistical instrument; no data rides on it.
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    // ordering: relaxed — readers tolerate a stale count.
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins gauge.
class Gauge {
 public:
  // ordering: relaxed — last-write-wins value; no data rides on it.
  void set(double v) { bits_.store(pack(v), std::memory_order_relaxed); }
  double value() const {
    // ordering: relaxed — readers tolerate a stale value.
    return unpack(bits_.load(std::memory_order_relaxed));
  }

 private:
  static std::uint64_t pack(double v);
  static double unpack(std::uint64_t bits);
  std::atomic<std::uint64_t> bits_{0};
};

/// Log-bucketed histogram over non-negative values.
///
/// Bucket 0 holds values < 1 (including any clamped negatives); bucket i
/// (1 <= i <= 63) holds [2^(i-1), 2^i); bucket 64 holds everything from
/// 2^63 up. Quantiles interpolate linearly inside the containing bucket:
/// for target rank r = q * count, the first bucket whose cumulative count
/// reaches r contributes lo + (hi - lo) * (r - cum_before) / bucket_count.
class Histogram {
 public:
  static constexpr std::size_t kNumBuckets = 65;

  void observe(double v);

  std::uint64_t count() const {
    // ordering: relaxed — statistical snapshot; see observe().
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const;
  double min() const;
  double max() const;
  /// Interpolated quantile estimate, q in [0, 1]; 0 when empty.
  double quantile(double q) const;

  /// Bucket index for a value (exposed for the boundary tests).
  static std::size_t bucket_index(double v);
  /// Inclusive lower / exclusive upper bound of a bucket.
  static double bucket_lower(std::size_t bucket);
  static double bucket_upper(std::size_t bucket);

 private:
  std::atomic<std::uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{0};  ///< double, CAS-accumulated
  std::atomic<std::uint64_t> min_bits_;
  std::atomic<std::uint64_t> max_bits_;

 public:
  Histogram();
};

/// Named instrument store.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Process-wide registry used by layers without config plumbing
  /// (thread pool, pbft) and exported by the benches.
  static Registry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// CSV rows (common/csv quoting): kind,name,value,p50,p95,p99.
  void write_csv(std::ostream& out) const;

  /// Point-in-time snapshots of the scalar instruments (for tests).
  std::map<std::string, std::uint64_t> counter_values() const;
  std::map<std::string, double> gauge_values() const;

  /// Instruments registered so far (all three kinds).
  std::size_t size() const;

 private:
  // std::less<> finds by string_view without building a std::string.
  template <typename T>
  using Instruments = std::map<std::string, std::unique_ptr<T>, std::less<>>;

  mutable Mutex mu_;
  Instruments<Counter> counters_ GUARDED_BY(mu_);
  Instruments<Gauge> gauges_ GUARDED_BY(mu_);
  Instruments<Histogram> histograms_ GUARDED_BY(mu_);
};

}  // namespace txconc::obs
