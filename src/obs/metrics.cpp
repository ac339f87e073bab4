#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/csv.h"

namespace txconc::obs {

namespace {

std::uint64_t double_bits(double v) { return std::bit_cast<std::uint64_t>(v); }
double bits_double(std::uint64_t b) { return std::bit_cast<double>(b); }

/// CAS-accumulate `delta` into a double stored as bits.
/// ordering: relaxed throughout — instruments are statistical; each CAS
/// only needs atomicity of its own word, never publication of other data.
void atomic_add_double(std::atomic<std::uint64_t>& bits, double delta) {
  // ordering: relaxed — see above.
  std::uint64_t expected = bits.load(std::memory_order_relaxed);
  while (!bits.compare_exchange_weak(
      expected, double_bits(bits_double(expected) + delta),
      // ordering: relaxed — see above; the retry loop re-reads anyway.
      std::memory_order_relaxed)) {
  }
}

template <typename Less>
void atomic_extreme_double(std::atomic<std::uint64_t>& bits, double v,
                           Less less) {
  // ordering: relaxed — see atomic_add_double.
  std::uint64_t expected = bits.load(std::memory_order_relaxed);
  while (less(v, bits_double(expected)) &&
         !bits.compare_exchange_weak(expected, double_bits(v),
                                     // ordering: relaxed — as above.
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace

std::uint64_t Gauge::pack(double v) { return double_bits(v); }
double Gauge::unpack(std::uint64_t bits) { return bits_double(bits); }

Histogram::Histogram()
    : min_bits_(double_bits(std::numeric_limits<double>::infinity())),
      max_bits_(double_bits(-std::numeric_limits<double>::infinity())) {}

std::size_t Histogram::bucket_index(double v) {
  if (!(v >= 1.0)) return 0;  // < 1, negatives and NaN
  const int exponent = std::ilogb(v);  // floor(log2(v)) for finite v >= 1
  if (exponent >= 63 || exponent == FP_ILOGBNAN) return kNumBuckets - 1;
  return static_cast<std::size_t>(exponent) + 1;
}

double Histogram::bucket_lower(std::size_t bucket) {
  if (bucket == 0) return 0.0;
  return std::ldexp(1.0, static_cast<int>(bucket) - 1);  // 2^(i-1)
}

double Histogram::bucket_upper(std::size_t bucket) {
  return std::ldexp(1.0, static_cast<int>(bucket));  // 2^i
}

void Histogram::observe(double v) {
  // ordering: relaxed — buckets/count/extremes are each independently
  // atomic; readers take a statistical snapshot, never a transaction.
  buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);  // ordering: ditto
  atomic_add_double(sum_bits_, v);
  atomic_extreme_double(min_bits_, v, std::less<double>());
  atomic_extreme_double(max_bits_, v, std::greater<double>());
}

double Histogram::sum() const {
  // ordering: relaxed — statistical snapshot; see observe().
  return bits_double(sum_bits_.load(std::memory_order_relaxed));
}

double Histogram::min() const {
  // ordering: relaxed — statistical snapshot; see observe().
  return count() == 0 ? 0.0
                      : bits_double(min_bits_.load(std::memory_order_relaxed));
}

double Histogram::max() const {
  // ordering: relaxed — statistical snapshot; see observe().
  return count() == 0 ? 0.0
                      : bits_double(max_bits_.load(std::memory_order_relaxed));
}

double Histogram::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double target = q * static_cast<double>(n);
  double cumulative = 0.0;
  for (std::size_t b = 0; b < kNumBuckets; ++b) {
    // ordering: relaxed — statistical snapshot; see observe().
    const auto in_bucket = static_cast<double>(
        buckets_[b].load(std::memory_order_relaxed));
    if (in_bucket == 0.0) continue;
    if (cumulative + in_bucket >= target) {
      const double lo = bucket_lower(b);
      const double hi = bucket_upper(b);
      const double frac = (target - cumulative) / in_bucket;
      return lo + (hi - lo) * frac;
    }
    cumulative += in_bucket;
  }
  return max();  // rounding fell past the last bucket
}

Registry& Registry::global() {
  static Registry* registry = new Registry();  // leaked, like the tracer
  return *registry;
}

namespace {

/// The instrument registered under `name`, created on first use; only
/// that first registration builds the key string.
template <typename T>
T& find_or_add(std::map<std::string, std::unique_ptr<T>, std::less<>>& map,
               std::string_view name) {
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name), std::make_unique<T>()).first;
  }
  return *it->second;
}

}  // namespace

Counter& Registry::counter(std::string_view name) {
  const MutexLock lock(mu_);
  return find_or_add(counters_, name);
}

Gauge& Registry::gauge(std::string_view name) {
  const MutexLock lock(mu_);
  return find_or_add(gauges_, name);
}

Histogram& Registry::histogram(std::string_view name) {
  const MutexLock lock(mu_);
  return find_or_add(histograms_, name);
}

std::size_t Registry::size() const {
  const MutexLock lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

std::map<std::string, std::uint64_t> Registry::counter_values() const {
  const MutexLock lock(mu_);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, c] : counters_) out.emplace(name, c->value());
  return out;
}

std::map<std::string, double> Registry::gauge_values() const {
  const MutexLock lock(mu_);
  std::map<std::string, double> out;
  for (const auto& [name, g] : gauges_) out.emplace(name, g->value());
  return out;
}

void Registry::write_csv(std::ostream& out) const {
  const MutexLock lock(mu_);
  CsvWriter csv(out);
  csv.header({"kind", "name", "count", "value", "p50", "p95", "p99"});
  const auto fmt = [](double v) {
    std::ostringstream s;
    s << v;
    return s.str();
  };
  for (const auto& [name, counter] : counters_) {
    csv.row({"counter", name, "", std::to_string(counter->value()), "", "",
             ""});
  }
  for (const auto& [name, gauge] : gauges_) {
    csv.row({"gauge", name, "", fmt(gauge->value()), "", "", ""});
  }
  for (const auto& [name, h] : histograms_) {
    csv.row({"histogram", name, std::to_string(h->count()), fmt(h->sum()),
             fmt(h->quantile(0.50)), fmt(h->quantile(0.95)),
             fmt(h->quantile(0.99))});
  }
}

}  // namespace txconc::obs
