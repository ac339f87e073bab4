// Streaming statistics and the history bucketizer used for all figures.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace txconc {

/// Welford-style running mean / variance / min / max.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Weighted mean accumulator: sum(w*x) / sum(w).
///
/// The paper weights per-block conflict rates by transaction count or gas
/// ("blocks having more transactions ... should be weighted more heavily").
class WeightedMean {
 public:
  void add(double value, double weight);

  double mean() const { return weight_sum_ > 0.0 ? value_sum_ / weight_sum_ : 0.0; }
  double weight_sum() const { return weight_sum_; }
  bool empty() const { return weight_sum_ <= 0.0; }

 private:
  double value_sum_ = 0.0;
  double weight_sum_ = 0.0;
};

/// Exact quantiles over a stored sample (fine at our data sizes).
class Quantiles {
 public:
  void add(double x) {
    values_.push_back(x);
    sorted_ = false;
  }

  /// q in [0, 1]; linear interpolation between order statistics.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  std::size_t count() const { return values_.size(); }

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

/// One point of a bucketed history series.
struct SeriesPoint {
  double position = 0.0;  ///< Bucket center, in block-height units.
  double value = 0.0;     ///< Weighted mean of the metric over the bucket.
  double weight = 0.0;    ///< Total weight that landed in the bucket.
};

/// Divides a block-height range into fixed-size buckets and computes the
/// weighted average of a metric per bucket — exactly how the paper prepares
/// its history plots ("dividing these histories into fixed-size buckets for
/// which we compute weighted averages", Section IV).
class Bucketizer {
 public:
  /// @param num_buckets  the paper uses 20 to 200.
  /// @param min_height   first block height (inclusive).
  /// @param max_height   last block height (inclusive).
  Bucketizer(std::size_t num_buckets, std::uint64_t min_height,
             std::uint64_t max_height);

  /// Record a per-block metric observation with its weight.
  void add(std::uint64_t height, double value, double weight);

  /// Finished series; buckets that received no weight are skipped.
  std::vector<SeriesPoint> series() const;

  std::size_t num_buckets() const { return buckets_.size(); }

 private:
  std::uint64_t min_height_;
  std::uint64_t max_height_;
  std::vector<WeightedMean> buckets_;
};

/// A labelled series, the unit that figures/benches render.
struct LabelledSeries {
  std::string label;
  std::vector<SeriesPoint> points;
};

}  // namespace txconc
