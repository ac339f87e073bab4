// Shared helpers for the figure benches.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/report.h"
#include "analysis/series.h"
#include "workload/account_workload.h"
#include "workload/profiles.h"
#include "workload/utxo_workload.h"

namespace txconc::bench {

/// Deterministic seed shared by all benches so figures reproduce exactly.
constexpr std::uint64_t kSeed = 20200714;  // the paper's arXiv v2 date

/// Build the right generator for a profile.
inline std::unique_ptr<workload::HistoryGenerator> make_generator(
    const workload::ChainProfile& profile, std::uint64_t seed = kSeed,
    std::uint64_t num_blocks = 0) {
  if (profile.model == workload::DataModel::kUtxo) {
    return std::make_unique<workload::UtxoWorkloadGenerator>(profile, seed,
                                                             num_blocks);
  }
  return std::make_unique<workload::AccountWorkloadGenerator>(profile, seed,
                                                              num_blocks);
}

/// Generate and analyze a chain's full (scaled) history.
inline analysis::ChainSeries run_chain(
    const workload::ChainProfile& profile,
    const analysis::CollectOptions& options = {},
    std::uint64_t num_blocks = 0) {
  const auto generator = make_generator(profile, kSeed, num_blocks);
  return analysis::collect_series(*generator, options);
}

/// Label series positions in years for a profile's history.
inline LabelledSeries years(const analysis::ChainSeries& cs,
                            const std::vector<SeriesPoint>& points,
                            const std::string& label) {
  return {label, cs.in_years(points)};
}

/// Summary statistics over repeated timed runs (see measure_reps).
struct RepetitionStats {
  double median_seconds = 0.0;
  double iqr_seconds = 0.0;  ///< Interquartile range (q75 - q25).
};

/// Linear-interpolated quantile of an already-sorted sample.
inline double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// Call `run()` (which returns elapsed seconds) `warmup` discarded times,
/// then `reps` measured times, and summarize with median/IQR. The median
/// is robust to scheduler noise in both directions, unlike the best-of-N
/// minimum this replaces: a minimum only shrinks as N grows, so comparing
/// minimums of runs with different N systematically favors the larger N
/// (which is how overhead deltas used to come out negative).
template <typename Fn>
RepetitionStats measure_reps(int reps, int warmup, Fn&& run) {
  RepetitionStats stats;
  for (int i = 0; i < warmup; ++i) (void)run();
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) samples.push_back(run());
  if (samples.empty()) return stats;
  std::sort(samples.begin(), samples.end());
  stats.median_seconds = quantile_sorted(samples, 0.5);
  stats.iqr_seconds =
      quantile_sorted(samples, 0.75) - quantile_sorted(samples, 0.25);
  return stats;
}

inline void print_header(const std::string& title, const std::string& paper) {
  std::cout << std::string(74, '=') << "\n"
            << title << "\n"
            << "reproduces: " << paper << "\n"
            << std::string(74, '=') << "\n\n";
}

}  // namespace txconc::bench
