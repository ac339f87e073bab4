#include "exec/schedule_sim.h"

#include <numeric>

#include "common/error.h"

namespace txconc::exec {

namespace {

SimOutcome outcome_for(std::size_t x, double time_units) {
  SimOutcome out;
  out.time_units = time_units;
  out.speedup =
      x == 0 || time_units <= 0.0
          ? 1.0
          : static_cast<double>(x) / time_units;
  return out;
}

}  // namespace

SimOutcome simulate_speculative(std::size_t x, std::size_t num_conflicted,
                                unsigned cores) {
  if (cores == 0) throw UsageError("simulate_speculative: cores must be > 0");
  if (num_conflicted > x) {
    throw UsageError("simulate_speculative: conflicted > total");
  }
  if (x == 0) return outcome_for(0, 0.0);
  const std::size_t phase1 = (x + cores - 1) / cores;  // ceil(x/n)
  const double total = static_cast<double>(phase1 + num_conflicted);
  return outcome_for(x, total);
}

SimOutcome simulate_oracle(std::size_t x, std::size_t num_conflicted,
                           unsigned cores, double k_preprocess) {
  if (cores == 0) throw UsageError("simulate_oracle: cores must be > 0");
  if (num_conflicted > x) {
    throw UsageError("simulate_oracle: conflicted > total");
  }
  if (k_preprocess < 0.0) throw UsageError("simulate_oracle: negative K");
  if (x == 0) return outcome_for(0, 0.0);
  const std::size_t concurrent = x - num_conflicted;
  const std::size_t phase1 =
      concurrent == 0 ? 0 : (concurrent + cores - 1) / cores;
  const double total = k_preprocess +
                       static_cast<double>(phase1 + num_conflicted);
  return outcome_for(x, total);
}

SimOutcome simulate_group(std::span<const double> component_sizes,
                          unsigned cores, double k_preprocess) {
  if (cores == 0) throw UsageError("simulate_group: cores must be > 0");
  if (k_preprocess < 0.0) throw UsageError("simulate_group: negative K");
  const double x =
      std::accumulate(component_sizes.begin(), component_sizes.end(), 0.0);
  return outcome_for(
      static_cast<std::size_t>(x),
      k_preprocess + core::schedule_lpt(component_sizes, cores).makespan);
}

}  // namespace txconc::exec
