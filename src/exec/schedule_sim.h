// Simulated-time schedulers in the paper's unit-cost model: every
// transaction takes one time unit; n cores. These validate the Section V
// closed forms exactly and are also used by the figure benches.
#pragma once

#include <cstddef>
#include <span>

#include "core/scheduling.h"

namespace txconc::exec {

/// Result of one simulated block execution.
struct SimOutcome {
  double time_units = 0.0;
  double speedup = 0.0;  ///< x / time_units (1.0 for an empty block).
};

/// Fully speculative two-phase execution (Saraph & Herlihy): a concurrent
/// phase over all x transactions (exact duration ceil(x/n)) followed by a
/// sequential re-run of the conflicted transactions.
SimOutcome simulate_speculative(std::size_t x, std::size_t num_conflicted,
                                unsigned cores);

/// Perfect-information speculation: only the (x - conflicted) transactions
/// run concurrently; preprocessing costs k_preprocess time units.
SimOutcome simulate_oracle(std::size_t x, std::size_t num_conflicted,
                           unsigned cores, double k_preprocess);

/// Group-concurrency execution: connected components (job = component,
/// cost = component size) scheduled onto cores; sequential inside a
/// component. Components go onto cores by LPT.
SimOutcome simulate_group(std::span<const double> component_sizes,
                          unsigned cores, double k_preprocess = 0.0);

}  // namespace txconc::exec
