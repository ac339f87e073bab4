// Multiprocessor scheduling of connected components onto cores.
//
// Executing a block under group concurrency means assigning each connected
// component (a sequential job) to one of n cores; minimizing the makespan
// is the classic NP-hard multiprocessor scheduling problem the paper cites
// (Kasahara & Narita). We provide the LPT heuristic plus an exact
// solver for small instances (used by tests and ablations).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace txconc::core {

/// A computed schedule.
struct Schedule {
  /// Completion time of the busiest core, in job-cost units.
  double makespan = 0.0;
  /// Job indices assigned to each core (size == number of cores).
  std::vector<std::vector<std::size_t>> assignment;
  /// Per-core total load.
  std::vector<double> loads;
};

/// Longest Processing Time first: sort jobs by decreasing cost, place each
/// on the least-loaded core. 4/3-approximation; the group executor's
/// policy.
Schedule schedule_lpt(std::span<const double> job_costs, unsigned cores);

/// Exact minimum makespan via branch-and-bound. Only feasible for small
/// instances (roughly <= 20 jobs); throws UsageError beyond 24 jobs.
double optimal_makespan(std::span<const double> job_costs, unsigned cores);

/// Lower bound on any makespan: max(total/n, max job).
double makespan_lower_bound(std::span<const double> job_costs, unsigned cores);

}  // namespace txconc::core
