#include "core/scheduling.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/error.h"

namespace txconc::core {

namespace {

void check(std::span<const double> job_costs, unsigned cores) {
  if (cores == 0) throw UsageError("schedule: cores must be positive");
  for (double c : job_costs) {
    if (c < 0.0) throw UsageError("schedule: negative job cost");
  }
}

}  // namespace

Schedule schedule_lpt(std::span<const double> job_costs, unsigned cores) {
  check(job_costs, cores);
  std::vector<std::size_t> order(job_costs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return job_costs[a] > job_costs[b];
                   });
  Schedule s;
  s.assignment.resize(cores);
  s.loads.assign(cores, 0.0);
  for (const std::size_t job : order) {
    const auto it = std::min_element(s.loads.begin(), s.loads.end());
    const std::size_t core = static_cast<std::size_t>(it - s.loads.begin());
    s.assignment[core].push_back(job);
    s.loads[core] += job_costs[job];
  }
  s.makespan = *std::max_element(s.loads.begin(), s.loads.end());
  return s;
}

double makespan_lower_bound(std::span<const double> job_costs,
                            unsigned cores) {
  check(job_costs, cores);
  double total = 0.0;
  double largest = 0.0;
  for (double c : job_costs) {
    total += c;
    largest = std::max(largest, c);
  }
  return std::max(total / static_cast<double>(cores), largest);
}

namespace {

// Depth-first branch-and-bound: assign jobs (largest first) to cores,
// pruning by the current best and by symmetry over empty cores.
void solve(const std::vector<double>& jobs, std::size_t index,
           std::vector<double>& loads, double& best) {
  if (index == jobs.size()) {
    const double makespan = *std::max_element(loads.begin(), loads.end());
    best = std::min(best, makespan);
    return;
  }
  bool tried_empty_core = false;
  for (double& load : loads) {
    if (load == 0.0) {
      // All empty cores are interchangeable; try only one of them.
      if (tried_empty_core) continue;
      tried_empty_core = true;
    }
    if (load + jobs[index] >= best) continue;
    load += jobs[index];
    solve(jobs, index + 1, loads, best);
    load -= jobs[index];
  }
}

}  // namespace

double optimal_makespan(std::span<const double> job_costs, unsigned cores) {
  check(job_costs, cores);
  if (job_costs.size() > 24) {
    throw UsageError("optimal_makespan: instance too large (max 24 jobs)");
  }
  if (job_costs.empty()) return 0.0;

  std::vector<double> jobs(job_costs.begin(), job_costs.end());
  std::sort(jobs.begin(), jobs.end(), std::greater<>());

  // Seed the bound with LPT; branch-and-bound can only improve it.
  double best = schedule_lpt(job_costs, cores).makespan;
  // A tiny epsilon headroom so an optimal assignment equal to the seed is
  // not pruned away (pruning uses >=).
  best = std::nextafter(best, std::numeric_limits<double>::infinity());

  std::vector<double> loads(cores, 0.0);
  solve(jobs, 0, loads, best);
  return best;
}

}  // namespace txconc::core
