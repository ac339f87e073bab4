// Figure 10, engine edition: the speed-ups a *real* executor achieves over
// the whole Ethereum history, overlaid with the analytical curves of
// Fig. 10 — the engine the paper's conclusion wished for, measured at the
// same granularity as the model.
#include "bench_util.h"

#include "analysis/speedup.h"
#include "exec/executor.h"
#include "exec/replay.h"

using namespace txconc;
using namespace txconc::bench;

int main() {
  print_header(
      "Figure 10 (engine edition) — measured executor speed-ups over time",
      "extension of Fig. 10, Reijsbergen & Dinh, ICDCS 2020");

  constexpr unsigned kCores = 8;
  const workload::ChainProfile profile = workload::ethereum_profile();

  // Model curves from the measured history.
  const analysis::ChainSeries eth = run_chain(profile);
  const analysis::SpeedupSeries model =
      analysis::compute_speedup_series(eth, kCores);

  // Engine curves from replaying the same history; the replay also sums
  // the pool counters so scheduling overhead is reported separately.
  auto replay_curve = [&](exec::BlockExecutor& engine,
                          exec::SchedulingBreakdown& totals) {
    exec::HistoryReplayer replayer(profile, kSeed);
    Bucketizer buckets(40, 0, profile.default_blocks - 1);
    for (std::uint64_t h = 0; h < profile.default_blocks; ++h) {
      const exec::ExecutionReport report = replayer.replay_next(engine);
      totals.pool_tasks += report.sched.pool_tasks;
      totals.grains += report.sched.grains;
      totals.grains_caller_run += report.sched.grains_caller_run;
      if (report.num_txs == 0) continue;
      buckets.add(h, report.simulated_speedup,
                  static_cast<double>(report.num_txs));
    }
    return buckets.series();
  };
  auto group_engine = exec::make_group_executor(kCores);
  auto spec_engine = exec::make_speculative_executor(kCores);
  exec::SchedulingBreakdown group_sched;
  exec::SchedulingBreakdown spec_sched;
  const std::vector<SeriesPoint> group_curve =
      replay_curve(*group_engine, group_sched);
  const std::vector<SeriesPoint> spec_curve =
      replay_curve(*spec_engine, spec_sched);

  PlotOptions opt;
  opt.y_min = 0.0;
  opt.y_max = 8.0;
  opt.x_label = "year";
  opt.y_label = "speed-up";
  analysis::print_panel(
      std::cout,
      "measured vs modelled speed-ups, 8 cores (unit-cost time)",
      {{"group engine (LPT)", eth.in_years(group_curve)},
       {"group model eq.(2)", eth.in_years(model.group)},
       {"speculative engine", eth.in_years(spec_curve)},
       {"speculative model eq.(1)", eth.in_years(model.speculative)}},
      opt);

  const auto group_measured = analysis::summarize_late(group_curve);
  const auto group_modelled = analysis::summarize_late(model.group);
  const auto spec_measured = analysis::summarize_late(spec_curve);
  const auto spec_modelled = analysis::summarize_late(model.speculative);
  const auto oracle_modelled = analysis::summarize_late(model.oracle);

  analysis::TextTable table({"curve", "late mean", "peak"});
  table.row({"group engine", analysis::fmt_double(group_measured.mean, 2),
             analysis::fmt_double(group_measured.peak, 2)});
  table.row({"group model eq.(2)", analysis::fmt_double(group_modelled.mean, 2),
             analysis::fmt_double(group_modelled.peak, 2)});
  table.row({"speculative engine", analysis::fmt_double(spec_measured.mean, 2),
             analysis::fmt_double(spec_measured.peak, 2)});
  table.row({"speculative model eq.(1)",
             analysis::fmt_double(spec_modelled.mean, 2),
             analysis::fmt_double(spec_modelled.peak, 2)});
  table.row({"oracle model (K=0)",
             analysis::fmt_double(oracle_modelled.mean, 2),
             analysis::fmt_double(oracle_modelled.peak, 2)});
  std::cout << table.render() << "\n";

  // Scheduling overhead: pool wakeups and the caller-runs share.
  auto sched_row = [](analysis::TextTable& t, const std::string& name,
                      const exec::SchedulingBreakdown& s) {
    const double caller_share =
        s.grains == 0 ? 0.0
                      : static_cast<double>(s.grains_caller_run) /
                            static_cast<double>(s.grains);
    t.row({name, std::to_string(s.pool_tasks), std::to_string(s.grains),
           analysis::fmt_double(100.0 * caller_share, 1) + "%"});
  };
  analysis::TextTable sched_table(
      {"engine", "pool tasks", "grains", "caller-run"});
  sched_row(sched_table, "group engine", group_sched);
  sched_row(sched_table, "speculative engine", spec_sched);
  std::cout << "scheduling overhead (whole history):\n"
            << sched_table.render() << "\n";

  std::cout
      << "notes:\n"
         "  * the engine uses the sound a-priori TDG while the model uses\n"
         "    the posterior one, and the engine pays real scheduling\n"
         "    (LPT vs the bound) — the curves should track closely with\n"
         "    the engine slightly below the model;\n"
         "  * the speculative engine detects conflicts at storage-slot\n"
         "    granularity, usually binning slightly fewer transactions\n"
         "    than the address-level c, so it can sit a whisker above\n"
         "    eq. (1)'s curve computed from the TDG rate.\n";
  return 0;
}
