// Model validation (extension beyond the paper): the paper's conclusion
// leaves "an execution engine that can exploit the available concurrency"
// to future work and assumes min(n, 1/l) is a reasonable approximation of
// the group-schedule speed-up. This bench builds that engine and checks the
// assumption: it runs the real executors over generated Ethereum blocks and
// compares their unit-cost speed-ups against the Section V closed forms.
#include "bench_util.h"

#include "core/speedup_model.h"
#include "exec/executor.h"
#include "exec/replay.h"

using namespace txconc;
using namespace txconc::bench;

namespace {

struct Row {
  double spec_model = 0.0;   // eq. (1), c from the executor's own bin
  double spec_engine = 0.0;  // two-phase speculative executor
  double oracle_engine = 0.0;
  double group_bound = 0.0;  // eq. (2) with the engine's predicted l
  double group_engine = 0.0; // LPT-scheduled component executor
  std::size_t blocks = 0;
};

}  // namespace

int main() {
  print_header(
      "Model validation — real executors vs the Section V closed forms",
      "extension of Section V (the paper's named future work)");

  // Ethereum-like blocks from the last quarter of the history, replayed
  // through each engine via HistoryReplayer (one twin generator per
  // engine, same seed).
  const workload::ChainProfile profile = workload::ethereum_profile();
  const std::uint64_t skip = profile.default_blocks * 3 / 4;
  constexpr int kBlocks = 25;

  analysis::TextTable table({"cores", "spec eq.(1)", "spec engine",
                             "oracle engine", "group eq.(2)", "group LPT"});

  for (unsigned n : {2u, 4u, 8u, 16u, 64u}) {
    std::vector<std::unique_ptr<exec::BlockExecutor>> engines;
    engines.push_back(exec::make_speculative_executor(n));
    engines.push_back(exec::make_oracle_executor(n));
    engines.push_back(exec::make_group_executor(n));

    Row row;
    for (auto& engine : engines) {
      exec::HistoryReplayer replayer(profile, kSeed, skip);

      double mean_speedup = 0.0;
      double mean_model = 0.0;
      std::size_t counted = 0;
      for (int b = 0; b < kBlocks; ++b) {
        const exec::ExecutionReport report = replayer.replay_next(*engine);
        if (report.num_txs == 0) continue;
        ++counted;
        mean_speedup += report.simulated_speedup;
        const double c = static_cast<double>(report.sequential_txs) /
                         static_cast<double>(report.num_txs);
        if (engine->name() == "speculative") {
          mean_model +=
              core::SpeculativeModel::speedup_exact(report.num_txs, c, n);
        } else if (engine->name() == "group-lpt") {
          mean_model += core::GroupModel::speedup_bound(n, c);
        }
      }
      mean_speedup /= static_cast<double>(counted);
      mean_model /= static_cast<double>(counted);

      if (engine->name() == "speculative") {
        row.spec_engine = mean_speedup;
        row.spec_model = mean_model;
      } else if (engine->name() == "oracle-speculative") {
        row.oracle_engine = mean_speedup;
      } else if (engine->name() == "group-lpt") {
        row.group_engine = mean_speedup;
        row.group_bound = mean_model;
      }
      row.blocks = counted;
    }

    table.row({std::to_string(n), analysis::fmt_double(row.spec_model, 2),
               analysis::fmt_double(row.spec_engine, 2),
               analysis::fmt_double(row.oracle_engine, 2),
               analysis::fmt_double(row.group_bound, 2),
               analysis::fmt_double(row.group_engine, 2)});
  }
  std::cout << "mean per-block unit-cost speed-ups over " << kBlocks
            << " late-history Ethereum blocks:\n"
            << table.render() << "\n";

  std::cout
      << "reading the table:\n"
         "  * \"spec engine\" tracks eq. (1) — the model is exact for the\n"
         "    two-phase technique (c measured from the engine's own bin);\n"
         "  * \"group LPT\" approaches eq. (2)'s min(n, 1/l) bound, i.e.\n"
         "    the paper's assumption that the bound is a reasonable\n"
         "    approximation holds under LPT scheduling;\n"
         "  * the oracle engine beats blind speculation because conflicted\n"
         "    transactions execute once, not twice.\n";
  return 0;
}
