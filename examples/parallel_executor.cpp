// Parallel execution engine demo: run the same generated Ethereum-like
// block through every executor, verify they all agree with sequential
// execution, and compare their costs. Exits 1 when any engine's state
// digest differs from sequential's.
//
// This is the execution engine the paper's conclusion names as future
// work, running for real on worker threads.
//
// Pass --trace[=file] (or set TXCONC_TRACE=<file>) to record every span
// to a Chrome trace_event JSON, loadable in Perfetto / chrome://tracing,
// and to print the metrics registry afterwards. Pass --engine=<name> to
// run only one registered engine (sequential always runs as the oracle).
// The reports live in their own tools: tools/txconc_profile reads the
// trace, tools/txconc_contend explains each engine's contention.
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>

#include "analysis/report.h"
#include "exec/executor.h"
#include "exec/replay.h"
#include "obs/metrics.h"
#include "obs/scope.h"
#include "obs/trace.h"
#include "workload/profiles.h"

using namespace txconc;

namespace {

int usage(const char* argv0, int code) {
  (code == 0 ? std::cout : std::cerr)
      << "usage: " << argv0
      << " [--trace[=file]] [--engine=<name>]\n"
      << "  --trace[=file]   write a Chrome trace (default file:\n"
      << "                   parallel_executor_trace.json) and print the\n"
      << "                   metrics registry\n"
      << "  --engine=<name>  run only <name> (plus the sequential oracle).\n"
      << "                   registered engines: " << exec::registry_names()
      << "\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string engine_filter;
  if (const char* env = std::getenv("TXCONC_TRACE")) trace_path = env;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) {
      trace_path = "parallel_executor_trace.json";
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--engine=", 9) == 0) {
      engine_filter = argv[i] + 9;
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      return usage(argv[0], 0);
    } else {
      return usage(argv[0], 2);
    }
  }
  const bool tracing = !trace_path.empty();
  if (tracing) obs::Tracer::global().enable();

  // A late-history Ethereum block, replayed through each engine.
  const workload::ChainProfile profile = workload::ethereum_profile();
  const std::uint64_t skip = profile.default_blocks - 1;

  // Every registered engine at 4 threads, sequential first (it is the
  // digest oracle the others are compared against, so it always runs
  // even under --engine).
  std::vector<std::unique_ptr<exec::BlockExecutor>> engines;
  bool filter_found = engine_filter.empty();
  for (const exec::ExecutorSpec& spec : exec::executor_registry()) {
    const bool selected =
        engine_filter.empty() || spec.name == engine_filter;
    if (spec.name == engine_filter) filter_found = true;
    if (spec.name == "sequential" || selected) {
      engines.push_back(spec.make(4));
    }
  }
  if (!filter_found) {
    std::cerr << "unknown engine \"" << engine_filter
              << "\"; registered engines: " << exec::registry_names() << "\n";
    return 2;
  }

  analysis::TextTable table({"executor", "sequential txs", "executions",
                             "unit-cost time", "speed-up", "state"});

  Hash256 expected;
  bool mismatch = false;
  std::size_t block_size = 0;
  for (const auto& engine : engines) {
    exec::HistoryReplayer replayer(profile, 2718, skip);
    if (tracing) replayer.set_obs(&obs::global_scope());
    const exec::ExecutionReport report = replayer.replay_next(*engine);
    block_size = report.num_txs;
    const Hash256 digest = replayer.state().digest();
    if (engine->name() == "sequential") expected = digest;
    mismatch = mismatch || digest != expected;
    table.row({report.executor, std::to_string(report.sequential_txs),
               std::to_string(report.executions),
               analysis::fmt_double(report.simulated_units, 1),
               analysis::fmt_double(report.simulated_speedup, 2) + "x",
               digest == expected ? "== sequential" : "MISMATCH!"});
  }

  std::cout << "executing one generated Ethereum block (" << block_size
            << " transactions) through every engine:\n\n"
            << table.render() << "\n";

  std::cout
      << "notes:\n"
         "  * \"sequential txs\" is the conflicted bin (speculative), the\n"
         "    largest component (group scheduler), or the re-executed\n"
         "    transactions (block-stm);\n"
         "  * the speculative engine executes conflicted transactions "
         "twice\n"
         "    (executions > block size); the oracle and group engines "
         "never\n"
         "    re-execute; block-stm re-executes only invalidated\n"
         "    transactions against its multi-version store;\n"
         "  * unit-cost time is the paper's model currency: one unit per\n"
         "    transaction execution slot on the critical path.\n";

  if (tracing) {
    obs::Tracer::global().disable();
    if (!obs::Tracer::global().write_chrome_trace_file(trace_path)) {
      std::cerr << "failed to write trace to " << trace_path << "\n";
      return 1;
    }
    std::cout << "\nwrote Chrome trace to " << trace_path
              << " (open in Perfetto or chrome://tracing)\n\nmetrics:\n";
    std::ostringstream metrics;
    obs::Registry::global().write_csv(metrics);
    std::cout << metrics.str();
  }
  if (mismatch) {
    std::cerr << "state digest mismatch: an engine disagrees with sequential\n";
    return 1;
  }
  return 0;
}
