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
// Pass --profile to additionally run the critical-path profiler over the
// recorded trace and print each engine's stall attribution (each engine
// replays the block twice so the reported run is warm). Pass --contend to
// run the contention explainer instead: measured conflict rates, hot keys
// and per-reason abort attribution from each engine's observed accesses
// (same warm protocol: the reported run sees warm scratch).
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>

#include "analysis/report.h"
#include "exec/contention_probe.h"
#include "exec/executor.h"
#include "obs/contention.h"
#include "obs/critpath.h"
#include "exec/replay.h"
#include "obs/scope.h"
#include "obs/trace.h"
#include "workload/profiles.h"

using namespace txconc;

namespace {

int usage(const char* argv0, int code) {
  (code == 0 ? std::cout : std::cerr)
      << "usage: " << argv0
      << " [--trace[=file]] [--profile] [--contend] [--engine=<name>]\n"
      << "  --trace[=file]   write a Chrome trace (default file:\n"
      << "                   parallel_executor_trace.json) and print the\n"
      << "                   metrics registry\n"
      << "  --profile        profile the trace: per-engine critical path\n"
      << "                   and threads x wall stall attribution\n"
      << "  --contend        explain each engine's contention: measured\n"
      << "                   c/l, hot keys, per-reason abort attribution\n"
      << "  --engine=<name>  run only <name> (plus the sequential oracle).\n"
      << "                   registered engines: " << exec::registry_names()
      << "\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string engine_filter;
  bool profiling = false;
  bool contending = false;
  if (const char* env = std::getenv("TXCONC_TRACE")) trace_path = env;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) {
      trace_path = "parallel_executor_trace.json";
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path = argv[i] + 8;
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      profiling = true;
    } else if (std::strcmp(argv[i], "--contend") == 0) {
      contending = true;
    } else if (std::strncmp(argv[i], "--engine=", 9) == 0) {
      engine_filter = argv[i] + 9;
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      return usage(argv[0], 0);
    } else {
      return usage(argv[0], 2);
    }
  }
  const bool tracing = !trace_path.empty() || profiling;
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
  exec::ContentionProbe probe;
  std::vector<std::pair<std::string, obs::BlockContention>> contention;
  for (const auto& engine : engines) {
    if (profiling || contending) {
      // Warmup replay of the same block: the reported run below then
      // sees warm tracer buffers and scratch, so the attribution is not
      // polluted by one-time allocation inside execute_block (the
      // profiler books that caller self-time as `uncovered`).
      exec::HistoryReplayer warmup(profile, 2718, skip);
      warmup.set_obs(&obs::global_scope());
      warmup.replay_next(*engine);
    }
    exec::HistoryReplayer replayer(profile, 2718, skip);
    obs::Scope contend_scope = obs::global_scope();
    if (tracing) replayer.set_obs(&obs::global_scope());
    if (contending) {
      // Same wiring as tools/txconc_contend: the probe records observed
      // accesses, the engines attribute aborts through the scope's sink.
      contend_scope.contention = probe.sink();
      replayer.set_obs(&contend_scope);
      replayer.set_block_observer(&probe);
      replayer.set_access_recorder(probe.recorder());
    }
    const exec::ExecutionReport report = replayer.replay_next(*engine);
    if (contending) {
      contention.emplace_back(engine->name(), probe.blocks().back());
      probe.clear();
    }
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
    if (!trace_path.empty()) {
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
  }
  if (profiling) {
    std::ostringstream trace_json;
    obs::Tracer::global().write_chrome_trace(trace_json);
    const std::string json = trace_json.str();
    const obs::TraceValidation validation = obs::validate_chrome_trace(json);
    if (!validation.ok) {
      std::cerr << "trace failed validation: " << validation.error << "\n";
      return 1;
    }
    const obs::ProfileResult profiled = obs::profile_chrome_trace(json);
    if (!profiled.ok) {
      std::cerr << "trace could not be profiled: " << profiled.error << "\n";
      return 1;
    }
    std::cout << "\ncritical-path profile (warm run of each engine):\n\n";
    // Each engine ran twice; report the warm (last) block per process.
    for (std::size_t i = 0; i < profiled.blocks.size(); ++i) {
      const obs::BlockProfile& block = profiled.blocks[i];
      bool is_last = true;
      for (std::size_t j = i + 1; j < profiled.blocks.size(); ++j) {
        if (profiled.blocks[j].process == block.process) {
          is_last = false;
          break;
        }
      }
      if (!is_last) continue;
      obs::write_profile_text(std::cout, block);
      const std::string violation = obs::check_attribution(block);
      if (!violation.empty()) {
        std::cout << "  warning: " << violation << "\n";
      }
    }
  }
  if (contending) {
    std::cout << "\ncontention explainer (warm run of each engine):\n\n";
    for (const auto& [name, block] : contention) {
      std::cout << "== " << name << " ==\n";
      obs::write_text(std::cout, block);
      std::cout << "\n";
    }
  }
  if (mismatch) {
    std::cerr << "state digest mismatch: an engine disagrees with sequential\n";
    return 1;
  }
  return 0;
}
