// txconc-profile CLI: trace-driven critical-path + stall attribution.
//
//   txconc_profile [--format=text|json] [--top=K] [--eps=F]
//                  [--untracked-max=F] [--engine=<name>] <trace.json>...
//
// Each input is a Chrome trace written by obs::Tracer (TXCONC_TRACE=...
// or Tracer::write_chrome_trace_file). The trace is validated first,
// then every execute_block span is profiled: top-K critical-path chains
// and the threads x wall attribution (obs/critpath.h). Exit codes:
//   0  all blocks pass the attribution sanity gates
//   1  a gate failed (sum off budget, untracked share too high)
//   2  usage (including a malformed number), I/O, or a
//      malformed/unanalyzable trace
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/parse.h"
#include "obs/critpath.h"
#include "obs/trace.h"

namespace {

int usage() {
  std::cerr << "usage: txconc_profile [--format=text|json] [--top=K] "
               "[--eps=F] [--untracked-max=F] [--engine=<name>] "
               "<trace.json>...\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string format = "text";
  std::string engine_filter;
  std::size_t top_k = 4;
  double eps = 0.02;
  double untracked_max = 0.10;
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
      if (format != "text" && format != "json") return usage();
    } else if (arg.rfind("--top=", 0) == 0) {
      const auto k = txconc::parse_uint(arg.substr(6));
      if (!k || *k == 0) return usage();
      top_k = static_cast<std::size_t>(*k);
    } else if (arg.rfind("--eps=", 0) == 0) {
      const auto v = txconc::parse_nonnegative(arg.substr(6));
      if (!v) return usage();
      eps = *v;
    } else if (arg.rfind("--untracked-max=", 0) == 0) {
      const auto v = txconc::parse_nonnegative(arg.substr(16));
      if (!v) return usage();
      untracked_max = *v;
    } else if (arg.rfind("--engine=", 0) == 0) {
      // Profile only the blocks this engine executed (the trace process
      // name set by obs::ThreadProcessScope). Multi-engine traces like
      // parallel_executor's carry every engine side by side.
      engine_filter = arg.substr(9);
      if (engine_filter.empty()) return usage();
    } else if (arg.rfind("--", 0) == 0) {
      return usage();
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) return usage();

  bool gate_failed = false;
  bool json_first = true;
  std::size_t matched = 0;
  if (format == "json") std::cout << "[";
  for (const std::string& path : inputs) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "txconc_profile: cannot read '" << path << "'\n";
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string trace = buffer.str();

    const txconc::obs::TraceValidation validation =
        txconc::obs::validate_chrome_trace(trace);
    if (!validation.ok) {
      std::cerr << "txconc_profile: '" << path
                << "' failed validation: " << validation.error << "\n";
      return 2;
    }
    const txconc::obs::ProfileResult result =
        txconc::obs::profile_chrome_trace(trace, top_k);
    if (!result.ok) {
      std::cerr << "txconc_profile: '" << path << "': " << result.error
                << "\n";
      return 2;
    }
    for (const txconc::obs::BlockProfile& block : result.blocks) {
      if (!engine_filter.empty() && block.process != engine_filter) continue;
      ++matched;
      const std::string violation =
          txconc::obs::check_attribution(block, eps, untracked_max);
      if (format == "json") {
        if (!json_first) std::cout << ",";
        json_first = false;
        std::cout << "\n";
        txconc::obs::write_profile_json(std::cout, block);
      } else {
        txconc::obs::write_profile_text(std::cout, block);
      }
      if (!violation.empty()) {
        gate_failed = true;
        std::cerr << "txconc_profile: " << violation << "\n";
      }
    }
  }
  if (format == "json") std::cout << "\n]\n";
  if (!engine_filter.empty() && matched == 0) {
    std::cerr << "txconc_profile: no blocks from engine '" << engine_filter
              << "' in the given traces\n";
    return 2;
  }
  return gate_failed ? 1 : 0;
}
