// txconc-contend CLI: run registered engines over a generated history and
// explain each block's contention from the engines' own observed access
// sets (obs/contention.h): measured c / l, component-size histogram,
// prediction quality of the a-priori closures, hot keys and per-reason
// abort attribution.
//
//   txconc_contend [--engine=<name>] [--threads=N] [--blocks=N]
//                  [--seed=S] [--format=text|json] [--top=K]
//
// Exit codes (mirroring txconc_profile):
//   0  every block passes the self-consistency gates
//   1  a gate failed (rate out of range, histogram does not cover the
//      block, sink/engine abort tallies disagree, sound closure missed
//      an observed address)
//   2  usage error (including a malformed number) / unknown engine
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/parse.h"
#include "exec/contention_probe.h"
#include "exec/executor.h"
#include "exec/replay.h"
#include "obs/contention.h"
#include "obs/scope.h"
#include "workload/profiles.h"

namespace {

using namespace txconc;

int usage() {
  std::cerr << "usage: txconc_contend [--engine=<name>] [--threads=N] "
               "[--blocks=N] [--seed=S]\n"
               "                      [--format=text|json] [--top=K]\n"
               "  registered engines: "
            << exec::registry_names() << "\n";
  return 2;
}

/// Self-consistency gates over one explained block; returns the first
/// violation ("" = pass). These are invariants of the measurement layer
/// itself, independent of the workload.
std::string check_block(const obs::BlockContention& b) {
  const auto bad_rate = [](double v) { return !(v >= 0.0 && v <= 1.0); };
  if (bad_rate(b.measured_c) || bad_rate(b.measured_l)) {
    return "measured c/l out of [0,1]";
  }
  if (b.measured_l > b.measured_c + 1e-12) return "measured l > measured c";
  if (bad_rate(b.measured_c_address) || bad_rate(b.measured_l_address)) {
    return "address-granularity c/l out of [0,1]";
  }
  if (b.measured_l_address > b.measured_c_address + 1e-12) {
    return "address-granularity l > c";
  }
  std::size_t covered = 0;
  for (const obs::ComponentBucket& bucket : b.component_histogram) {
    covered += bucket.size * bucket.count;
  }
  if (covered != b.num_txs) {
    return "component histogram does not cover the block";
  }
  if (bad_rate(b.precision) || bad_rate(b.recall)) {
    return "precision/recall out of [0,1]";
  }
  if (b.recall < 1.0 - 1e-12) {
    // The a-priori closure is sound for the shipped contract library
    // (exec/predict.h), so every observed address must be predicted.
    return "sound closure missed an observed address (recall < 1)";
  }
  if (b.over_approx + 1e-12 < 1.0) {
    return "over-approximation ratio below 1 despite recall 1";
  }
  for (std::size_t r = 0; r < obs::kNumAbortReasons; ++r) {
    if (b.sink_abort_totals[r] != b.engine_abort_totals[r]) {
      std::ostringstream msg;
      msg << "sink/engine abort tallies disagree for "
          << obs::abort_reason_name(static_cast<obs::AbortReason>(r)) << " ("
          << b.sink_abort_totals[r] << " vs " << b.engine_abort_totals[r]
          << ")";
      return msg.str();
    }
  }
  if (b.num_txs > 0 && b.total_touches == 0) {
    return "no touches recorded for a non-empty block";
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  std::string engine_filter;
  std::string format = "text";
  unsigned threads = 4;
  std::uint64_t blocks = 1;
  std::uint64_t seed = 42;
  std::size_t top_k = 10;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--engine=", 0) == 0) {
      engine_filter = arg.substr(9);
    } else if (arg.rfind("--threads=", 0) == 0) {
      const auto n = parse_uint(arg.substr(10),
                                std::numeric_limits<unsigned>::max());
      if (!n || *n == 0) return usage();
      threads = static_cast<unsigned>(*n);
    } else if (arg.rfind("--blocks=", 0) == 0) {
      const auto n = parse_uint(arg.substr(9));
      if (!n || *n == 0) return usage();
      blocks = *n;
    } else if (arg.rfind("--seed=", 0) == 0) {
      const auto n = parse_uint(arg.substr(7));
      if (!n) return usage();
      seed = *n;
    } else if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
      if (format != "text" && format != "json") return usage();
    } else if (arg.rfind("--top=", 0) == 0) {
      const auto k = parse_uint(arg.substr(6));
      if (!k) return usage();
      top_k = static_cast<std::size_t>(*k);
    } else {
      return usage();
    }
  }

  std::vector<const exec::ExecutorSpec*> specs;
  for (const exec::ExecutorSpec& spec : exec::executor_registry()) {
    if (engine_filter.empty() || spec.name == engine_filter) {
      specs.push_back(&spec);
    }
  }
  if (specs.empty()) {
    std::cerr << "txconc_contend: unknown engine \"" << engine_filter
              << "\"; registered engines: " << exec::registry_names()
              << "\n";
    return 2;
  }

  const workload::ChainProfile profile = workload::ethereum_profile();
  const std::uint64_t skip =
      blocks < profile.default_blocks ? profile.default_blocks - blocks : 0;

  bool gate_failed = false;
  bool json_first = true;
  if (format == "json") std::cout << "[";
  for (const exec::ExecutorSpec* spec : specs) {
    const auto executor = spec->make(threads);
    exec::ContentionProbe probe;
    obs::Scope scope;
    scope.contention = probe.sink();
    exec::HistoryReplayer replayer(profile, seed, skip);
    replayer.set_obs(&scope);
    replayer.set_block_observer(&probe);
    replayer.set_access_recorder(&probe);
    for (std::uint64_t b = 0; b < blocks && replayer.remaining() > 0; ++b) {
      replayer.replay_next(*executor);
    }
    for (std::size_t b = 0; b < probe.blocks().size(); ++b) {
      const obs::BlockContention& block = probe.blocks()[b];
      if (format == "json") {
        if (!json_first) std::cout << ",";
        json_first = false;
        std::cout << "\n{\"executor\": \"" << spec->name
                  << "\", \"block\": " << b << ", \"contention\": ";
        obs::write_json(std::cout, block, top_k);
        std::cout << "}";
      } else {
        std::cout << "== engine " << spec->name << ", block " << b
                  << " ==\n";
        obs::write_text(std::cout, block, top_k);
        std::cout << "\n";
      }
      const std::string violation = check_block(block);
      if (!violation.empty()) {
        gate_failed = true;
        std::cerr << "txconc_contend: " << spec->name << " block " << b
                  << ": " << violation << "\n";
      }
    }
  }
  if (format == "json") std::cout << "\n]\n";
  return gate_failed ? 1 : 0;
}
