// PBFT cost model used inside Zilliqa committees.
//
// "nodes run PoW to determine their committees, and a variant of PBFT to
// ensure security at local committees" — paper, Section II-B. We model the
// protocol's message complexity and latency rather than running real
// network rounds: three all-to-all-ish phases, plus view changes when the
// leader is faulty.
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "common/thread_annotations.h"
#include "obs/context.h"

namespace txconc::obs {
struct Scope;  // tracer + metrics bundle, see obs/scope.h
}

namespace txconc::shard {

/// Parameters of one PBFT instance.
struct PbftConfig {
  unsigned committee_size = 600;
  double message_latency = 0.1;      ///< One-way delay in seconds.
  double view_change_timeout = 2.0;  ///< Seconds wasted per faulty leader.
  double faulty_leader_probability = 0.0;
  /// Observability sink for round spans and counters. Null keeps the old
  /// behavior: spans to the global tracer, counters to the global
  /// registry while the global tracer is enabled.
  const obs::Scope* obs = nullptr;
};

/// Result of one consensus round.
struct PbftOutcome {
  double latency_seconds = 0.0;
  std::uint64_t messages = 0;
  unsigned view_changes = 0;
};

/// Number of protocol messages in one fault-free round:
/// pre-prepare (n-1) + prepare (n*(n-1)) + commit (n*(n-1)).
std::uint64_t pbft_message_count(unsigned committee_size);

/// Latency of one fault-free round: three phases of one message delay each.
double pbft_round_latency(const PbftConfig& config);

/// Simulates consecutive PBFT rounds, sampling leader failures.
///
/// Thread-safe monitor: concurrent run_round() calls serialize on an
/// internal mutex (committees are driven independently, so the sharding
/// layer may fan rounds of different committees out across threads). The
/// leader-failure sampling order under concurrent callers is whatever the
/// lock hands out — per-committee determinism holds as long as each
/// committee is driven by one logical sequence of rounds.
class PbftSimulator {
 public:
  PbftSimulator(std::uint64_t seed, PbftConfig config);

  /// Run one round to completion (retrying through view changes).
  /// `trace` is the causal context of whatever the round decides on (a
  /// block, an epoch's micro-block); the round span and its pre-prepare /
  /// prepare / commit children join that trace.
  PbftOutcome run_round(const obs::TraceContext& trace = {});

  const PbftConfig& config() const { return config_; }

 private:
  mutable Mutex mu_;
  Rng rng_ GUARDED_BY(mu_);
  PbftConfig config_;  // immutable after construction
};

}  // namespace txconc::shard
