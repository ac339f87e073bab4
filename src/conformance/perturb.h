// Seeded schedule perturber: a ThreadPool grain hook that injects
// deterministic, seed-derived delays and yields at grain boundaries.
//
// The executors' results are required to be schedule-independent; the
// perturber makes that property testable by forcing many distinct worker
// interleavings (block-stm task claim orders, speculative overlay completion
// orders, caller-runs vs helper-runs races) out of one binary, one seed
// per interleaving family.
#pragma once

#include <cstdint>

#include "common/thread_annotations.h"
#include "exec/thread_pool.h"

namespace txconc::conformance {

/// What the perturber does at one grain boundary.
enum class PerturbAction : unsigned {
  kNone = 0,
  kYield,       ///< std::this_thread::yield()
  kShortSleep,  ///< 1-5 us: reorders adjacent grain claims
  kLongSleep,   ///< 20-100 us: lets whole waves drain past this thread
};

struct Perturbation {
  PerturbAction action = PerturbAction::kNone;
  unsigned micros = 0;  ///< Sleep length for the sleep actions.
};

/// The pure delay schedule: what happens at the k-th grain boundary under
/// a given seed. Exposed separately from the installer so determinism is
/// directly testable.
Perturbation perturbation_for(std::uint64_t seed, std::uint64_t grain_seq);

/// What one perturber injected while installed. Lets tests assert the
/// perturbation actually exercised schedules (a wired-but-dead hook would
/// silently weaken every conformance sweep).
struct PerturbStats {
  std::uint64_t grains_seen = 0;
  std::uint64_t yields = 0;
  std::uint64_t sleeps = 0;
  std::uint64_t slept_micros = 0;
};

/// RAII installer of the process-wide ThreadPool grain hook. While alive,
/// every grain of every pool follows the seeded schedule above; the
/// underlying GrainHookGuard restores whatever hook was installed before,
/// so nested perturbers compose and a grid that unwinds through a test
/// failure can never leak perturbation into later tests or benches. Pools
/// must be idle at (de)installation — the conformance oracle scopes one
/// per run.
class SchedulePerturber {
 public:
  explicit SchedulePerturber(std::uint64_t seed);
  ~SchedulePerturber() = default;

  SchedulePerturber(const SchedulePerturber&) = delete;
  SchedulePerturber& operator=(const SchedulePerturber&) = delete;

  /// Snapshot of the actions injected so far. The counters are written by
  /// every pool thread that claims a grain, so they live behind a Mutex
  /// (the hook path is test-only; contention is irrelevant there).
  PerturbStats stats() const;

 private:
  void record(const Perturbation& p);

  static exec::ThreadPool::GrainHook make_hook(SchedulePerturber* self,
                                               std::uint64_t seed);

  mutable Mutex mu_;
  PerturbStats stats_ GUARDED_BY(mu_);
  // Declared last: installs the hook only after mu_/stats_ are live.
  exec::ThreadPool::GrainHookGuard guard_;
};

}  // namespace txconc::conformance
