// A fixed-size thread pool that runs one fork-join batch at a time: a
// chunked, deadlock-safe parallel_for with no task queue.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/hot_path.h"
#include "common/thread_annotations.h"

namespace txconc::exec {

/// Monotonic scheduling counters, accumulated over the pool's lifetime.
/// Executors diff two snapshots to attribute overhead to one block.
struct ThreadPoolStats {
  /// Workers that joined a batch (worker wakeups): at most size() per
  /// parallel_for call.
  std::uint64_t tasks_run = 0;
  std::uint64_t parallel_for_calls = 0;
  /// Contiguous index grains whose body actually ran, across all
  /// parallel_for calls. Grains claimed after a failure was recorded are
  /// skipped and NOT counted (they did no work).
  std::uint64_t grains_total = 0;
  /// Grains the calling thread drained itself (caller-runs share);
  /// always > 0 when the pool is busy or the call is nested.
  std::uint64_t grains_caller_run = 0;
};

/// Fixed worker pool with one batch slot and no task queue. A
/// parallel_for publishes its batch in the slot; parked workers join it,
/// drain the grain cursor alongside the caller, and leave. The call
/// returns once every worker that joined has left, so the batch lives on
/// the caller's stack and a warm call allocates nothing.
///
/// Lock discipline (checked by the `tsa` CI lane): the slot state and the
/// stopping flag are guarded by mutex_; the scheduling counters are
/// atomics and deliberately unguarded.
class ThreadPool {
 public:
  /// @param name  observability label: workers register under this as
  ///              their trace process (pid) and executors pass their
  ///              engine name so worker spans group with caller spans.
  explicit ThreadPool(unsigned num_threads, const char* name = "pool");
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Run fn(i) for i in [0, count) across the pool and wait for all.
  ///
  /// The range is split into contiguous grains claimed through an atomic
  /// cursor, by the calling thread too (caller-runs). A caller that finds
  /// the slot busy — a nested call from inside a grain, or a concurrent
  /// caller — runs all of its grains alone, so nesting never deadlocks.
  ///
  /// The first exception thrown by any grain is captured and rethrown
  /// exactly once after the whole range has completed; grains claimed
  /// after a failure is recorded are skipped.
  ///
  /// @param grain  indices per chunk; 0 picks a size targeting a few
  ///               chunks per worker for load balance.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn,
                    std::size_t grain = 0);

  /// parallel_for variant whose fn also receives a stable execution-slot
  /// id in [0, size()]: the caller is slot 0 and worker w, which joins a
  /// batch at most once, is slot w+1. Two concurrently running grains of
  /// one call never share a slot — engines index per-worker scratch
  /// (overlays, trackers, accumulators) by it without locks.
  ///
  /// Caveat: slot ids are per-call, so a NESTED slotted call reuses slot
  /// ids already live in the outer call. The engines only fan out one
  /// level; keep it that way for slot-indexed scratch.
  using SlotFn = std::function<void(unsigned slot, std::size_t i)>;
  TXCONC_HOT void parallel_for_slots(std::size_t count, const SlotFn& fn,
                                     std::size_t grain = 0);

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Snapshot of the monotonic scheduling counters.
  ThreadPoolStats stats() const;

  /// Test-only: install a process-wide hook invoked (from the claiming
  /// thread) before every grain of every parallel_for in every pool; the
  /// argument is a monotonically increasing call sequence number. The
  /// conformance harness installs a seeded perturber here to drive many
  /// distinct interleavings out of one binary. Pass nullptr to remove.
  /// Install/remove only while no parallel_for is in flight; the fast path
  /// when no hook is installed is a single relaxed atomic load. Returns
  /// the previously installed hook (an empty function when none), so
  /// scoped installers can restore it.
  using GrainHook = std::function<void(std::uint64_t grain_seq)>;
  static GrainHook swap_grain_hook(GrainHook hook);

  /// Whether any grain hook is currently installed (test assertions).
  static bool grain_hook_installed();

  /// RAII installer for the grain hook: installs `hook` on construction
  /// and restores the PREVIOUS hook on destruction. Nested guards compose
  /// and a scope that unwinds through an exception cannot leak its hook
  /// into later tests or benches — the conformance SchedulePerturber is
  /// built on this.
  class GrainHookGuard {
   public:
    explicit GrainHookGuard(GrainHook hook)
        : prev_(swap_grain_hook(std::move(hook))) {}
    ~GrainHookGuard() { swap_grain_hook(std::move(prev_)); }

    GrainHookGuard(const GrainHookGuard&) = delete;
    GrainHookGuard& operator=(const GrainHookGuard&) = delete;

   private:
    GrainHook prev_;
  };

 private:
  struct Batch;  // one parallel_for call, on its caller's stack

  void worker_loop(unsigned worker_index);
  TXCONC_HOT void run_grains(Batch& batch, unsigned slot);

  const char* label_;                 // interned pool name (see obs/trace.h)
  std::vector<std::thread> workers_;  // written once in the constructor
  Mutex mutex_;
  CondVar cv_;       // parked workers wait here for the next batch
  CondVar left_cv_;  // a caller waits here for its workers to leave
  // The batch slot: a published batch stays in it until every worker that
  // joined has left, and takes joins only until its caller closes it. A
  // worker joins each generation (published batch) at most once.
  Batch* batch_ GUARDED_BY(mutex_) = nullptr;
  bool open_ GUARDED_BY(mutex_) = false;
  std::uint64_t generation_ GUARDED_BY(mutex_) = 0;
  unsigned joined_ GUARDED_BY(mutex_) = 0;
  bool stopping_ GUARDED_BY(mutex_) = false;

  std::atomic<std::uint64_t> tasks_run_{0};
  std::atomic<std::uint64_t> parallel_for_calls_{0};
  std::atomic<std::uint64_t> grains_total_{0};
  std::atomic<std::uint64_t> grains_caller_run_{0};
};

}  // namespace txconc::exec
