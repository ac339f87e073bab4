#include "exec/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace txconc::exec {

namespace {

// Process-wide grain hook (test-only). The installed-flag keeps the
// production path to one relaxed load per grain; the shared_ptr keeps a
// hook alive for any straggler grain that loaded it just before removal.
std::atomic<bool> g_grain_hook_installed{false};
Mutex g_grain_hook_mutex;
std::shared_ptr<const ThreadPool::GrainHook> g_grain_hook
    GUARDED_BY(g_grain_hook_mutex);
std::atomic<std::uint64_t> g_grain_seq{0};

std::shared_ptr<const ThreadPool::GrainHook> load_grain_hook() {
  const MutexLock lock(g_grain_hook_mutex);
  return g_grain_hook;
}

}  // namespace

ThreadPool::GrainHook ThreadPool::swap_grain_hook(GrainHook hook) {
  const MutexLock lock(g_grain_hook_mutex);
  GrainHook previous = g_grain_hook ? *g_grain_hook : GrainHook{};
  if (hook) {
    g_grain_hook = std::make_shared<const GrainHook>(std::move(hook));
    // Each installation restarts the sequence so a seeded hook replays the
    // same schedule regardless of what ran before it.
    // ordering: relaxed — the seq is only read by grains that already
    // observed the installed flag; no data rides on it.
    g_grain_seq.store(0, std::memory_order_relaxed);
    // ordering: release publishes the hook written under the mutex above;
    // pairs with the acquire loads in run_grains / grain_hook_installed.
    g_grain_hook_installed.store(true, std::memory_order_release);
  } else {
    g_grain_hook = nullptr;
    // ordering: release so the cleared hook is ordered before the flag;
    // a straggler that raced the removal holds a shared_ptr anyway.
    g_grain_hook_installed.store(false, std::memory_order_release);
  }
  return previous;
}

bool ThreadPool::grain_hook_installed() {
  // ordering: acquire pairs with the release stores in swap_grain_hook.
  return g_grain_hook_installed.load(std::memory_order_acquire);
}

/// One parallel_for call, on its caller's stack: the caller returns only
/// after every worker that joined has left.
struct ThreadPool::Batch {
  Batch(std::size_t n, std::size_t g, const SlotFn& f)
      : count(n), grain(g), num_grains((n + g - 1) / g), fn(&f) {}

  const std::size_t count;
  const std::size_t grain;
  const std::size_t num_grains;
  const SlotFn* const fn;
  std::atomic<std::size_t> next{0};  ///< grain cursor
  std::atomic<bool> failed{false};
  /// First grain exception, written only by the grain that flips failed.
  std::exception_ptr error;
};

ThreadPool::ThreadPool(unsigned num_threads, const char* name)
    : label_(obs::intern_label(name)) {
  if (num_threads == 0) throw UsageError("ThreadPool needs >= 1 thread");
  workers_.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) {
    w.join();
  }
}

void ThreadPool::run_grains(Batch& batch, unsigned slot) {
  std::uint64_t ran = 0;
  for (;;) {
    // ordering: relaxed — the cursor only partitions indices; batch data
    // is published by mutex_ at join, completion by mutex_ at leave.
    const std::size_t g = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (g >= batch.num_grains) break;
    // ordering: acquire pairs with swap_grain_hook's release publication.
    if (g_grain_hook_installed.load(std::memory_order_acquire)) {
      if (const auto hook = load_grain_hook(); hook) {
        // ordering: relaxed — monotone ticket; no data rides on it.
        (*hook)(g_grain_seq.fetch_add(1, std::memory_order_relaxed));
      }
    }
    // Grains claimed after a failure are skipped and, having done no
    // work, not counted. ordering: relaxed — failed is a skip hint only.
    if (batch.failed.load(std::memory_order_relaxed)) continue;
    ++ran;
    const std::size_t begin = g * batch.grain;
    const std::size_t end = std::min(batch.count, begin + batch.grain);
    try {
      for (std::size_t i = begin; i < end; ++i) (*batch.fn)(slot, i);
    } catch (...) {
      // The one grain that flips the flag owns error; the caller reads it
      // after every participant has left (mutex_).
      if (!batch.failed.exchange(true)) {
        batch.error = std::current_exception();
      }
    }
  }
  // ordering: relaxed — statistical counters, read via stats() only.
  grains_total_.fetch_add(ran, std::memory_order_relaxed);
  if (slot == 0) grains_caller_run_.fetch_add(ran, std::memory_order_relaxed);
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t grain) {
  const SlotFn slotted = [&fn](unsigned, std::size_t i) { fn(i); };
  parallel_for_slots(count, slotted, grain);
}

void ThreadPool::parallel_for_slots(std::size_t count, const SlotFn& fn,
                                    std::size_t grain) {
  if (count == 0) return;
  // ordering: relaxed — statistical counter, read via stats() only.
  parallel_for_calls_.fetch_add(1, std::memory_order_relaxed);

  if (grain == 0) {
    // A few grains per worker balances load without shrinking chunks to
    // the point where the cursor becomes contended again.
    grain = std::max<std::size_t>(1, count / (size() * 4));
  }
  Batch batch(count, grain, fn);

  // Publish only when a worker has a grain to take and the slot is free.
  // A nested or concurrent caller finds it busy and drains its own cursor
  // alone: never depending on a worker is what makes nesting safe.
  bool published = false;
  if (batch.num_grains > 1) {
    const MutexLock lock(mutex_);
    published = batch_ == nullptr;
    if (published) {
      batch_ = &batch;
      open_ = true;
      ++generation_;
    }
  }
  if (published) cv_.notify_all();

  run_grains(batch, /*slot=*/0);

  if (published) {
    // The cursor is drained: close the batch to new joins, wait for the
    // workers inside it, then free the slot. Their leaves, under mutex_,
    // also publish their grains' writes and batch.error to this thread.
    const MutexLock lock(mutex_);
    open_ = false;
    while (joined_ != 0) left_cv_.wait(mutex_);
    batch_ = nullptr;
  }
  if (batch.error) std::rethrow_exception(batch.error);
}

ThreadPoolStats ThreadPool::stats() const {
  ThreadPoolStats s;
  // ordering: relaxed — monotone stats snapshot; no data rides on it.
  s.tasks_run = tasks_run_.load(std::memory_order_relaxed);
  s.parallel_for_calls = parallel_for_calls_.load(std::memory_order_relaxed);
  // ordering: relaxed — as above.
  s.grains_total = grains_total_.load(std::memory_order_relaxed);
  s.grains_caller_run = grains_caller_run_.load(std::memory_order_relaxed);
  return s;
}

void ThreadPool::worker_loop(unsigned worker_index) {
  obs::set_thread_label(label_, static_cast<int>(worker_index));
  const unsigned slot = worker_index + 1;
  // The gap histogram attributes scheduler idleness (time between leaving
  // one batch and joining the next); only recorded while the global
  // tracer is enabled so the quiescent path stays clock-free.
  using Clock = std::chrono::steady_clock;
  Clock::time_point idle_since{};  // zero unless it left a batch traced
  std::uint64_t seen_generation = 0;
  for (;;) {
    Batch* batch = nullptr;
    {
      const MutexLock lock(mutex_);
      while (!stopping_ && !(open_ && generation_ != seen_generation)) {
        cv_.wait(mutex_);
      }
      if (stopping_) return;
      batch = batch_;
      seen_generation = generation_;
      ++joined_;
    }
    // ordering: relaxed — statistical counter, read via stats() only.
    tasks_run_.fetch_add(1, std::memory_order_relaxed);
    const bool traced = obs::Tracer::global().enabled();
    if (traced && idle_since != Clock::time_point{}) {
      static obs::Histogram& gap = obs::Registry::global().histogram(
          obs::names::kMetricPoolDequeueGapUs);
      gap.observe(
          std::chrono::duration<double, std::micro>(Clock::now() - idle_since)
              .count());
    }
    {
      TXCONC_SPAN(obs::names::kSpanPoolTask, obs::names::kCatPool);
      run_grains(*batch, slot);
    }
    idle_since = traced ? Clock::now() : Clock::time_point{};
    // Leave: past this point the caller may return and free the batch.
    const MutexLock lock(mutex_);
    if (--joined_ == 0) left_cv_.notify_one();
  }
}

}  // namespace txconc::exec
