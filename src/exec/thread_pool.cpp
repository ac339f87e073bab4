#include "exec/thread_pool.h"

#include <algorithm>
#include <chrono>

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

/// Shared state of one parallel_for call. Helper tasks hold a shared_ptr
/// so a helper that wakes up after the caller returned (having found the
/// cursor exhausted) still touches valid memory.
struct ThreadPool::Batch {
  std::size_t count = 0;
  std::size_t grain = 1;
  std::size_t num_grains = 0;
  const SlotFn* fn = nullptr;

  std::atomic<std::size_t> next{0};  ///< grain cursor
  std::atomic<std::size_t> done{0};  ///< completed (or skipped) grains
  std::atomic<bool> failed{false};
  Mutex m;
  CondVar cv;
  std::exception_ptr error GUARDED_BY(m);  ///< first grain exception
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

std::future<void> ThreadPool::submit(std::function<void()> task) {
  auto packaged =
      std::make_shared<std::packaged_task<void()>>(std::move(task));
  std::future<void> future = packaged->get_future();
  {
    const MutexLock lock(mutex_);
    if (stopping_) throw UsageError("ThreadPool: submit after shutdown");
    queue_.push([packaged] { (*packaged)(); });
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::run_grains(Batch& batch, unsigned slot) {
  std::uint64_t ran = 0;
  for (;;) {
    // ordering: relaxed — the cursor only partitions indices; batch data
    // is published by the queue mutex, completion by the acq_rel on done.
    const std::size_t g = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (g >= batch.num_grains) break;
    // ordering: acquire pairs with swap_grain_hook's release publication.
    if (g_grain_hook_installed.load(std::memory_order_acquire)) {
      if (const auto hook = load_grain_hook(); hook) {
        // ordering: relaxed — monotone ticket; no data rides on it.
        (*hook)(g_grain_seq.fetch_add(1, std::memory_order_relaxed));
      }
    }
    // ordering: relaxed — failed is a best-effort skip hint; the error
    // itself travels under batch.m.
    if (!batch.failed.load(std::memory_order_relaxed)) {
      // Only grains whose body runs count towards grains_total; grains
      // claimed after a failure are skipped work and would otherwise
      // inflate the per-block sched counters (they used to).
      ++ran;
      const std::size_t begin = g * batch.grain;
      const std::size_t end = std::min(batch.count, begin + batch.grain);
      try {
        for (std::size_t i = begin; i < end; ++i) (*batch.fn)(slot, i);
      } catch (...) {
        const MutexLock lock(batch.m);
        if (!batch.error) batch.error = std::current_exception();
        // ordering: relaxed — hint only; error publication is the mutex.
        batch.failed.store(true, std::memory_order_relaxed);
      }
    }
    // ordering: acq_rel — see every finished grain's writes and publish
    // ours to the waiter's acquire load of done in parallel_for_slots.
    if (batch.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        batch.num_grains) {
      // Taking the lock pairs with the caller's predicate check so the
      // final notify cannot slip between its check and its wait.
      const MutexLock lock(batch.m);
      batch.cv.notify_all();
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

  const std::size_t workers = size();
  if (grain == 0) {
    // A few grains per worker balances load without shrinking chunks to
    // the point where the cursor becomes contended again.
    grain = std::max<std::size_t>(1, count / (workers * 4));
  }
  auto batch = std::make_shared<Batch>();
  batch->count = count;
  batch->grain = grain;
  batch->num_grains = (count + grain - 1) / grain;
  batch->fn = &fn;

  // One helper per worker, capped at the grains the caller won't need to
  // run alone. Correctness never depends on helpers actually running: the
  // caller drains the cursor itself, which is what makes nested calls
  // (every worker busy, helpers stuck behind us in the queue) safe.
  const std::size_t helpers =
      std::min<std::size_t>(workers, batch->num_grains - 1);
  if (helpers > 0) {
    {
      const MutexLock lock(mutex_);
      if (!stopping_) {
        for (std::size_t h = 0; h < helpers; ++h) {
          const unsigned slot = static_cast<unsigned>(h) + 1;
          queue_.push([this, batch, slot] { run_grains(*batch, slot); });
        }
      }
    }
    if (helpers == 1) {
      cv_.notify_one();
    } else {
      cv_.notify_all();
    }
  }

  run_grains(*batch, /*slot=*/0);

  std::exception_ptr error;
  {
    const MutexLock lock(batch->m);
    // The done counter is an atomic, not guarded state; the lock pairs
    // with the final notifier so the wakeup cannot be lost.
    // ordering: acquire pairs with the workers' acq_rel increments.
    while (batch->done.load(std::memory_order_acquire) != batch->num_grains) {
      batch->cv.wait(batch->m);
    }
    // Reading the error under the lock is what the annotations require —
    // the pre-annotation code read it after the wait scope, relying on the
    // acquire load above for visibility (see DESIGN.md §10).
    error = batch->error;
  }
  if (error) std::rethrow_exception(error);
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
  // The gap histogram attributes scheduler idleness (time between
  // finishing one task and dequeuing the next); only recorded while the
  // global tracer is enabled so the quiescent path stays clock-free.
  // Caller-run grains never feed it: they are not dequeues, and the
  // submitting thread was busy, not idle (see the pinned-count test).
  obs::Histogram* gap_histogram = nullptr;
  std::chrono::steady_clock::time_point idle_since;
  bool idle_since_valid = false;
  for (;;) {
    std::function<void()> task;
    {
      const MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty()) {
        cv_.wait(mutex_);
      }
      if (queue_.empty()) {
        // stopping_ must be set: the wait loop only exits on stop or work.
        return;
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    if (obs::Tracer::global().enabled()) {
      const auto now = std::chrono::steady_clock::now();
      if (idle_since_valid) {
        if (gap_histogram == nullptr) {
          gap_histogram =
              &obs::Registry::global().histogram(
                  obs::names::kMetricPoolDequeueGapUs);
        }
        gap_histogram->observe(
            std::chrono::duration<double, std::micro>(now - idle_since)
                .count());
      }
      TXCONC_SPAN(obs::names::kSpanPoolTask, obs::names::kCatPool);
      task();
      idle_since = std::chrono::steady_clock::now();
      idle_since_valid = true;
    } else {
      task();
      idle_since_valid = false;
    }
    // ordering: relaxed — statistical counter, read via stats() only.
    tasks_run_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace txconc::exec
