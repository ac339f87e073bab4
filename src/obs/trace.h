// Low-overhead span tracing with Chrome trace_event JSON export.
//
// The tracer records begin/end/instant events into per-thread buffers so
// that a fully parallel block execution can be opened in Perfetto or
// chrome://tracing and inspected span by span: which transactions ran
// where, how long the scheduler sat idle, and how the wall clock splits
// into the paper's predict / parallel / sequential-tail phases.
//
// Cost model (see DESIGN.md §11):
//  * disabled (the default): every TXCONC_SPAN site is one relaxed atomic
//    load — no clock read, no allocation, no lock;
//  * enabled: two steady_clock reads per span plus a lock-free write into
//    the emitting thread's buffer. The tracer's common::Mutex is taken
//    only on thread registration, buffer-chunk growth (every
//    kChunkEvents events) and flush, never per event.
//
// Buffers grow in fixed chunks up to a per-thread event cap, then wrap
// (oldest events are overwritten and counted as dropped). Flush while
// emitters are still running is safe for published events but may miss
// in-flight ones; export quiescently for exact traces.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_annotations.h"
#include "obs/context.h"

namespace txconc::obs {

/// Intern a label so the returned pointer stays valid for the process
/// lifetime (trace events store raw const char*; pool / executor names
/// must outlive their buffers). Interning the same text twice returns the
/// same pointer, which is what folds a pool's workers and its executor's
/// caller-thread spans into one trace process.
const char* intern_label(const char* label);

/// Label the calling thread for trace export: `process` becomes the
/// Chrome-trace pid group (executor / pool name), `worker` the thread
/// name ("worker-N"; pass -1 for a caller thread). Thread pools call this
/// once per worker at startup; ThreadProcessScope flips it temporarily on
/// caller threads. `process` must be interned or a string literal.
void set_thread_label(const char* process, int worker);

/// RAII: relabel the calling thread's process for one block execution so
/// every span the caller emits (predict, schedule, commit, caller-run
/// grains) lands under the executor's pid next to its workers.
class ThreadProcessScope {
 public:
  explicit ThreadProcessScope(const char* process);
  ~ThreadProcessScope();

  ThreadProcessScope(const ThreadProcessScope&) = delete;
  ThreadProcessScope& operator=(const ThreadProcessScope&) = delete;

 private:
  const char* saved_;
};

/// One recorded event. `name`, `category` and `process` are unowned
/// pointers to string literals or interned labels.
struct TraceEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  const char* process = nullptr;
  std::uint64_t ts_ns = 0;  ///< steady-clock, relative to the tracer epoch
  std::int64_t arg = -1;    ///< optional integer payload (tx index, wave)
  /// Causal identity of a 'B' event (all zero for plain spans); for flow
  /// events ('s'/'f'), span_id doubles as the flow id.
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span = 0;
  char phase = 'i';  ///< 'B' begin, 'E' end, 'i' instant, 's'/'f' flow
};

/// One causally-identified span as seen by validate_chrome_trace.
struct CausalSpanInfo {
  std::string name;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span = 0;  ///< 0 = trace root
  /// True when the parent chain reaches a root span of the same trace.
  bool linked = false;
};

/// Outcome of validate_chrome_trace (used by tests and the CI smoke).
struct TraceValidation {
  bool ok = false;
  std::string error;
  std::size_t events = 0;  ///< trace events parsed ('B'/'E'/'i'/'s'/'f')
  std::size_t complete_spans = 0;  ///< matched B/E pairs
  /// process name -> span names with at least one balanced B/E pair.
  std::map<std::string, std::set<std::string>> spans_by_process;
  /// Spans carrying a trace context, in parse order.
  std::vector<CausalSpanInfo> causal;
  std::size_t causal_roots = 0;   ///< causal spans with parent_span == 0
  std::size_t causal_linked = 0;  ///< causal spans reachable from a root
  std::size_t flow_binds = 0;     ///< 'f' events matched to an 's'
};

/// Minimal Chrome-trace JSON checker: parses the traceEvents array and
/// verifies that every 'E' matches the innermost open 'B' of its
/// (pid, tid), that timestamps are monotone per (pid, tid), that every
/// span's parent reference resolves inside its own trace (no dangling
/// parent ids, no duplicate span ids), and that every flow bind ('f')
/// has a matching flow start ('s').
TraceValidation validate_chrome_trace(const std::string& json);

/// Write a Chrome-trace `ts` (microseconds) the way write_chrome_trace
/// does: integer microseconds and three fixed decimals, so a timestamp
/// keeps its nanoseconds however long after the tracer's epoch it falls.
void write_trace_ts(std::ostream& out, std::uint64_t ts_ns);

/// Write `text` as a quoted JSON string: `"` and `\` escaped, every
/// control byte as \n, \t or \u00XX. The trace writer and the critical-
/// path report (obs/critpath.h) both use it.
void write_json_string(std::ostream& out, std::string_view text);

/// Span/instant recorder. One process-wide instance (global()) backs the
/// TXCONC_SPAN macros; tests may construct private tracers.
class Tracer {
 public:
  /// @param max_events_per_thread ring cap per emitting thread; buffers
  ///        grow chunk-by-chunk toward it and wrap beyond it.
  explicit Tracer(std::size_t max_events_per_thread = 1 << 16);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The process tracer the TXCONC_SPAN/TXCONC_INSTANT macros target.
  static Tracer& global();

  // ordering: relaxed — the flag is an advisory on/off switch, not a
  // publication: event data travels through each ThreadBuffer's `written`
  // release/acquire pair, and emitters only race harmlessly with a
  // toggle (a span around the flip may or may not be recorded). The
  // stores used to be `release`, but with every reader relaxed that
  // release synchronized with nothing — a lone-release publication the
  // atomics-discipline lint rule now rejects outright.
  // ordering: relaxed — advisory flag, see above.
  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  // ordering: relaxed — as above.
  void disable() { enabled_.store(false, std::memory_order_relaxed); }
  // ordering: relaxed — as above.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Raw event emission (the macros are the intended entry points).
  void begin(const char* name, const char* category, std::int64_t arg = -1);
  /// Causal begin: like begin(), stamping the span's trace identity into
  /// the event (exported as args and checked by validate_chrome_trace).
  void begin_causal(const char* name, const char* category,
                    std::uint64_t trace_id, std::uint64_t span_id,
                    std::uint64_t parent_span, std::int64_t arg = -1);
  /// @param process pass the process label captured at begin() so a
  ///        ThreadProcessScope ending mid-span cannot unbalance the pair.
  void end(const char* name, const char* category, const char* process);
  void instant(const char* name, const char* category, std::int64_t arg = -1);
  /// Flow events: flow_start ('s') at the forwarding site, flow_bind
  /// ('f', bp=e) inside the receiving span. Same id links the pair and
  /// makes Perfetto draw the cross-thread/cross-node arrow.
  void flow_start(std::uint64_t flow_id);
  void flow_bind(std::uint64_t flow_id);

  /// Process-unique non-zero id (trace / span / flow ids). One relaxed
  /// atomic increment; never allocates.
  static std::uint64_t next_id();

  /// Drop every recorded event and detach all thread buffers; threads
  /// re-register on their next emission. Call quiescently.
  void clear();

  /// Events currently held (optionally only those named `name`).
  std::size_t event_count(const char* name = nullptr) const;
  /// Events lost to ring wrap-around across all buffers.
  std::uint64_t dropped() const;

  /// Chrome trace_event JSON ("traceEvents" array object form), loadable
  /// in Perfetto / chrome://tracing. pid = process label (executor /
  /// pool), tid = registration order, with process_name / thread_name
  /// metadata records.
  void write_chrome_trace(std::ostream& out) const;
  /// Convenience: write_chrome_trace to `path`; false on I/O failure.
  bool write_chrome_trace_file(const std::string& path) const;

  /// Internal per-thread event store (defined in trace.cpp); public only
  /// so the thread-local registration slot can hold a shared_ptr to it.
  struct ThreadBuffer;

 private:
  ThreadBuffer* buffer_for_this_thread();

  const std::uint64_t id_;  ///< process-unique, guards thread-local reuse
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> generation_{0};  ///< bumped by clear()
  std::uint64_t epoch_ns_;                    ///< construction timestamp
  const std::size_t cap_;                     ///< per-thread ring cap

  mutable Mutex mu_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_ GUARDED_BY(mu_);
};

/// RAII begin/end pair. Does nothing (and allocates nothing) when the
/// tracer is null or disabled at construction; once begun, the end event
/// is always emitted so traces stay balanced even if the tracer is
/// disabled mid-span.
class SpanGuard {
 public:
  SpanGuard(Tracer* tracer, const char* name, const char* category,
            std::int64_t arg = -1);
  ~SpanGuard();

  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  Tracer* tracer_;  ///< null when the span was skipped
  const char* name_;
  const char* category_;
  const char* process_;
};

/// Manually toggled span for sites where the open/close points are not
/// lexical scopes — e.g. a scheduler participant opening a "wait" span on
/// a fruitless claim pass and closing it when work arrives. The pair is
/// still enforced: open() while open and close() while closed are no-ops,
/// and the destructor closes an open span, so traces stay balanced.
/// Null-safe and allocation-free like SpanGuard; the enabled check runs
/// per open() so a tracer enabled mid-lifetime is picked up.
class ToggleSpan {
 public:
  ToggleSpan(Tracer* tracer, const char* name, const char* category);
  ~ToggleSpan();

  ToggleSpan(const ToggleSpan&) = delete;
  ToggleSpan& operator=(const ToggleSpan&) = delete;

  /// Emit the begin event (no-op when already open or tracer off).
  void open(std::int64_t arg = -1);
  /// Emit the matching end event (no-op when not open).
  void close();
  bool is_open() const { return open_; }

 private:
  Tracer* const tracer_;
  const char* name_;
  const char* category_;
  const char* process_ = nullptr;  ///< captured at open()
  bool open_ = false;
};

/// RAII span that participates in causal tracing (see obs/context.h).
///
/// Started under a valid parent context it joins that trace and links to
/// the parent span; started under the zero context it mints a fresh
/// trace root. Either way it hands out contexts for its children:
///
///   obs::CausalSpan block(tracer, "produce_block", "chain");   // root
///   obs::CausalSpan pack(tracer, "pack", "chain", block.context());
///   relay_to_peer(block_bytes, block.fork());  // cross-node edge
///
/// context() is for same-process children (parent linkage only);
/// fork() additionally emits a flow-start event on the calling thread —
/// use it when the context crosses a thread, node or committee boundary
/// so the trace viewer draws the arrow. Both are null-safe and
/// allocation-free when the span was skipped (tracer null or disabled):
/// they return the zero context and emit nothing.
class CausalSpan {
 public:
  CausalSpan(Tracer* tracer, const char* name, const char* category,
             const TraceContext& parent = {}, std::int64_t arg = -1);
  ~CausalSpan();

  CausalSpan(const CausalSpan&) = delete;
  CausalSpan& operator=(const CausalSpan&) = delete;

  /// Context for children of this span (zero when the span was skipped).
  TraceContext context() const { return {trace_id_, span_id_, 0}; }
  /// Like context(), plus a flow-start event so the consumer's flow_bind
  /// draws a cross-thread arrow. Call from the thread that owns the span.
  TraceContext fork() const;

  std::uint64_t trace_id() const { return trace_id_; }
  std::uint64_t span_id() const { return span_id_; }

 private:
  Tracer* tracer_;  ///< null when the span was skipped
  const char* name_;
  const char* category_;
  const char* process_;
  std::uint64_t trace_id_ = 0;
  std::uint64_t span_id_ = 0;
};

}  // namespace txconc::obs

// Span macros. The _T variants take an explicit `obs::Tracer*` (null-safe;
// executors route the scope threaded through RuntimeConfig here), the
// plain ones target Tracer::global() (thread pool, chain, shard layers).
#define TXCONC_OBS_CONCAT2(a, b) a##b
#define TXCONC_OBS_CONCAT(a, b) TXCONC_OBS_CONCAT2(a, b)

#define TXCONC_SPAN_T(tracer, name, category, ...)                       \
  ::txconc::obs::SpanGuard TXCONC_OBS_CONCAT(txconc_span_, __LINE__)(    \
      (tracer), (name), (category), ##__VA_ARGS__)
#define TXCONC_SPAN(name, category, ...)                                 \
  TXCONC_SPAN_T(&::txconc::obs::Tracer::global(), (name), (category),    \
                ##__VA_ARGS__)
#define TXCONC_INSTANT_T(tracer, name, category, ...)                    \
  do {                                                                   \
    ::txconc::obs::Tracer* txconc_obs_t = (tracer);                      \
    if (txconc_obs_t != nullptr && txconc_obs_t->enabled()) {            \
      txconc_obs_t->instant((name), (category), ##__VA_ARGS__);          \
    }                                                                    \
  } while (0)
#define TXCONC_INSTANT(name, category, ...)                              \
  TXCONC_INSTANT_T(&::txconc::obs::Tracer::global(), (name), (category), \
                   ##__VA_ARGS__)
