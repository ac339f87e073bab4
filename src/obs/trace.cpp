#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "obs/json_reader.h"

namespace txconc::obs {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

constexpr const char* kDefaultProcess = "main";

// Thread labels are process-wide (not per tracer): a pool worker is the
// same worker no matter which tracer snapshots it.
struct ThreadLabel {
  const char* process = kDefaultProcess;
  int worker = -1;
};
thread_local ThreadLabel t_label;

std::atomic<std::uint64_t> g_next_tracer_id{1};

}  // namespace

const char* intern_label(const char* label) {
  static Mutex mu;
  // unordered_set<std::string> is node-based: element addresses (and so
  // c_str()) survive rehashing. Leaked intentionally with the process.
  static std::unordered_set<std::string>* const interned =
      new std::unordered_set<std::string>();
  const MutexLock lock(mu);
  return interned->emplace(label).first->c_str();
}

void set_thread_label(const char* process, int worker) {
  t_label.process = process;
  t_label.worker = worker;
}

ThreadProcessScope::ThreadProcessScope(const char* process)
    : saved_(t_label.process) {
  t_label.process = process;
}

ThreadProcessScope::~ThreadProcessScope() { t_label.process = saved_; }

/// Per-thread event store. The owning thread appends lock-free and
/// publishes through `written`; `mu` guards only the chunk list (grown
/// every kChunkEvents events) and is shared with the flushing reader.
struct Tracer::ThreadBuffer {
  static constexpr std::size_t kChunkEvents = 1024;

  explicit ThreadBuffer(std::size_t capacity) : cap(capacity) {}

  const std::size_t cap;
  const char* process_at_registration = kDefaultProcess;
  int worker = -1;

  mutable Mutex mu;
  std::vector<std::unique_ptr<TraceEvent[]>> chunks GUARDED_BY(mu);
  std::atomic<std::uint64_t> written{0};

  // Owner-thread-only cache of the chunk being filled, so the hot path
  // never takes mu; the lock is only needed when a new chunk is appended
  // (every kChunkEvents events, never again once the ring has wrapped).
  TraceEvent* current_chunk = nullptr;
  std::size_t current_chunk_index = ~std::size_t{0};

  void push(const TraceEvent& event) {
    // ordering: relaxed — written is only advanced by this owner thread;
    // the load just reads our own last store.
    const std::uint64_t n = written.load(std::memory_order_relaxed);
    const std::size_t slot = static_cast<std::size_t>(n % cap);
    const std::size_t chunk = slot / kChunkEvents;
    if (chunk != current_chunk_index) {
      const MutexLock lock(mu);
      while (chunks.size() <= chunk) {
        chunks.push_back(std::make_unique<TraceEvent[]>(kChunkEvents));
      }
      current_chunk = chunks[chunk].get();
      current_chunk_index = chunk;
    }
    current_chunk[slot % kChunkEvents] = event;
    // ordering: release publishes the slot write above; pairs with the
    // acquire loads in scan()/dropped().
    written.store(n + 1, std::memory_order_release);
  }

  template <typename Fn>
  void scan(Fn&& fn) const REQUIRES(mu) {
    // ordering: acquire pairs with push()'s release so every event below
    // index n is fully visible before we read it.
    const std::uint64_t n = written.load(std::memory_order_acquire);
    const std::uint64_t first = n > cap ? n - cap : 0;
    for (std::uint64_t i = first; i < n; ++i) {
      const std::size_t slot = static_cast<std::size_t>(i % cap);
      fn(chunks[slot / kChunkEvents][slot % kChunkEvents]);
    }
  }

  std::uint64_t dropped() const {
    // ordering: acquire pairs with push()'s release (same as scan()).
    const std::uint64_t n = written.load(std::memory_order_acquire);
    return n > cap ? n - cap : 0;
  }
};

namespace {

/// Thread-local registration cache: which tracer (id + clear generation)
/// this thread last registered with, and its buffer. The shared_ptr keeps
/// the buffer alive even if the tracer is destroyed first.
struct ThreadSlot {
  std::uint64_t tracer_id = 0;
  std::uint64_t generation = 0;
  std::shared_ptr<Tracer::ThreadBuffer> buffer;
};
thread_local ThreadSlot t_slot;

}  // namespace

Tracer::Tracer(std::size_t max_events_per_thread)
    // ordering: relaxed — unique-id ticket; no data rides on it.
    : id_(g_next_tracer_id.fetch_add(1, std::memory_order_relaxed)),
      epoch_ns_(now_ns()),
      cap_(std::max<std::size_t>(max_events_per_thread,
                                 ThreadBuffer::kChunkEvents)) {}

Tracer::~Tracer() = default;

Tracer& Tracer::global() {
  // Leaked: spans may fire from worker threads during static destruction.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::ThreadBuffer* Tracer::buffer_for_this_thread() {
  if (t_slot.tracer_id == id_ &&
      // ordering: acquire pairs with clear()'s acq_rel bump so a thread
      // re-registering after a clear sees the emptied buffer list.
      t_slot.generation == generation_.load(std::memory_order_acquire)) {
    return t_slot.buffer.get();
  }
  std::shared_ptr<ThreadBuffer> buffer;
  {
    const MutexLock lock(mu_);
    buffer = std::make_shared<ThreadBuffer>(cap_);
    buffer->process_at_registration = t_label.process;
    buffer->worker = t_label.worker;
    buffers_.push_back(buffer);
  }
  t_slot.tracer_id = id_;
  // ordering: acquire — same pairing as the fast-path check above.
  t_slot.generation = generation_.load(std::memory_order_acquire);
  t_slot.buffer = std::move(buffer);
  return t_slot.buffer.get();
}

void Tracer::begin(const char* name, const char* category, std::int64_t arg) {
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.process = t_label.process;
  event.ts_ns = now_ns() - epoch_ns_;
  event.arg = arg;
  event.phase = 'B';
  buffer_for_this_thread()->push(event);
}

void Tracer::begin_causal(const char* name, const char* category,
                          std::uint64_t trace_id, std::uint64_t span_id,
                          std::uint64_t parent_span, std::int64_t arg) {
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.process = t_label.process;
  event.ts_ns = now_ns() - epoch_ns_;
  event.arg = arg;
  event.trace_id = trace_id;
  event.span_id = span_id;
  event.parent_span = parent_span;
  event.phase = 'B';
  buffer_for_this_thread()->push(event);
}

void Tracer::end(const char* name, const char* category,
                 const char* process) {
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.process = process != nullptr ? process : t_label.process;
  event.ts_ns = now_ns() - epoch_ns_;
  event.phase = 'E';
  buffer_for_this_thread()->push(event);
}

void Tracer::instant(const char* name, const char* category,
                     std::int64_t arg) {
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.process = t_label.process;
  event.ts_ns = now_ns() - epoch_ns_;
  event.arg = arg;
  event.phase = 'i';
  buffer_for_this_thread()->push(event);
}

void Tracer::flow_start(std::uint64_t flow_id) {
  TraceEvent event;
  event.name = "flow";
  event.category = "ctx";
  event.process = t_label.process;
  event.ts_ns = now_ns() - epoch_ns_;
  event.span_id = flow_id;  // span_id doubles as the flow id
  event.phase = 's';
  buffer_for_this_thread()->push(event);
}

void Tracer::flow_bind(std::uint64_t flow_id) {
  TraceEvent event;
  event.name = "flow";
  event.category = "ctx";
  event.process = t_label.process;
  event.ts_ns = now_ns() - epoch_ns_;
  event.span_id = flow_id;
  event.phase = 'f';
  buffer_for_this_thread()->push(event);
}

std::uint64_t Tracer::next_id() {
  static std::atomic<std::uint64_t> next{1};
  // ordering: relaxed — unique-id ticket; no data rides on it.
  return next.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::clear() {
  const MutexLock lock(mu_);
  buffers_.clear();
  // ordering: acq_rel — the release side publishes the cleared list to
  // buffer_for_this_thread()'s acquire loads of generation_.
  generation_.fetch_add(1, std::memory_order_acq_rel);
}

std::size_t Tracer::event_count(const char* name) const {
  const MutexLock lock(mu_);
  std::size_t count = 0;
  for (const auto& buffer : buffers_) {
    const MutexLock buffer_lock(buffer->mu);
    buffer->scan([&](const TraceEvent& event) {
      if (name == nullptr || std::string_view(event.name) == name) ++count;
    });
  }
  return count;
}

std::uint64_t Tracer::dropped() const {
  const MutexLock lock(mu_);
  std::uint64_t total = 0;
  for (const auto& buffer : buffers_) total += buffer->dropped();
  return total;
}

void write_json_string(std::ostream& out, std::string_view text) {
  out << '"';
  for (const char c : text) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out << "\\u00" << "0123456789abcdef"[(c >> 4) & 0xf]
              << "0123456789abcdef"[c & 0xf];
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

void write_trace_ts(std::ostream& out, std::uint64_t ts_ns) {
  const std::uint64_t ns = ts_ns % 1000;
  out << ts_ns / 1000 << '.' << static_cast<char>('0' + ns / 100)
      << static_cast<char>('0' + ns / 10 % 10)
      << static_cast<char>('0' + ns % 10);
}

void Tracer::write_chrome_trace(std::ostream& out) const {
  const MutexLock lock(mu_);

  // pid assignment: dense ids over the process labels referenced by any
  // event, in first-seen order across buffers (stable for one snapshot).
  // Keyed by CONTENT, not pointer: a pool's interned label and a
  // ThreadProcessScope's string literal must land in the same process or
  // the profiler would see the workers as a separate engine (and book
  // every worker as idle).
  std::unordered_map<std::string_view, int> pid_of;
  std::vector<const char*> pid_labels;
  const auto pid_for = [&](const char* process) {
    const auto [it, inserted] = pid_of.emplace(
        std::string_view(process), static_cast<int>(pid_labels.size()));
    if (inserted) pid_labels.push_back(process);
    return it->second;
  };

  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto emit = [&](const TraceEvent& event, int tid) {
    if (!first) out << ",";
    first = false;
    out << "\n{\"name\":";
    write_json_string(out, event.name);
    out << ",\"cat\":";
    write_json_string(out, event.category);
    out << ",\"ph\":\"" << event.phase << "\",\"pid\":"
        << pid_for(event.process) << ",\"tid\":" << tid << ",\"ts\":";
    write_trace_ts(out, event.ts_ns);
    if (event.phase == 'i') out << ",\"s\":\"t\"";
    if (event.phase == 's' || event.phase == 'f') {
      out << ",\"id\":" << event.span_id;
      if (event.phase == 'f') out << ",\"bp\":\"e\"";
    }
    const bool causal = event.phase == 'B' && event.trace_id != 0;
    const bool has_arg = event.arg >= 0 && event.phase != 'E';
    if (causal || has_arg) {
      out << ",\"args\":{";
      if (causal) {
        out << "\"trace_id\":" << event.trace_id
            << ",\"span_id\":" << event.span_id
            << ",\"parent_span\":" << event.parent_span;
      }
      if (has_arg) {
        if (causal) out << ",";
        out << "\"arg\":" << event.arg;
      }
      out << "}";
    }
    out << "}";
  };

  // (pid, tid) pairs seen, for thread_name metadata after the scan.
  std::set<std::pair<int, int>> threads_seen;
  std::vector<std::string> thread_names;
  for (std::size_t b = 0; b < buffers_.size(); ++b) {
    const ThreadBuffer& buffer = *buffers_[b];
    const int tid = static_cast<int>(b);
    std::string name = buffer.worker >= 0
                           ? "worker-" + std::to_string(buffer.worker)
                           : "caller-" + std::to_string(tid);
    thread_names.push_back(std::move(name));
    const MutexLock buffer_lock(buffer.mu);
    buffer.scan([&](const TraceEvent& event) {
      threads_seen.emplace(pid_for(event.process), tid);
      emit(event, tid);
    });
  }

  // Metadata: process and thread names.
  for (std::size_t p = 0; p < pid_labels.size(); ++p) {
    if (!first) out << ",";
    first = false;
    out << "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << p
        << ",\"tid\":0,\"args\":{\"name\":";
    write_json_string(out, pid_labels[p]);
    out << "}}";
  }
  for (const auto& [pid, tid] : threads_seen) {
    out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
        << ",\"tid\":" << tid << ",\"args\":{\"name\":";
    write_json_string(out, thread_names[static_cast<std::size_t>(tid)]);
    out << "}}";
  }
  out << "\n]}\n";
}

bool Tracer::write_chrome_trace_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write_chrome_trace(out);
  return static_cast<bool>(out);
}

SpanGuard::SpanGuard(Tracer* tracer, const char* name, const char* category,
                     std::int64_t arg)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
      name_(name),
      category_(category),
      process_(t_label.process) {
  if (tracer_ != nullptr) tracer_->begin(name, category, arg);
}

SpanGuard::~SpanGuard() {
  if (tracer_ != nullptr) tracer_->end(name_, category_, process_);
}

ToggleSpan::ToggleSpan(Tracer* tracer, const char* name,
                       const char* category)
    : tracer_(tracer), name_(name), category_(category) {}

ToggleSpan::~ToggleSpan() { close(); }

void ToggleSpan::open(std::int64_t arg) {
  if (open_ || tracer_ == nullptr || !tracer_->enabled()) return;
  // Like SpanGuard, capture the process at begin so a ThreadProcessScope
  // ending between open() and close() cannot unbalance the pair.
  process_ = t_label.process;
  tracer_->begin(name_, category_, arg);
  open_ = true;
}

void ToggleSpan::close() {
  if (!open_) return;
  tracer_->end(name_, category_, process_);
  open_ = false;
}

CausalSpan::CausalSpan(Tracer* tracer, const char* name, const char* category,
                       const TraceContext& parent, std::int64_t arg)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
      name_(name),
      category_(category),
      process_(t_label.process) {
  if (tracer_ == nullptr) return;
  trace_id_ = parent.valid() ? parent.trace_id : Tracer::next_id();
  span_id_ = Tracer::next_id();
  tracer_->begin_causal(name, category, trace_id_, span_id_,
                        parent.valid() ? parent.parent_span : 0, arg);
  // Bind the incoming flow inside this slice so the viewer draws the
  // arrow from the forwarding site into this span.
  if (parent.flow_id != 0) tracer_->flow_bind(parent.flow_id);
}

CausalSpan::~CausalSpan() {
  if (tracer_ != nullptr) tracer_->end(name_, category_, process_);
}

TraceContext CausalSpan::fork() const {
  if (tracer_ == nullptr) return {};
  const std::uint64_t flow_id = Tracer::next_id();
  tracer_->flow_start(flow_id);
  return {trace_id_, span_id_, flow_id};
}

// ---------------------------------------------------------------- validator

TraceValidation validate_chrome_trace(const std::string& json) {
  TraceValidation result;
  const auto fail = [&](std::string why) {
    result.ok = false;
    result.error = std::move(why);
    return result;
  };

  const internal::ChromeTrace parsed = internal::read_chrome_trace(json);
  if (!parsed.ok) return fail(parsed.error);
  const std::vector<internal::ChromeEvent>& events = parsed.events;
  const std::map<int, std::string>& process_names = parsed.process_names;

  // Balanced B/E per (pid, tid), with monotone timestamps. The open stack
  // keeps each begin's timestamp so an end can be checked for a negative
  // duration with a specific message (instead of the generic monotonicity
  // failure it also implies).
  struct OpenSpan {
    std::string name;
    double ts = 0.0;
  };
  std::map<std::pair<int, int>, std::vector<OpenSpan>> open;
  std::map<std::pair<int, int>, double> last_ts;
  // A tid is one emitting thread's buffer, exported in push order: its
  // timestamps stay monotone even when a ThreadProcessScope moves the
  // thread between pids mid-trace, so the check also spans pids.
  std::map<int, double> last_ts_by_tid;
  for (const internal::ChromeEvent& event : events) {
    const std::pair<int, int> key{event.pid, event.tid};
    if (!event.has_ts) return fail("event without ts: " + event.name);
    if (event.phase == 'E') {
      auto& stack = open[key];
      if (stack.empty()) {
        return fail("unbalanced 'E' for '" + event.name + "' on pid " +
                    std::to_string(event.pid) + " tid " +
                    std::to_string(event.tid) + " with no open span");
      }
      if (stack.back().name != event.name) {
        return fail("unbalanced 'E': got '" + event.name +
                    "' but innermost open span is '" + stack.back().name +
                    "' on pid " + std::to_string(event.pid) + " tid " +
                    std::to_string(event.tid));
      }
      if (event.ts < stack.back().ts) {
        return fail("span '" + event.name + "' has negative duration (E ts " +
                    std::to_string(event.ts) + " < B ts " +
                    std::to_string(stack.back().ts) +
                    "): timestamps not monotone on pid " +
                    std::to_string(event.pid) + " tid " +
                    std::to_string(event.tid));
      }
    }
    const auto it = last_ts.find(key);
    if (it != last_ts.end() && event.ts < it->second) {
      return fail("timestamps not monotone on pid " +
                  std::to_string(event.pid) + " tid " +
                  std::to_string(event.tid) + " at '" + event.name + "'");
    }
    last_ts[key] = event.ts;
    const auto tid_it = last_ts_by_tid.find(event.tid);
    if (tid_it != last_ts_by_tid.end() && event.ts < tid_it->second) {
      return fail("timestamps not monotone on tid " +
                  std::to_string(event.tid) + " across pids at '" +
                  event.name + "'");
    }
    last_ts_by_tid[event.tid] = event.ts;
    if (event.phase == 'B') {
      open[key].push_back(OpenSpan{event.name, event.ts});
    } else if (event.phase == 'E') {
      open[key].pop_back();
      ++result.complete_spans;
      const auto name_it = process_names.find(event.pid);
      const std::string process = name_it != process_names.end()
                                      ? name_it->second
                                      : std::to_string(event.pid);
      result.spans_by_process[process].insert(event.name);
    }
  }
  for (const auto& [key, stack] : open) {
    if (!stack.empty()) {
      return fail("span '" + stack.back().name + "' never closed on pid " +
                  std::to_string(key.first) + " tid " +
                  std::to_string(key.second));
    }
  }

  // Causal identity: span ids must be unique, every non-root parent must
  // resolve to a span of the same trace, and parent chains must be
  // acyclic. A trace passing these checks has every causal span reachable
  // from a root of its own trace.
  std::unordered_map<std::uint64_t, std::size_t> span_index;
  for (const internal::ChromeEvent& event : events) {
    if (event.phase != 'B' || event.trace_id == 0) continue;
    if (event.span_id == 0) {
      return fail("causal span '" + event.name + "' has span_id 0");
    }
    if (!span_index.emplace(event.span_id, result.causal.size()).second) {
      return fail("duplicate span_id " + std::to_string(event.span_id) +
                  " on '" + event.name + "'");
    }
    CausalSpanInfo info;
    info.name = event.name;
    info.trace_id = event.trace_id;
    info.span_id = event.span_id;
    info.parent_span = event.parent_span;
    result.causal.push_back(std::move(info));
  }
  for (const CausalSpanInfo& info : result.causal) {
    if (info.parent_span == 0) continue;
    const auto it = span_index.find(info.parent_span);
    if (it == span_index.end()) {
      return fail("span '" + info.name + "' references unknown parent_span " +
                  std::to_string(info.parent_span));
    }
    if (result.causal[it->second].trace_id != info.trace_id) {
      return fail("span '" + info.name + "' links to parent_span " +
                  std::to_string(info.parent_span) +
                  " in a different trace");
    }
  }
  // Parent chains resolve within their trace; walking one longer than the
  // span count means it loops.
  std::vector<char> chain_ok(result.causal.size(), 0);
  for (std::size_t i = 0; i < result.causal.size(); ++i) {
    std::vector<std::size_t> path;
    std::size_t cur = i;
    while (chain_ok[cur] == 0 && result.causal[cur].parent_span != 0) {
      path.push_back(cur);
      if (path.size() > result.causal.size()) {
        return fail("parent chain of span '" + result.causal[i].name +
                    "' contains a cycle");
      }
      cur = span_index.at(result.causal[cur].parent_span);
    }
    chain_ok[cur] = 1;
    for (const std::size_t j : path) chain_ok[j] = 1;
  }
  for (CausalSpanInfo& info : result.causal) {
    info.linked = true;
    if (info.parent_span == 0) ++result.causal_roots;
  }
  result.causal_linked = result.causal.size();

  // Flow events: every bind ('f') must name a started flow ('s').
  std::unordered_set<std::uint64_t> flow_starts;
  for (const internal::ChromeEvent& event : events) {
    if (event.phase != 's' && event.phase != 'f') continue;
    if (event.id == 0) {
      return fail(std::string("flow event ('") + event.phase +
                  "') without an id");
    }
    if (event.phase == 's') flow_starts.insert(event.id);
  }
  for (const internal::ChromeEvent& event : events) {
    if (event.phase != 'f') continue;
    if (flow_starts.count(event.id) == 0) {
      return fail("flow bind " + std::to_string(event.id) +
                  " has no matching flow start");
    }
    ++result.flow_binds;
  }

  result.events = events.size();
  result.ok = true;
  return result;
}

}  // namespace txconc::obs
