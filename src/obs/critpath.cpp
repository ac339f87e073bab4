#include "obs/critpath.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <ostream>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/json_reader.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace txconc::obs {
namespace {

using internal::ChromeEvent;

/// One reconstructed B/E span. parent/children describe the per-thread
/// nesting tree; spans never closed in the trace are repaired after the
/// parse (extended to the end of their last finished descendant, see
/// parse_trace) so a lost trailing 'E' cannot double-count its children
/// against the thread's idle time.
struct Span {
  std::string name;
  int pid = 0;
  int tid = 0;
  double b = 0.0;
  double e = 0.0;
  std::int64_t arg = -1;
  int parent = -1;
  std::vector<int> children;
};

struct ParsedTrace {
  bool ok = false;
  std::string error;
  std::vector<Span> spans;
  std::vector<ChromeEvent> instants;
  std::map<int, std::string> process_names;
  std::map<std::pair<int, int>, std::string> thread_names;
};

ParsedTrace parse_trace(const std::string& json) {
  ParsedTrace out;
  internal::ChromeTrace read = internal::read_chrome_trace(json);
  if (!read.ok) {
    out.error = std::move(read.error);
    return out;
  }
  out.process_names = std::move(read.process_names);
  out.thread_names = std::move(read.thread_names);
  // Per-(pid,tid) stack of open span indices, for parent links.
  std::map<std::pair<int, int>, std::vector<int>> open;
  for (ChromeEvent& event : read.events) {
    if (event.phase == 'B') {
      auto& stack = open[{event.pid, event.tid}];
      Span span;
      span.name = std::move(event.name);
      span.pid = event.pid;
      span.tid = event.tid;
      span.b = event.ts;
      span.e = event.ts;  // stays zero-length if never closed
      span.arg = event.arg;
      span.parent = stack.empty() ? -1 : stack.back();
      const int index = static_cast<int>(out.spans.size());
      if (span.parent >= 0) {
        out.spans[static_cast<std::size_t>(span.parent)]
            .children.push_back(index);
      }
      out.spans.push_back(std::move(span));
      stack.push_back(index);
    } else if (event.phase == 'E') {
      auto& stack = open[{event.pid, event.tid}];
      if (stack.empty()) {
        out.error =
            "unbalanced 'E' for '" + event.name + "': validate the trace first";
        return out;
      }
      out.spans[static_cast<std::size_t>(stack.back())].e = event.ts;
      stack.pop_back();
    } else if (event.phase == 'i') {
      out.instants.push_back(std::move(event));
    }
    // 's'/'f' flow events carry no duration; the profiler skips them.
  }

  // Repair spans whose 'E' never made it into the trace: a trace written
  // while a span is still open misses its end. Left zero-length, such a
  // span would book its children's busy time into the buckets while the
  // thread also books a full wall of idle (the children no longer overlap
  // any top-level span), breaking the sum invariant from above. Extending
  // the span to its last finished descendant restores the nesting the
  // emitter intended.
  // Reverse index order repairs children before their parents (a span's
  // children always carry higher indices than the span itself).
  std::vector<char> unclosed(out.spans.size(), 0);
  for (const auto& [thread, stack] : open) {
    for (const int index : stack) {
      unclosed[static_cast<std::size_t>(index)] = 1;
    }
  }
  for (std::size_t i = out.spans.size(); i-- > 0;) {
    if (unclosed[i] == 0) continue;
    Span& span = out.spans[i];
    for (const int child : span.children) {
      span.e = std::max(span.e, out.spans[static_cast<std::size_t>(child)].e);
    }
  }
  out.ok = true;
  return out;
}

/// Overlap of span s with the window [w0, w1], clamped at zero.
double overlap_us(const Span& s, double w0, double w1) {
  return std::max(0.0, std::min(s.e, w1) - std::max(s.b, w0));
}

/// Generic span-name -> bucket mapping. `attempt` spans need per-tx
/// context (last attempt vs rework) and are resolved by the caller; the
/// fallback here treats them as tx execute for display purposes.
Bucket bucket_for(const std::string& name) {
  if (name == names::kSpanPredict || name == names::kSpanPredictClosure ||
      name == names::kSpanPredictComponents) {
    return Bucket::kGraphBuild;
  }
  if (name == names::kSpanSchedule || name == names::kSpanPoolTask) {
    return Bucket::kSchedule;
  }
  if (name == names::kSpanTx || name == names::kSpanAttempt) {
    return Bucket::kTxExecute;
  }
  if (name == names::kSpanValidate) return Bucket::kRework;
  if (name == names::kSpanExecute || name == names::kSpanWait) {
    return Bucket::kDependencyWait;
  }
  if (name == names::kSpanCommit || name == names::kSpanSeqBin) {
    return Bucket::kCommit;
  }
  return Bucket::kUntracked;
}

/// Caller-chain segments that ARE the block's execution work (the
/// parallel phase, the sequential tail, raw tx/attempt spans). Every
/// other chain segment is engine overhead the paper's §V model does not
/// charge for — the largest of those is reported as the dominant
/// overhead (for speculative at 1 thread: predict, i.e. graph build).
bool is_execution_segment(const std::string& name) {
  return name == names::kSpanExecute || name == names::kSpanSeqBin ||
         name == names::kSpanTx || name == names::kSpanAttempt;
}

/// Fold a span list (already ordered by start time) into named segments.
std::vector<PathSegment> fold_segments(
    const std::vector<std::pair<std::string, double>>& parts) {
  std::vector<PathSegment> segments;
  std::unordered_map<std::string, std::size_t> index_of;
  for (const auto& [name, us] : parts) {
    auto it = index_of.find(name);
    if (it == index_of.end()) {
      index_of.emplace(name, segments.size());
      segments.push_back(PathSegment{name, us, 1});
    } else {
      segments[it->second].us += us;
      ++segments[it->second].count;
    }
  }
  return segments;
}

std::string profile_block(const ParsedTrace& trace, int eb_index,
                          std::size_t top_k, BlockProfile* out) {
  const Span& eb = trace.spans[static_cast<std::size_t>(eb_index)];
  const double w0 = eb.b;
  const double w1 = eb.e;
  const double wall = w1 - w0;
  if (wall <= 0.0) return "execute_block span has no duration";

  const auto pname = trace.process_names.find(eb.pid);
  out->process = pname != trace.process_names.end()
                     ? pname->second
                     : "pid-" + std::to_string(eb.pid);
  out->num_txs = eb.arg > 0 ? static_cast<std::size_t>(eb.arg) : 0;
  out->wall_us = wall;

  // Thread budget: the `threads` instant the engine emits inside its
  // execute_block (arg = pool workers + caller).
  for (const ChromeEvent& ev : trace.instants) {
    if (ev.pid == eb.pid && ev.name == names::kEvThreads && ev.ts >= w0 &&
        ev.ts <= w1) {
      out->threads = ev.arg > 0 ? static_cast<unsigned>(ev.arg) : 0;
      break;
    }
  }
  if (out->threads == 0) {
    return "no '" + std::string(names::kEvThreads) +
           "' instant inside execute_block for process " + out->process +
           " (emitter predates the thread-budget contract?)";
  }
  out->budget_us = static_cast<double>(out->threads) * wall;

  // Spans of this engine overlapping the block window. Earlier blocks on
  // the same pid occupy disjoint windows and fall out here.
  std::vector<int> relevant;
  for (std::size_t i = 0; i < trace.spans.size(); ++i) {
    const Span& s = trace.spans[i];
    if (s.pid == eb.pid && s.e > w0 && s.b < w1) {
      relevant.push_back(static_cast<int>(i));
    }
  }

  // Per-tx attempt classification: a tx whose committed run is a `tx`
  // span (seq_bin fallback) had ALL its attempts aborted; otherwise its
  // last attempt by start time is the committed one.
  std::set<std::int64_t> has_final_tx;
  std::map<std::int64_t, std::pair<double, int>> last_attempt;
  for (const int i : relevant) {
    const Span& s = trace.spans[static_cast<std::size_t>(i)];
    if (s.name == names::kSpanTx) has_final_tx.insert(s.arg);
    if (s.name == names::kSpanAttempt) {
      auto it = last_attempt.find(s.arg);
      if (it == last_attempt.end() || s.b > it->second.first) {
        last_attempt[s.arg] = {s.b, i};
      }
    }
  }

  auto& buckets = out->buckets_us;
  const auto add = [&buckets](Bucket b, double us) {
    buckets[static_cast<unsigned>(b)] += us;
  };

  std::set<int> worker_tids;
  for (const int i : relevant) {
    const Span& s = trace.spans[static_cast<std::size_t>(i)];
    if (s.tid != eb.tid) worker_tids.insert(s.tid);
    if (i == eb_index) continue;  // caller self time stays uncovered
    double child_us = 0.0;
    for (const int c : s.children) {
      child_us +=
          overlap_us(trace.spans[static_cast<std::size_t>(c)], w0, w1);
    }
    const double self = std::max(0.0, overlap_us(s, w0, w1) - child_us);
    if (s.name == names::kSpanAttempt) {
      const bool committed = has_final_tx.count(s.arg) == 0 &&
                             last_attempt[s.arg].second == i;
      add(committed ? Bucket::kTxExecute : Bucket::kRework, self);
    } else if (s.name == names::kSpanExecute && out->threads == 1) {
      // One participant: there is no join to wait on, so the loop's self
      // time is per-transaction dispatch overhead.
      add(Bucket::kSchedule, self);
    } else {
      add(bucket_for(s.name), self);
    }
  }

  // Pool idle: worker time inside the window not covered by any
  // top-level span (measured), plus a full wall for each participant
  // that never surfaced in the trace.
  std::map<int, double> busy_by_tid;
  for (const int i : relevant) {
    const Span& s = trace.spans[static_cast<std::size_t>(i)];
    if (s.tid == eb.tid || s.parent != -1) continue;
    busy_by_tid[s.tid] += overlap_us(s, w0, w1);
  }
  for (const int tid : worker_tids) {
    add(Bucket::kPoolIdle, std::max(0.0, wall - busy_by_tid[tid]));
  }
  const std::size_t expected_workers = out->threads - 1;
  if (worker_tids.size() < expected_workers) {
    add(Bucket::kPoolIdle,
        static_cast<double>(expected_workers - worker_tids.size()) * wall);
  }

  double sum = 0.0;
  for (const double b : buckets) sum += b;
  out->bucket_sum_us = sum;
  out->uncovered_us = out->budget_us - sum;

  // Critical path 0: the caller's phase chain (direct children of
  // execute_block, folded by name in first-appearance order).
  std::vector<int> caller_children = eb.children;
  std::sort(caller_children.begin(), caller_children.end(),
            [&trace](int a, int b) {
              return trace.spans[static_cast<std::size_t>(a)].b <
                     trace.spans[static_cast<std::size_t>(b)].b;
            });
  std::vector<std::pair<std::string, double>> parts;
  for (const int c : caller_children) {
    const Span& s = trace.spans[static_cast<std::size_t>(c)];
    parts.emplace_back(s.name, s.e - s.b);
  }
  CritPath caller_path;
  caller_path.label = "caller";
  caller_path.segments = fold_segments(parts);
  for (const PathSegment& seg : caller_path.segments) {
    caller_path.us += seg.us;
    if (seg.us > out->dominant_us) {
      out->dominant_us = seg.us;
      out->dominant_segment = seg.name;
    }
    if (!is_execution_segment(seg.name) &&
        seg.us > out->dominant_overhead_us) {
      out->dominant_overhead_us = seg.us;
      out->dominant_overhead_segment = seg.name;
    }
  }
  out->paths.push_back(std::move(caller_path));

  // Worker chains ranked by busy time: each worker's spans folded by
  // name over their SELF time, so nested spans are not double counted.
  std::vector<std::pair<double, int>> ranked;
  for (const auto& [tid, busy] : busy_by_tid) ranked.emplace_back(busy, tid);
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (const auto& [busy, tid] : ranked) {
    if (out->paths.size() >= top_k) break;
    std::vector<std::pair<std::string, double>> worker_parts;
    for (const int i : relevant) {
      const Span& s = trace.spans[static_cast<std::size_t>(i)];
      if (s.tid != tid) continue;
      double child_us = 0.0;
      for (const int c : s.children) {
        child_us +=
            overlap_us(trace.spans[static_cast<std::size_t>(c)], w0, w1);
      }
      worker_parts.emplace_back(
          s.name, std::max(0.0, overlap_us(s, w0, w1) - child_us));
    }
    CritPath path;
    const auto tname = trace.thread_names.find({eb.pid, tid});
    path.label = tname != trace.thread_names.end()
                     ? tname->second
                     : "tid-" + std::to_string(tid);
    path.us = busy;
    path.segments = fold_segments(worker_parts);
    out->paths.push_back(std::move(path));
  }

  // Block-STM suspended-reader instants, grouped by blocking tx.
  for (const ChromeEvent& ev : trace.instants) {
    if (ev.pid == eb.pid && ev.name == names::kEvSuspend && ev.ts >= w0 &&
        ev.ts <= w1) {
      ++out->suspend_count;
      ++out->suspend_blockers[ev.arg];
    }
  }
  return std::string();
}

/// Display label for a critical-path SEGMENT. Distinct from bucket_for:
/// a caller-chain segment spans the whole phase (the execute segment is
/// mostly worker tx time, only its residual is dependency wait), so the
/// phase names get phase-level labels here.
const char* segment_kind(const std::string& name) {
  if (name == names::kSpanPredict || name == names::kSpanPredictClosure ||
      name == names::kSpanPredictComponents) {
    return "graph build";
  }
  if (name == names::kSpanSchedule) return "schedule";
  if (name == names::kSpanExecute) return "parallel execute";
  if (name == names::kSpanSeqBin) return "sequential tail";
  if (name == names::kSpanCommit) return "commit";
  if (name == names::kSpanPoolTask) return "pool task";
  if (name == names::kSpanWait) return "dependency wait";
  return "span";
}

std::string format_us(double us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", us);
  return buf;
}

std::string format_pct(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", fraction * 100.0);
  return buf;
}

}  // namespace

const char* bucket_name(Bucket bucket) {
  switch (bucket) {
    case Bucket::kGraphBuild: return "graph_build";
    case Bucket::kSchedule: return "schedule";
    case Bucket::kTxExecute: return "tx_execute";
    case Bucket::kRework: return "rework";
    case Bucket::kDependencyWait: return "dependency_wait";
    case Bucket::kCommit: return "commit";
    case Bucket::kPoolIdle: return "pool_idle";
    case Bucket::kUntracked: return "untracked";
    case Bucket::kCount: break;
  }
  return "?";
}

ProfileResult profile_chrome_trace(const std::string& json,
                                   std::size_t top_k) {
  ProfileResult result;
  if (top_k == 0) top_k = 1;
  ParsedTrace trace = parse_trace(json);
  if (!trace.ok) {
    result.error = trace.error;
    return result;
  }
  for (std::size_t i = 0; i < trace.spans.size(); ++i) {
    if (trace.spans[i].name != names::kSpanExecuteBlock) continue;
    BlockProfile profile;
    std::string error =
        profile_block(trace, static_cast<int>(i), top_k, &profile);
    if (!error.empty()) {
      result.error = std::move(error);
      return result;
    }
    result.blocks.push_back(std::move(profile));
  }
  if (result.blocks.empty()) {
    result.error = "trace contains no execute_block span";
    return result;
  }
  result.ok = true;
  return result;
}

std::string check_attribution(const BlockProfile& profile,
                              double eps_fraction, double untracked_max) {
  if (profile.budget_us <= 0.0) {
    return "block '" + profile.process + "' has a non-positive budget";
  }
  const double diff =
      std::fabs(profile.bucket_sum_us - profile.budget_us);
  if (diff > eps_fraction * profile.budget_us) {
    return "block '" + profile.process + "': attribution sum " +
           format_us(profile.bucket_sum_us) + " us vs budget " +
           format_us(profile.budget_us) + " us differs by " +
           format_pct(diff / profile.budget_us) + " (limit " +
           format_pct(eps_fraction) + ") -- a stall source is untraced";
  }
  const double untracked =
      profile.buckets_us[static_cast<unsigned>(Bucket::kUntracked)];
  if (untracked > untracked_max * profile.budget_us) {
    return "block '" + profile.process + "': untracked share " +
           format_pct(untracked / profile.budget_us) + " exceeds " +
           format_pct(untracked_max) +
           " -- unknown span names dominate, extend the taxonomy";
  }
  return std::string();
}

void write_profile_text(std::ostream& out, const BlockProfile& p) {
  out << "block profile: " << p.process << "  txs=" << p.num_txs
      << "  threads=" << p.threads << "  wall=" << format_us(p.wall_us)
      << " us  budget=" << format_us(p.budget_us) << " us\n";
  out << "  bucket            time (us)    share\n";
  for (unsigned b = 0; b < static_cast<unsigned>(Bucket::kCount); ++b) {
    char line[96];
    std::snprintf(line, sizeof(line), "  %-16s %11.1f   %6.1f%%\n",
                  bucket_name(static_cast<Bucket>(b)), p.buckets_us[b],
                  p.budget_us > 0.0
                      ? 100.0 * p.buckets_us[b] / p.budget_us
                      : 0.0);
    out << line;
  }
  char line[96];
  std::snprintf(line, sizeof(line), "  %-16s %11.1f   %6.1f%%\n", "sum",
                p.bucket_sum_us,
                p.budget_us > 0.0 ? 100.0 * p.bucket_sum_us / p.budget_us
                                  : 0.0);
  out << line;
  std::snprintf(line, sizeof(line), "  %-16s %11.1f   %6.1f%%\n",
                "uncovered", p.uncovered_us,
                p.budget_us > 0.0 ? 100.0 * p.uncovered_us / p.budget_us
                                  : 0.0);
  out << line;
  for (const CritPath& path : p.paths) {
    out << "  " << (path.label == "caller" ? "critical path" : "worker chain")
        << " [" << path.label << ", " << format_us(path.us) << " us]: ";
    bool first = true;
    for (const PathSegment& seg : path.segments) {
      if (!first) out << " -> ";
      first = false;
      out << seg.name << " " << format_us(seg.us);
      if (seg.count > 1) out << " (x" << seg.count << ")";
    }
    out << "\n";
  }
  if (!p.dominant_segment.empty()) {
    out << "  dominant segment: " << p.dominant_segment << " ("
        << segment_kind(p.dominant_segment) << ", "
        << format_us(p.dominant_us) << " us)\n";
  }
  if (!p.dominant_overhead_segment.empty()) {
    out << "  dominant overhead: " << p.dominant_overhead_segment << " ("
        << segment_kind(p.dominant_overhead_segment) << ", "
        << format_us(p.dominant_overhead_us) << " us)\n";
  }
  if (p.suspend_count > 0) {
    out << "  suspends: " << p.suspend_count << " (blockers:";
    for (const auto& [tx, count] : p.suspend_blockers) {
      out << " tx" << tx << " x" << count;
    }
    out << ")\n";
  }
}

void write_profile_json(std::ostream& out, const BlockProfile& p) {
  char buf[64];
  const auto num = [&](double v) {
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    out << buf;
  };
  out << "{\"process\":";
  write_json_string(out, p.process);
  out << ",\"num_txs\":" << p.num_txs << ",\"threads\":" << p.threads
      << ",\"wall_us\":";
  num(p.wall_us);
  out << ",\"budget_us\":";
  num(p.budget_us);
  out << ",\"buckets\":{";
  for (unsigned b = 0; b < static_cast<unsigned>(Bucket::kCount); ++b) {
    if (b != 0) out << ",";
    out << '"' << bucket_name(static_cast<Bucket>(b)) << "\":";
    num(p.buckets_us[b]);
  }
  out << "},\"bucket_sum_us\":";
  num(p.bucket_sum_us);
  out << ",\"uncovered_us\":";
  num(p.uncovered_us);
  out << ",\"dominant_segment\":";
  write_json_string(out, p.dominant_segment);
  out << ",\"dominant_kind\":";
  write_json_string(out, segment_kind(p.dominant_segment));
  out << ",\"dominant_us\":";
  num(p.dominant_us);
  out << ",\"dominant_overhead_segment\":";
  write_json_string(out, p.dominant_overhead_segment);
  out << ",\"dominant_overhead_kind\":";
  write_json_string(out, segment_kind(p.dominant_overhead_segment));
  out << ",\"dominant_overhead_us\":";
  num(p.dominant_overhead_us);
  out << ",\"paths\":[";
  for (std::size_t i = 0; i < p.paths.size(); ++i) {
    if (i != 0) out << ",";
    const CritPath& path = p.paths[i];
    out << "{\"label\":";
    write_json_string(out, path.label);
    out << ",\"us\":";
    num(path.us);
    out << ",\"segments\":[";
    for (std::size_t s = 0; s < path.segments.size(); ++s) {
      if (s != 0) out << ",";
      out << "{\"name\":";
      write_json_string(out, path.segments[s].name);
      out << ",\"us\":";
      num(path.segments[s].us);
      out << ",\"count\":" << path.segments[s].count << "}";
    }
    out << "]}";
  }
  out << "],\"suspends\":{\"count\":" << p.suspend_count << ",\"blockers\":[";
  bool first = true;
  for (const auto& [tx, count] : p.suspend_blockers) {
    if (!first) out << ",";
    first = false;
    out << "{\"tx\":" << tx << ",\"count\":" << count << "}";
  }
  out << "]}}";
}

}  // namespace txconc::obs
