// Observability layer tests: histogram bucket math against hand-computed
// values, Chrome-trace JSON round-trips through the minimal validator,
// the zero-allocation guarantee of the disabled tracer path, and
// concurrent span emission from pool workers.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <sstream>
#include <thread>

#include "exec/thread_pool.h"
#include "obs/context.h"
#include "obs/json_reader.h"
#include "obs/metrics.h"
#include "obs/scope.h"
#include "obs/trace.h"

// ------------------------------------------------- allocation counting
// Global operator new/delete overrides so the disabled-tracer test can
// assert the hot path performs zero heap allocations. Counting is a
// single relaxed atomic; all other tests are oblivious to it.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// The replacement operator new allocates with malloc, so freeing in the
// replacement operator delete is correct; silence the compiler's
// new/free mismatch heuristic which cannot see the pairing.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace txconc::obs {
namespace {

// ------------------------------------------------------------ histogram

TEST(Histogram, BucketBoundaries) {
  // Bucket 0: everything below 1 (incl. negatives and NaN).
  EXPECT_EQ(Histogram::bucket_index(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(0.999), 0u);
  EXPECT_EQ(Histogram::bucket_index(-5.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(std::nan("")), 0u);
  // Bucket i (1 <= i <= 63): [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::bucket_index(1.0), 1u);
  EXPECT_EQ(Histogram::bucket_index(1.999), 1u);
  EXPECT_EQ(Histogram::bucket_index(2.0), 2u);
  EXPECT_EQ(Histogram::bucket_index(3.5), 2u);
  EXPECT_EQ(Histogram::bucket_index(4.0), 3u);
  EXPECT_EQ(Histogram::bucket_index(1024.0), 11u);
  EXPECT_EQ(Histogram::bucket_index(std::ldexp(1.0, 62)), 63u);
  // Bucket 64: [2^63, inf).
  EXPECT_EQ(Histogram::bucket_index(std::ldexp(1.0, 63)), 64u);
  EXPECT_EQ(Histogram::bucket_index(1e300), 64u);

  EXPECT_EQ(Histogram::bucket_lower(0), 0.0);
  EXPECT_EQ(Histogram::bucket_lower(1), 1.0);
  EXPECT_EQ(Histogram::bucket_upper(1), 2.0);
  EXPECT_EQ(Histogram::bucket_lower(10), 512.0);
  EXPECT_EQ(Histogram::bucket_upper(10), 1024.0);
}

TEST(Histogram, QuantileInterpolatesWithinOneBucket) {
  Histogram h;
  for (int i = 0; i < 4; ++i) h.observe(1.0);
  // All four samples sit in bucket 1 = [1, 2). Rank r = q * 4
  // interpolates linearly: lo + (hi - lo) * r / 4.
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 1.25);
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 1.5);
  EXPECT_DOUBLE_EQ(h.quantile(1.00), 2.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1.0);
  EXPECT_DOUBLE_EQ(h.sum(), 4.0);
  EXPECT_EQ(h.count(), 4u);
}

TEST(Histogram, QuantileAcrossBuckets) {
  Histogram h;
  h.observe(0.5);   // bucket 0: [0, 1)
  h.observe(3.0);   // bucket 2: [2, 4)
  h.observe(10.0);  // bucket 4: [8, 16)
  h.observe(100.0); // bucket 7: [64, 128)
  // p50: target rank 2; bucket 0 holds 1, bucket 2 reaches 2 exactly at
  // its upper edge -> 2 + (4 - 2) * (2 - 1) / 1 = 4.
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 4.0);
  // p95: target rank 3.8 lands 0.8 into bucket 7 -> 64 + 64 * 0.8.
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 115.2);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.sum(), 113.5);
}

TEST(Histogram, EmptyHistogramIsAllZero) {
  const Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

// ------------------------------------------------------------- registry

TEST(Registry, InstrumentsAreStableAndExported) {
  Registry registry;
  Counter& c = registry.counter("test.count");
  c.add(3);
  EXPECT_EQ(&registry.counter("test.count"), &c);  // stable reference
  registry.gauge("test.gauge").set(2.5);
  registry.histogram("test.hist").observe(5.0);
  EXPECT_EQ(registry.size(), 3u);

  std::ostringstream csv;
  registry.write_csv(csv);
  // Header plus one row per instrument.
  std::size_t lines = 0;
  std::string line;
  std::istringstream in(csv.str());
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 4u);
  EXPECT_NE(csv.str().find("counter,test.count"), std::string::npos);
  EXPECT_NE(csv.str().find("histogram,test.hist"), std::string::npos);
}

// ---------------------------------------------------------------- tracer

TEST(Tracer, ChromeTraceRoundTrip) {
  Tracer tracer;
  tracer.enable();
  {
    const ThreadProcessScope proc("obs-proc");
    TXCONC_SPAN_T(&tracer, "block", "test");
    for (std::int64_t i = 0; i < 3; ++i) {
      TXCONC_SPAN_T(&tracer, "tx", "test", i);
    }
    TXCONC_INSTANT_T(&tracer, "tick", "test");
  }
  // A second thread gets its own buffer (tid) and process label.
  std::thread worker([&] {
    set_thread_label(intern_label("obs-worker"), 0);
    TXCONC_SPAN_T(&tracer, "task", "test");
  });
  worker.join();
  tracer.disable();

  EXPECT_EQ(tracer.event_count(), 11u);  // 5 B/E pairs + 1 instant
  EXPECT_EQ(tracer.event_count("tx"), 6u);
  EXPECT_EQ(tracer.dropped(), 0u);

  std::ostringstream out;
  tracer.write_chrome_trace(out);
  const TraceValidation v = validate_chrome_trace(out.str());
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.events, 11u);
  EXPECT_EQ(v.complete_spans, 5u);
  ASSERT_TRUE(v.spans_by_process.contains("obs-proc"));
  EXPECT_TRUE(v.spans_by_process.at("obs-proc").contains("block"));
  EXPECT_TRUE(v.spans_by_process.at("obs-proc").contains("tx"));
  ASSERT_TRUE(v.spans_by_process.contains("obs-worker"));
  EXPECT_TRUE(v.spans_by_process.at("obs-worker").contains("task"));

  tracer.clear();
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(Tracer, SpanStaysBalancedAcrossProcessRelabel) {
  // The end event must use the process captured at begin, or a scope
  // ending mid-span would split the B and E across pids.
  Tracer tracer;
  tracer.enable();
  {
    auto scope = std::make_unique<ThreadProcessScope>("relabel-a");
    TXCONC_SPAN_T(&tracer, "outer", "test");
    scope.reset();  // restores the previous label while the span is open
  }
  tracer.disable();
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  const TraceValidation v = validate_chrome_trace(out.str());
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.complete_spans, 1u);
}

TEST(Tracer, ValidatorRejectsMalformedTraces) {
  // Unclosed span.
  TraceValidation v = validate_chrome_trace(
      R"({"traceEvents":[{"name":"a","ph":"B","pid":0,"tid":0,"ts":1}]})");
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("never closed"), std::string::npos) << v.error;

  // Mismatched end name.
  v = validate_chrome_trace(
      R"({"traceEvents":[)"
      R"({"name":"a","ph":"B","pid":0,"tid":0,"ts":1},)"
      R"({"name":"b","ph":"E","pid":0,"tid":0,"ts":2}]})");
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("unbalanced"), std::string::npos) << v.error;

  // Non-monotone timestamps on one (pid, tid).
  v = validate_chrome_trace(
      R"({"traceEvents":[)"
      R"({"name":"a","ph":"B","pid":0,"tid":0,"ts":5},)"
      R"({"name":"a","ph":"E","pid":0,"tid":0,"ts":3}]})");
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("monotone"), std::string::npos) << v.error;

  // Not JSON at all.
  EXPECT_FALSE(validate_chrome_trace("hello").ok);
  // Missing traceEvents.
  EXPECT_FALSE(validate_chrome_trace(R"({"other":[]})").ok);
}

TEST(Tracer, MicrosecondSpanKeepsItsDurationFarFromTheEpoch) {
  // 100 s after the epoch, the stream's default six significant digits
  // would print both ends of the span as 1e+08.
  constexpr std::uint64_t kBegin = 100'000'000'000;  // ns
  std::ostringstream out;
  write_trace_ts(out, kBegin);
  out << ' ';
  write_trace_ts(out, kBegin + 1'000);
  out << ' ';
  write_trace_ts(out, kBegin + 1'001);
  const std::string text = out.str();
  EXPECT_EQ(text, "100000000.000 100000001.000 100000001.001");

  internal::JsonReader reader(text);
  const double begin = reader.parse_number();
  const double end = reader.parse_number();
  const double late_end = reader.parse_number();
  ASSERT_FALSE(reader.failed()) << reader.error();
  EXPECT_DOUBLE_EQ(end - begin, 1.0);
  EXPECT_NEAR(late_end - end, 0.001, 1e-6);
}

TEST(Tracer, DisabledPathAllocatesNothing) {
  Tracer tracer;  // disabled by default
  // Warm up the macros once so one-time setup (if any) is excluded.
  { TXCONC_SPAN_T(&tracer, "warm", "test"); }

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    TXCONC_SPAN_T(&tracer, "span", "test");
    TXCONC_SPAN_T(nullptr, "null-span", "test");
    TXCONC_INSTANT_T(&tracer, "tick", "test");
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(Tracer, RingWrapCountsDropped) {
  Tracer tracer(/*max_events_per_thread=*/64);  // clamped up to one chunk
  tracer.enable();
  for (int i = 0; i < 1500; ++i) tracer.instant("evt", "test");
  tracer.disable();
  EXPECT_EQ(tracer.event_count(), 1024u);  // one chunk retained
  EXPECT_EQ(tracer.dropped(), 476u);
  // A wrapped buffer may cut a span pair; the validator must still parse
  // instants-only output fine.
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  EXPECT_TRUE(validate_chrome_trace(out.str()).ok);
}

TEST(Tracer, ConcurrentEmissionFromPoolWorkersIsComplete) {
  Tracer tracer;
  tracer.enable();
  constexpr std::size_t kEvents = 10000;
  {
    exec::ThreadPool pool(4, "obs-test-pool");
    pool.parallel_for(kEvents, [&](std::size_t i) {
      tracer.instant("evt", "test", static_cast<std::int64_t>(i));
    });
  }
  tracer.disable();
  EXPECT_EQ(tracer.event_count("evt"), kEvents);
  EXPECT_EQ(tracer.dropped(), 0u);
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  const TraceValidation v = validate_chrome_trace(out.str());
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.events, kEvents);
}

// ---------------------------------------------------------- causal spans

TEST(CausalSpan, RootChildAndCrossThreadForkLink) {
  Tracer tracer;
  tracer.enable();
  std::uint64_t root_trace = 0;
  {
    const ThreadProcessScope proc("node-A");
    const CausalSpan root(&tracer, "produce_block", "chain");
    root_trace = root.trace_id();
    EXPECT_NE(root_trace, 0u);
    EXPECT_EQ(root.context().trace_id, root_trace);
    EXPECT_EQ(root.context().parent_span, root.span_id());
    { const CausalSpan child(&tracer, "pack", "chain", root.context()); }
    // fork() crosses a thread boundary: the flow start lands in this
    // slice, the bind in the consumer's.
    const TraceContext relayed = root.fork();
    EXPECT_EQ(relayed.trace_id, root_trace);
    EXPECT_NE(relayed.flow_id, 0u);
    std::thread consumer([&] {
      set_thread_label(intern_label("node-B"), 0);
      const CausalSpan remote(&tracer, "receive_block", "chain", relayed);
      EXPECT_EQ(remote.trace_id(), root_trace);  // joined, not minted
    });
    consumer.join();
  }
  tracer.disable();

  std::ostringstream out;
  tracer.write_chrome_trace(out);
  const TraceValidation v = validate_chrome_trace(out.str());
  ASSERT_TRUE(v.ok) << v.error;
  ASSERT_EQ(v.causal.size(), 3u);
  EXPECT_EQ(v.causal_roots, 1u);
  EXPECT_EQ(v.causal_linked, 3u);  // every causal span reaches the root
  EXPECT_EQ(v.flow_binds, 1u);
  for (const CausalSpanInfo& span : v.causal) {
    EXPECT_EQ(span.trace_id, root_trace) << span.name;
    EXPECT_TRUE(span.linked) << span.name;
  }
  ASSERT_TRUE(v.spans_by_process.contains("node-B"));
  EXPECT_TRUE(v.spans_by_process.at("node-B").contains("receive_block"));
}

TEST(CausalSpan, ValidatorRejectsDanglingParent) {
  const TraceValidation v = validate_chrome_trace(
      R"({"traceEvents":[)"
      R"({"name":"a","ph":"B","pid":0,"tid":0,"ts":1,)"
      R"("args":{"trace_id":7,"span_id":2,"parent_span":99}},)"
      R"({"name":"a","ph":"E","pid":0,"tid":0,"ts":2}]})");
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("unknown parent_span"), std::string::npos) << v.error;
}

TEST(CausalSpan, ValidatorRejectsCrossTraceParent) {
  const TraceValidation v = validate_chrome_trace(
      R"({"traceEvents":[)"
      R"({"name":"a","ph":"B","pid":0,"tid":0,"ts":1,)"
      R"("args":{"trace_id":7,"span_id":1,"parent_span":0}},)"
      R"({"name":"a","ph":"E","pid":0,"tid":0,"ts":2},)"
      R"({"name":"b","ph":"B","pid":0,"tid":0,"ts":3,)"
      R"("args":{"trace_id":8,"span_id":2,"parent_span":1}},)"
      R"({"name":"b","ph":"E","pid":0,"tid":0,"ts":4}]})");
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("different trace"), std::string::npos) << v.error;
}

TEST(CausalSpan, ValidatorRejectsDuplicateSpanIds) {
  const TraceValidation v = validate_chrome_trace(
      R"({"traceEvents":[)"
      R"({"name":"a","ph":"B","pid":0,"tid":0,"ts":1,)"
      R"("args":{"trace_id":7,"span_id":3,"parent_span":0}},)"
      R"({"name":"a","ph":"E","pid":0,"tid":0,"ts":2},)"
      R"({"name":"b","ph":"B","pid":0,"tid":0,"ts":3,)"
      R"("args":{"trace_id":7,"span_id":3,"parent_span":0}},)"
      R"({"name":"b","ph":"E","pid":0,"tid":0,"ts":4}]})");
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("duplicate span_id"), std::string::npos) << v.error;
}

TEST(CausalSpan, ValidatorRejectsFlowBindWithoutStart) {
  const TraceValidation v = validate_chrome_trace(
      R"({"traceEvents":[)"
      R"({"name":"flow","ph":"f","bp":"e","pid":0,"tid":0,"ts":1,"id":5}]})");
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("flow"), std::string::npos) << v.error;
}

TEST(CausalSpan, DisabledPathAllocatesNothingWhileForwardingContext) {
  // The satellite guarantee: a disabled tracer must stay allocation-free
  // even when code stamps, forks and forwards TraceContexts through the
  // whole propagation fast path (the production default for every node).
  Tracer tracer;  // disabled by default
  { const CausalSpan warm(&tracer, "warm", "test"); }

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  TraceContext carried;
  for (int i = 0; i < 1000; ++i) {
    const CausalSpan root(&tracer, "produce_block", "chain");
    const CausalSpan child(&tracer, "pack", "chain", root.context());
    const CausalSpan null_span(nullptr, "null", "chain", carried);
    carried = root.fork();              // zero context, no flow event
    const TraceContext ctx = child.context();
    const CausalSpan remote(&tracer, "receive_block", "chain", ctx);
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_FALSE(carried.valid());  // disabled spans hand out the zero context
}

// ----------------------------------------------------------------- scope

TEST(Scope, NullScopeYieldsNullSinks) {
  EXPECT_EQ(obs::tracer(nullptr), nullptr);
  EXPECT_EQ(obs::metrics(nullptr), nullptr);
  const Scope& global = global_scope();
  EXPECT_EQ(obs::tracer(&global), &Tracer::global());
  EXPECT_EQ(obs::metrics(&global), &Registry::global());
}

}  // namespace
}  // namespace txconc::obs
