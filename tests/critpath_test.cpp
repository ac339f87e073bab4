// Critical-path profiler tests: hand-computed attribution over a
// synthetic 3-tx trace and a one-participant sequential trace, gate
// negative controls (dropped commit span, untracked-heavy trace),
// unclosed-span repair, and a live round-trip of every registry engine
// through the global tracer (DESIGN.md §16 warm protocol).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "account/runtime.h"
#include "account/state.h"
#include "exec/executor.h"
#include "obs/critpath.h"
#include "obs/names.h"
#include "obs/scope.h"
#include "obs/trace.h"
#include "workload/account_workload.h"
#include "workload/profiles.h"

namespace txconc::obs {
namespace {

// -------------------------------------------------- synthetic traces
// Hand-built Chrome trace events. The fixture block below is designed so
// every bucket value is an exact integer and the buckets sum to the
// budget with zero uncovered time — any attribution change shows up as
// an exact-value mismatch, not an epsilon drift.

struct RawEvent {
  const char* name;
  char phase;  // 'B', 'E', 'i', 'M'
  int tid;
  double ts;
  std::int64_t arg = -1;        // args.arg for B/i
  const char* meta = nullptr;   // args.name for M
};

std::string make_trace(const std::vector<RawEvent>& events, int pid = 7) {
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const RawEvent& ev : events) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << ev.name << "\",\"ph\":\"" << ev.phase
        << "\",\"pid\":" << pid << ",\"tid\":" << ev.tid
        << ",\"ts\":" << ev.ts;
    if (ev.meta != nullptr) {
      out << ",\"args\":{\"name\":\"" << ev.meta << "\"}";
    } else if (ev.arg >= 0) {
      out << ",\"args\":{\"arg\":" << ev.arg << "}";
    }
    out << "}";
  }
  out << "]}";
  return out.str();
}

// The 3-tx block: caller (tid 1) runs predict 100us / schedule 50us /
// execute 750us / commit 100us under a 1000us execute_block; one worker
// (tid 2) runs a pool_task covering five tx spans. Per-tx attempt
// classification exercises all three rules:
//   tx0: single attempt               -> committed (tx_execute 150)
//   tx1: two attempts                 -> rework 100 + committed 200
//   tx2: attempt + final `tx` span    -> rework 100 + tx_execute 150
// Expected buckets (threads=2, budget=2000us):
//   graph_build 100, schedule 50 (caller) + 50 (pool_task self) = 100,
//   tx_execute 150+200+150 = 500, rework 100+100 = 200,
//   dependency_wait 750 (execute self), commit 100,
//   pool_idle 1000-750 = 250, untracked 0 -> sum 2000, uncovered 0.
std::vector<RawEvent> three_tx_events(bool with_commit = true,
                                      bool close_pool_task = true,
                                      std::int64_t threads = 2) {
  std::vector<RawEvent> ev = {
      {"process_name", 'M', 0, 0, -1, "synthetic"},
      {"thread_name", 'M', 1, 0, -1, "caller-0"},
      {"thread_name", 'M', 2, 0, -1, "worker-0"},
      {names::kSpanExecuteBlock, 'B', 1, 1000, 3},
      {names::kEvThreads, 'i', 1, 1001, threads},
      {names::kSpanPredict, 'B', 1, 1000},
      {names::kSpanPredict, 'E', 1, 1100},
      {names::kSpanSchedule, 'B', 1, 1100},
      {names::kSpanSchedule, 'E', 1, 1150},
      {names::kSpanExecute, 'B', 1, 1150},
      // Worker: one pool task, self time 50us around the tx spans.
      {names::kSpanPoolTask, 'B', 2, 1150},
      {names::kSpanAttempt, 'B', 2, 1150, 0},
      {names::kSpanAttempt, 'E', 2, 1300, 0},
      {names::kSpanAttempt, 'B', 2, 1300, 1},
      {names::kSpanAttempt, 'E', 2, 1400, 1},
      {names::kSpanAttempt, 'B', 2, 1400, 1},
      {names::kSpanAttempt, 'E', 2, 1600, 1},
      {names::kSpanAttempt, 'B', 2, 1600, 2},
      {names::kSpanAttempt, 'E', 2, 1700, 2},
      {names::kSpanTx, 'B', 2, 1700, 2},
      {names::kSpanTx, 'E', 2, 1850, 2},
  };
  if (close_pool_task) ev.push_back({names::kSpanPoolTask, 'E', 2, 1900});
  ev.push_back({names::kSpanExecute, 'E', 1, 1900});
  if (with_commit) {
    ev.push_back({names::kSpanCommit, 'B', 1, 1900});
    ev.push_back({names::kSpanCommit, 'E', 1, 2000});
  }
  ev.push_back({names::kSpanExecuteBlock, 'E', 1, 2000});
  return ev;
}

double bucket(const BlockProfile& p, Bucket b) {
  return p.buckets_us[static_cast<unsigned>(b)];
}

TEST(CritPath, SyntheticThreeTxAttributionHandComputed) {
  const ProfileResult result =
      profile_chrome_trace(make_trace(three_tx_events()));
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.blocks.size(), 1u);
  const BlockProfile& p = result.blocks[0];

  EXPECT_EQ(p.process, "synthetic");
  EXPECT_EQ(p.num_txs, 3u);
  EXPECT_EQ(p.threads, 2u);
  EXPECT_DOUBLE_EQ(p.wall_us, 1000.0);
  EXPECT_DOUBLE_EQ(p.budget_us, 2000.0);

  EXPECT_DOUBLE_EQ(bucket(p, Bucket::kGraphBuild), 100.0);
  EXPECT_DOUBLE_EQ(bucket(p, Bucket::kSchedule), 100.0);
  EXPECT_DOUBLE_EQ(bucket(p, Bucket::kTxExecute), 500.0);
  EXPECT_DOUBLE_EQ(bucket(p, Bucket::kRework), 200.0);
  EXPECT_DOUBLE_EQ(bucket(p, Bucket::kDependencyWait), 750.0);
  EXPECT_DOUBLE_EQ(bucket(p, Bucket::kCommit), 100.0);
  EXPECT_DOUBLE_EQ(bucket(p, Bucket::kPoolIdle), 250.0);
  EXPECT_DOUBLE_EQ(bucket(p, Bucket::kUntracked), 0.0);
  EXPECT_DOUBLE_EQ(p.bucket_sum_us, p.budget_us);
  EXPECT_DOUBLE_EQ(p.uncovered_us, 0.0);
  EXPECT_TRUE(check_attribution(p).empty());

  // Caller chain: predict -> schedule -> execute -> commit; execute
  // dominates overall, predict dominates among non-execution segments.
  ASSERT_FALSE(p.paths.empty());
  ASSERT_EQ(p.paths[0].segments.size(), 4u);
  EXPECT_EQ(p.paths[0].segments[0].name, names::kSpanPredict);
  EXPECT_EQ(p.paths[0].segments[2].name, names::kSpanExecute);
  EXPECT_EQ(p.dominant_segment, names::kSpanExecute);
  EXPECT_DOUBLE_EQ(p.dominant_us, 750.0);
  EXPECT_EQ(p.dominant_overhead_segment, names::kSpanPredict);
  EXPECT_DOUBLE_EQ(p.dominant_overhead_us, 100.0);
}

TEST(CritPath, SingleParticipantExecuteSelfIsScheduleNotWait) {
  // The sequential shape: one participant (threads = 1) runs predict
  // 100us / execute 800us / commit 100us, and the execute loop holds two
  // tx spans (300us + 350us). With no join there is nothing to wait on,
  // so the loop's 150us of self time is per-tx dispatch: schedule.
  const std::vector<RawEvent> ev = {
      {"process_name", 'M', 0, 0, -1, "synthetic"},
      {"thread_name", 'M', 1, 0, -1, "caller-0"},
      {names::kSpanExecuteBlock, 'B', 1, 1000, 2},
      {names::kEvThreads, 'i', 1, 1001, 1},
      {names::kSpanPredict, 'B', 1, 1000},
      {names::kSpanPredict, 'E', 1, 1100},
      {names::kSpanExecute, 'B', 1, 1100},
      {names::kSpanTx, 'B', 1, 1150, 0},
      {names::kSpanTx, 'E', 1, 1450, 0},
      {names::kSpanTx, 'B', 1, 1500, 1},
      {names::kSpanTx, 'E', 1, 1850, 1},
      {names::kSpanExecute, 'E', 1, 1900},
      {names::kSpanCommit, 'B', 1, 1900},
      {names::kSpanCommit, 'E', 1, 2000},
      {names::kSpanExecuteBlock, 'E', 1, 2000},
  };
  const ProfileResult result = profile_chrome_trace(make_trace(ev));
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.blocks.size(), 1u);
  const BlockProfile& p = result.blocks[0];
  EXPECT_EQ(p.threads, 1u);
  EXPECT_DOUBLE_EQ(p.budget_us, 1000.0);

  EXPECT_DOUBLE_EQ(bucket(p, Bucket::kDependencyWait), 0.0);
  EXPECT_DOUBLE_EQ(bucket(p, Bucket::kSchedule), 150.0);
  EXPECT_DOUBLE_EQ(bucket(p, Bucket::kGraphBuild), 100.0);
  EXPECT_DOUBLE_EQ(bucket(p, Bucket::kTxExecute), 650.0);
  EXPECT_DOUBLE_EQ(bucket(p, Bucket::kCommit), 100.0);
  EXPECT_DOUBLE_EQ(bucket(p, Bucket::kPoolIdle), 0.0);
  EXPECT_DOUBLE_EQ(p.uncovered_us, 0.0);
  EXPECT_TRUE(check_attribution(p).empty());
}

TEST(CritPath, DroppedCommitSpanFailsTheGate) {
  // Negative control for the sum invariant: strip the 100us commit span
  // (5% of the budget) and the buckets no longer reach the budget within
  // the default 2% epsilon — the missing time surfaces as uncovered.
  const ProfileResult result = profile_chrome_trace(
      make_trace(three_tx_events(/*with_commit=*/false)));
  ASSERT_TRUE(result.ok) << result.error;
  const BlockProfile& p = result.blocks[0];
  EXPECT_DOUBLE_EQ(bucket(p, Bucket::kCommit), 0.0);
  EXPECT_DOUBLE_EQ(p.bucket_sum_us, 1900.0);
  EXPECT_DOUBLE_EQ(p.uncovered_us, 100.0);
  const std::string violation = check_attribution(p);
  ASSERT_FALSE(violation.empty());
  EXPECT_NE(violation.find("differs"), std::string::npos) << violation;
  // A loose epsilon accepts the same profile.
  EXPECT_TRUE(check_attribution(p, /*eps_fraction=*/0.10).empty());
}

TEST(CritPath, UnclosedPoolTaskIsRepairedNotDoubleCounted) {
  // A worker's final pool_task 'E' can be pushed after the exporting
  // thread has been woken (see parse_trace): the parser must extend the
  // span to its last finished child instead of leaving it zero-length.
  // Repaired, the pool task covers [1150, 1850]: 50us of dispatch self
  // time moves to measured idle and the sum invariant still holds
  // exactly.
  const ProfileResult result = profile_chrome_trace(make_trace(
      three_tx_events(/*with_commit=*/true, /*close_pool_task=*/false)));
  ASSERT_TRUE(result.ok) << result.error;
  const BlockProfile& p = result.blocks[0];
  EXPECT_DOUBLE_EQ(bucket(p, Bucket::kSchedule), 50.0);
  EXPECT_DOUBLE_EQ(bucket(p, Bucket::kPoolIdle), 300.0);
  EXPECT_DOUBLE_EQ(p.bucket_sum_us, p.budget_us);
  EXPECT_TRUE(check_attribution(p).empty());
}

TEST(CritPath, SilentParticipantBooksAFullWallOfPoolIdle) {
  // threads=3 while only one worker surfaces in the trace: the missing
  // participant must be charged a full wall of pool idle, keeping the
  // sum invariant falsifiable for engines whose workers never wake.
  const ProfileResult result = profile_chrome_trace(make_trace(
      three_tx_events(/*with_commit=*/true, /*close_pool_task=*/true,
                      /*threads=*/3)));
  ASSERT_TRUE(result.ok) << result.error;
  const BlockProfile& p = result.blocks[0];
  EXPECT_DOUBLE_EQ(p.budget_us, 3000.0);
  EXPECT_DOUBLE_EQ(bucket(p, Bucket::kPoolIdle), 250.0 + 1000.0);
  EXPECT_DOUBLE_EQ(p.bucket_sum_us, p.budget_us);
  EXPECT_TRUE(check_attribution(p).empty());
}

TEST(CritPath, MissingThreadsInstantIsAnError) {
  std::vector<RawEvent> ev = three_tx_events();
  ev.erase(ev.begin() + 4);  // the kEvThreads instant
  const ProfileResult result = profile_chrome_trace(make_trace(ev));
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find(names::kEvThreads), std::string::npos)
      << result.error;
}

TEST(CritPath, UntrackedSpanNamesTripTheGate) {
  // An unknown span name the size of the execute phase: the sum still
  // closes (untracked IS a bucket) but the untracked share exceeds the
  // 10% ceiling, which is its own gate.
  std::vector<RawEvent> ev = three_tx_events();
  for (RawEvent& e : ev) {
    if (std::string(e.name) == names::kSpanExecute) e.name = "mystery";
  }
  const ProfileResult result = profile_chrome_trace(make_trace(ev));
  ASSERT_TRUE(result.ok) << result.error;
  const BlockProfile& p = result.blocks[0];
  EXPECT_DOUBLE_EQ(bucket(p, Bucket::kUntracked), 750.0);
  EXPECT_DOUBLE_EQ(p.bucket_sum_us, p.budget_us);
  const std::string violation = check_attribution(p);
  ASSERT_FALSE(violation.empty());
  EXPECT_NE(violation.find("extend the taxonomy"), std::string::npos)
      << violation;
}

TEST(CritPath, UnbalancedEndEventIsAParseError) {
  const std::vector<RawEvent> ev = {
      {"process_name", 'M', 0, 0, -1, "synthetic"},
      {names::kSpanCommit, 'E', 1, 1000},
  };
  const ProfileResult result = profile_chrome_trace(make_trace(ev));
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("unbalanced"), std::string::npos)
      << result.error;
}

// A process name from outside the program (here: a trace holding a
// newline and a quote) must come out of the JSON report as escapes, never
// as raw bytes that break the document.
TEST(CritPath, ProfileJsonEscapesControlBytesInNames) {
  std::vector<RawEvent> ev = three_tx_events();
  ev[0].meta = "two\\nlines \\\"quoted\\\"";  // JSON escapes in the trace
  const ProfileResult result = profile_chrome_trace(make_trace(ev));
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.blocks.size(), 1u);
  EXPECT_EQ(result.blocks[0].process, "two\nlines \"quoted\"");

  std::ostringstream out;
  write_profile_json(out, result.blocks[0]);
  const std::string json = out.str();
  EXPECT_NE(json.find(R"("process":"two\nlines \"quoted\"")"),
            std::string::npos)
      << json;
  EXPECT_EQ(std::count_if(json.begin(), json.end(),
                          [](char c) {
                            return static_cast<unsigned char>(c) < 0x20;
                          }),
            0)
      << "raw control byte in " << json;
}

// ------------------------------------------- registry engine round-trip
// Every registered engine executes a real late-era block twice through
// the GLOBAL tracer (pool workers hardwire Tracer::global()); the warm
// (second) block of every engine must profile cleanly and satisfy the
// attribution sum invariant. This is the end-to-end proof that every
// emitter in the tree stays inside the profiler's taxonomy.
TEST(CritPath, RegistryEnginesRoundTripThroughGlobalTracer) {
  workload::ChainProfile chain = workload::ethereum_profile();
  workload::AccountWorkloadGenerator gen(chain, 42, 400);
  for (int i = 0; i < 350; ++i) gen.next_block();
  account::StateDb genesis = gen.state();
  const std::vector<account::AccountTx> block = gen.next_block().account_txs;
  ASSERT_GT(block.size(), 50u);
  for (const auto& tx : block) {
    genesis.set_balance(tx.from, 1'000'000'000'000'000ULL);
  }
  genesis.flush_journal();

  account::RuntimeConfig config;
  config.charge_fees = false;
  config.enforce_nonce = false;
  // Heavy transactions keep per-span tracer overhead a sliver of the
  // budget, same as the bench smoke.
  config.synthetic_work = 10000;
  config.obs = &obs::global_scope();

  Tracer& tracer = Tracer::global();
  tracer.clear();
  tracer.enable();
  for (const exec::ExecutorSpec& spec : exec::executor_registry()) {
    // Scope the executor so its pool joins (flushing the final pool_task
    // ends) before the trace is serialized.
    const auto executor = spec.make(spec.parallel ? 4 : 1);
    // Warm protocol (DESIGN.md §16): run 1 absorbs worker buffer
    // registration, run 2 is the profiled block.
    for (int run = 0; run < 2; ++run) {
      account::StateDb db = genesis;
      executor->execute_block(db, block, config);
    }
  }
  tracer.disable();
  ASSERT_EQ(tracer.dropped(), 0u);

  std::ostringstream trace_json;
  tracer.write_chrome_trace(trace_json);
  tracer.clear();

  const ProfileResult result = profile_chrome_trace(trace_json.str());
  ASSERT_TRUE(result.ok) << result.error;

  // Warm block per engine: last profile per process name wins.
  std::map<std::string, const BlockProfile*> warm;
  for (const BlockProfile& p : result.blocks) warm[p.process] = &p;
  for (const exec::ExecutorSpec& spec : exec::executor_registry()) {
    const auto it = warm.find(spec.name);
    ASSERT_NE(it, warm.end()) << "no profiled block for " << spec.name;
    const BlockProfile& p = *it->second;
    EXPECT_EQ(p.num_txs, block.size()) << spec.name;
    EXPECT_EQ(p.threads, spec.parallel ? 5u : 1u) << spec.name;
    // Small block: per-block fixed costs do not amortize, so the smoke
    // epsilon (5%) applies rather than the bench's 2% at >= 1000 txs.
    const std::string violation =
        check_attribution(p, /*eps_fraction=*/0.05);
    EXPECT_TRUE(violation.empty()) << spec.name << ": " << violation;
  }

  // Both report writers must serialize every warm profile.
  for (const auto& [name, p] : warm) {
    std::ostringstream text;
    write_profile_text(text, *p);
    EXPECT_NE(text.str().find("block profile: " + name), std::string::npos);
    std::ostringstream json;
    write_profile_json(json, *p);
    EXPECT_NE(json.str().find("\"process\":\"" + name + "\""),
              std::string::npos);
  }
}

}  // namespace
}  // namespace txconc::obs
