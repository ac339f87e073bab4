// Group-concurrency executor and the shared a-priori conflict prediction.
#include <chrono>
#include <unordered_map>
#include <unordered_set>

#include "account/state.h"
#include "common/error.h"
#include "core/components.h"
#include "core/scheduling.h"
#include "core/tdg.h"
#include "exec/block_frame.h"
#include "exec/executor.h"
#include "exec/predict.h"
#include "exec/scratch.h"
#include "exec/thread_pool.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace txconc::exec {

namespace {

/// All addresses a call to `addr` can statically reach through contract
/// address tables (including `addr` itself).
void reachable_addresses(const account::State& state, const Address& addr,
                         std::vector<Address>& out,
                         std::unordered_set<Address>& seen) {
  if (!seen.insert(addr).second) return;
  out.push_back(addr);
  const account::ContractCode* code = state.code(addr);
  if (code == nullptr) return;
  for (const Address& next : code->address_table) {
    reachable_addresses(state, next, out, seen);
  }
}

/// The full predicted closure of one transaction (see predict.h). Shared
/// by predict_groups and predicted_addresses so the scheduler and the
/// auditor agree byte-for-byte on what was predicted.
void collect_predicted(const account::State& state,
                       const account::AccountTx& tx,
                       std::vector<Address>& out,
                       std::unordered_set<Address>& seen) {
  if (seen.insert(tx.from).second) out.push_back(tx.from);
  const Address to = tx.to.has_value()
                         ? *tx.to
                         : Address::derive_contract(tx.from, tx.nonce);
  reachable_addresses(state, to, out, seen);
  // Dynamic address arguments replace the top frame's address table, so
  // anything statically reachable from them is callable too.
  for (const Address& arg : tx.address_args) {
    reachable_addresses(state, arg, out, seen);
  }
}

}  // namespace

std::vector<Address> predicted_addresses(const account::AccountTx& tx,
                                         const account::State& state) {
  std::vector<Address> out;
  std::unordered_set<Address> seen;
  collect_predicted(state, tx, out, seen);
  return out;
}

PredictedGroups predict_groups(
    std::span<const account::AccountTx> transactions,
    const account::State& state) {
  return predict_groups(transactions, state, nullptr);
}

PredictedGroups predict_groups(
    std::span<const account::AccountTx> transactions,
    const account::State& state, obs::Tracer* tracer) {
  core::KeyedTdg<Address> tdg;
  std::vector<core::NodeId> sender_node(transactions.size());

  {
    const TXCONC_SPAN_T(tracer, obs::names::kSpanPredictClosure,
                        obs::names::kCatExec,
                        static_cast<std::int64_t>(transactions.size()));
    std::vector<Address> scratch;
    std::unordered_set<Address> seen;
    for (std::size_t i = 0; i < transactions.size(); ++i) {
      const account::AccountTx& tx = transactions[i];
      sender_node[i] = tdg.node(tx.from);

      scratch.clear();
      seen.clear();
      collect_predicted(state, transactions[i], scratch, seen);
      for (const Address& addr : scratch) {
        if (addr != tx.from) tdg.add_edge(tx.from, addr);
      }
    }
  }

  const TXCONC_SPAN_T(tracer, obs::names::kSpanPredictComponents,
                      obs::names::kCatExec, -1);
  const core::ComponentSet components =
      core::connected_components_dsu(tdg.graph());

  PredictedGroups out;
  out.component_of_tx.resize(transactions.size());
  // Component ids over addresses are dense; reuse them for transactions
  // and count how many transactions land in each.
  out.component_sizes.assign(components.num_components(), 0);
  for (std::size_t i = 0; i < transactions.size(); ++i) {
    const core::ComponentId cc = components.component_of(sender_node[i]);
    out.component_of_tx[i] = cc;
    ++out.component_sizes[cc];
  }
  return out;
}

namespace {

class GroupExecutor final : public BlockExecutor {
 public:
  explicit GroupExecutor(unsigned num_threads) : pool_(num_threads, kLabel) {}

  ExecutionReport execute_block(
      account::StateDb& state,
      std::span<const account::AccountTx> transactions,
      const account::RuntimeConfig& config) override {
    BlockFrame frame(kLabel, &pool_, pool_.size() + 1, transactions, config);
    ExecutionReport& report = frame.report();
    obs::Tracer* const tracer = frame.tracer();

    // Partition transactions into predicted components (block order is
    // preserved inside each component).
    PredictedGroups groups;
    std::vector<std::vector<std::size_t>> jobs;
    {
      const obs::CausalSpan span = frame.phase(obs::names::kSpanPredict);
      groups = predict_groups(transactions, state, tracer);
      std::vector<std::vector<std::size_t>> members(groups.num_components());
      for (std::size_t i = 0; i < transactions.size(); ++i) {
        members[groups.component_of_tx[i]].push_back(i);
      }
      // Drop empty components (address components with no transaction).
      jobs.reserve(members.size());
      for (auto& m : members) {
        if (!m.empty()) jobs.push_back(std::move(m));
      }
    }

    core::Schedule schedule;
    {
      const obs::CausalSpan span = frame.phase(
          obs::names::kSpanSchedule, static_cast<std::int64_t>(jobs.size()));
      std::vector<double> costs;
      costs.reserve(jobs.size());
      for (const auto& job : jobs) {
        costs.push_back(static_cast<double>(job.size()));
      }
      schedule = core::schedule_lpt(costs, pool_.size());
    }

    // Execute: each worker runs its assigned components sequentially on a
    // private overlay; disjoint components touch disjoint addresses, so
    // overlays commute and merge cleanly afterwards. The overlays and
    // trackers live in cross-block scratch — rebased per block, never
    // reallocated (the parallel_for index IS the core id, so no slot
    // indirection is needed here).
    if (scratch_.size() < schedule.assignment.size()) {
      scratch_.resize(schedule.assignment.size());
    }
    {
      const obs::CausalSpan span = frame.phase(
          obs::names::kSpanExecute,
          static_cast<std::int64_t>(transactions.size()));
      pool_.parallel_for(schedule.assignment.size(), [&](std::size_t core_id) {
        if (schedule.assignment[core_id].empty()) return;
        WorkerScratch& ws = scratch_[core_id];
        ws.overlay.reset(state);
        for (std::size_t job_index : schedule.assignment[core_id]) {
          for (std::size_t tx_index : jobs[job_index]) {
            const TXCONC_SPAN_T(tracer, obs::names::kSpanAttempt,
                                obs::names::kCatExec,
                                static_cast<std::int64_t>(tx_index));
            account::apply_transaction_into(ws.overlay,
                                            transactions[tx_index], config,
                                            report.receipts[tx_index],
                                            ws.tracker);
          }
        }
      });
    }
    double merge_seconds = 0.0;
    {
      const obs::CausalSpan span = frame.phase(obs::names::kSpanCommit);
      // Merged values are final; skip the undo journal.
      const account::JournalPause pause(state);
      const auto merge_start = std::chrono::steady_clock::now();
      for (std::size_t core_id = 0; core_id < schedule.assignment.size();
           ++core_id) {
        if (schedule.assignment[core_id].empty()) continue;
        scratch_[core_id].overlay.apply_to(state);
      }
      merge_seconds = seconds_since(merge_start);
      state.flush_journal();
    }

    std::size_t lcc = 0;
    for (const auto& job : jobs) lcc = std::max(lcc, job.size());
    report.sequential_txs = lcc;
    report.executions = transactions.size();
    // Serial dwell for group concurrency: the overlay merge; cores
    // idling behind the longest component are visible separately via
    // exec.largest_component_txs.
    frame.finish(schedule.makespan, merge_seconds);
    if (obs::Registry* const registry = frame.registry()) {
      registry->histogram(obs::names::kMetricExecLargestComponentTxs)
          .observe(static_cast<double>(lcc));
    }
    return std::move(report);
  }

  std::string name() const override { return kLabel; }

 private:
  static constexpr const char* kLabel = "group-lpt";  // also the trace process
  ThreadPool pool_;
  std::vector<WorkerScratch> scratch_;  // per core, reused across blocks
};

}  // namespace

std::unique_ptr<BlockExecutor> make_group_executor(unsigned num_threads) {
  return std::make_unique<GroupExecutor>(num_threads);
}

}  // namespace txconc::exec
