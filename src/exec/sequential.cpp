#include "exec/executor.h"
#include "exec/sched_trace.h"
#include "obs/names.h"
#include "obs/scope.h"
#include "obs/trace.h"

namespace txconc::exec {

namespace {

class SequentialExecutor final : public BlockExecutor {
 public:
  ExecutionReport execute_block(
      account::StateDb& state,
      std::span<const account::AccountTx> transactions,
      const account::RuntimeConfig& config) override {
    obs::Tracer* const tracer = obs::tracer(config.obs);
    const obs::ThreadProcessScope proc("sequential");
    const obs::CausalSpan block_span(
        tracer, obs::names::kSpanExecuteBlock, obs::names::kCatExec,
        config.trace, static_cast<std::int64_t>(transactions.size()));
    emit_thread_budget(tracer, 1);
    SchedTrace trace(static_cast<const ThreadPool*>(nullptr));

    ExecutionReport report;
    report.executor = name();
    report.num_txs = transactions.size();
    report.receipts.resize(transactions.size());
    {
      const obs::CausalSpan span(tracer, obs::names::kSpanExecute,
                                 obs::names::kCatExec, block_span.context());
      account::for_each_prefetched(state, transactions, [&](std::size_t i) {
        const TXCONC_SPAN_T(tracer, obs::names::kSpanTx,
                            obs::names::kCatExec,
                            static_cast<long long>(i));
        // The into-variant reuses the executor's tracker and the receipt
        // slot's capacity: the baseline benefits from the same
        // runtime-level allocation wins as the parallel engines.
        account::apply_transaction_into(state, transactions[i], config,
                                        report.receipts[i], tracker_);
      });
    }
    {
      const obs::CausalSpan span(tracer, obs::names::kSpanCommit,
                                 obs::names::kCatExec, block_span.context());
      state.flush_journal();
    }

    report.sequential_txs = transactions.size();
    report.executions = transactions.size();
    report.simulated_units = static_cast<double>(transactions.size());
    report.simulated_speedup = 1.0;
    report.wall_seconds = trace.finish(report.sched);
    record_block_metrics(obs::metrics(config.obs), report);
    return report;
  }

  std::string name() const override { return "sequential"; }

 private:
  account::AccessTracker tracker_;  // reused across transactions
};

}  // namespace

std::unique_ptr<BlockExecutor> make_sequential_executor() {
  return std::make_unique<SequentialExecutor>();
}

}  // namespace txconc::exec
