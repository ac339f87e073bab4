#include "exec/block_frame.h"
#include "exec/executor.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace txconc::exec {

namespace {

class SequentialExecutor final : public BlockExecutor {
 public:
  ExecutionReport execute_block(
      account::StateDb& state,
      std::span<const account::AccountTx> transactions,
      const account::RuntimeConfig& config) override {
    BlockFrame frame("sequential", nullptr, 1, transactions, config);
    ExecutionReport& report = frame.report();
    obs::Tracer* const tracer = frame.tracer();
    {
      const obs::CausalSpan span = frame.phase(obs::names::kSpanExecute);
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
      const obs::CausalSpan span = frame.phase(obs::names::kSpanCommit);
      state.flush_journal();
    }

    report.sequential_txs = transactions.size();
    report.executions = transactions.size();
    frame.finish(static_cast<double>(transactions.size()), 0.0);
    return std::move(report);
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
