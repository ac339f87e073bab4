#include "exec/contention_probe.h"

#include "exec/predict.h"

namespace txconc::exec {

void ContentionProbe::before_block(std::span<const account::AccountTx> txs,
                                   const account::StateDb& state) {
  observer_.begin_block(txs);
  for (std::size_t i = 0; i < txs.size(); ++i) {
    closure_ = predicted_addresses(txs[i], state);
    observer_.set_predicted(i, closure_);
  }
}

void ContentionProbe::after_block(const ExecutionReport& report) {
  obs::BlockContention block = observer_.finish_block(report.receipts);
  block.engine_abort_totals = report.abort_reasons;
  blocks_.push_back(std::move(block));
}

}  // namespace txconc::exec
