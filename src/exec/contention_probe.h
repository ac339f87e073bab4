// The contention explainer's per-block driver (DESIGN.md §17). The probe
// is the account::AccessRecorder that counts every execution attempt's
// observed touches into its obs::ContentionSink, and the BlockObserver
// that turns one executed block into an obs::BlockContention:
//   before_block  resets the sink and computes each transaction's
//                 a-priori closure (exec::predicted_addresses);
//   after_block   measures c, l and the component histogram from the
//                 final receipts through the analysis layer's two TDGs
//                 (analysis::account_slot_components at slot granularity,
//                 analysis::analyze_account_block at address
//                 granularity), scores the closures against the observed
//                 address sets, and ranks the sink's hot and abort keys.
//
// Wiring (see tools/txconc_contend for the full example):
//   ContentionProbe probe;
//   replayer.set_block_observer(&probe);
//   replayer.set_access_recorder(&probe);
//   scope.contention = probe.sink();   // engines attribute aborts here
//   replayer.set_obs(&scope);
#pragma once

#include <span>
#include <vector>

#include "account/runtime.h"
#include "exec/replay.h"
#include "obs/contention.h"

namespace txconc::exec {

/// Score predicted address closures against the addresses each
/// transaction's receipt shows it touched, micro-averaged over the block:
/// fills `block`'s predicted/observed/overlap_addresses, precision,
/// recall and over_approx. `predicted[i]` is transaction i's closure.
void score_prediction(std::span<const std::vector<Address>> predicted,
                      std::span<const account::Receipt> receipts,
                      obs::BlockContention& block);

class ContentionProbe final : public BlockObserver,
                              public account::AccessRecorder {
 public:
  /// Point obs::Scope::contention here so engines can attribute aborts.
  obs::ContentionSink* sink() { return &sink_; }

  // BlockObserver: bracket one executed block.
  void before_block(std::span<const account::AccountTx> txs,
                    const account::StateDb& state) override;
  void after_block(const ExecutionReport& report) override;

  // AccessRecorder: fires per execution attempt from every pool worker.
  void on_begin(const account::AccountTx& tx) const override;
  void on_complete(const account::AccountTx& tx,
                   const account::Receipt& receipt) const override;

  /// One BlockContention per executed block, in replay order. The
  /// engine_abort_totals come from the report (authoritative), the rest
  /// from the receipts and the sink.
  const std::vector<obs::BlockContention>& blocks() const { return blocks_; }

 private:
  mutable obs::ContentionSink sink_;
  std::span<const account::AccountTx> txs_;
  std::vector<std::vector<Address>> predicted_;
  std::vector<obs::BlockContention> blocks_;
};

}  // namespace txconc::exec
