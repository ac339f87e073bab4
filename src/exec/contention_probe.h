// Glue between the contention explainer (obs/contention.h) and the
// execution layer: a BlockObserver that drives one ContentionObserver per
// replayed block and feeds it the a-priori prediction closures
// (exec::predicted_addresses) the obs layer cannot compute itself — the
// closures cross the layer boundary as data, keeping obs free of any exec
// dependency.
//
// Wiring (see tools/txconc_contend for the full example):
//   ContentionProbe probe;
//   replayer.set_block_observer(&probe);
//   replayer.set_access_recorder(probe.recorder());
//   scope.contention = probe.sink();   // engines attribute aborts here
//   replayer.set_obs(&scope);
#pragma once

#include <vector>

#include "exec/replay.h"
#include "obs/contention.h"

namespace txconc::exec {

class ContentionProbe final : public BlockObserver {
 public:
  /// Install through HistoryReplayer::set_access_recorder (or
  /// RuntimeConfig::recorder) so every execution attempt's observed
  /// access sets reach the sink.
  const account::AccessRecorder* recorder() const { return &observer_; }
  /// Point obs::Scope::contention here so engines can attribute aborts.
  obs::ContentionSink* sink() { return &observer_.sink(); }

  // BlockObserver: bracket one executed block.
  void before_block(std::span<const account::AccountTx> txs,
                    const account::StateDb& state) override;
  void after_block(const ExecutionReport& report) override;

  /// One BlockContention per executed block, in replay order. The
  /// engine_abort_totals come from the report (authoritative), the rest
  /// from the observer's measured view.
  const std::vector<obs::BlockContention>& blocks() const { return blocks_; }

 private:
  obs::ContentionObserver observer_;
  std::vector<Address> closure_;  // per-tx scratch
  std::vector<obs::BlockContention> blocks_;
};

}  // namespace txconc::exec
