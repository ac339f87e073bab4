// Central registry of span / instant / metric name literals.
//
// The trace-driven profiler (obs/critpath.h) reconstructs engine behavior
// from span NAMES: a renamed emitter would silently fall into the
// "untracked" attribution bucket and a renamed analyzer constant would
// stop matching every emitter at once. Keeping both sides on these
// constants makes that drift a compile error instead of a quiet report
// regression. New spans: add the constant here, emit it, and (if the
// profiler should bucket it) extend the taxonomy in obs/critpath.cpp —
// see DESIGN.md §16 for the add-a-bucket recipe.
#pragma once

namespace txconc::obs::names {

// ----------------------------------------------------------- categories
inline constexpr const char* kCatExec = "exec";
inline constexpr const char* kCatPool = "pool";
inline constexpr const char* kCatChain = "chain";
inline constexpr const char* kCatShard = "shard";

// ----------------------------------------------- executor phase spans
// Every registry engine emits the same top-level contract under its
// execute_block root: predict / schedule / execute / commit (+ seq_bin
// for engines with a sequential tail). bench/ablation_engines validates
// the set per engine and obs/critpath.cpp anchors its analysis on it.
inline constexpr const char* kSpanExecuteBlock = "execute_block";
inline constexpr const char* kSpanPredict = "predict";
/// predict sub-phase: building the approximate TDG (per-tx closure walk).
inline constexpr const char* kSpanPredictClosure = "predict.closure";
/// predict sub-phase: connected components over the TDG + group fill.
inline constexpr const char* kSpanPredictComponents = "predict.components";
inline constexpr const char* kSpanSchedule = "schedule";
inline constexpr const char* kSpanExecute = "execute";
inline constexpr const char* kSpanCommit = "commit";
inline constexpr const char* kSpanSeqBin = "seq_bin";
/// One speculative execution attempt; arg = tx index. A tx's LAST attempt
/// is its committed execution, earlier ones are abort/retry rework.
inline constexpr const char* kSpanAttempt = "attempt";
/// One final (sequential / seq_bin) tx execution; arg = tx index.
inline constexpr const char* kSpanTx = "tx";
/// Block-STM read-set validation; arg = tx index.
inline constexpr const char* kSpanValidate = "validate";
/// A scheduler participant waiting for claimable work (dependency wait);
/// arg = participant slot.
inline constexpr const char* kSpanWait = "wait";
/// One worker's participation in one pool batch, from join to leave.
inline constexpr const char* kSpanPoolTask = "pool_task";

// ------------------------------------------------------ instant events
/// Thread budget of one block execution; arg = participants (pool
/// workers + the caller). Emitted inside execute_block so the profiler
/// knows the denominator of the threads x wall attribution budget.
inline constexpr const char* kEvThreads = "threads";
/// Block-STM reader suspended on an ESTIMATE marker; arg = blocking tx.
inline constexpr const char* kEvSuspend = "suspend";
/// One discarded execution attempt at an engine abort site; arg = tx
/// index. The abort reason lands in the exec.abort.* counters and the
/// contention sink's key attribution (obs/contention.h).
inline constexpr const char* kEvAbort = "abort";

// ----------------------------------------------------------- chain spans
inline constexpr const char* kSpanProduceBlock = "produce_block";
inline constexpr const char* kSpanPack = "pack";
inline constexpr const char* kSpanStateRoot = "state_root";
inline constexpr const char* kSpanPow = "pow";
inline constexpr const char* kSpanReceiveBlock = "receive_block";

// ----------------------------------------------------------- shard spans
inline constexpr const char* kSpanPbftRound = "pbft_round";
inline constexpr const char* kSpanPbftPrePrepare = "pbft_pre_prepare";
inline constexpr const char* kSpanPbftPrepare = "pbft_prepare";
inline constexpr const char* kSpanPbftCommit = "pbft_commit";
inline constexpr const char* kSpanEpoch = "epoch";

// -------------------------------------------------------------- metrics
inline constexpr const char* kMetricExecBlocks = "exec.blocks";
inline constexpr const char* kMetricExecTxs = "exec.txs";
inline constexpr const char* kMetricExecExecutions = "exec.executions";
inline constexpr const char* kMetricExecSequentialTxs =
    "exec.sequential_txs";
inline constexpr const char* kMetricExecBlockWallUs = "exec.block_wall_us";
inline constexpr const char* kMetricExecSeqBinTxs = "exec.seq_bin_txs";
inline constexpr const char* kMetricExecConflictStallUs =
    "exec.conflict_stall_us";
inline constexpr const char* kMetricExecAttemptsPerTx =
    "exec.attempts_per_tx";
inline constexpr const char* kMetricExecLargestComponentTxs =
    "exec.largest_component_txs";
inline constexpr const char* kMetricExecBlockStmValidations =
    "exec.block_stm_validations";
/// Per-reason abort counters: kMetricExecAbortPrefix +
/// obs::abort_reason_name(reason), e.g. "exec.abort.spec_conflict"
/// (obs::abort_metric_name holds the table).
inline constexpr const char* kMetricExecAbortPrefix = "exec.abort.";
inline constexpr const char* kMetricPoolDequeueGapUs = "pool.dequeue_gap_us";
inline constexpr const char* kMetricNodeBlocksProduced =
    "node.blocks_produced";
inline constexpr const char* kMetricNodeTxsIncluded = "node.txs_included";
inline constexpr const char* kMetricNodeProduceUs = "node.produce_us";
// The producer's retry work (DESIGN.md §20): candidates set aside for a
// later pass (future nonce), candidates dropped (stale nonce, drained
// balance), and passes over the candidate list per block.
inline constexpr const char* kMetricNodePackDeferred = "node.pack_deferred";
inline constexpr const char* kMetricNodePackDropped = "node.pack_dropped";
inline constexpr const char* kMetricNodePackPasses = "node.pack_passes";
inline constexpr const char* kMetricNodeBlocksReceived =
    "node.blocks_received";
inline constexpr const char* kMetricNodeTxsExecuted = "node.txs_executed";
inline constexpr const char* kMetricNodeReceiveUs = "node.receive_us";
// Gauges set after every produced and received block (DESIGN.md §21):
// the node's account count and its non-zero storage slots.
inline constexpr const char* kMetricNodeStateAccounts = "node.state_accounts";
inline constexpr const char* kMetricNodeStateStorageSlots =
    "node.state_storage_slots";
// Histograms observed after every produced and received state root
// (DESIGN.md §22): the dirty leaves the root re-hashed, and the 64-byte
// hashes the trie spent on them.
inline constexpr const char* kMetricNodeStateRootLeaves =
    "node.state_root_leaves";
inline constexpr const char* kMetricNodeStateRootHashes =
    "node.state_root_hashes";
inline constexpr const char* kMetricPbftRounds = "pbft.rounds";
inline constexpr const char* kMetricPbftMessages = "pbft.messages";
inline constexpr const char* kMetricPbftViewChanges = "pbft.view_changes";
inline constexpr const char* kMetricShardEpochs = "shard.epochs";
inline constexpr const char* kMetricShardMessages = "shard.messages";
inline constexpr const char* kMetricShardRejectedCrossShard =
    "shard.rejected_cross_shard";
inline constexpr const char* kMetricShardFinalBlockTxs =
    "shard.final_block_txs";
inline constexpr const char* kMetricShardEpochLatencyS =
    "shard.epoch_latency_s";

}  // namespace txconc::obs::names
