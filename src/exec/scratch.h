// Per-worker reusable execution scratch for the parallel engines.
//
// An executor owns one ThreadPool for its whole lifetime and runs one
// block at a time, so every per-attempt object — the copy-on-write
// overlay, the access tracker, the conflict tables — can live across
// blocks and be epoch-reset instead of reallocated. The per-block
// measurement (spans, report header, wall clock, metrics) is not
// scratch: it lives on the stack in exec/block_frame.h and allocates
// nothing. Workers index the scratch by the slot id of
// ThreadPool::parallel_for_slots (slot 0 is the caller), which
// guarantees two concurrently running grains never share an entry; the
// group engine indexes it by core id instead. The sequential bin runs on
// the caller after the pool has joined, so it borrows slot 0's tracker.
#pragma once

#include <vector>

#include "account/state.h"
#include "account/types.h"
#include "common/flat_table.h"

namespace txconc::exec {

/// One worker slot's private execution state.
struct WorkerScratch {
  account::OverlayState overlay;  ///< rebased per attempt (reset())
  account::AccessTracker tracker;
};

/// Flat conflict-set containers keyed like the engines' old
/// unordered_maps; clear() is O(1) and steady-state inserts are
/// allocation-free (see common/flat_table.h).
using SlotAccessSet =
    common::FlatSet<account::SlotAccess, account::SlotAccessHash>;

template <typename Value>
using SlotAccessTable =
    common::FlatTable<account::SlotAccess, Value, account::SlotAccessHash>;

/// Grow the scratch pool to cover every slot of `pool_size` workers plus
/// the caller. Existing entries (and their warmed capacity) survive.
inline void ensure_worker_scratch(std::vector<WorkerScratch>& scratch,
                                  unsigned pool_size) {
  if (scratch.size() < pool_size + 1u) scratch.resize(pool_size + 1u);
}

}  // namespace txconc::exec
