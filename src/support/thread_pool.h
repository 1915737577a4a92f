// Fork-join fan-out for the experiment harness.
//
// The replay/sweep layers (driver/experiment.h) fan independent jobs —
// cache replays of a recorded trace, compile+run timing jobs, the
// candidates of a plan-search batch — across a few worker threads with
// one call, parallel_for_each.  Each call starts its workers, lets them
// drain a shared index, and joins them all before it returns.  Workers
// take indices in no fixed order, so callers that need deterministic
// output write each index's result to its own pre-allocated slot and
// combine the slots in a fixed order after the call.
#pragma once

#include <functional>

#include "support/common.h"

namespace fsopt {

/// Process-wide parallelism knob for the harness (replays, sweeps):
///   0  = auto (experiment_threads() resolves it);
///   1  = serial;
///   N  = at most N worker threads.
/// Negative values count as 0.  Results never depend on this — only
/// wall-clock does.
void set_experiment_threads(int threads);

/// The thread count a `threads = 0` argument means anywhere in the tree:
/// the set_experiment_threads() value when it is >= 1; else the
/// FSOPT_THREADS environment variable when it is a whole count >= 1
/// (parse_count: "12x", "-2", "0" or an out-of-range number are
/// ignored); else the hardware concurrency, at least 1.
int experiment_threads();

/// Run body(0..n-1), each index exactly once.  `threads` <= 0 means
/// experiment_threads().  With `threads` <= 1 or n <= 1 the indices run
/// inline on the caller's thread, in order.  Otherwise min(threads, n)
/// workers drain one shared atomic index; each worker is named
/// "pool-worker-<w>" when tracing is on, records one "pool"/"job" span
/// and adds one to the pool.jobs metric.  Every worker is joined before
/// the call returns; if any body threw, the first failure is rethrown
/// after the join.  The body must not assume any index ordering — write
/// results into per-index slots for deterministic aggregation.
void parallel_for_each(int threads, size_t n,
                       const std::function<void(size_t)>& body);

}  // namespace fsopt
