// Per-layer accounting for the traced run.
//
// After each traced op the benchmark hands the spans the process
// recorded (obs::collect) and the metrics registry (obs::metrics_snapshot)
// to LayerAccount.  Every instant of the op's wall time is charged to
// exactly one layer: the innermost span open on the client (main) thread,
// or — while the client waits on pool jobs — split evenly among the
// innermost spans open on the worker threads.  A layer's wall share is
// therefore its self time (span time minus the time its child spans
// cover) on the op's critical path, and the shares sum to the op's wall
// time.  Busy time, the denominator of every throughput ratio, counts
// each thread's self time without the client's waiting.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "obs/metrics.h"
#include "obs/obs.h"

namespace perfbench {

/// Layers, in report order.
enum Layer : int {
  kRecord,     // interp: trace-mode execution + encoding
  kTiming,     // interp + sim/ksr: timing-mode execution
  kReplay,     // sim: cache replay engines
  kDiagnose,   // analysis/sim: diagnose() outside record/replay
  kDecode,     // trace: chunk decode
  kPartition,  // trace: shard partition
  kSearch,     // transform + driver: search_plan outside other layers
  kCompile,    // lang + analysis + layout + codegen
  kPool,       // support: pool job overhead
  kBench,      // the benchmark's own code between calls
  kLayers
};
const char* layer_name(int layer);

/// One named per-layer metric value.
struct LayerMetric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

class LayerAccount {
 public:
  explicit LayerAccount(int pool_width) : width_(pool_width) {}

  /// `t0_ns`/`t1_ns` bracket the op on the obs clock; `work` is the op's
  /// reference (instructions, cycles) from Workload::reference_work;
  /// `pool_workers_before` is count_pool_workers() taken before the op.
  void add_op(const fsopt::obs::TraceData& trace,
              const fsopt::obs::MetricsSnapshot& metrics, u64 t0_ns,
              u64 t1_ns, const OpResult& result, std::pair<u64, u64> work,
              size_t pool_workers_before);

  /// Every per-layer metric, averaged per traced op where it is a
  /// count or a time.  `overhead_frac` is the untraced-vs-traced
  /// throughput ratio minus one.
  std::vector<LayerMetric> metrics(double overhead_frac) const;

  /// Human-readable table: one row per layer with wall share, busy
  /// time, calls and the throughput ratio with its base.
  std::string render(const std::string& workload) const;

 private:
  int width_;
  size_t ops_ = 0;
  double op_wall_ = 0.0;
  double wall_[kLayers] = {};
  double busy_[kLayers] = {};
  double calls_[kLayers] = {};
  double record_refs_ = 0.0;
  double record_bytes_ = 0.0;
  double plane_refs_ = 0.0;
  double pool_job_busy_ = 0.0;
  double ref_instr_ = 0.0;
  double ref_cycles_ = 0.0;
  double frontier_ = 0.0;
  size_t threads_spawned_ = 0;
  // Registry counters, summed over ops.
  double search_replays_ = 0.0, search_generated_ = 0.0,
         search_pruned_ = 0.0, repair_iterations_ = 0.0,
         repair_rollbacks_ = 0.0, pool_jobs_ = 0.0;
};

/// Number of thread logs named "pool-worker-*" in `trace`: pool threads
/// name themselves when tracing is on, and logs outlive their threads.
size_t count_pool_workers(const fsopt::obs::TraceData& trace);

}  // namespace perfbench
