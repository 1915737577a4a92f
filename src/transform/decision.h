// §3.3 transformation heuristics: given the sharing classification of each
// datum, decide which of the four transformations (if any) to apply.
// The decisions are returned as a TransformPlan (transform/plan_ir.h);
// StaticPlanner (transform/planner.h) is the Planner-interface wrapper
// around this function.
#pragma once

#include <map>

#include "transform/plan_ir.h"

namespace fsopt {

struct DecisionOptions {
  /// Write weight must exceed read weight by this factor before
  /// transforming data whose reads are shared *with* locality (§3.3).
  double write_dominance = 10.0;
  /// Only data whose estimated access weight is at least this fraction of
  /// the program total are considered (static profiling "pinpoints the
  /// data structures most responsible", §3.1).  Busy data hidden deep in
  /// loops with unknown bounds can be under-weighted and escape
  /// transformation — the source of Maxflow's and Raytrace's residual
  /// false sharing (§5), and what the profile-guided planner
  /// (transform/planner.h) repairs.  Locks are exempt.
  double min_weight_fraction = 0.015;
  /// "Judicious use of padding" (§3.2): pad & align is skipped when the
  /// padded datum would exceed this many bytes, since the capacity and
  /// conflict misses of a blown-up data set would outweigh the
  /// false-sharing savings.  Locks are exempt (they are few).
  i64 pad_footprint_limit = 64 * 1024;
  /// Selective enables, used by the Table-2 attribution benchmark.
  bool enable_group_transpose = true;
  bool enable_indirection = true;
  bool enable_pad_align = true;
  bool enable_lock_pad = true;
};

/// Apply the heuristics.  `summary` supplies per-datum record details for
/// partition-shape detection; `block_size` is the coherence-unit size the
/// transformations target (the driver threads CompileOptions::block_size
/// through — there is exactly one block-size knob).  The returned plan has
/// planner = "static" and carries `block_size`.
TransformPlan decide_transforms(const SharingReport& report,
                                const ProgramSummary& summary,
                                i64 block_size,
                                const DecisionOptions& options = {});

/// Dominant-phase write records per datum — the evidence
/// detect_partition_shape consumes.  Only the dominant phase's records
/// shape the layout (§3.1).
std::map<DatumKey, std::vector<const AccessRecord*>> dominant_phase_writes(
    const SharingReport& report, const ProgramSummary& summary);

/// Detect how per-process sections of dimension `dim` map onto pids.
/// Returns nullopt if neither a blocked nor an interleaved pattern fits
/// (the partitioning exists but has no linear layout axis).  Shared with
/// ProfilePlanner, which must answer the same question for data the
/// static weights missed.
std::optional<std::pair<PartitionShape, i64>> detect_partition_shape(
    const std::vector<const AccessRecord*>& writes,
    const ProgramSummary& summary, const DatumKey& key, int dim);

}  // namespace fsopt
