// Measured planners: plan functions that refine a base plan with what a
// trace-driven simulation measured.
//
// The paper's §3.3 heuristics (decide_transforms, transform/decision.h)
// decide from static access weights alone; the pipeline's plan pass calls
// them directly.  Two refinements start from a base plan (normally the
// static one) and only ever add decisions to it:
//
//   profile_plan — decisions for data a false-sharing *profile* shows the
//                  static weights missed.  The profile is per-datum
//                  attributed miss counts from a trace-driven simulation
//                  (driver/experiment.h build_fs_profile); this layer only
//                  sees the plain name-keyed numbers, keeping transform/
//                  independent of sim/ and driver/.
//   graph_plan   — the profile pass plus intra-datum repair driven by the
//                  word-granularity conflict graph (ConflictProfile):
//                  partitions each datum's conflicting words by processor
//                  affinity and splits/pads the parts into separate
//                  coherence units.
//
// The plan-space search (transform/search.h) proposes the same per-datum
// moves without the greedy thresholds.  The rules both need are defined
// once, in the move rules declared at the end of this header: the
// collision rule, name resolution, the struct moves (with the word and
// field owners and the offset-to-field lookup behind them) and the
// per-process partition move.
//
// The repair loop (driver/experiment.h repair_loop) alternates a planner
// with re-simulation until the plan reaches a fixed point.
#pragma once

#include "transform/decision.h"

namespace fsopt {

/// Per-datum false-sharing attribution from one simulated configuration.
/// Names are the address-map spellings ("g", "g.f", "<barrier>"), which
/// coincide with ProgramSummary::datum_name for program data.
struct FalseSharingProfile {
  struct Entry {
    std::string name;
    u64 fs_misses = 0;   // attributed false-sharing misses
    u64 misses = 0;      // attributed misses of any kind
    double fs_share = 0; // fs_misses / total attributed fs misses
  };
  /// Sorted by descending fs_misses (ties by name) — the order profile-
  /// guided decisions are appended in.
  std::vector<Entry> entries;
  i64 block_size = 0;  // configuration the attribution was simulated at
  u64 total_fs = 0;    // total attributed false-sharing misses

  const Entry* find(const std::string& name) const;
};

/// Word-granularity conflict attribution distilled per datum.  Offsets
/// are bytes relative to the datum's base; the driver distills this from
/// the simulator's per-line conflict graph plus the address map
/// (driver/experiment.h build_conflict_profile), so this layer only sees
/// plain name-keyed numbers and transform/ stays independent of sim/.
/// Cross-datum edges (the inter-datum transforms' territory) are not
/// included.
struct ConflictProfile {
  struct Pair {
    i64 writer_off = 0;  // byte offset of the invalidating written word
    i64 victim_off = 0;  // byte offset of the word whose read missed
    int writer_proc = 0;
    int victim_proc = 0;
    u64 weight = 0;  // false-sharing misses attributed to this pair
  };
  struct Entry {
    std::string name;  // address-map spelling ("g", "g.f", "<barrier>")
    u64 weight = 0;    // sum of pair weights
    std::vector<Pair> pairs;
  };
  /// Sorted by descending weight (ties by name).
  std::vector<Entry> entries;
  i64 block_size = 0;    // configuration the graph was collected at
  u64 total_weight = 0;  // sum over entries (intra-datum edges only)

  const Entry* find(const std::string& name) const;
};

/// Everything a planner may consult.  `profile` is null for planners that
/// do not use one; `base` (when non-null) is the plan to refine rather
/// than the static plan; `conflicts` feeds the graph planner.
struct PlannerInputs {
  const SharingReport& report;
  const ProgramSummary& summary;
  DecisionOptions options;
  i64 block_size = 128;
  const FalseSharingProfile* profile = nullptr;
  const TransformPlan* base = nullptr;
  const ConflictProfile* conflicts = nullptr;
};

struct ProfilePlannerOptions {
  /// A datum must carry at least this share of all attributed
  /// false-sharing misses to be repaired.
  double min_fs_fraction = 0.02;
  /// ... and at least this many attributed false-sharing misses (guards
  /// against amplifying noise in short traces).
  u64 min_fs_misses = 16;
  /// Pad budget for profile-driven padding.  Looser than the static
  /// planner's: here the misses are *measured*, not estimated, so the
  /// trade against capacity misses is made on evidence.
  i64 pad_footprint_limit = 256 * 1024;
};

/// Profile-guided repair: extends `in.base` (or the static plan when no
/// base is given) with decisions for the data the profile shows still
/// falsely sharing.  Per datum: locks get lock-pad; per-process writes
/// with a detectable partition shape get group&transpose / indirection;
/// anything else gets pad & align within the (looser) footprint budget.
/// Existing decisions are never modified or removed — the repair loop
/// converges because each iteration can only add.  Stamped "profile".
TransformPlan profile_plan(const PlannerInputs& in,
                           const ProfilePlannerOptions& opt = {});

/// Conflict-graph-guided repair: runs profile_plan with `opt`, then
/// partitions each conflicting datum's words by processor affinity (as
/// StructMoves describes) and, when the partition explains at least half
/// of the datum's conflict weight, separates the parts — a field
/// permutation or kHotColdSplit for struct fields, a 256-byte kIntraPad
/// for array words and for the interpreter's central barrier
/// ("<barrier>", which has no DatumClass and is invisible to the profile
/// pass).  A datum qualifies with at least 2% of the graph's weight and a
/// weight of 16.  Existing decisions are never modified or removed, so
/// the repair loop still converges.  Stamped "graph".
TransformPlan graph_plan(const PlannerInputs& in,
                         const ProfilePlannerOptions& opt = {});

// ---------------------------------------------------------------------------
// The per-datum move rules shared by the planners and the search.
// ---------------------------------------------------------------------------

/// True when decisions for `a` and `b` would collide in the layout
/// engine: the same datum, or one is the whole symbol and the other any
/// of its fields (a symbol-level pad/group decision overrides the
/// rebuilt-struct path, silently dropping field decisions — never stack
/// them).
bool datums_collide(const DatumKey& a, const DatumKey& b);

/// True when `plan` holds a decision colliding with one for `key`.
bool plan_covers(const TransformPlan& plan, const DatumKey& key);

/// A profile or conflict entry name resolved to the datum its decisions
/// target.  `dc` is the sharing report's class of that name, when it has
/// one.  A struct symbol maps as one address range while the report
/// classifies its accesses per field, so a symbol-level entry may have no
/// class and resolves to the global ({sym, -1}).  The barrier resolves to
/// its pseudo-datum with neither a class nor a global.
struct PlanDatum {
  DatumKey key;
  const DatumClass* dc = nullptr;
  const GlobalSym* gs = nullptr;  // null only for the barrier

  /// Elements the datum spans: the class's extents, else the global's
  /// element count.  Not for the barrier.
  i64 elements() const;
};

/// Nullopt when `name` is neither the barrier nor a program global.
std::optional<PlanDatum> resolve_datum(const PlannerInputs& in,
                                       const std::string& name);

/// The intra-datum moves for a symbol-level struct datum's conflict
/// entry.  Each conflicting word (byte offset) is owned by the processor
/// with the most incident edge weight, ties to the lowest processor id
/// (the partition graph_plan's cut is measured on).
struct StructMoves {
  /// kHotColdSplit of every field a conflicting word falls in.
  TransformDecision split;
  /// kFieldReorder grouping the fields by owner, in ascending processor
  /// order with cold fields last, stable within a class.
  TransformDecision reorder;
  /// Per field: the processor with the most conflict weight on the
  /// field's words (ties to the lowest), -1 for a cold field.
  std::vector<int> field_owner;
  /// Distinct processors owning a conflicting word.
  size_t word_classes = 0;
};

/// Nullopt when the entry has no words or one falls in struct padding.
std::optional<StructMoves> struct_moves(const PlanDatum& d,
                                        const ConflictProfile::Entry& e,
                                        const DecisionReason& reason);

/// The locality-restoring move for per-process writes with a detectable
/// linear partition axis (§3.3's admissibility minus the weight
/// threshold a measurement has already disproven): indirection for a
/// field whose pid dimension is a field dimension, group&transpose for a
/// whole symbol.  Nullopt otherwise — a field-level group&transpose needs
/// whole-struct consensus a profile cannot grant.  `writes` are the
/// datum's dominant-phase writes (dominant_phase_writes).
std::optional<TransformDecision> partition_move(
    const DatumClass& dc, const std::vector<const AccessRecord*>& writes,
    const ProgramSummary& summary, const DecisionReason& reason);

}  // namespace fsopt
