// TransformPlan IR: transformation plans as first-class value objects.
//
// A plan is the contract between the decision layer (which *chooses*
// transformations) and the layout/codegen layer (which *implements* them).
// Historically the plan was an opaque by-product of the §3.3 heuristics;
// promoting it to a standalone IR makes it
//   - serializable: plan_to_json / plan_from_json round-trip byte-exactly,
//     so plans can be exported (`fsoptc --plan-out`), audited, hand-edited
//     and re-injected (`--plan-in`, CompileOptions::plan);
//   - diffable: plan_diff reports per-datum added/removed/changed
//     decisions with *structured* reasons (machine-comparable, rendered to
//     text for reports) instead of free-form strings;
//   - plannable: any Planner (transform/planner.h) — the paper's static
//     heuristics or the profile-guided repair loop — produces the same IR,
//     so downstream layers cannot tell planners apart.
#pragma once

#include "analysis/report.h"

namespace fsopt {

enum class TransformKind : u8 {
  kNone,
  kGroupTranspose,
  kIndirection,
  kPadAlign,
  kLockPad,
  // Intra-datum transformations, driven by the word-granularity conflict
  // graph (sim/attribution.h): they change layout *within* one datum
  // instead of moving whole datums apart.
  kFieldReorder,   // permute a struct's field order (fields = permutation)
  kHotColdSplit,   // split hot fields into their own region (fields = hot)
  kIntraPad,       // pad between consecutive elements/words (chunk = stride)
};

const char* transform_name(TransformKind k);

/// How the per-process partitioning maps onto the pid dimension.
enum class PartitionShape : u8 {
  kBlocked,      // process p owns indices [p*C, (p+1)*C)
  kInterleaved,  // process p owns indices ≡ p (mod NPROCS)
};

/// Why a decision was made.  Structured so plan diffs and goldens compare
/// machine-to-machine; render() produces the human-readable report text.
enum class ReasonCode : u8 {
  kNone,
  kLockAlwaysPadded,      // §3.2: locks are always padded
  kPerProcessWrites,      // §3.3: per-process writes (param: read pattern)
  kSharedNonLocal,        // §3.3: shared writes without locality
  kStructConsensus,       // §3.3: all fields per-process (param: dim)
  kProfileFalseSharing,   // profile-guided: attributed FS misses (params:
                          //   miss count, share of all attributed FS)
  kConflictGraph,         // word-granularity conflict graph: intra-datum
                          //   conflict edges (params: fs_misses = edge
                          //   weight, fs_share = share of graph weight)
};

const char* reason_code_name(ReasonCode c);

struct DecisionReason {
  ReasonCode code = ReasonCode::kNone;
  /// kPerProcessWrites: the read-side pattern that admitted the transform.
  Pattern read_pattern = Pattern::kNone;
  /// kStructConsensus: the agreed pid dimension.
  int dim = -1;
  /// kProfileFalseSharing: attributed false-sharing misses and their share
  /// of all attributed false-sharing misses in the profiling replay.
  u64 fs_misses = 0;
  double fs_share = 0.0;

  std::string render() const;
  bool operator==(const DecisionReason&) const = default;
};

struct TransformDecision {
  DatumKey datum;  // field = -1 for symbol-level decisions
  TransformKind kind = TransformKind::kNone;
  int pid_dim = -1;
  PartitionShape shape = PartitionShape::kBlocked;
  i64 chunk = 1;  // C for blocked partitionings; byte stride for kIntraPad
  DecisionReason reason;
  /// Field indices for the intra-datum kinds: the full field permutation
  /// for kFieldReorder, the split-out hot fields for kHotColdSplit.
  /// Empty for every other kind.  (Declared last, so aggregate
  /// initializers of the other kinds end in an empty `{}` for it.)
  std::vector<int> fields;

  bool operator==(const TransformDecision&) const = default;
  /// True when the decisions agree on everything the layout engine reads
  /// (i.e. everything except the reason).
  bool same_effect(const TransformDecision& o) const {
    return datum == o.datum && kind == o.kind && pid_dim == o.pid_dim &&
           shape == o.shape && chunk == o.chunk && fields == o.fields;
  }
};

struct TransformPlan {
  std::vector<TransformDecision> decisions;
  /// Which planner produced the plan ("static", "profile", "imported";
  /// empty for the default-constructed no-transformations plan).
  std::string planner;
  /// Coherence-unit size (bytes) the plan targets.
  i64 block_size = 128;

  const TransformDecision* find(const DatumKey& k) const;
  /// Decision applying to an access to (sym, field): field-specific first,
  /// then symbol-level.
  const TransformDecision* applying_to(int sym, int field) const;
  std::string render(const ProgramSummary& sum) const;
  bool operator==(const TransformPlan&) const = default;
};

// ---------------------------------------------------------------------------
// Serialization.  Datums are keyed by symbol/field *name* (stable across
// compiles of the same source; ids are resolved against `prog` on import),
// emission order and formatting are deterministic, so
// serialize → parse → serialize is byte-equal.
// ---------------------------------------------------------------------------

std::string plan_to_json(const TransformPlan& plan, const Program& prog);

namespace json {
class Writer;
}

/// Emit the plan as one JSON object into an in-progress document — the
/// same schema as plan_to_json (which delegates here), so plans can be
/// embedded in larger documents (the search planner's Pareto export)
/// and still parse with plan_from_json.
void plan_to_writer(json::Writer& w, const TransformPlan& plan,
                    const Program& prog);

/// Parse a plan written by plan_to_json (or hand-edited).  Throws
/// InternalError naming the offending field on malformed documents,
/// unknown symbols/fields or enum spellings.
TransformPlan plan_from_json(std::string_view json, const Program& prog);

// ---------------------------------------------------------------------------
// Diffing.
// ---------------------------------------------------------------------------

enum class PlanChange : u8 { kAdded, kRemoved, kChanged };

struct PlanDelta {
  PlanChange change = PlanChange::kAdded;
  DatumKey datum;
  TransformDecision before;  // valid for kRemoved / kChanged
  TransformDecision after;   // valid for kAdded / kChanged
};

struct PlanDiff {
  std::vector<PlanDelta> entries;
  bool empty() const { return entries.empty(); }
  size_t added() const;
  size_t removed() const;
  size_t changed() const;
  std::string render(const ProgramSummary& sum) const;
};

/// Per-datum structural diff of two plans.  Entries are ordered: changes
/// and removals in `before` decision order, then additions in `after`
/// decision order.  A decision counts as changed when the layout-relevant
/// fields OR the structured reason differ.
PlanDiff plan_diff(const TransformPlan& before, const TransformPlan& after);

}  // namespace fsopt
