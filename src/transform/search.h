// SearchPlanner: budgeted search over the transform-plan IR, scored by
// simulated misses instead of heuristics.
//
// The §3.3 decision procedure and its profile/graph refinements
// (transform/planner.h) are one-shot greedy rules: each datum gets the
// first transformation whose admissibility test passes.  With replay_multi making a full block-size
// sweep nearly as cheap as a single replay, the plan space can instead be
// *searched* against measured miss counts, in the spirit of Chen &
// Kandemir's constraint-network memory-layout formulation: candidate
// moves are the existing decision kinds applied per datum, built by the
// planners' move rules (transform/planner.h), pruned by
// constraint propagation (decisions that cannot coexist, a footprint
// budget, alignment feasibility), explored by beam search — or, when the
// pruned space fits the replay budget, enumerated exhaustively, which is
// what makes the brute-force oracle test sound.
//
// Layering: transform/ stays independent of sim/, driver/ and threads.
// The search never simulates anything itself — search_plan
// (driver/experiment.h) passes in a PlanEvaluator callback that compiles
// each candidate plan against the shared front half, takes its trace
// from a cache and replays it across the swept block sizes in a single
// pass; this layer only sees the resulting plain-number PlanScores.
//
// Batches: admission (dedup and the footprint constraint) never reads a
// score, so the candidates of one exhaustive enumeration or one beam
// round are independent.  The search hands each such set to the
// evaluator as one batch, which may score its plans concurrently, then
// commits the scores in generation order and stops exactly where a
// one-at-a-time loop would: the replay budget is a count known before
// anything is scored, and the one score-dependent exit (a beam candidate
// with zero false sharing and zero loss) discards the rest of its batch.
//
// Objective: two axes.  The primary axis is total false-sharing misses
// summed across the swept block sizes; the secondary axis is
// spatial-locality loss — the cold/capacity misses a candidate adds over
// the seed plan, plus its footprint growth in blocks.  Candidates are
// ordered lexicographically by (fs_total, spatial_loss, generation
// index); the generation index is deterministic, so the whole search is
// bit-identical across thread counts and repeated runs (the evaluator's
// replays are bit-identical by construction).  Besides the single best
// plan the search keeps the best plan *per swept block size* and the
// Pareto frontier over the two axes (`fsoptc --pareto-out`).
#pragma once

#include <functional>

#include "transform/planner.h"

namespace fsopt {

/// Measured score of one candidate plan: per-block-size false-sharing
/// misses, per-block-size cold+capacity misses (the spatial-locality
/// axis), and the layout footprint in bytes.  Plain numbers only — the
/// driver's evaluator distills them from a trace study.
struct PlanScore {
  std::map<i64, u64> fs;             // block size -> false-sharing misses
  std::map<i64, u64> cold_capacity;  // block size -> cold + replacement
  i64 footprint = 0;                 // shared-heap bytes of the layout

  u64 fs_total() const {
    u64 t = 0;
    for (const auto& [b, v] : fs) t += v;
    return t;
  }
};

/// Compile + trace + replay a batch of candidate plans: one score per
/// plan, in the batch's order.  The plans of a batch are independent, so
/// they may be scored concurrently.  Must be deterministic: a plan's
/// score may not depend on its batch or on the thread count (the replay
/// engine guarantees bit-identical stats for any thread count).
using PlanEvaluator =
    std::function<std::vector<PlanScore>(const std::vector<TransformPlan>&)>;

/// Cost bound for the search.  `max_replays` caps candidate evaluations
/// *beyond* the seed plan (the seed is always evaluated — it is the
/// baseline both axes are measured against), so a budget of 0 degrades
/// gracefully to the seed plan.  Tie-breaking is deterministic
/// (generation order), so a fixed budget yields identical plans and
/// frontiers for any thread count and across repeated runs.
struct SearchBudget {
  int max_replays = 24;
  int beam_width = 3;
  int max_rounds = 3;
  /// Constraint-propagation bound: the summed footprint-growth estimate
  /// of a candidate's moves may not exceed this (same currency as
  /// ProfilePlannerOptions::pad_footprint_limit).
  i64 footprint_limit = 256 * 1024;
};

/// The feasible moves for one datum, after node-level constraint pruning
/// (alignment feasibility, per-move footprint).  A move with kind kNone
/// clears the seed's decision for the datum (exploring *removal* is what
/// populates the low-footprint end of the Pareto frontier).  Exposed so
/// the oracle test can enumerate exactly the space the search prunes.
struct SearchDomain {
  DatumKey datum;
  std::string name;  // address-map spelling, for reports
  std::vector<TransformDecision> moves;
};

/// One evaluated candidate.  `order` is the deterministic generation
/// index (0 = the seed plan) used as the final tie-break.
struct SearchCandidate {
  TransformPlan plan;
  PlanScore score;
  u64 fs_total = 0;
  u64 spatial_loss = 0;
  int order = 0;
};

struct SearchResult {
  i64 block_size = 128;    // the plan-target size
  std::vector<i64> blocks; // swept sizes every candidate was scored at
  SearchBudget budget;
  /// Every evaluated candidate, in generation order ([0] is the seed).
  std::vector<SearchCandidate> evaluated;
  /// Index of the best candidate overall: lexicographic min of
  /// (fs_total, spatial_loss, order) over the candidates that weakly
  /// dominate the seed's false sharing at *every* swept block size (the
  /// seed qualifies trivially, so the winner is never worse than the
  /// seed plan at any size — the invariant the bench gates enforce).
  size_t best_overall = 0;
  /// Per swept block size, the candidate minimizing (fs at that size,
  /// spatial_loss, order).
  std::map<i64, size_t> best_by_block;
  /// Pareto frontier over (fs_total, spatial_loss): indices of the
  /// non-dominated candidates, sorted by ascending fs_total.  Dominated
  /// duplicates keep the lowest generation index.  Never empty — the
  /// seed always participates.
  std::vector<size_t> frontier;
  /// True when the pruned domain product fit the replay budget and the
  /// space was enumerated exhaustively (the oracle regime).
  bool exhaustive = false;
  u64 generated = 0;  // candidate plans considered (including pruned)
  u64 pruned = 0;     // rejected by constraint propagation / dedup
  u64 replays = 0;    // scores committed to `evaluated` (seed included)
  /// Scores computed for the rest of a batch past the zero-loss exit and
  /// thrown away (not in `evaluated`, `replays` or the JSON record).
  u64 discarded = 0;

  const SearchCandidate& best() const { return evaluated[best_overall]; }
};

/// Budgeted plan-space search.  `blocks` are the swept block sizes the
/// evaluator scores at (they become SearchResult::blocks); the seed plan
/// is `in.base` when set, else graph_plan of the same inputs.  Every
/// candidate plan is stamped "search".
class SearchPlanner {
 public:
  SearchPlanner(SearchBudget budget, std::vector<i64> blocks,
                PlanEvaluator evaluate)
      : budget_(budget), blocks_(std::move(blocks)),
        evaluate_(std::move(evaluate)) {}

  SearchResult search(const PlannerInputs& in) const;

  /// The constraint-pruned per-datum move domains for `in`, in the
  /// deterministic order the search explores them.  Public so the
  /// brute-force oracle test enumerates exactly the same space.
  std::vector<SearchDomain> domains(const PlannerInputs& in) const;

 private:
  SearchBudget budget_;
  std::vector<i64> blocks_;
  PlanEvaluator evaluate_;
};

/// Apply one search move to a plan: decisions colliding with the move's
/// datum (datums_collide) are removed, then the move is appended (kNone
/// appends nothing — pure removal).  Exposed for the oracle test.
TransformPlan apply_search_move(const TransformPlan& plan,
                                const TransformDecision& move);

/// Versioned JSON for `fsoptc --pareto-out`: budget, counters, the best
/// plan overall, the best plan per swept block size, and the full Pareto
/// frontier with scores and embedded plans (plan_version-1 objects, the
/// same schema --plan-in accepts).  Deterministic byte-for-byte for a
/// fixed search result.
std::string search_result_to_json(const SearchResult& r, const Program& prog);

}  // namespace fsopt
