// Per-datum diagnosis: one machine-readable report that merges everything
// the tree knows about a datum's sharing behavior —
//
//   * the simulator's miss-class breakdown (sim/cache.h MissStats),
//   * the access-pattern taxonomy label and its evidence (sim/patterns.h),
//   * the intra-datum conflict-graph weight (sim/attribution.h),
//   * and what a planner would *do* about it (transform/planner.h),
//
// distilled into a ranked recommendation per datum (pad / reorder /
// split / stride / none), each with the evidence it rests on.  The report
// round-trips through JSON (diagnosis_to_json / diagnosis_from_json) so
// `fsoptc --diagnose=json` output can be archived, diffed
// (tools/fsopt_diff) and consumed by CI.
//
// This is a *diagnosis*, not a plan: recommendations name transformation
// categories, and when one is backed by an actual planner decision it
// says so (`from_planner`) and outranks the heuristic entries — so on
// workloads the planner repairs (maxflow, raytrace), the top
// recommendation and the planner's chosen transform agree by
// construction.
#pragma once

#include "driver/compiler.h"
#include "sim/patterns.h"

namespace fsopt {

class TraceCache;

/// One ranked suggestion for a datum.  `action` is the category the
/// report's consumers key on; `kind` pins the exact transform when the
/// suggestion is backed by a planner decision.
struct Recommendation {
  std::string action;  // "pad" | "reorder" | "split" | "stride" | "none"
  TransformKind kind = TransformKind::kNone;
  double score = 0.0;  // ranking key, larger is stronger
  bool from_planner = false;
  std::string why;  // human-readable evidence

  bool operator==(const Recommendation&) const = default;
};

/// The transformation category a transform kind falls into (the `action`
/// vocabulary above; kNone maps to "none").
const char* transform_action(TransformKind k);

struct DatumDiagnosis {
  std::string name;  // address-map spelling ("g", "g.f", "<barrier>")
  AccessPattern pattern = AccessPattern::kNone;
  MissStats stats;          // attributed outcomes
  u64 conflict_weight = 0;  // intra-datum conflict-graph edge weight
  /// The classifier evidence behind `pattern` (stats inside mirrors the
  /// attributed stats above).
  DatumPattern evidence;
  /// Ranked, strongest first; never empty (weakest case is one "none").
  std::vector<Recommendation> recommendations;

  const Recommendation& top() const { return recommendations.front(); }
};

struct DiagnoseOptions {
  /// Coherence-unit size of the diagnostic replay (and of the consulted
  /// planner's plan).
  i64 block_size = 128;
  i64 l1_bytes = 32 * 1024;
  /// Which planner's judgement backs the planner-sourced recommendations
  /// ("static", "profile" or "graph").
  std::string planner = "graph";
  PatternThresholds thresholds;
  /// Take the compile's trace from this cache (driver/experiment.h) —
  /// after a repair loop or search on the same program that is a
  /// relocation, not a recording.  Null = record it.
  TraceCache* traces = nullptr;
};

struct DiagnosisReport {
  std::string workload;
  i64 nprocs = 0;
  i64 block_size = 0;
  i64 l1_bytes = 0;
  u64 refs = 0;
  std::string planner;
  MissStats totals;
  /// Sorted by descending attributed false-sharing misses (ties by name).
  std::vector<DatumDiagnosis> datums;

  /// Diagnosis for `name`, or nullptr.
  const DatumDiagnosis* find(const std::string& name) const;
};

/// Diagnose one compiled workload: record its trace once, replay it at
/// `opt.block_size` with attribution and conflict collection
/// (replay_trace_study), summarize the same stream's access patterns,
/// run `opt.planner` over the measured profiles (with the compile's own
/// plan as base), and merge everything per datum.
DiagnosisReport diagnose(const Compiled& c, std::string workload,
                         const DiagnoseOptions& opt = {});

/// Serialize (schema "diagnosis_version": 1).  Deterministic; the
/// document parses under json::parse and `to_json(from_json(d))` is
/// byte-identical to `d` for documents this writer produced.
std::string diagnosis_to_json(const DiagnosisReport& report, int indent = 2);

/// Parse a document written by diagnosis_to_json.  Throws InternalError
/// naming the offending field on malformed documents.
DiagnosisReport diagnosis_from_json(std::string_view json);

/// Human-readable rendering (`fsoptc --diagnose`).
std::string render_diagnosis(const DiagnosisReport& report);

}  // namespace fsopt
