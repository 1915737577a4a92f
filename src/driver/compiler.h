// fsopt driver: source -> (parse, sema) -> stages 1-3 analysis ->
// transformation decisions -> memory layout -> bytecode.
//
// This is the library's main entry point.  Compile the same source twice —
// once with `optimize = false` and once with `optimize = true` — to obtain
// the unoptimized and compiler-transformed executables the paper compares.
#pragma once

#include <string_view>

#include "analysis/report.h"
#include "interp/compile.h"
#include "transform/decision.h"
#include "transform/plan.h"

namespace fsopt {

struct CompileOptions {
  /// Overrides for `param` declarations (NPROCS, problem sizes).
  ParamOverrides overrides;
  /// Apply the compile-time data transformations (§3).
  bool optimize = false;
  /// §3.3 heuristic knobs and selective enables.
  DecisionOptions decision;
  /// Coherence-unit size targeted by the transformations.  The KSR2's unit
  /// is 128 bytes.  This is the *single* block-size knob: the driver
  /// threads it into decide_transforms and build_layout.
  i64 block_size = 128;
  /// Injected transform plan (`fsoptc --plan-in`, the repair loop's
  /// recompiles).  When set, the plan pass copies it verbatim instead of
  /// running a planner, regardless of `optimize`; its DatumKeys must have
  /// been resolved against the same source + overrides (plan_from_json
  /// does this by name).  Shared, not unique: CompileOptions is copied
  /// freely by the experiment harness.
  std::shared_ptr<const TransformPlan> plan;
};

class Compiled {
 public:
  /// Shared, not unique: variants of one source that differ only in
  /// back-half options (the N and C versions of a workload) can share one
  /// parsed+checked Program (see driver/pipeline.h FrontHalf).  The
  /// Program is immutable after sema.
  std::shared_ptr<Program> prog;
  ProgramSummary summary;
  SharingReport report;
  TransformPlan transforms;
  LayoutPlan layout;
  CodeImage code;
  CompileOptions options;
  /// The front end's warnings and notes (FrontHalf::warnings).
  std::vector<Diagnostic> warnings;

  i64 nprocs() const { return prog->nprocs; }

  /// Simulated address of one scalar location, for result inspection:
  /// `address_of("a", "", {3})`, `address_of("nodes", "val", {2, 0})`.
  i64 address_of(const std::string& global, const std::string& field,
                 const std::vector<i64>& indices) const;

  /// Scalar kind at that location.
  ScalarKind scalar_kind_of(const std::string& global,
                            const std::string& field) const;
};

/// Full pipeline.  Throws CompileError on invalid programs.  Runs the front
/// and back halves of driver/pipeline.h; with tracing on (obs/obs.h) each
/// stage records a `pass` span carrying its domain counters.
Compiled compile_source(std::string_view source,
                        const CompileOptions& options = {});

}  // namespace fsopt
