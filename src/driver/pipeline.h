// The compile path, stage by stage.
//
// Every stage — lex/parse, sema, callgraph, PDV detection, non-concurrency
// phases, RSD side effects, sharing report, transformation decisions,
// layout, bytecode — runs inside one `pass` obs span (obs/obs.h) named
// after it and attaches its domain counters (functions, pdvs, decisions,
// instructions, ...) to that span.  run_front opens the parse and sema
// spans, analyze_program (analysis/sideeffect.h) the four analysis
// stages', and run_back the rest.  The span is the only per-pass record:
// with tracing off it is inert, and `--trace-out` / `--trace-summary`
// carry and aggregate it.  A counter that costs more than reading a size
// is computed only when `span.active()`.
//
// The pipeline is split into a *front* half (parse + sema, a function of
// (source, param overrides) only) and a *back* half (everything after,
// which additionally depends on optimize/block-size options and an
// injected plan).  The front half's Program is immutable once sema
// finishes, so one FrontHalf can be shared — including concurrently — by
// every back half that differs only in those options: the plan search and
// the repair loop recompile every candidate against one front.
//
// The pre-refactor monolith is retained as compile_source_reference();
// the tests diff the pipeline against it on every workload-matrix cell.
#pragma once

#include <memory>
#include <string_view>

#include "driver/compiler.h"

namespace fsopt {

/// Pass names of the full pipeline, front + back, in execution order: the
/// `pass` spans one traced compile records.
std::vector<std::string> compile_pass_names();

/// A parsed and sema-checked program.  The Program is treated as
/// immutable from here on, so a FrontHalf may be shared by concurrent
/// back-half runs.
struct FrontHalf {
  std::shared_ptr<Program> prog;
  /// The front end's warnings and notes (a front with errors throws).
  std::vector<Diagnostic> warnings;
};

/// Run the front half.  Throws CompileError on invalid programs.
FrontHalf run_front(std::string_view source, const ParamOverrides& overrides);

/// Run the back half against a (possibly shared) front.  `options`
/// supplies optimize/decision/block_size/plan; its overrides must be the
/// ones the front was parsed with.
Compiled run_back(const FrontHalf& front, const CompileOptions& options);

/// The retained pre-refactor compile path: the original straight-line
/// monolith, kept verbatim as the regression reference for the pipeline.
/// StaticPlannerTest.MatchesReferenceAcrossWorkloadMatrix (test_plan_ir)
/// diffs every workload/version against it.
Compiled compile_source_reference(std::string_view source,
                                  const CompileOptions& options = {});

/// Deterministic fingerprint of a Compiled's observable outputs (sharing
/// report, transform decisions, layout-resolved code image, sizes), used
/// by the reference cross-check and the determinism tests.  Two Compiled
/// objects with equal fingerprints behave identically under the
/// interpreter and simulators.
std::string compile_fingerprint(const Compiled& c);

}  // namespace fsopt
