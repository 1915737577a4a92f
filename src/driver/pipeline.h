// The compile path as an explicit pass pipeline.
//
// compile_source (driver/compiler.h) used to run the paper's system as one
// opaque monolith.  Here every stage — lex/parse, sema, callgraph, PDV
// detection, per-process control flow, non-concurrency phases, RSD side
// effects, sharing report, transformation decisions, layout, bytecode — is
// a named Pass over a shared PassContext.  The PassManager opens one
// `pass` obs span (obs/obs.h) around every pass, and the pass attaches its
// domain counters (functions, pdvs, decisions, instructions, ...) to that
// span.  The span is the only per-pass record: with tracing off it is
// inert, and `--trace-out` / `--trace-summary` carry and aggregate it.
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

#include <functional>
#include <memory>
#include <string_view>

#include "driver/compiler.h"
#include "obs/obs.h"

namespace fsopt {

/// Everything the passes read and write.  Earlier passes fill the slots
/// later passes consume; after the last pass the context holds a complete
/// Compiled.
struct PassContext {
  // Inputs.
  std::string_view source;
  CompileOptions options;

  // Front half products.
  DiagnosticEngine diags;
  std::shared_ptr<Program> prog;

  // Back half products, in pass order.
  std::unique_ptr<CallGraph> callgraph;
  ProgramSummary summary;
  SharingReport report;
  TransformPlan transforms;
  LayoutPlan layout;
  CodeImage code;
};

/// One named stage.  `run` must be a pure function of the context slots it
/// reads (no hidden state), so concurrent back halves over one shared
/// front produce identical products.  It receives its own `pass` span and
/// attaches domain counters with `span.arg`; a counter that costs more
/// than reading a size is computed only when `span.active()`.
struct Pass {
  std::string name;
  std::function<void(PassContext&, obs::Span&)> run;
};

/// An ordered list of passes, each run inside its own `pass` span.
class PassManager {
 public:
  PassManager& add(std::string name,
                   std::function<void(PassContext&, obs::Span&)> fn);

  /// Run every pass in order on `ctx`, each inside an obs::Span of
  /// category "pass" named after it.
  void run(PassContext& ctx) const;

  std::vector<std::string> pass_names() const;

 private:
  std::vector<Pass> passes_;
};

/// The two halves of the compile pipeline (built once, immutable).
const PassManager& front_pipeline();  // parse, sema
const PassManager& back_pipeline();   // callgraph ... codegen
/// Pass names of the full pipeline, front + back, in execution order.
std::vector<std::string> compile_pass_names();

/// A parsed and sema-checked program.  The Program is treated as
/// immutable from here on, so a FrontHalf may be shared by concurrent
/// back-half runs.
struct FrontHalf {
  std::shared_ptr<Program> prog;
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
