// Inspect the compiler pipeline on one of the paper's workloads: the
// detected PDVs, the barrier phases, the per-process section descriptors,
// the sharing classification, the transformation decisions, and the
// restructured source the source-to-source rewriter emits.
//
//   $ ./inspect_analysis [workload]       (default: pverify)
#include <cstdio>

#include "driver/experiment.h"
#include "transform/source_rewrite.h"
#include "workloads/workloads.h"

using namespace fsopt;

int main(int argc, char** argv) {
  const char* name = argc > 1 ? argv[1] : "pverify";
  const auto& w = workloads::get(name);
  CompileOptions opt;
  opt.overrides = w.sim_overrides;
  opt.overrides["NPROCS"] = 8;
  opt.optimize = true;
  Compiled c = compile_source(w.natural, opt);

  std::printf("===== %s (%s) =====\n\n", w.name.c_str(),
              w.description.c_str());

  std::printf("--- stage 1: process differentiating variables ---\n");
  for (const LocalSym* v : c.summary.pdvs.pdvs)
    std::printf("  %s%s\n", v->name.c_str(),
                v == c.summary.pdvs.pid ? "  (the pid parameter)" : "");
  std::printf("  decidable branch divergences in main: %zu\n\n",
              c.summary.percf.divergences.size());

  std::printf("--- stage 2: barrier phases ---\n");
  std::printf("  %d phases, %zu phase-graph edges\n\n",
              c.summary.phases.phase_count, c.summary.phases.edges.size());

  std::printf("--- stage 3: summary side effects (per-datum sections) ---\n");
  int shown = 0;
  for (const AccessRecord& r : c.summary.records) {
    if (r.is_lock_op || shown >= 12) continue;
    std::printf("  %-18s %s %-22s weight %8.1f  phase %d  pids %s\n",
                c.summary.datum_name(r.datum).c_str(),
                r.is_write ? "W" : "R", r.rsd.str().c_str(), r.weight,
                r.phase, r.pids.count() == c.nprocs()
                             ? "all"
                             : r.pids.str().c_str());
    ++shown;
  }
  std::printf("  ... (%zu records total)\n\n", c.summary.records.size());

  std::printf("--- sharing classification ---\n%s\n",
              c.report.render().c_str());
  std::printf("--- transformation decisions ---\n%s\n",
              c.transforms.render(c.summary).c_str());
  // The runnable source-to-source output, verified by recompiling it.
  SourceRewriteResult rw =
      rewrite_to_source(*c.prog, c.transforms, opt.block_size);
  std::printf("--- executable source-to-source output ---\n%s\n",
              rw.source.c_str());
  for (const auto& skipped : rw.skipped)
    std::printf("  (not expressible in PPL, layout plan only: %s)\n",
                skipped.c_str());
  Compiled again = compile_source(rw.source, CompileOptions{});
  auto st = run_trace_study(again, {128});
  std::printf(
      "recompiled source-to-source output: %llu refs, %.2f%% miss rate, "
      "%.2f%% false sharing\n",
      static_cast<unsigned long long>(st.refs),
      100 * st.at(128).miss_rate(),
      100 * st.at(128).false_sharing_rate());
  return 0;
}
