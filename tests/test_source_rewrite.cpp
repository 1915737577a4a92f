// The source-to-source restructurer must emit *runnable* PPL whose
// ordinary declaration-order layout realizes the transformations: same
// program results, (almost) no false sharing left.
#include "transform/source_rewrite.h"

#include <gtest/gtest.h>

#include "driver/experiment.h"
#include "workloads/workloads.h"

namespace fsopt {
namespace {

const char* kSource =
    "param NPROCS = 4;\n"
    "struct S { int v[NPROCS]; int w; };\n"
    "struct S g[16];\n"
    "real a[32];\n"
    "real b[8][NPROCS];\n"
    "int busy1; int busy2;\n"
    "lock_t l[4]; int q;\n"
    "void main(int pid) { int i; int r;\n"
    "  for (i = 0; i < 16; i = i + 1) { g[i].v[pid] = 0; }\n"
    "  if (pid == 0) { for (i = 0; i < 16; i = i + 1) { g[i].w = i; } }\n"
    "  barrier();\n"
    "  for (r = 0; r < 20; r = r + 1) {\n"
    "    for (i = pid; i < 32; i = i + nprocs) { a[i] = a[i] + 1.0; }\n"
    "    for (i = 0; i < 8; i = i + 1) {\n"
    "      b[i][pid] = b[i][pid] + 1.0;\n"
    "      g[(q + i) % 16].v[pid] = g[(q + i) % 16].v[pid] + 1;\n"
    "    }\n"
    "    lock(l[pid % 4]);\n"
    "    busy1 = busy1 + 1;\n"
    "    busy2 = busy2 - 1;\n"
    "    unlock(l[pid % 4]);\n"
    "  }\n"
    "}\n";

struct Rewritten {
  Compiled original;     // unoptimized
  Compiled plan;         // LayoutPlan-transformed
  Compiled source;       // source-to-source output, compiled plainly
  SourceRewriteResult rw;
};

Rewritten build() {
  Rewritten out;
  CompileOptions plain;
  plain.overrides["NPROCS"] = 4;
  CompileOptions opt = plain;
  opt.optimize = true;
  out.original = compile_source(kSource, plain);
  out.plan = compile_source(kSource, opt);
  out.rw = rewrite_to_source(*out.plan.prog, out.plan.transforms, 128);
  out.source = compile_source(out.rw.source, plain);
  return out;
}

TEST(SourceRewrite, OutputCompilesAndRuns) {
  Rewritten r = build();
  EXPECT_TRUE(r.rw.skipped.empty())
      << "unexpected skips: " << r.rw.skipped.front();
  auto m = run_program(r.source);
  EXPECT_GT(m->refs(), 0u);
}

TEST(SourceRewrite, ComputesSameResults) {
  Rewritten r = build();
  auto m0 = run_program(r.original);
  auto m1 = run_program(r.source);
  // a -> a__gt (interleaved), b -> b__gt (transposed), g.v -> g__v.
  for (i64 i = 0; i < 32; ++i)
    EXPECT_DOUBLE_EQ(m0->load_real(r.original.address_of("a", "", {i})),
                     m1->load_real(r.source.address_of("a__gt",
                                                       "", {i % 4, i / 4})));
  for (i64 k = 0; k < 8; ++k)
    for (i64 p = 0; p < 4; ++p)
      EXPECT_DOUBLE_EQ(m0->load_real(r.original.address_of("b", "", {k, p})),
                       m1->load_real(r.source.address_of("b__gt", "",
                                                         {p, k})));
  for (i64 i = 0; i < 16; ++i) {
    for (i64 p = 0; p < 4; ++p)
      EXPECT_EQ(m0->load_int(r.original.address_of("g", "v", {i, p})),
                m1->load_int(r.source.address_of("g__v", "", {p, i})));
    EXPECT_EQ(m0->load_int(r.original.address_of("g", "w", {i})),
              m1->load_int(r.source.address_of("g", "w", {i})));
  }
  EXPECT_EQ(m0->load_int(r.original.address_of("busy1", "", {})),
            m1->load_int(r.source.address_of("busy1__pad", "", {0})));
}

TEST(SourceRewrite, EliminatesFalseSharingLikeTheLayoutPlan) {
  Rewritten r = build();
  auto s0 = run_trace_study(r.original, {128});
  auto s1 = run_trace_study(r.plan, {128});
  auto s2 = run_trace_study(r.source, {128});
  // Both transformed forms remove the bulk of the original false sharing.
  EXPECT_LT(s1.at(128).false_sharing, s0.at(128).false_sharing / 4);
  EXPECT_LT(s2.at(128).false_sharing, s0.at(128).false_sharing / 4);
}

TEST(SourceRewrite, PaddedObjectsAreBlockAligned) {
  Rewritten r = build();
  EXPECT_EQ(r.source.address_of("busy1__pad", "", {0}) % 128, 0);
  EXPECT_EQ(r.source.address_of("l__pad", "", {0, 0}) % 128, 0);
  EXPECT_NE(r.source.address_of("l__pad", "", {1, 0}) / 128,
            r.source.address_of("l__pad", "", {2, 0}) / 128);
}

TEST(SourceRewrite, ExtractedFieldLeavesStruct) {
  Rewritten r = build();
  const StructType* st = r.source.prog->find_struct("S");
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->field_index("v"), -1);
  EXPECT_GE(st->field_index("w"), 0);
}

TEST(SourceRewrite, IntraDatumMovesAndTheBarrierStrideAreSkipped) {
  // The graph planner's intra-datum moves and its barrier stride have no
  // declaration-order spelling: the rewrite reports them as skipped and
  // emits the program with those datums untouched.
  CompileOptions plain;
  plain.overrides["NPROCS"] = 4;
  Compiled c = compile_source(kSource, plain);
  TransformPlan plan;
  TransformDecision stride;
  stride.datum = {kBarrierSym, -1};
  stride.kind = TransformKind::kIntraPad;
  stride.chunk = 64;
  TransformDecision split;
  split.datum = {c.prog->find_global("g")->id, -1};
  split.kind = TransformKind::kHotColdSplit;
  split.fields = {0};
  plan.decisions = {stride, split};

  SourceRewriteResult rw = rewrite_to_source(*c.prog, plan, 128);
  EXPECT_EQ(rw.skipped,
            (std::vector<std::string>{
                "<barrier>: intra-pad not expressible in PPL",
                "g: hot-cold-split not expressible in PPL"}));
  EXPECT_TRUE(rw.renames.empty());
  Compiled s = compile_source(rw.source, plain);
  ASSERT_NE(s.prog->find_global("g"), nullptr);
  EXPECT_EQ(run_program(s)->refs(), run_program(c)->refs());
}

TEST(SourceRewrite, WorksOnTheWorkloads) {
  // The flagship G&T workload round-trips through source rewriting.
  for (const char* name : {"fmm", "water"}) {
    const auto& w = fsopt::workloads::get(name);
    CompileOptions opt;
    opt.overrides = w.sim_overrides;
    opt.overrides["NPROCS"] = 4;
    opt.optimize = true;
    Compiled c = compile_source(w.natural, opt);
    SourceRewriteResult rw = rewrite_to_source(*c.prog, c.transforms, 128);
    CompileOptions plain;
    plain.overrides["NPROCS"] = 4;
    Compiled s = compile_source(rw.source, plain);
    auto m = run_program(s);
    EXPECT_GT(m->refs(), 0u) << name;
  }
}

}  // namespace
}  // namespace fsopt
