// Word-granularity conflict graph: collection during replay, distillation
// into the datum-relative ConflictProfile, the graph planner's intra-datum
// decisions, and end-to-end repair on synthetic workloads with known
// word-conflict structure.  Also pins the disabled path: a study run
// without collection must produce bit-identical stats to one with it.
#include "sim/attribution.h"

#include <gtest/gtest.h>

#include "analysis/sideeffect.h"
#include "driver/experiment.h"
#include "lang/sema.h"
#include "semantic_safety.h"
#include "support/json.h"
#include "transform/planner.h"

namespace fsopt {
namespace {

// Eight processes ping-ponging adjacent 4-byte words of one line: the
// classic intra-datum false-sharing shape.  Each cnt[pid] is a distinct
// word, so every false-sharing miss has a known (writer word, victim
// word) = (4*wp, 4*vp) structure.  The hot array dominates the static
// weights, keeping cnt below the §3.3 significance threshold in the
// repair tests (mirroring how unknown loop bounds under-weight real
// residual false sharing).
constexpr const char* kPingPong =
    "param NPROCS = 8;"
    "real hot[64]; int cnt[NPROCS];"
    "void main(int pid) { int i; int r;"
    "  for (r = 0; r < 200; r = r + 1) {"
    "    for (i = pid; i < 64; i = i + nprocs) { hot[i] = hot[i] + 1.0; }"
    "    cnt[pid] = cnt[pid] + 1;"
    "  } }";

// Two four-process groups hammering the two halves of one small struct:
// procs 0-3 write g[0].x, procs 4-7 write g[0].y.  Padding the (single)
// element apart cannot help; only splitting the fields can.
constexpr const char* kHotCold =
    "param NPROCS = 8;"
    "real hot[64];"
    "struct S { int x; int y; };"
    "struct S g[1];"
    "void main(int pid) { int i; int r;"
    "  for (r = 0; r < 200; r = r + 1) {"
    "    for (i = pid; i < 64; i = i + nprocs) { hot[i] = hot[i] + 1.0; }"
    "    if (pid < 4) { g[0].x = g[0].x + 1; }"
    "    if (pid >= 4) { g[0].y = g[0].y + 1; }"
    "  } }";

CompileOptions base_options(bool optimize) {
  CompileOptions o;
  o.overrides = {{"NPROCS", 8}};
  o.optimize = optimize;
  return o;
}

struct Ctx {
  std::unique_ptr<Program> prog;
  ProgramSummary summary;
  SharingReport report;
};

Ctx analyze(std::string_view src) {
  Ctx c;
  DiagnosticEngine diags;
  c.prog = parse_and_check(src, diags, {{"NPROCS", 8}});
  c.summary = analyze_program(*c.prog);
  c.report = classify_sharing(c.summary);
  return c;
}

// ---------------------------------------------------------------------------
// Collection
// ---------------------------------------------------------------------------

TEST(ConflictGraph, CollectsAdjacentWordPingPong) {
  Compiled c = compile_source(kPingPong, base_options(false));
  AddressMap am = build_address_map(c);
  TraceStudyResult st =
      run_trace_study(c, {64, 128}, 32 * 1024, &am, 0, true);
  ASSERT_EQ(st.conflicts.size(), 2u);
  for (i64 b : {i64{64}, i64{128}}) {
    const ConflictGraph& g = st.conflicts.at(b);
    EXPECT_EQ(g.block_size, b);
    ASSERT_FALSE(g.empty());
    EXPECT_GT(g.total_weight(), 0u);
    for (const LineConflicts& lc : g.lines) {
      EXPECT_GT(lc.weight(), 0u);
      for (const ConflictEdge& e : lc.edges) {
        // False sharing by definition: different words of the same block,
        // touched by different processors, both 4-byte aligned.
        EXPECT_NE(e.writer_proc, e.victim_proc);
        EXPECT_NE(e.writer_word, e.victim_word);
        EXPECT_EQ(e.writer_word % 4, 0);
        EXPECT_EQ(e.victim_word % 4, 0);
        EXPECT_EQ(e.writer_word / b, e.victim_word / b);
        EXPECT_EQ(lc.line, e.victim_word / b);
        EXPECT_GT(e.weight, 0u);
      }
    }
  }
}

TEST(ConflictGraph, EngineAndCoherentCacheRecordThePartsVictimWord) {
  // 8 B blocks: p1 reads 8 bytes at 4 (words 1 and 2, blocks 0 and 1),
  // p0 writes word 3, p1 re-reads.  The second part misses with false
  // sharing in block 1; its victim is the part's first word (byte 8),
  // not the reference's (byte 4, in block 0).  Plane 0 runs on the
  // bitmask engine; plane 1's three sets are not a power of two, so a
  // private CoherentCache simulates it.  Both must give the same graph.
  const std::vector<MemRef> refs = {{4, 8, 1, RefType::kRead},
                                    {12, 4, 0, RefType::kWrite},
                                    {4, 8, 1, RefType::kRead}};
  const std::vector<CacheParams> params = {{2, 32, 8, 64}, {2, 24, 8, 64}};
  std::vector<ConflictGraph> graphs;
  replay_multi(encode_trace(refs), params, nullptr, 1, &graphs);
  ASSERT_EQ(graphs.size(), 2u);
  ASSERT_EQ(graphs[1].lines.size(), 1u);
  EXPECT_EQ(graphs[1].lines[0].line, 1);
  EXPECT_EQ(graphs[1].lines[0].edges,
            (std::vector<ConflictEdge>{{12, 8, 0, 1, 1}}));
  EXPECT_TRUE(graphs[0] == graphs[1]);
}

TEST(ConflictGraph, ProfileCarriesKnownWordStructure) {
  Compiled c = compile_source(kPingPong, base_options(false));
  AddressMap am = build_address_map(c);
  TraceStudyResult st = run_trace_study(c, {128}, 32 * 1024, &am, 0, true);
  ConflictProfile prof = build_conflict_profile(st, 128, am);
  EXPECT_EQ(prof.block_size, 128);
  const ConflictProfile::Entry* e = prof.find("cnt");
  ASSERT_NE(e, nullptr);
  EXPECT_GT(e->weight, 0u);
  for (const ConflictProfile::Pair& p : e->pairs) {
    // Process p only ever touches cnt[p], so every conflict pair's byte
    // offsets are exactly 4x its processor ids.
    EXPECT_EQ(p.writer_off, 4 * p.writer_proc);
    EXPECT_EQ(p.victim_off, 4 * p.victim_proc);
    EXPECT_NE(p.writer_proc, p.victim_proc);
  }
}

TEST(ConflictGraph, DisabledPathStatsBitIdentical) {
  Compiled c = compile_source(kPingPong, base_options(false));
  AddressMap am = build_address_map(c);
  TraceStudyResult off = run_trace_study(c, {64, 128}, 32 * 1024, &am);
  TraceStudyResult on =
      run_trace_study(c, {64, 128}, 32 * 1024, &am, 0, true);
  EXPECT_TRUE(off.conflicts.empty());
  ASSERT_EQ(on.conflicts.size(), 2u);
  for (i64 b : {i64{64}, i64{128}}) {
    EXPECT_EQ(off.at(b), on.at(b)) << "block " << b;
    EXPECT_EQ(off.by_datum.at(b), on.by_datum.at(b)) << "block " << b;
  }
}

TEST(ConflictGraph, JsonDumpIsParseable) {
  Compiled c = compile_source(kPingPong, base_options(false));
  AddressMap am = build_address_map(c);
  TraceStudyResult st = run_trace_study(c, {128}, 32 * 1024, &am, 0, true);
  std::string doc = conflict_graph_to_json(st.conflicts.at(128), &am);
  std::optional<json::Value> parsed = json::parse(doc);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_NE(doc.find("\"block_size\""), std::string::npos);
  EXPECT_NE(doc.find("\"cnt\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// graph_plan decisions on synthetic profiles
// ---------------------------------------------------------------------------

TEST(GraphPlannerTest, StridesBarrierWords) {
  Ctx c = analyze(kPingPong);
  TransformPlan empty;
  ConflictProfile prof;
  prof.block_size = 128;
  prof.total_weight = 100;
  prof.entries.push_back(
      {std::string(kBarrierName), 100, {{0, 4, 0, 1, 50}, {4, 0, 1, 0, 50}}});
  PlannerInputs in{c.report, c.summary, {}, 128, nullptr, &empty, &prof};
  TransformPlan plan = graph_plan(in);
  EXPECT_EQ(plan.planner, "graph");
  const TransformDecision* d = plan.find({kBarrierSym, -1});
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->kind, TransformKind::kIntraPad);
  EXPECT_EQ(d->chunk, 256);
  EXPECT_EQ(d->reason.code, ReasonCode::kConflictGraph);
  EXPECT_EQ(d->reason.fs_misses, 100u);

  // Planning again over the produced plan adds nothing (convergence).
  PlannerInputs again = in;
  again.base = &plan;
  EXPECT_TRUE(plan_diff(plan, graph_plan(again)).empty());
}

TEST(GraphPlannerTest, SplitsConflictingStructFields) {
  Ctx c = analyze(kHotCold);
  const GlobalSym* g = c.prog->find_global("g");
  ASSERT_NE(g, nullptr);
  TransformPlan empty;
  ConflictProfile prof;
  prof.block_size = 128;
  prof.total_weight = 80;
  prof.entries.push_back(
      {"g", 80, {{0, 4, 0, 5, 40}, {4, 0, 5, 0, 40}}});
  PlannerInputs in{c.report, c.summary, {}, 128, nullptr, &empty, &prof};
  TransformPlan plan = graph_plan(in);
  const TransformDecision* d = plan.find({g->id, -1});
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->kind, TransformKind::kHotColdSplit);
  EXPECT_EQ(d->fields, (std::vector<int>{0, 1}));
  EXPECT_EQ(d->reason.code, ReasonCode::kConflictGraph);
}

TEST(GraphPlannerTest, IntraPadsConflictingArrayWords) {
  Ctx c = analyze(kPingPong);
  const GlobalSym* cnt = c.prog->find_global("cnt");
  ASSERT_NE(cnt, nullptr);
  TransformPlan empty;
  ConflictProfile prof;
  prof.block_size = 128;
  prof.total_weight = 80;
  prof.entries.push_back(
      {"cnt", 80, {{0, 4, 0, 1, 40}, {4, 0, 1, 0, 40}}});
  PlannerInputs in{c.report, c.summary, {}, 128, nullptr, &empty, &prof};
  TransformPlan plan = graph_plan(in);
  const TransformDecision* d = plan.find({cnt->id, -1});
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->kind, TransformKind::kIntraPad);
  EXPECT_EQ(d->chunk, 256);
}

TEST(GraphPlannerTest, ThresholdsFilterNoise) {
  Ctx c = analyze(kPingPong);
  const GlobalSym* cnt = c.prog->find_global("cnt");
  TransformPlan empty;
  // Below min_weight (16): no decision even though the share is 100%.
  ConflictProfile prof;
  prof.block_size = 128;
  prof.total_weight = 8;
  prof.entries.push_back({"cnt", 8, {{0, 4, 0, 1, 8}}});
  PlannerInputs in{c.report, c.summary, {}, 128, nullptr, &empty, &prof};
  EXPECT_EQ(graph_plan(in).find({cnt->id, -1}), nullptr);
}

// ---------------------------------------------------------------------------
// End-to-end repair
// ---------------------------------------------------------------------------

RepairLoopOptions graph_only_options() {
  RepairLoopOptions opt;
  opt.planner_name = "graph";
  // Silence the composed profile pass so the repairs under test are the
  // conflict-graph decisions themselves, not datum-level padding.
  opt.planner.min_fs_fraction = 1.5;
  return opt;
}

TEST(GraphRepair, EliminatesAdjacentWordPingPong) {
  CompileOptions base = base_options(true);
  // Keep the static heuristics away from cnt (mirrors how unknown loop
  // bounds under-weight real workloads).
  base.decision.min_weight_fraction = 0.2;
  RepairLoopOptions opt = graph_only_options();
  // Sweep the sizes the repair targets.  At 256 the static plan's
  // group&transpose region for `hot` already falsely shares within
  // itself; padding cnt shifts that region's base and perturbs its
  // 256-byte alignment, which the multi-size acceptance gate (rightly)
  // refuses to trade against.
  opt.sweep_blocks = {32, 64, 128};
  RepairResult rr = repair_loop(kPingPong, base, opt);

  EXPECT_GT(rr.baseline.false_sharing, 0u);
  ASSERT_FALSE(rr.iterations.empty());
  EXPECT_TRUE(rr.converged);

  DiagnosticEngine diags;
  auto prog = parse_and_check(kPingPong, diags, {{"NPROCS", 8}});
  DatumKey cnt = {prog->find_global("cnt")->id, -1};
  const TransformDecision* d = rr.final_plan().find(cnt);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->kind, TransformKind::kIntraPad);
  EXPECT_EQ(d->reason.code, ReasonCode::kConflictGraph);

  // The 256-byte stride separates the words at every swept size.
  for (const auto& [b, stats] : rr.iterations.back().sweep)
    EXPECT_EQ(stats.false_sharing, 0u) << "block " << b;
}

// The graph loop's intra-pad keeps the program's meaning: kPingPong is
// race-free (each process owns cnt[pid] and its own hot elements), so
// under the final plan every global must end as it does unplanned.
TEST(SemanticSafety, GraphLoopIntraPadKeepsEveryGlobal) {
  CompileOptions base = base_options(true);
  base.decision.min_weight_fraction = 0.2;
  RepairLoopOptions opt = graph_only_options();
  opt.sweep_blocks = {32, 64, 128};
  const TransformPlan plan = repair_loop(kPingPong, base, opt).final_plan();
  ASSERT_TRUE(std::any_of(plan.decisions.begin(), plan.decisions.end(),
                          [](const TransformDecision& d) {
                            return d.kind == TransformKind::kIntraPad;
                          }));
  CompileOptions with_plan = base;
  with_plan.plan = std::make_shared<TransformPlan>(plan);
  expect_same_final_globals(compile_source(kPingPong, base_options(false)),
                            compile_source(kPingPong, with_plan));
}

TEST(GraphRepair, SplitsHotColdStructHalves) {
  CompileOptions base = base_options(true);
  base.decision.min_weight_fraction = 0.2;
  RepairResult rr = repair_loop(kHotCold, base, graph_only_options());

  EXPECT_GT(rr.baseline.false_sharing, 0u);
  ASSERT_FALSE(rr.iterations.empty());
  EXPECT_TRUE(rr.converged);

  DiagnosticEngine diags;
  auto prog = parse_and_check(kHotCold, diags, {{"NPROCS", 8}});
  DatumKey g = {prog->find_global("g")->id, -1};
  const TransformDecision* d = rr.final_plan().find(g);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->kind, TransformKind::kHotColdSplit);
  EXPECT_EQ(d->fields, (std::vector<int>{0, 1}));

  // Each field lives in its own block-aligned region now.
  EXPECT_EQ(rr.final_stats().false_sharing, 0u);
}

}  // namespace
}  // namespace fsopt
