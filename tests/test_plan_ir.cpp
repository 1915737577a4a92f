// Transform-plan IR: JSON round-trip identity, plan_diff goldens,
// StaticPlanner equivalence with the retained reference path across the
// full workload matrix, and repair-loop convergence on a synthetic
// workload whose residual false sharing the static heuristics miss.
#include "transform/plan_ir.h"

#include <gtest/gtest.h>

#include "driver/experiment.h"
#include "lang/sema.h"
#include "transform/planner.h"

namespace fsopt {
namespace {

struct Ctx {
  std::unique_ptr<Program> prog;
  ProgramSummary summary;
  SharingReport report;
  TransformPlan transforms;
};

Ctx analyze(std::string_view src, i64 nprocs = 8, DecisionOptions opt = {}) {
  Ctx c;
  DiagnosticEngine diags;
  c.prog = parse_and_check(src, diags, {{"NPROCS", nprocs}});
  c.summary = analyze_program(*c.prog);
  c.report = classify_sharing(c.summary);
  c.transforms = decide_transforms(c.report, c.summary, 128, opt);
  return c;
}

DatumKey key_of(const Ctx& c, const char* global, const char* field = nullptr) {
  const GlobalSym* g = c.prog->find_global(global);
  EXPECT_NE(g, nullptr) << global;
  int fi = field != nullptr ? g->elem.strct->field_index(field) : -1;
  return {g->id, fi};
}

// A source that exercises every decision kind the static planner makes:
// lock-pad, symbol-level group&transpose, field-level indirection and
// pad&align.
constexpr const char* kAllKindsSource =
    "param NPROCS = 8;"
    "lock_t l;"
    "real a[64];"
    "struct S { int v[NPROCS]; int w; };"
    "struct S g[32];"
    "real s[32]; int q;"
    "void main(int pid) { int i; int r;"
    "  lock(l); q = q + 1; unlock(l);"
    "  for (r = 0; r < 10; r = r + 1) {"
    "    for (i = pid; i < 64; i = i + nprocs) { a[i] = a[i] + 1.0; }"
    "    for (i = 0; i < 200; i = i + 1) {"
    "      g[(q + i) % 32].v[pid] = g[(q + i) % 32].v[pid] + 1; }"
    "    for (i = 0; i < 100; i = i + 1) {"
    "      s[(q + i * 7 + pid) % 32] = s[(q + i * 13) % 32] + 1.0; }"
    "  } }";

// ---------------------------------------------------------------------------
// JSON serialization
// ---------------------------------------------------------------------------

TEST(PlanJson, RoundTripIsByteEqual) {
  Ctx c = analyze(kAllKindsSource);
  ASSERT_GE(c.transforms.decisions.size(), 4u);  // all four kinds present
  std::string first = plan_to_json(c.transforms, *c.prog);
  TransformPlan parsed = plan_from_json(first, *c.prog);
  std::string second = plan_to_json(parsed, *c.prog);
  EXPECT_EQ(first, second);
  EXPECT_EQ(parsed, c.transforms);  // ids, reasons, planner, block size
}

TEST(PlanJson, RoundTripPreservesProfileReasons) {
  // Profile reasons carry a u64 count and a double share; both must
  // survive the text round trip exactly.
  Ctx c = analyze(kAllKindsSource);
  TransformPlan plan;
  plan.planner = "profile";
  plan.block_size = 64;
  TransformDecision d;
  d.datum = key_of(c, "s");
  d.kind = TransformKind::kPadAlign;
  d.reason.code = ReasonCode::kProfileFalseSharing;
  d.reason.fs_misses = 123456789;
  d.reason.fs_share = 0.335481234567891;  // needs %.17g to round-trip
  plan.decisions.push_back(d);
  std::string first = plan_to_json(plan, *c.prog);
  TransformPlan parsed = plan_from_json(first, *c.prog);
  EXPECT_EQ(parsed, plan);
  EXPECT_EQ(plan_to_json(parsed, *c.prog), first);
}

TEST(PlanJson, RoundTripPreservesIntraDatumKinds) {
  // The conflict-graph kinds carry a fields array (permutation / hot set)
  // and may target the interpreter's barrier pseudo-datum; all of it must
  // survive the text round trip byte-exactly.
  Ctx c = analyze(kAllKindsSource);
  TransformPlan plan;
  plan.planner = "graph";
  plan.block_size = 128;

  TransformDecision reorder;
  reorder.datum = key_of(c, "g");
  reorder.kind = TransformKind::kFieldReorder;
  reorder.fields = {1, 0};  // full permutation of S's two fields
  reorder.reason = {ReasonCode::kConflictGraph, Pattern::kNone, -1, 77,
                    0.25};
  TransformDecision split;
  split.datum = key_of(c, "g");
  split.kind = TransformKind::kHotColdSplit;
  split.fields = {1};
  split.reason = {ReasonCode::kConflictGraph, Pattern::kNone, -1, 42, 0.5};
  TransformDecision pad;
  pad.datum = key_of(c, "a");
  pad.kind = TransformKind::kIntraPad;
  pad.chunk = 256;
  pad.reason = {ReasonCode::kConflictGraph, Pattern::kNone, -1, 9000,
                0.123456789012345};
  TransformDecision barrier;
  barrier.datum = {kBarrierSym, -1};
  barrier.kind = TransformKind::kIntraPad;
  barrier.chunk = 256;
  barrier.reason = {ReasonCode::kConflictGraph, Pattern::kNone, -1, 735,
                    0.043};
  plan.decisions = {reorder, split, pad, barrier};

  std::string first = plan_to_json(plan, *c.prog);
  TransformPlan parsed = plan_from_json(first, *c.prog);
  EXPECT_EQ(parsed, plan);
  EXPECT_EQ(plan_to_json(parsed, *c.prog), first);
  // The barrier datum round-trips through its reserved spelling.
  EXPECT_NE(first.find("\"<barrier>\""), std::string::npos);
  EXPECT_NE(first.find("field-reorder"), std::string::npos);
  EXPECT_NE(first.find("hot-cold-split"), std::string::npos);
  EXPECT_NE(first.find("intra-pad"), std::string::npos);
}

TEST(PlanJson, EmptyPlanRoundTrips) {
  Ctx c = analyze(kAllKindsSource);
  TransformPlan plan;  // default: no decisions, planner ""
  std::string first = plan_to_json(plan, *c.prog);
  TransformPlan parsed = plan_from_json(first, *c.prog);
  EXPECT_EQ(parsed, plan);
  EXPECT_EQ(plan_to_json(parsed, *c.prog), first);
}

TEST(PlanJson, RejectsMalformedDocuments) {
  Ctx c = analyze(kAllKindsSource);
  // Not JSON at all.
  EXPECT_THROW(plan_from_json("not json", *c.prog), InternalError);
  // Wrong version.
  EXPECT_THROW(plan_from_json(R"({"plan_version": 2, "planner": "x",
      "block_size": 128, "decisions": []})",
                              *c.prog),
               InternalError);
  // Unknown global.
  EXPECT_THROW(plan_from_json(R"({"plan_version": 1, "planner": "x",
      "block_size": 128, "decisions": [{"datum": "nosuch",
      "kind": "pad&align", "reason": {"code": "none"}}]})",
                              *c.prog),
               InternalError);
  // Unknown field.
  EXPECT_THROW(plan_from_json(R"({"plan_version": 1, "planner": "x",
      "block_size": 128, "decisions": [{"datum": "g.nosuch",
      "kind": "pad&align", "reason": {"code": "none"}}]})",
                              *c.prog),
               InternalError);
  // Unknown transform kind.
  EXPECT_THROW(plan_from_json(R"({"plan_version": 1, "planner": "x",
      "block_size": 128, "decisions": [{"datum": "a",
      "kind": "scramble", "reason": {"code": "none"}}]})",
                              *c.prog),
               InternalError);
  // group&transpose without its partition members.
  EXPECT_THROW(plan_from_json(R"({"plan_version": 1, "planner": "x",
      "block_size": 128, "decisions": [{"datum": "a",
      "kind": "group&transpose", "reason": {"code": "none"}}]})",
                              *c.prog),
               InternalError);
  // Non-positive block size.
  EXPECT_THROW(plan_from_json(R"({"plan_version": 1, "planner": "x",
      "block_size": 0, "decisions": []})",
                              *c.prog),
               InternalError);
}

// ---------------------------------------------------------------------------
// plan_diff goldens
// ---------------------------------------------------------------------------

TEST(PlanDiffTest, EmptyDiffRenders) {
  Ctx c = analyze(kAllKindsSource);
  PlanDiff d = plan_diff(c.transforms, c.transforms);
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.render(c.summary), "(no plan changes)\n");
}

TEST(PlanDiffTest, GoldenAddedRemovedChanged) {
  Ctx c = analyze(kAllKindsSource);
  TransformPlan before;
  TransformDecision lock{key_of(c, "l"), TransformKind::kLockPad, -1,
                         PartitionShape::kBlocked, 1,
                         {ReasonCode::kLockAlwaysPadded}, {}};
  TransformDecision gt{key_of(c, "a"), TransformKind::kGroupTranspose, 0,
                       PartitionShape::kInterleaved, 1,
                       {ReasonCode::kPerProcessWrites, Pattern::kNone}, {}};
  before.decisions = {lock, gt};

  TransformPlan after;
  TransformDecision gt2 = gt;
  gt2.shape = PartitionShape::kBlocked;
  gt2.chunk = 8;
  TransformDecision pad{key_of(c, "s"), TransformKind::kPadAlign, -1,
                        PartitionShape::kBlocked, 1,
                        {ReasonCode::kProfileFalseSharing, Pattern::kNone,
                         -1, 120, 0.4},
                        {}};
  after.decisions = {gt2, pad};  // lock removed, gt changed, pad added

  PlanDiff d = plan_diff(before, after);
  EXPECT_EQ(d.removed(), 1u);
  EXPECT_EQ(d.changed(), 1u);
  EXPECT_EQ(d.added(), 1u);
  EXPECT_EQ(d.render(c.summary),
            "- l: lock-pad  -- locks are always padded\n"
            "~ a: group&transpose (pid-dim 0, interleaved)"
            "  -- per-process writes, reads none\n"
            "  -> a: group&transpose (pid-dim 0, blocked C=8)"
            "  -- per-process writes, reads none\n"
            "+ s: pad&align  -- profile: 120 false-sharing misses "
            "(40.0% of attributed)\n");
}

TEST(PlanDiffTest, ReasonOnlyChangeCounts) {
  // Two decisions with the same layout effect but different structured
  // reasons are a change (same_effect distinguishes the two notions).
  Ctx c = analyze(kAllKindsSource);
  TransformDecision a{key_of(c, "s"), TransformKind::kPadAlign, -1,
                      PartitionShape::kBlocked, 1,
                      {ReasonCode::kSharedNonLocal}, {}};
  TransformDecision b = a;
  b.reason = {ReasonCode::kProfileFalseSharing, Pattern::kNone, -1, 10, 0.1};
  EXPECT_TRUE(a.same_effect(b));
  EXPECT_FALSE(a == b);
  TransformPlan pa, pb;
  pa.decisions = {a};
  pb.decisions = {b};
  PlanDiff d = plan_diff(pa, pb);
  EXPECT_EQ(d.changed(), 1u);
  EXPECT_EQ(d.added() + d.removed(), 0u);
}

// ---------------------------------------------------------------------------
// StaticPlanner is the pre-refactor decision procedure
// ---------------------------------------------------------------------------

TEST(StaticPlannerTest, MatchesReferenceAcrossWorkloadMatrix) {
  // Every cell of the experiment matrix: the pipeline (whose plan pass
  // runs StaticPlanner) must be bit-identical to the retained
  // pre-refactor reference path, and a JSON round trip of each cell's
  // plan must reproduce it exactly.
  std::vector<CompileJob> jobs = workload_matrix_jobs();
  ASSERT_GE(jobs.size(), 20u);
  for (size_t i = 0; i < jobs.size(); ++i) {
    const Compiled c = compile_source(jobs[i].source, jobs[i].options);
    Compiled ref = compile_source_reference(jobs[i].source, jobs[i].options);
    EXPECT_EQ(compile_fingerprint(ref), compile_fingerprint(c))
        << jobs[i].label;
    EXPECT_EQ(ref.transforms, c.transforms) << jobs[i].label;
    if (c.options.optimize) {
      EXPECT_EQ(c.transforms.planner, "static") << jobs[i].label;
      EXPECT_EQ(c.transforms.block_size, c.options.block_size)
          << jobs[i].label;
    }
    TransformPlan parsed =
        plan_from_json(plan_to_json(c.transforms, *c.prog), *c.prog);
    EXPECT_EQ(parsed, c.transforms) << jobs[i].label;
  }
}

TEST(StaticPlannerTest, InjectedPlanReproducesCompile) {
  // The --plan-out / --plan-in contract: exporting a plan and compiling
  // with it injected reproduces the exact layout and code image.
  Ctx a = analyze(kAllKindsSource);
  CompileOptions opt;
  opt.overrides = {{"NPROCS", 8}};
  opt.optimize = true;
  Compiled direct = compile_source(kAllKindsSource, opt);

  CompileOptions inj = opt;
  inj.optimize = false;  // the injected plan wins regardless
  inj.plan = std::make_shared<TransformPlan>(plan_from_json(
      plan_to_json(direct.transforms, *direct.prog), *direct.prog));
  Compiled replayed = compile_source(kAllKindsSource, inj);
  EXPECT_EQ(compile_fingerprint(direct), compile_fingerprint(replayed));
}

// ---------------------------------------------------------------------------
// The repair loop converges and fixes what static planning missed
// ---------------------------------------------------------------------------

// A hot per-process array the static heuristics transform, plus a small
// per-process counter array whose static weight is kept below the
// min_weight_fraction threshold — the classic residual-false-sharing
// shape (§5's Maxflow counters).  At 128-byte blocks the eight adjacent
// counters share one line and ping-pong on every round.
constexpr const char* kResidualSource =
    "param NPROCS = 8;"
    "real hot[64]; int cnt[NPROCS];"
    "void main(int pid) { int i; int r;"
    "  for (r = 0; r < 200; r = r + 1) {"
    "    for (i = pid; i < 64; i = i + nprocs) { hot[i] = hot[i] + 1.0; }"
    "    cnt[pid] = cnt[pid] + 1;"
    "  } }";

CompileOptions residual_base() {
  CompileOptions base;
  base.overrides = {{"NPROCS", 8}};
  // Raise the weight threshold so the static planner provably ignores
  // cnt (mirroring how unknown loop bounds under-weight real workloads).
  base.decision.min_weight_fraction = 0.2;
  return base;
}

TEST(RepairLoop, FixesResidualFalseSharingAndConverges) {
  RepairResult rr = repair_loop(kResidualSource, residual_base());

  // The static plan handled hot but missed cnt.
  DiagnosticEngine diags;
  auto prog = parse_and_check(kResidualSource, diags, {{"NPROCS", 8}});
  DatumKey cnt = {prog->find_global("cnt")->id, -1};
  DatumKey hot = {prog->find_global("hot")->id, -1};
  EXPECT_NE(rr.static_plan.find(hot), nullptr);
  EXPECT_EQ(rr.static_plan.find(cnt), nullptr);
  EXPECT_GT(rr.baseline.false_sharing, 0u);

  // The loop repaired it and reached a fixed point.
  ASSERT_FALSE(rr.iterations.empty());
  EXPECT_TRUE(rr.converged);
  EXPECT_TRUE(rr.improved());
  const TransformDecision* d = rr.final_plan().find(cnt);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->reason.code, ReasonCode::kProfileFalseSharing);
  EXPECT_EQ(rr.final_plan().planner, "profile");

  // The first round only ever *adds* decisions (ProfilePlanner never
  // rewrites static ones), and later rounds added nothing.
  EXPECT_GT(rr.iterations[0].diff.added(), 0u);
  EXPECT_EQ(rr.iterations[0].diff.removed(), 0u);
  EXPECT_EQ(rr.iterations[0].diff.changed(), 0u);
  EXPECT_TRUE(rr.iterations.back().diff.empty() ||
              rr.iterations.size() == 1u);

  // Repaired false sharing is (essentially) gone.
  EXPECT_LT(rr.final_stats().false_sharing, rr.baseline.false_sharing / 4);
}

TEST(RepairLoop, FixedPointIsStable) {
  // Running the planner once more over the repaired program's own profile
  // must change nothing (this is what convergence means).
  RepairResult rr = repair_loop(kResidualSource, residual_base());
  ASSERT_TRUE(rr.converged);
  const Compiled& fixed = rr.final_compiled;
  AddressMap am = build_address_map(fixed);
  TraceStudyResult study = run_trace_study(fixed, {128}, 32 * 1024, &am);
  FalseSharingProfile prof = build_fs_profile(study, 128);
  ProfilePlanner planner;
  TransformPlan again = planner.plan({fixed.report, fixed.summary,
                                      residual_base().decision, 128, &prof,
                                      &rr.final_plan()});
  EXPECT_TRUE(plan_diff(rr.final_plan(), again).empty());
}

TEST(RepairLoop, ProfileEntriesSortedByDamage) {
  CompileOptions copt = residual_base();
  copt.optimize = true;
  Compiled c = compile_source(kResidualSource, copt);
  AddressMap am = build_address_map(c);
  TraceStudyResult study = run_trace_study(c, {128}, 32 * 1024, &am);
  FalseSharingProfile prof = build_fs_profile(study, 128);
  EXPECT_EQ(prof.block_size, 128);
  u64 sum = 0;
  double share = 0.0;
  for (size_t i = 0; i < prof.entries.size(); ++i) {
    if (i > 0) {
      EXPECT_LE(prof.entries[i].fs_misses, prof.entries[i - 1].fs_misses);
    }
    sum += prof.entries[i].fs_misses;
    share += prof.entries[i].fs_share;
  }
  EXPECT_EQ(sum, prof.total_fs);
  if (prof.total_fs > 0) {
    EXPECT_NEAR(share, 1.0, 1e-9);
  }
  const FalseSharingProfile::Entry* e = prof.find("cnt");
  ASSERT_NE(e, nullptr);
  EXPECT_GT(e->fs_misses, 0u);
}

}  // namespace
}  // namespace fsopt
