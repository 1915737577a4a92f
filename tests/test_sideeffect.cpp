#include "analysis/sideeffect.h"

#include <gtest/gtest.h>

#include "lang/sema.h"

namespace fsopt {
namespace {

ProgramSummary analyze(std::string_view src, i64 nprocs = 4) {
  DiagnosticEngine diags;
  static std::vector<std::unique_ptr<Program>> keep_alive;
  keep_alive.push_back(parse_and_check(src, diags, {{"NPROCS", nprocs}}));
  return analyze_program(*keep_alive.back());
}

const AccessRecord* find_record(const ProgramSummary& s, const char* name,
                                bool is_write,
                                const char* field = nullptr) {
  for (const AccessRecord& r : s.records) {
    if (r.is_write != is_write || r.is_lock_op) continue;
    const GlobalSym* g = s.datum_sym(r.datum);
    if (g->name != name) continue;
    if (field != nullptr) {
      if (r.datum.field < 0) continue;
      if (g->elem.strct->fields[static_cast<size_t>(r.datum.field)].name !=
          field)
        continue;
    }
    return &r;
  }
  return nullptr;
}

TEST(SideEffect, ScalarWriteRecorded) {
  auto s = analyze("param NPROCS = 4; int x; void main(int pid) { x = 1; }");
  const AccessRecord* r = find_record(s, "x", true);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->rsd.rank(), 0u);
  EXPECT_DOUBLE_EQ(r->weight, 1.0);
  EXPECT_EQ(r->pids, PidSet::all(4));
}

TEST(SideEffect, PidIndexedWrite) {
  auto s = analyze(
      "param NPROCS = 4; int a[4]; void main(int pid) { a[pid] = 1; }");
  const AccessRecord* r = find_record(s, "a", true);
  ASSERT_NE(r, nullptr);
  ASSERT_EQ(r->rsd.rank(), 1u);
  const DimSec& d = r->rsd.dims()[0];
  ASSERT_EQ(d.kind(), DimSec::Kind::kInvariant);
  EXPECT_EQ(d.invariant_expr().coeff(s.pdvs.pid), 1);
}

TEST(SideEffect, LoopClosesToRange) {
  auto s = analyze(
      "param NPROCS = 4; int a[64]; void main(int pid) {"
      "  int i; for (i = 0; i < 64; i = i + 1) { a[i] = i; } }");
  const AccessRecord* r = find_record(s, "a", true);
  ASSERT_NE(r, nullptr);
  const DimSec& d = r->rsd.dims()[0];
  ASSERT_EQ(d.kind(), DimSec::Kind::kRange);
  EXPECT_EQ(d.lo().const_term(), 0);
  EXPECT_EQ(d.hi().const_term(), 63);
  EXPECT_EQ(d.stride(), 1);
  EXPECT_DOUBLE_EQ(r->weight, 64.0);  // static trip count
}

TEST(SideEffect, InterleavedLoopKeepsStrideAndPid) {
  auto s = analyze(
      "param NPROCS = 4; int a[64]; void main(int pid) {"
      "  int i; for (i = pid; i < 64; i = i + nprocs) { a[i] = i; } }");
  const AccessRecord* r = find_record(s, "a", true);
  ASSERT_NE(r, nullptr);
  const DimSec& d = r->rsd.dims()[0];
  ASSERT_EQ(d.kind(), DimSec::Kind::kRange);
  EXPECT_EQ(d.stride(), 4);
  EXPECT_EQ(d.lo().coeff(s.pdvs.pid), 1);
  // Sections are disjoint across pids.
  auto b0 = r->rsd.concretize(s.pdvs.pid, 0, {64});
  auto b1 = r->rsd.concretize(s.pdvs.pid, 1, {64});
  EXPECT_TRUE(boxes_disjoint(b0, b1));
}

TEST(SideEffect, BlockedLoop) {
  auto s = analyze(
      "param NPROCS = 4; param C = 16; int a[64]; void main(int pid) {"
      "  int i; for (i = pid * C; i < pid * C + C; i = i + 1) {"
      "    a[i] = i; } }");
  const AccessRecord* r = find_record(s, "a", true);
  const DimSec& d = r->rsd.dims()[0];
  ASSERT_EQ(d.kind(), DimSec::Kind::kRange);
  EXPECT_EQ(d.lo().coeff(s.pdvs.pid), 16);
  EXPECT_DOUBLE_EQ(r->weight, 16.0);
}

TEST(SideEffect, UnknownBaseKeepsStride) {
  auto s = analyze(
      "param NPROCS = 4; int a[64]; int base; void main(int pid) {"
      "  int i; int s0; s0 = base;"
      "  for (i = s0; i < s0 + 8; i = i + 1) { a[i] = i; } }");
  const AccessRecord* r = find_record(s, "a", true);
  EXPECT_EQ(r->rsd.dims()[0].kind(), DimSec::Kind::kStridedUnknown);
  EXPECT_TRUE(r->rsd.dims()[0].has_unit_stride_run(4));
}

TEST(SideEffect, IndexExpressionReadsAreRecorded) {
  auto s = analyze(
      "param NPROCS = 4; int a[8]; int idx;"
      "void main(int pid) { a[idx] = 1; }");
  EXPECT_NE(find_record(s, "idx", false), nullptr);
  const AccessRecord* w = find_record(s, "a", true);
  EXPECT_TRUE(w->rsd.dims()[0].is_unknown());
}

TEST(SideEffect, CallTranslationSubstitutesFormals) {
  auto s = analyze(
      "param NPROCS = 4; int a[16];"
      "void put(int at) { a[at] = 1; }"
      "void main(int pid) { put(pid * 4); }");
  const AccessRecord* r = find_record(s, "a", true);
  ASSERT_NE(r, nullptr);
  const DimSec& d = r->rsd.dims()[0];
  ASSERT_EQ(d.kind(), DimSec::Kind::kInvariant);
  EXPECT_EQ(d.invariant_expr().coeff(s.pdvs.pid), 4);
}

TEST(SideEffect, CallInsideLoopClosesOverCallerInduction) {
  auto s = analyze(
      "param NPROCS = 4; int a[16];"
      "void put(int at) { a[at] = 1; }"
      "void main(int pid) {"
      "  int i; for (i = 0; i < 4; i = i + 1) { put(i * 4 + pid); } }");
  const AccessRecord* r = find_record(s, "a", true);
  const DimSec& d = r->rsd.dims()[0];
  ASSERT_EQ(d.kind(), DimSec::Kind::kRange);
  EXPECT_EQ(d.stride(), 4);
  EXPECT_EQ(d.lo().coeff(s.pdvs.pid), 1);
}

TEST(SideEffect, CallWeightMultiplied) {
  auto s = analyze(
      "param NPROCS = 4; int x;"
      "void bump() { x = x + 1; }"
      "void main(int pid) {"
      "  int i; for (i = 0; i < 10; i = i + 1) { bump(); } }");
  const AccessRecord* r = find_record(s, "x", true);
  EXPECT_DOUBLE_EQ(r->weight, 10.0);
}

TEST(SideEffect, GuardNarrowsPids) {
  auto s = analyze(
      "param NPROCS = 4; int x;"
      "void main(int pid) { if (pid == 2) { x = 1; } }");
  const AccessRecord* r = find_record(s, "x", true);
  EXPECT_EQ(r->pids, PidSet::single(2));
  EXPECT_DOUBLE_EQ(r->weight, 1.0);  // decidable branch: no 0.5 factor
}

TEST(SideEffect, ElseBranchTakesComplementPids) {
  auto s = analyze(
      "param NPROCS = 4; int g; int h;"
      "void main(int pid) { if (pid == 0) { g = 1; } else { h = 2; } }");
  const AccessRecord* g = find_record(s, "g", true);
  const AccessRecord* h = find_record(s, "h", true);
  ASSERT_NE(g, nullptr);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(g->pids.str(), "{0}");
  EXPECT_EQ(h->pids.str(), "{1,2,3}");
}

TEST(SideEffect, NestedGuardsIntersectPids) {
  auto s = analyze(
      "param NPROCS = 8; int g;"
      "void main(int pid) { if (pid < 4) { if (pid % 2 == 0) { g = 1; } } }",
      8);
  const AccessRecord* g = find_record(s, "g", true);
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->pids.str(), "{0,2}");
}

TEST(SideEffect, UndecidableBranchHalvesWeight) {
  auto s = analyze(
      "param NPROCS = 4; int x; int q;"
      "void main(int pid) { if (q == 0) { x = 1; } }");
  const AccessRecord* r = find_record(s, "x", true);
  EXPECT_DOUBLE_EQ(r->weight, kUnknownBranchProb);
  EXPECT_EQ(r->pids, PidSet::all(4));
}

TEST(SideEffect, WhileUsesDefaultTrips) {
  auto s = analyze(
      "param NPROCS = 4; int x;"
      "void main(int pid) { int i; i = 0;"
      "  while (i < 100) { x = x + 1; i = i + 1; } }");
  const AccessRecord* r = find_record(s, "x", true);
  EXPECT_DOUBLE_EQ(r->weight, kUnknownWhileTrips);
}

TEST(SideEffect, FieldArrayAccessHasFieldDim) {
  auto s = analyze(
      "param NPROCS = 4; struct S { int v[4]; int w; };"
      "struct S g[8];"
      "void main(int pid) { int i;"
      "  for (i = 0; i < 8; i = i + 1) { g[i].v[pid] = 1; } }");
  const AccessRecord* r = find_record(s, "g", true, "v");
  ASSERT_NE(r, nullptr);
  ASSERT_EQ(r->rsd.rank(), 2u);
  EXPECT_EQ(r->rsd.dims()[0].kind(), DimSec::Kind::kRange);
  EXPECT_EQ(r->rsd.dims()[1].invariant_expr().coeff(s.pdvs.pid), 1);
}

TEST(SideEffect, LockOpsAreMarked) {
  auto s = analyze(
      "param NPROCS = 4; lock_t l; int x;"
      "void main(int pid) { lock(l); x = 1; unlock(l); }");
  int lock_ops = 0;
  for (const AccessRecord& r : s.records)
    if (r.is_lock_op) ++lock_ops;
  EXPECT_EQ(lock_ops, 4);  // read+write for lock, write(+read) for unlock
}

TEST(SideEffect, PhaseTagging) {
  auto s = analyze(
      "param NPROCS = 4; int a; int b;"
      "void main(int pid) { a = 1; barrier(); b = 2; }");
  EXPECT_EQ(find_record(s, "a", true)->phase, 0);
  EXPECT_EQ(find_record(s, "b", true)->phase, 1);
}

TEST(SideEffect, LocalAssignmentInvalidatedByLoop) {
  // `k` is rebound inside the loop body; uses after widening are unknown.
  auto s = analyze(
      "param NPROCS = 4; int a[64]; int q;"
      "void main(int pid) { int i; int k; k = 0;"
      "  for (i = 0; i < 8; i = i + 1) { a[k] = 1; k = k + q; } }");
  const AccessRecord* r = find_record(s, "a", true);
  EXPECT_TRUE(r->rsd.dims()[0].is_unknown());
}

TEST(SideEffect, PidDependentTripEstimatedAtPidZero) {
  auto s = analyze(
      "param NPROCS = 4; int a[64];"
      "void main(int pid) { int i;"
      "  for (i = pid; i < 64; i = i + nprocs) { a[i] = 1; } }");
  const AccessRecord* r = find_record(s, "a", true);
  // (64-1-0)/4 + 1 = 16 trips estimated at pid 0.
  EXPECT_DOUBLE_EQ(r->weight, 16.0);
}

}  // namespace
}  // namespace fsopt
