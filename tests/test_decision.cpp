#include "transform/decision.h"

#include <gtest/gtest.h>

#include "lang/sema.h"

namespace fsopt {
namespace {

struct Ctx {
  std::unique_ptr<Program> prog;
  ProgramSummary summary;
  SharingReport report;
  TransformPlan transforms;
};

Ctx decide(std::string_view src, i64 nprocs = 8, DecisionOptions opt = {}) {
  Ctx c;
  DiagnosticEngine diags;
  c.prog = parse_and_check(src, diags, {{"NPROCS", nprocs}});
  c.summary = analyze_program(*c.prog);
  c.report = classify_sharing(c.summary);
  c.transforms = decide_transforms(c.report, c.summary, 128, opt);
  return c;
}

TransformKind kind_of(const Ctx& c, const char* global,
                      const char* field = nullptr) {
  const GlobalSym* g = c.prog->find_global(global);
  if (g == nullptr) return TransformKind::kNone;
  int fi = field != nullptr ? g->elem.strct->field_index(field) : -1;
  const TransformDecision* d = c.transforms.applying_to(g->id, fi);
  return d != nullptr ? d->kind : TransformKind::kNone;
}

TEST(Decision, LocksAlwaysPadded) {
  Ctx c = decide(
      "param NPROCS = 8; lock_t l; int x;"
      "void main(int pid) { lock(l); x = x + 1; unlock(l); }");
  EXPECT_EQ(kind_of(c, "l"), TransformKind::kLockPad);
}

TEST(Decision, InterleavedArrayGetsGroupTranspose) {
  Ctx c = decide(
      "param NPROCS = 8; real a[64];"
      "void main(int pid) { int i; int r;"
      "  for (r = 0; r < 10; r = r + 1) {"
      "    for (i = pid; i < 64; i = i + nprocs) { a[i] = a[i] + 1.0; } } }");
  EXPECT_EQ(kind_of(c, "a"), TransformKind::kGroupTranspose);
  const TransformDecision* d =
      c.transforms.find({c.prog->find_global("a")->id, -1});
  EXPECT_EQ(d->shape, PartitionShape::kInterleaved);
}

TEST(Decision, BlockedArrayGetsBlockedShape) {
  Ctx c = decide(
      "param NPROCS = 8; param C = 8; real a[64];"
      "void main(int pid) { int i; int r;"
      "  for (r = 0; r < 10; r = r + 1) {"
      "    for (i = pid * C; i < pid * C + C; i = i + 1) {"
      "      a[i] = a[i] + 1.0; } } }");
  const TransformDecision* d =
      c.transforms.find({c.prog->find_global("a")->id, -1});
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->kind, TransformKind::kGroupTranspose);
  EXPECT_EQ(d->shape, PartitionShape::kBlocked);
  EXPECT_EQ(d->chunk, 8);
}

TEST(Decision, EmbeddedFieldGetsIndirection) {
  Ctx c = decide(
      "param NPROCS = 8; struct S { int v[NPROCS]; int w; };"
      "struct S g[32]; int q;"
      "void main(int pid) { int i;"
      "  for (i = 0; i < 200; i = i + 1) {"
      "    g[(q + i) % 32].v[pid] = g[(q + i) % 32].v[pid] + 1; } }");
  EXPECT_EQ(kind_of(c, "g", "v"), TransformKind::kIndirection);
}

TEST(Decision, SharedNonLocalGetsPadAlign) {
  Ctx c = decide(
      "param NPROCS = 8; real a[32]; int q;"
      "void main(int pid) { int i;"
      "  for (i = 0; i < 100; i = i + 1) {"
      "    a[(q + i * 7 + pid) % 32] = a[(q + i * 13) % 32] + 1.0; } }");
  EXPECT_EQ(kind_of(c, "a"), TransformKind::kPadAlign);
}

TEST(Decision, PadSkippedWhenFootprintTooLarge) {
  DecisionOptions opt;
  opt.pad_footprint_limit = 1024;  // tiny budget
  Ctx c = decide(
      "param NPROCS = 8; real a[32]; int q;"
      "void main(int pid) { int i;"
      "  for (i = 0; i < 100; i = i + 1) {"
      "    a[(q + i * 7 + pid) % 32] = a[(q + i * 13) % 32] + 1.0; } }",
      8, opt);
  EXPECT_EQ(kind_of(c, "a"), TransformKind::kNone);
}

TEST(Decision, SpatiallyLocalSharedWritesNotPadded) {
  // The revolving-partition case: unit-stride writes from unknown bases.
  Ctx c = decide(
      "param NPROCS = 8; real a[64]; int q;"
      "void main(int pid) { int i; int s0; s0 = q;"
      "  for (i = s0; i < s0 + 8; i = i + 1) { a[i] = 1.0; a[i] = a[i] * "
      "2.0; } }");
  EXPECT_EQ(kind_of(c, "a"), TransformKind::kNone);
}

TEST(Decision, ReadSharedWithLocalityBlocksGroupTranspose) {
  // Per-process writes, but dominant shared reads with spatial locality
  // and writes that don't dominate 10x: left alone (§3.3).
  Ctx c = decide(
      "param NPROCS = 8; real a[64]; real s[NPROCS];"
      "void main(int pid) { int i; int r;"
      "  for (r = 0; r < 10; r = r + 1) {"
      "    for (i = pid; i < 64; i = i + nprocs) { a[i] = 1.0; }"
      "    for (i = 0; i < 64; i = i + 1) { s[pid] = s[pid] + a[i]; }"
      "  } }");
  EXPECT_EQ(kind_of(c, "a"), TransformKind::kNone);
}

TEST(Decision, WriteDominanceOverridesLocalReads) {
  DecisionOptions opt;
  opt.write_dominance = 0.05;  // writes need only a sliver of read weight
  Ctx c = decide(
      "param NPROCS = 8; real a[64]; real s[NPROCS];"
      "void main(int pid) { int i; int r;"
      "  for (r = 0; r < 10; r = r + 1) {"
      "    for (i = pid; i < 64; i = i + nprocs) { a[i] = 1.0; }"
      "    for (i = 0; i < 64; i = i + 1) { s[pid] = s[pid] + a[i]; }"
      "  } }",
      8, opt);
  EXPECT_EQ(kind_of(c, "a"), TransformKind::kGroupTranspose);
}

TEST(Decision, BelowWeightThresholdIgnored) {
  DecisionOptions opt;
  opt.min_weight_fraction = 0.5;  // only the dominant datum qualifies
  Ctx c = decide(
      "param NPROCS = 8; real hot[64]; real cold[64]; lock_t l;"
      "void main(int pid) { int i; int r;"
      "  lock(l); unlock(l);"
      "  cold[pid] = 1.0;"
      "  for (r = 0; r < 50; r = r + 1) {"
      "    for (i = pid; i < 64; i = i + nprocs) {"
      "      hot[i] = hot[i] + 1.0; } } }",
      8, opt);
  EXPECT_EQ(kind_of(c, "hot"), TransformKind::kGroupTranspose);
  EXPECT_EQ(kind_of(c, "cold"), TransformKind::kNone);
  // Locks are exempt from the threshold.
  EXPECT_EQ(kind_of(c, "l"), TransformKind::kLockPad);
}

TEST(Decision, SelectiveDisables) {
  DecisionOptions opt;
  opt.enable_group_transpose = false;
  opt.enable_lock_pad = false;
  Ctx c = decide(
      "param NPROCS = 8; real a[64]; lock_t l;"
      "void main(int pid) { int i; int r;"
      "  lock(l); unlock(l);"
      "  for (r = 0; r < 10; r = r + 1) {"
      "    for (i = pid; i < 64; i = i + nprocs) { a[i] = a[i] + 1.0; } } }",
      8, opt);
  EXPECT_EQ(kind_of(c, "a"), TransformKind::kNone);
  EXPECT_EQ(kind_of(c, "l"), TransformKind::kNone);
}

TEST(Decision, StructConsensusMovesWholeElement) {
  // Every field of the struct is written per-process along dim 0: the
  // whole element array is grouped & transposed at symbol level.
  Ctx c = decide(
      "param NPROCS = 8; struct S { real x; real y; };"
      "struct S m[64];"
      "void main(int pid) { int i; int r;"
      "  for (r = 0; r < 10; r = r + 1) {"
      "    for (i = pid; i < 64; i = i + nprocs) {"
      "      m[i].x = m[i].x + 1.0; m[i].y = m[i].y - 1.0; } } }");
  const GlobalSym* g = c.prog->find_global("m");
  const TransformDecision* d = c.transforms.find({g->id, -1});
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->kind, TransformKind::kGroupTranspose);
}

TEST(Decision, StructConsensusFailsWhenFieldShared) {
  Ctx c = decide(
      "param NPROCS = 8; struct S { real x; int owner; };"
      "struct S m[64]; int q;"
      "void main(int pid) { int i; int r;"
      "  for (r = 0; r < 10; r = r + 1) {"
      "    for (i = pid; i < 64; i = i + nprocs) { m[i].x = m[i].x + 1.0; }"
      "    m[q % 64].owner = pid;"
      "  } }");
  const GlobalSym* g = c.prog->find_global("m");
  EXPECT_EQ(c.transforms.find({g->id, -1}), nullptr);
}

TEST(Decision, RenderListsDecisions) {
  Ctx c = decide(
      "param NPROCS = 8; lock_t l; int x;"
      "void main(int pid) { lock(l); x = x + 1; unlock(l); }");
  std::string s = c.transforms.render(c.summary);
  EXPECT_NE(s.find("lock-pad"), std::string::npos);
}

}  // namespace
}  // namespace fsopt
