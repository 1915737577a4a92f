#include "analysis/perprocess.h"

#include <gtest/gtest.h>

#include "lang/parser.h"
#include "lang/sema.h"

namespace fsopt {
namespace {

struct Ctx {
  std::unique_ptr<Program> prog;
  std::unique_ptr<CallGraph> cg;
  PdvResult pdvs;
};

Ctx make(std::string_view src, i64 nprocs) {
  Ctx c;
  DiagnosticEngine diags;
  c.prog = parse_and_check(src, diags, {{"NPROCS", nprocs}});
  c.cg = std::make_unique<CallGraph>(*c.prog);
  c.pdvs = analyze_pdvs(*c.prog, *c.cg);
  return c;
}

// Build a one-condition program and return the set of pids satisfying it.
std::optional<PidSet> pids_of(const std::string& cond, i64 nprocs) {
  Ctx c = make("param NPROCS = 8; int g; void main(int pid) { if (" + cond +
                   ") { g = 1; } }",
               nprocs);
  const Stmt& ifstmt = *c.prog->main->body->stmts[0];
  return pids_satisfying(*ifstmt.cond, c.pdvs, nprocs);
}

TEST(PerProcess, EqualityCondition) {
  auto s = pids_of("pid == 3", 8);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(*s, PidSet::single(3));
}

TEST(PerProcess, RangeCondition) {
  auto s = pids_of("pid < 3", 8);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->count(), 3);
  EXPECT_TRUE(s->test(0) && s->test(1) && s->test(2));
}

TEST(PerProcess, ModuloCondition) {
  auto s = pids_of("pid % 2 == 0", 8);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->count(), 4);
  EXPECT_TRUE(s->test(0) && s->test(6));
  EXPECT_FALSE(s->test(1));
}

TEST(PerProcess, CompoundCondition) {
  auto s = pids_of("pid > 1 && pid <= 4 || pid == 7", 8);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->count(), 4);  // 2,3,4,7
  EXPECT_TRUE(s->test(7));
}

TEST(PerProcess, GlobalLoadIsUndecidable) {
  auto s = pids_of("g == 0", 8);
  EXPECT_FALSE(s.has_value());
}

TEST(PerProcess, ShortCircuitDecidesWithoutRightSide) {
  // `pid == 0 && g == 0` is decidable for every pid != 0.
  auto s = pids_of("pid != 0 || g == 0", 8);
  EXPECT_FALSE(s.has_value());  // pid==0 case needs g
  auto t = pids_of("pid >= 0 || g == 0", 8);
  ASSERT_TRUE(t.has_value());  // left side always true
  EXPECT_EQ(t->count(), 8);
}

TEST(PerProcess, DerivedPdvInCondition) {
  Ctx c = make(
      "param NPROCS = 8; int g; void main(int pid) {"
      "  int me; me = pid * 2;"
      "  if (me == 4) { g = 1; } }",
      8);
  const Stmt* ifstmt = nullptr;
  for_each_stmt(*c.prog->main->body, [&](const Stmt& s) {
    if (s.kind == StmtKind::kIf) ifstmt = &s;
  });
  // With an environment binding me := 2*pid, the condition is decidable.
  AffineEnv env;
  env.bind(c.prog->main->find_local("me"),
           Affine::variable(c.pdvs.pid, 2));
  auto s = pids_satisfying(*ifstmt->cond, c.pdvs, 8, &env);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(*s, PidSet::single(2));
}

// Parameterized over processor counts: complement invariants.
class PidSetProperty : public ::testing::TestWithParam<i64> {};

TEST_P(PidSetProperty, ComplementPartitions) {
  i64 n = GetParam();
  auto s = pids_of("pid % 3 == 1", n);
  ASSERT_TRUE(s.has_value());
  PidSet t = s->complement(n);
  EXPECT_EQ((*s & t).count(), 0);
  EXPECT_EQ((*s | t), PidSet::all(n));
}

INSTANTIATE_TEST_SUITE_P(Procs, PidSetProperty,
                         ::testing::Values(1, 2, 3, 8, 13, 48, 64));

}  // namespace
}  // namespace fsopt
