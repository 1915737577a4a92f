// Unit tests for the bytecode layer, the trace sinks and the small
// statistics helpers.
#include <gtest/gtest.h>

#include "driver/compiler.h"
#include "interp/bytecode.h"
#include "support/stats.h"
#include "trace/trace.h"

namespace fsopt {
namespace {

Compiled build(std::string_view src) {
  CompileOptions opt;
  opt.overrides["NPROCS"] = 2;
  return compile_source(src, opt);
}

TEST(Bytecode, AccessPlanAddress) {
  AccessPlan p;
  p.base = 100;
  p.const_off = 8;
  p.dims = {{1, 0, 40}, {1, 0, 4}};
  p.extents = {8, 10};
  p.size = 4;
  p.name = "a";
  i64 idx[2] = {2, 3};
  EXPECT_EQ(p.address(idx), 100 + 8 + 80 + 12);
}

TEST(Bytecode, AccessPlanBoundsChecked) {
  AccessPlan p;
  p.base = 0;
  p.dims = {{1, 0, 4}};
  p.extents = {4};
  p.size = 4;
  p.name = "a";
  i64 bad[1] = {4};
  EXPECT_THROW(p.address(bad), InternalError);
  i64 neg[1] = {-1};
  EXPECT_THROW(p.address(neg), InternalError);
}

TEST(Bytecode, SplitDimMapAddress) {
  // Blocked group&transpose addressing: (x%4)*8 + (x/4)*1000.
  AccessPlan p;
  p.base = 0;
  p.dims = {{4, 8, 1000}};
  p.extents = {16};
  p.size = 8;
  p.name = "g";
  i64 i5[1] = {5};
  EXPECT_EQ(p.address(i5), 1 * 8 + 1 * 1000);
}

TEST(Bytecode, DisassemblyMentionsPlansAndFunctions) {
  Compiled c = build(
      "param NPROCS = 2; int a[4]; lock_t l;"
      "int get(int i) { return a[i]; }"
      "void main(int pid) { int x; lock(l); x = get(pid); unlock(l); "
      "barrier(); }");
  std::string d = c.code.disassemble();
  EXPECT_NE(d.find("main:"), std::string::npos);
  EXPECT_NE(d.find("get:"), std::string::npos);
  EXPECT_NE(d.find("load.g a"), std::string::npos);
  EXPECT_NE(d.find("lock l"), std::string::npos);
  EXPECT_NE(d.find("barrier"), std::string::npos);
  EXPECT_NE(d.find("call get"), std::string::npos);
}

TEST(Bytecode, PlansAreDeduplicatedPerDatum) {
  Compiled c = build(
      "param NPROCS = 2; int a[8];"
      "void main(int pid) { a[0] = 1; a[1] = 2; a[2] = a[0] + a[1]; }");
  // One plan for `a`, not one per access site.
  EXPECT_EQ(c.code.plans.size(), 1u);
}

TEST(Bytecode, RuntimeRegionFollowsGlobals) {
  Compiled c = build("param NPROCS = 2; int a[100]; void main(int pid) { }");
  EXPECT_GE(c.code.barrier_base, c.code.globals_bytes);
  EXPECT_EQ(c.code.barrier_base % 256, 0);
  EXPECT_GT(c.code.total_bytes, c.code.barrier_base);
}

TEST(Trace, CountingSink) {
  CountingSink s;
  const std::vector<MemRef> refs = {{0, 4, 0, RefType::kRead},
                                    {4, 4, 0, RefType::kWrite},
                                    {8, 8, 1, RefType::kWrite}};
  s.on_batch(refs.data(), refs.size());
  EXPECT_EQ(s.total(), 3u);
  EXPECT_EQ(s.writes(), 2u);
  EXPECT_EQ(s.reads(), 1u);
}

TEST(Trace, VectorSinkPreservesOrderAndFields) {
  VectorSink s;
  const std::vector<MemRef> refs = {{16, 8, 3, RefType::kWrite},
                                    {0, 4, 1, RefType::kRead}};
  s.on_batch(refs.data(), refs.size());
  ASSERT_EQ(s.refs().size(), 2u);
  EXPECT_EQ(s.refs()[0].addr, 16);
  EXPECT_EQ(s.refs()[0].size, 8);
  EXPECT_EQ(s.refs()[0].proc, 3);
  EXPECT_EQ(s.refs()[0].type, RefType::kWrite);
  EXPECT_EQ(s.refs()[1].type, RefType::kRead);
}

TEST(Stats, MeanAndGeomean) {
  EXPECT_DOUBLE_EQ(mean({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_NEAR(geomean({1, 4}), 2.0, 1e-12);
  EXPECT_NEAR(geomean({2, 2, 2}), 2.0, 1e-12);
}

TEST(Stats, Formatting) {
  EXPECT_EQ(pct(0.1234), "12.3%");
  EXPECT_EQ(pct(0.5, 0), "50%");
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
}

TEST(Stats, TextTableAlignsColumns) {
  TextTable t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Stats, TextTableRejectsRaggedRows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InternalError);
}

TEST(Support, RoundUpAndPow2) {
  EXPECT_EQ(round_up(0, 8), 0);
  EXPECT_EQ(round_up(1, 8), 8);
  EXPECT_EQ(round_up(8, 8), 8);
  EXPECT_EQ(round_up(9, 8), 16);
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(128));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(12));
}

TEST(Diagnostics, RenderAndThrow) {
  DiagnosticEngine d;
  d.warning({1, 2}, "just a warning");
  EXPECT_FALSE(d.has_errors());
  d.throw_if_errors();  // no-op
  d.error({3, 4}, "boom");
  EXPECT_TRUE(d.has_errors());
  EXPECT_EQ(d.error_count(), 1);
  std::string r = d.render();
  EXPECT_NE(r.find("warning at 1:2"), std::string::npos);
  EXPECT_NE(r.find("error at 3:4: boom"), std::string::npos);
  EXPECT_THROW(d.throw_if_errors(), CompileError);
}

}  // namespace
}  // namespace fsopt
