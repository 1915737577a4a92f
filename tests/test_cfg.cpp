#include "cfg/callgraph.h"

#include <gtest/gtest.h>

#include "lang/sema.h"

namespace fsopt {
namespace {

std::unique_ptr<Program> check(std::string_view src) {
  DiagnosticEngine diags;
  return parse_and_check(src, diags, {});
}

TEST(CallGraph, SitesAndCallees) {
  auto p = check(
      "param NPROCS = 1;"
      "int g(int x) { return x; }"
      "int f(int x) { return g(x) + g(x + 1); }"
      "void main(int pid) { int y; y = f(0); }");
  CallGraph cg(*p);
  EXPECT_EQ(cg.sites().size(), 3u);
  EXPECT_EQ(cg.callees(*p->find_func("f")).size(), 1u);  // deduplicated
}

TEST(CallGraph, BottomUpOrder) {
  auto p = check(
      "param NPROCS = 1;"
      "int g(int x) { return x; }"
      "int f(int x) { return g(x); }"
      "void main(int pid) { int y; y = f(0); }");
  CallGraph cg(*p);
  auto order = cg.bottom_up();
  auto pos = [&](const char* name) {
    for (size_t i = 0; i < order.size(); ++i)
      if (order[i]->name == name) return i;
    return order.size();
  };
  EXPECT_LT(pos("g"), pos("f"));
  EXPECT_LT(pos("f"), pos("main"));
}

TEST(CallGraph, Reachability) {
  auto p = check(
      "param NPROCS = 1;"
      "int used(int x) { return x; }"
      "int unused(int x) { return x; }"
      "void main(int pid) { int y; y = used(0); }");
  CallGraph cg(*p);
  EXPECT_TRUE(cg.reachable_from_main(*p->find_func("used")));
  EXPECT_FALSE(cg.reachable_from_main(*p->find_func("unused")));
}

TEST(CallGraph, ForEachExprVisitsIndexExpressions) {
  auto p = check(
      "param NPROCS = 1; int a[8];"
      "void main(int pid) { a[pid + 1] = a[2] + 3; }");
  int vars = 0;
  for_each_expr(*p->main->body, [&](const Expr& e) {
    if (e.kind == ExprKind::kVar) ++vars;
  });
  EXPECT_EQ(vars, 3);  // a, pid, a
}

}  // namespace
}  // namespace fsopt
