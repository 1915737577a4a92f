// The PPL pretty-printer is the identity rewrite: rewrite_to_source of an
// empty plan prints the program as written.  The printed text must parse
// back to the same program, keep precedence with the fewest parentheses,
// and be a fixed point of print-compile-print on every workload source.
#include "transform/source_rewrite.h"

#include <gtest/gtest.h>

#include "driver/experiment.h"
#include "lang/sema.h"
#include "workloads/workloads.h"

namespace fsopt {
namespace {

std::unique_ptr<Program> check(std::string_view src) {
  DiagnosticEngine diags;
  return parse_and_check(src, diags, {});
}

/// The program as written: the rewrite of an empty plan.
std::string print(const Program& prog) {
  return rewrite_to_source(prog, TransformPlan{}, 128).source;
}

TEST(IdentityRewrite, RoundTripsSimpleProgram) {
  const char* src =
      "param NPROCS = 2;\n"
      "int a[4];\n"
      "void main(int pid) {\n"
      "  int i;\n"
      "  for (i = 0; i < 4; i = i + 1) {\n"
      "    a[i] = i * 2 + pid;\n"
      "  }\n"
      "}\n";
  auto p1 = check(src);
  std::string printed = print(*p1);
  // The printed program must itself be valid PPL with the same meaning.
  auto p2 = check(printed);
  EXPECT_EQ(print(*p2), printed);
}

TEST(IdentityRewrite, PreservesPrecedenceWithParens) {
  auto p = check(
      "param NPROCS = 1; int x;"
      "void main(int pid) { x = (1 + 2) * 3; }");
  std::string printed = print(*p);
  EXPECT_NE(printed.find("(1 + 2) * 3"), std::string::npos) << printed;
}

TEST(IdentityRewrite, DoesNotOverParenthesize) {
  auto p = check(
      "param NPROCS = 1; int x;"
      "void main(int pid) { x = 1 + 2 * 3; }");
  std::string printed = print(*p);
  EXPECT_NE(printed.find("1 + 2 * 3"), std::string::npos) << printed;
}

TEST(IdentityRewrite, RealLiteralsKeepDecimalPoint) {
  auto p = check(
      "param NPROCS = 1; real r;"
      "void main(int pid) { r = 2.0; }");
  std::string printed = print(*p);
  EXPECT_NE(printed.find("2.0"), std::string::npos) << printed;
}

TEST(IdentityRewrite, RealLiteralsKeepEveryDigit) {
  // A literal that needs more than six significant digits keeps them all
  // (0.1234567 once printed as 0.123457); one that reads back from six,
  // such as 0.1 or 100000.0, prints as before.
  auto p = check(
      "param NPROCS = 1; real r; real s; real t;"
      "void main(int pid) { r = 0.1234567; s = 100000.0; t = 0.1; }");
  std::string printed = print(*p);
  EXPECT_NE(printed.find("r = 0.1234567;"), std::string::npos) << printed;
  EXPECT_NE(printed.find("s = 100000.0;"), std::string::npos) << printed;
  EXPECT_NE(printed.find("t = 0.1;"), std::string::npos) << printed;
  Compiled c = compile_source(printed, {});
  auto m = run_program(c);
  EXPECT_EQ(m->load_real(c.address_of("r", "", {})), 0.1234567);
}

TEST(IdentityRewrite, StructsAndLocksRendered) {
  auto p = check(
      "param NPROCS = 2; struct S { int a; real b[3]; };"
      "struct S s[4]; lock_t l;"
      "void main(int pid) { lock(l); s[0].a = 1; unlock(l); barrier(); }");
  std::string printed = print(*p);
  EXPECT_NE(printed.find("struct S {"), std::string::npos);
  EXPECT_NE(printed.find("real b[3];"), std::string::npos);
  EXPECT_NE(printed.find("lock(l);"), std::string::npos);
  EXPECT_NE(printed.find("barrier();"), std::string::npos);
  auto p2 = check(printed);
  EXPECT_EQ(print(*p2), printed);
}

TEST(IdentityRewrite, WhileAndIfElse) {
  auto p = check(
      "param NPROCS = 1; int x;"
      "void main(int pid) {"
      "  int i; i = 0;"
      "  while (i < 3) { if (i == 1) { x = 1; } else { x = 2; } i = i + 1; }"
      "}");
  std::string printed = print(*p);
  EXPECT_NE(printed.find("while (i < 3)"), std::string::npos);
  EXPECT_NE(printed.find("else"), std::string::npos);
  auto p2 = check(printed);
  EXPECT_EQ(print(*p2), printed);
}

TEST(IdentityRewrite, IntrinsicsAndCallsRoundTrip) {
  const char* src =
      "param NPROCS = 2; param N = 8;\n"
      "real acc[N]; lock_t lk;\n"
      "real f(real v) { return v * 0.5 + 1.0; }\n"
      "void main(int pid) {\n"
      "  int i;\n"
      "  for (i = pid; i < N; i = i + nprocs) { acc[i] = f(itor(i)); }\n"
      "  barrier();\n"
      "  lock(lk); acc[0] = acc[0] + 1.0; unlock(lk);\n"
      "}\n";
  auto p = check(src);
  auto p2 = check(print(*p));
  EXPECT_EQ(print(*p2), print(*p));
}

TEST(IdentityRewrite, EveryWorkloadSourceIsAFixedPoint) {
  // Print each workload source, compile the text on its own (its params
  // carry the resolved sizes), print again: the text must not move, and
  // the recompiled program must end in the same memory image after the
  // same references and instructions.
  size_t sources = 0;
  for (const workloads::Workload& w : workloads::all()) {
    const std::pair<const char*, const std::string*> versions[] = {
        {"natural", &w.natural}, {"unopt", &w.unopt}, {"prog", &w.prog}};
    for (const auto& [version, source] : versions) {
      if (source->empty()) continue;
      ++sources;
      const std::string label = w.name + "/" + version;
      CompileOptions o;
      o.overrides = w.sim_overrides;
      o.overrides["NPROCS"] = 4;
      Compiled c = compile_source(*source, o);
      const std::string printed = print(*c.prog);
      Compiled again = compile_source(printed, CompileOptions{});
      EXPECT_EQ(print(*again.prog), printed) << label;
      auto m0 = run_program(c);
      auto m1 = run_program(again);
      EXPECT_TRUE(m0->memory() == m1->memory()) << label;
      EXPECT_EQ(m0->refs(), m1->refs()) << label;
      EXPECT_EQ(m0->instructions(), m1->instructions()) << label;
    }
  }
  EXPECT_EQ(sources, 25u);  // 10 natural + 6 unoptimized + 9 programmer
}

}  // namespace
}  // namespace fsopt
