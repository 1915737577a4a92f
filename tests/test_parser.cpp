#include "lang/parser.h"

#include <gtest/gtest.h>

namespace fsopt {
namespace {

std::unique_ptr<Program> parse_ok(std::string_view src,
                                  const ParamOverrides& ov = {}) {
  DiagnosticEngine diags;
  auto prog = Parser::parse(src, diags, ov);
  EXPECT_FALSE(diags.has_errors()) << diags.render();
  return prog;
}

void expect_parse_error(std::string_view src,
                        const std::string& needle = "") {
  DiagnosticEngine diags;
  try {
    auto p = Parser::parse(src, diags, {});
    (void)p;
    FAIL() << "expected a parse error";
  } catch (const CompileError& e) {
    if (!needle.empty()) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "actual: " << e.what();
    }
  }
}

TEST(Parser, EmptyProgram) {
  auto p = parse_ok("");
  EXPECT_TRUE(p->globals.empty());
  EXPECT_TRUE(p->funcs.empty());
}

TEST(Parser, ParamDeclaration) {
  auto p = parse_ok("param N = 64;");
  EXPECT_EQ(p->params.at("N"), 64);
}

TEST(Parser, ParamConstantExpressions) {
  auto p = parse_ok("param A = 4; param B = A * 3 + 2; param C = B / 2;");
  EXPECT_EQ(p->params.at("B"), 14);
  EXPECT_EQ(p->params.at("C"), 7);
}

TEST(Parser, ParamOverrideWins) {
  auto p = parse_ok("param N = 64;", {{"N", 128}});
  EXPECT_EQ(p->params.at("N"), 128);
}

TEST(Parser, DerivedParamsSeeOverrides) {
  auto p = parse_ok("param N = 4; param M = N * 2;", {{"N", 10}});
  EXPECT_EQ(p->params.at("M"), 20);
}

TEST(Parser, NprocsKeywordResolvesToNprocsParam) {
  auto p = parse_ok("param NPROCS = 8; param N = nprocs * 2;");
  EXPECT_EQ(p->params.at("N"), 16);
}

TEST(Parser, GlobalScalar) {
  auto p = parse_ok("int x;");
  const GlobalSym* g = p->find_global("x");
  ASSERT_NE(g, nullptr);
  EXPECT_TRUE(g->dims.empty());
  EXPECT_EQ(g->elem.scalar, ScalarKind::kInt);
}

TEST(Parser, GlobalArrays) {
  auto p = parse_ok("param N = 8; real a[N]; int b[N][2 * N];");
  EXPECT_EQ(p->find_global("a")->dims, (std::vector<i64>{8}));
  EXPECT_EQ(p->find_global("b")->dims, (std::vector<i64>{8, 16}));
}

TEST(Parser, ThreeDimensionalArraysRejected) {
  expect_parse_error("int a[2][2][2];");
}

TEST(Parser, StructDeclarationAndGlobal) {
  auto p = parse_ok(
      "param P = 4; struct S { int a; real b; int c[P]; }; struct S v[10];");
  const StructType* st = p->find_struct("S");
  ASSERT_NE(st, nullptr);
  ASSERT_EQ(st->fields.size(), 3u);
  EXPECT_EQ(st->fields[2].array_len, 4);
  const GlobalSym* g = p->find_global("v");
  ASSERT_NE(g, nullptr);
  EXPECT_TRUE(g->elem.is_struct);
  EXPECT_EQ(g->elem.strct, st);
}

TEST(Parser, LockGlobals) {
  auto p = parse_ok("lock_t l; lock_t ls[4];");
  EXPECT_TRUE(p->find_global("l")->is_lock());
  EXPECT_TRUE(p->find_global("ls")->is_lock());
}

TEST(Parser, FunctionWithParamsAndLocals) {
  auto p = parse_ok(
      "int add(int a, int b) { int c; c = a + b; return c; }");
  FuncDecl* f = p->find_func("add");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->ret, ValueType::kInt);
  EXPECT_EQ(f->params.size(), 2u);
}

TEST(Parser, ForLoopStructure) {
  auto p = parse_ok(
      "void main(int pid) { int i; for (i = 0; i < 10; i = i + 1) { } }");
  const Stmt& body = *p->find_func("main")->body;
  // decl, for
  ASSERT_EQ(body.stmts.size(), 2u);
  const Stmt& f = *body.stmts[1];
  EXPECT_EQ(f.kind, StmtKind::kFor);
  EXPECT_EQ(f.init_stmt->kind, StmtKind::kAssign);
  EXPECT_EQ(f.step_stmt->kind, StmtKind::kAssign);
}

TEST(Parser, IfElseChain) {
  auto p = parse_ok(
      "void main(int pid) { if (pid == 0) { } else { if (pid == 1) { } } }");
  const Stmt& s = *p->find_func("main")->body->stmts[0];
  EXPECT_EQ(s.kind, StmtKind::kIf);
  ASSERT_NE(s.else_block, nullptr);
}

TEST(Parser, OperatorPrecedence) {
  auto p = parse_ok("void main(int pid) { int x; x = 1 + 2 * 3; }");
  const Stmt& s = *p->find_func("main")->body->stmts[1];
  // x = (1 + (2*3)) -> top node is +
  EXPECT_EQ(s.value->bin_op, BinOp::kAdd);
  EXPECT_EQ(s.value->children[1]->bin_op, BinOp::kMul);
}

TEST(Parser, ComparisonBindsLooserThanArithmetic) {
  auto p = parse_ok("void main(int pid) { if (pid + 1 < 2 * 3) { } }");
  const Stmt& s = *p->find_func("main")->body->stmts[0];
  EXPECT_EQ(s.cond->bin_op, BinOp::kLt);
}

TEST(Parser, LogicalOperators) {
  auto p = parse_ok(
      "void main(int pid) { if (pid == 0 && pid < 3 || !(pid == 2)) { } }");
  const Stmt& s = *p->find_func("main")->body->stmts[0];
  EXPECT_EQ(s.cond->bin_op, BinOp::kOr);
}

TEST(Parser, LvaluePaths) {
  auto p = parse_ok(
      "param P = 2; struct S { int v[P]; int w; };\n"
      "struct S g[4]; int a[4][4];\n"
      "void main(int pid) { g[1].v[0] = a[2][3]; g[0].w = 5; }");
  const Stmt& s = *p->find_func("main")->body->stmts[0];
  EXPECT_EQ(s.kind, StmtKind::kAssign);
  EXPECT_EQ(s.target->kind, ExprKind::kIndex);  // .v[0]
}

TEST(Parser, BarrierLockUnlock) {
  auto p = parse_ok(
      "lock_t l; void main(int pid) { barrier(); lock(l); unlock(l); }");
  const auto& stmts = p->find_func("main")->body->stmts;
  EXPECT_EQ(stmts[0]->kind, StmtKind::kBarrier);
  EXPECT_EQ(stmts[1]->kind, StmtKind::kLock);
  EXPECT_EQ(stmts[2]->kind, StmtKind::kUnlock);
}

TEST(Parser, CallStatementAndExpression) {
  auto p = parse_ok(
      "int f(int x) { return x; }\n"
      "void g() { int y; y = f(1) + f(2); f(3); }");
  ASSERT_NE(p->find_func("g"), nullptr);
}

TEST(Parser, DuplicateGlobalReported) {
  expect_parse_error("int x; int x;", "duplicate global");
}

TEST(Parser, DuplicateParamReported) {
  expect_parse_error("param N = 1; param N = 2;", "duplicate param");
}

TEST(Parser, NegativeArrayExtentReported) {
  expect_parse_error("param N = 0 - 4; int a[N];", "must be positive");
}

TEST(Parser, MissingSemicolonIsFatal) {
  expect_parse_error("int x");
}

TEST(Parser, UnknownParamInConstantExpr) {
  expect_parse_error("int a[MISSING];", "unknown param");
}

TEST(Parser, DivisionByZeroInConstantExprIsFatal) {
  expect_parse_error("param N = 4 / 0;");
}

TEST(Parser, UnaryMinusInExpressions) {
  auto p = parse_ok("void main(int pid) { int x; x = -pid + -(3); }");
  ASSERT_NE(p->find_func("main"), nullptr);
}

}  // namespace
}  // namespace fsopt
