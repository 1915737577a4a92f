// Golden-message coverage for the PPL diagnostics path and the compile
// pass pipeline: invalid programs must produce the exact messages (with
// source locations) that tools/fsoptc.cpp prints, and a traced compile
// must record the fixed pass structure as `pass` spans carrying each
// pass's domain counters.
#include <gtest/gtest.h>

#include "driver/experiment.h"
#include "driver/pipeline.h"
#include "obs/obs.h"
#include "support/timing.h"

namespace fsopt {
namespace {

/// Compile expecting failure; returns the thrown CompileError.
CompileError compile_expect_error(std::string_view src,
                                  const ParamOverrides& overrides = {}) {
  try {
    CompileOptions o;
    o.overrides = overrides;
    compile_source(src, o);
  } catch (const CompileError& e) {
    return e;
  }
  ADD_FAILURE() << "expected CompileError for:\n" << src;
  return CompileError("unreachable");
}

/// The diagnostic whose message contains `needle`, or nullptr.
const Diagnostic* find_diag(const CompileError& e, const std::string& needle) {
  for (const Diagnostic& d : e.diagnostics)
    if (d.message.find(needle) != std::string::npos) return &d;
  return nullptr;
}

// ---------------------------------------------------------------------
// Golden messages: representative invalid PPL programs.
// ---------------------------------------------------------------------

TEST(Diagnostics, AssignmentTypeMismatchHasLocation) {
  CompileError e = compile_expect_error(
      "param NPROCS = 2;\n"
      "real r;\n"
      "void main(int pid) {\n"
      "  r = 1;\n"
      "}\n");
  ASSERT_EQ(e.diagnostics.size(), 1u);
  const Diagnostic& d = e.diagnostics[0];
  EXPECT_EQ(d.message, "assignment type mismatch: real = int");
  EXPECT_EQ(d.severity, DiagSeverity::kError);
  EXPECT_TRUE(d.loc.valid());
  EXPECT_EQ(d.loc.line, 4);
  // what() carries the same rendered text the engine produced.
  EXPECT_NE(std::string(e.what()).find(d.message), std::string::npos);
}

TEST(Diagnostics, UnknownVariable) {
  CompileError e = compile_expect_error(
      "param NPROCS = 2;\n"
      "void main(int pid) {\n"
      "  y = 1;\n"
      "}\n");
  const Diagnostic* d = find_diag(e, "unknown variable 'y'");
  ASSERT_NE(d, nullptr) << e.what();
  EXPECT_EQ(d->loc.line, 3);
}

TEST(Diagnostics, SeveralErrorsReportedTogether) {
  // Sema records problems and throws once, so a driver can show all of
  // them in a single run instead of one per recompile.
  CompileError e = compile_expect_error(
      "param NPROCS = 2;\n"
      "real r;\n"
      "void main(int pid) {\n"
      "  r = 1;\n"
      "  y = 1;\n"
      "}\n");
  EXPECT_GE(e.diagnostics.size(), 2u) << e.what();
  EXPECT_NE(find_diag(e, "assignment type mismatch"), nullptr);
  EXPECT_NE(find_diag(e, "unknown variable 'y'"), nullptr);
}

TEST(Diagnostics, UnknownParamInConstantExpression) {
  CompileError e = compile_expect_error(
      "param NPROCS = 2;\n"
      "int x[NOSUCH];\n"
      "void main(int pid) { }\n");
  const Diagnostic* d =
      find_diag(e, "unknown param 'NOSUCH' in constant expression");
  ASSERT_NE(d, nullptr) << e.what();
  EXPECT_EQ(d->loc.line, 2);
}

TEST(Diagnostics, UnknownOverrideNamesAreIgnored) {
  // Override sets are shared across workload variants, so an override
  // naming a param this source does not declare is not an error.
  CompileOptions o;
  o.overrides = {{"NOSUCH", 8}};
  Compiled c = compile_source("param NPROCS = 2; void main(int pid) { }", o);
  EXPECT_EQ(c.nprocs(), 2);
}

TEST(Diagnostics, MalformedSpmdMain) {
  CompileError wrong_sig = compile_expect_error(
      "param NPROCS = 2;\nvoid main() { }\n");
  EXPECT_NE(find_diag(wrong_sig, "void main(int pid)"), nullptr)
      << wrong_sig.what();

  CompileError wrong_ret = compile_expect_error(
      "param NPROCS = 2;\nint main(int pid) { return 0; }\n");
  EXPECT_NE(find_diag(wrong_ret, "void main(int pid)"), nullptr)
      << wrong_ret.what();

  CompileError missing = compile_expect_error("int x;\n");
  EXPECT_NE(find_diag(missing, "no 'main'"), nullptr) << missing.what();
}

TEST(Diagnostics, ParserErrorsCarryDiagnosticsToo) {
  CompileError e = compile_expect_error(
      "param NPROCS = 2;\nvoid main(int pid) { x = ; }\n");
  ASSERT_FALSE(e.diagnostics.empty());
  EXPECT_TRUE(e.diagnostics.front().loc.valid());
  EXPECT_EQ(e.diagnostics.front().severity, DiagSeverity::kError);
}

// ---------------------------------------------------------------------
// Pass spans: pass structure and domain counters.
// ---------------------------------------------------------------------

const char* kSmall =
    "param NPROCS = 4;\n"
    "param N = 64;\n"
    "struct cell { int count; int pad; };\n"
    "struct cell cells[64];\n"
    "void main(int pid) {\n"
    "  int i;\n"
    "  for (i = pid; i < N; i = i + NPROCS) {\n"
    "    cells[i].count = cells[i].count + 1;\n"
    "  }\n"
    "  barrier();\n"
    "}\n";

std::vector<std::string> expected_pass_names() {
  return {"parse",       "sema",   "callgraph", "pdv",
          "percf",       "phases", "sideeffects", "report",
          "plan",        "layout", "codegen"};
}

/// Every span one compile of kSmall records, in order; tracing is on for
/// the compile only when `traced`.
std::vector<obs::SpanEvent> compile_spans(const CompileOptions& opt,
                                          bool traced) {
  obs::set_enabled(traced);
  obs::reset();
  Compiled c = compile_source(kSmall, opt);
  obs::set_enabled(false);
  EXPECT_EQ(c.nprocs(), 4);
  std::vector<obs::SpanEvent> out;
  for (const obs::ThreadLog& t : obs::collect().threads)
    out.insert(out.end(), t.spans.begin(), t.spans.end());
  obs::reset();
  return out;
}

/// The counter `key` on the span of pass `pass`, or -1 when absent.
double counter(const std::vector<obs::SpanEvent>& spans,
               std::string_view pass, std::string_view key) {
  for (const obs::SpanEvent& s : spans)
    if (s.name == pass)
      for (const obs::Arg& a : s.args)
        if (!a.is_str && a.key == key) return a.num;
  return -1;
}

TEST(PassSpans, PassNamesAndOrdering) {
  EXPECT_EQ(compile_pass_names(), expected_pass_names());
  // Front half is exactly the (source, overrides)-only prefix.
  EXPECT_EQ(front_pipeline().pass_names(),
            (std::vector<std::string>{"parse", "sema"}));
}

TEST(PassSpans, TracedCompileRecordsOneSpanPerPass) {
  for (bool optimize : {true, false}) {
    CompileOptions opt;
    opt.optimize = optimize;
    std::vector<obs::SpanEvent> spans = compile_spans(opt, /*traced=*/true);
    std::vector<std::string> names;
    for (const obs::SpanEvent& s : spans) {
      EXPECT_STREQ(s.category, "pass") << s.name;
      names.push_back(s.name);
    }
    EXPECT_EQ(names, compile_pass_names()) << "optimize=" << optimize;
    // Structure of the compiled program shows up in the domain counters.
    EXPECT_EQ(counter(spans, "parse", "functions"), 1);
    EXPECT_EQ(counter(spans, "sema", "nprocs"), 4);
    EXPECT_GE(counter(spans, "pdv", "pdvs"), 1);
    EXPECT_GE(counter(spans, "codegen", "instructions"), 1);
  }
}

TEST(PassSpans, UntracedCompileRecordsNoSpan) {
  EXPECT_TRUE(compile_spans(CompileOptions{}, /*traced=*/false).empty());
}

TEST(Timing, StopwatchAndBestOfBehave) {
  Stopwatch sw;
  EXPECT_GE(sw.seconds(), 0.0);
  sw.reset();
  EXPECT_GE(sw.seconds(), 0.0);
  int calls = 0;
  double t = best_of(3, [&] { ++calls; });
  EXPECT_EQ(calls, 3);
  EXPECT_GE(t, 0.0);
}

// ---------------------------------------------------------------------
// Pipeline vs. retained reference path, and the shared front.
// ---------------------------------------------------------------------

TEST(Pipeline, MatchesReferencePath) {
  for (bool optimize : {false, true}) {
    CompileOptions opt;
    opt.optimize = optimize;
    Compiled pipe = compile_source(kSmall, opt);
    Compiled ref = compile_source_reference(kSmall, opt);
    EXPECT_EQ(compile_fingerprint(pipe), compile_fingerprint(ref))
        << "optimize=" << optimize;
  }
}

TEST(Pipeline, SharedFrontMatchesPrivateFront) {
  FrontHalf front = run_front(kSmall, {});
  CompileOptions n, c;
  n.optimize = false;
  c.optimize = true;
  Compiled from_shared_n = run_back(front, n);
  Compiled from_shared_c = run_back(front, c);
  EXPECT_EQ(compile_fingerprint(from_shared_n),
            compile_fingerprint(compile_source(kSmall, n)));
  EXPECT_EQ(compile_fingerprint(from_shared_c),
            compile_fingerprint(compile_source(kSmall, c)));
  // Both backs share one Program instance.
  EXPECT_EQ(from_shared_n.prog.get(), from_shared_c.prog.get());
}

TEST(Pipeline, WorkloadMatrixJobsCoverEveryVersion) {
  std::vector<CompileJob> jobs = workload_matrix_jobs();
  // Ten workloads, each with N and C; some with a P version too.
  EXPECT_GE(jobs.size(), 20u);
  int n = 0, c = 0, p = 0;
  for (const CompileJob& j : jobs) {
    if (j.label.size() >= 2 && j.label.substr(j.label.size() - 2) == "/N") ++n;
    if (j.label.size() >= 2 && j.label.substr(j.label.size() - 2) == "/C") ++c;
    if (j.label.size() >= 2 && j.label.substr(j.label.size() - 2) == "/P") ++p;
  }
  EXPECT_EQ(n, 10);
  EXPECT_EQ(c, 10);
  EXPECT_GE(p, 1);
}

}  // namespace
}  // namespace fsopt
