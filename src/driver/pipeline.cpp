#include "driver/pipeline.h"

#include "lang/parser.h"
#include "lang/sema.h"
#include "obs/obs.h"

namespace fsopt {

namespace {

i64 count_stmts(const Program& prog) {
  i64 n = 0;
  for (const auto& fn : prog.funcs)
    if (fn->body != nullptr)
      for_each_stmt(*fn->body, [&](const Stmt&) { ++n; });
  return n;
}

}  // namespace

std::vector<std::string> compile_pass_names() {
  return {"parse",       "sema",   "callgraph", "pdv",    "phases",
          "sideeffects", "report", "plan",      "layout", "codegen"};
}

FrontHalf run_front(std::string_view source,
                    const ParamOverrides& overrides) {
  DiagnosticEngine diags;
  FrontHalf out;
  {
    obs::Span span("pass", "parse");
    out.prog = Parser::parse(source, diags, overrides);
    span.arg("functions", static_cast<double>(out.prog->funcs.size()));
    span.arg("globals", static_cast<double>(out.prog->globals.size()));
    if (span.active())
      span.arg("stmts", static_cast<double>(count_stmts(*out.prog)));
  }
  {
    obs::Span span("pass", "sema");
    Sema sema(diags);
    sema.run(*out.prog);
    span.arg("structs", static_cast<double>(out.prog->structs.size()));
    span.arg("nprocs", static_cast<double>(out.prog->nprocs));
  }
  out.warnings = diags.diagnostics();
  return out;
}

Compiled run_back(const FrontHalf& front, const CompileOptions& options) {
  Compiled out;
  out.options = options;
  out.prog = front.prog;
  out.warnings = front.warnings;
  out.summary = analyze_program(*out.prog);
  {
    obs::Span span("pass", "report");
    out.report = classify_sharing(out.summary);
    span.arg("data", static_cast<double>(out.report.data.size()));
  }
  {
    obs::Span span("pass", "plan");
    if (options.plan != nullptr) {
      // Injected plan (--plan-in, repair-loop recompiles): used verbatim.
      out.transforms = *options.plan;
      span.arg("injected", 1.0);
    } else if (options.optimize) {
      out.transforms = decide_transforms(out.report, out.summary,
                                         options.block_size, options.decision);
    }
    span.arg("decisions",
             static_cast<double>(out.transforms.decisions.size()));
  }
  {
    obs::Span span("pass", "layout");
    out.layout = build_layout(*out.prog, out.transforms, options.block_size);
    span.arg("total_bytes", static_cast<double>(out.layout.total_bytes()));
  }
  {
    obs::Span span("pass", "codegen");
    out.code = compile_code(*out.prog, out.layout);
    span.arg("instructions", static_cast<double>(out.code.code.size()));
    span.arg("plans", static_cast<double>(out.code.plans.size()));
  }
  return out;
}

std::string compile_fingerprint(const Compiled& c) {
  std::string fp;
  fp += "report:\n" + c.report.render();
  fp += "transforms:\n" + c.transforms.render(c.summary);
  fp += "code:\n" + c.code.disassemble();
  fp += "layout_bytes:" + std::to_string(c.layout.total_bytes()) + "\n";
  fp += "total_bytes:" + std::to_string(c.code.total_bytes) + "\n";
  fp += "barrier_base:" + std::to_string(c.code.barrier_base) + "\n";
  fp += "records:" + std::to_string(c.summary.records.size()) + "\n";
  fp += "nprocs:" + std::to_string(c.nprocs()) + "\n";
  return fp;
}

}  // namespace fsopt
