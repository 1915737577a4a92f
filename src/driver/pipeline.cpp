#include "driver/pipeline.h"

#include "cfg/cfg.h"
#include "lang/parser.h"
#include "lang/sema.h"

namespace fsopt {

PassManager& PassManager::add(
    std::string name, std::function<void(PassContext&, obs::Span&)> fn) {
  passes_.push_back({std::move(name), std::move(fn)});
  return *this;
}

void PassManager::run(PassContext& ctx) const {
  for (const Pass& p : passes_) {
    obs::Span span("pass", p.name);
    p.run(ctx, span);
  }
}

std::vector<std::string> PassManager::pass_names() const {
  std::vector<std::string> out;
  out.reserve(passes_.size());
  for (const Pass& p : passes_) out.push_back(p.name);
  return out;
}

namespace {

/// Attach one domain counter to a pass span (a no-op when tracing is off).
void count(obs::Span& span, std::string_view key, i64 value) {
  span.arg(key, static_cast<double>(value));
}

i64 count_stmts(const Program& prog) {
  i64 n = 0;
  for (const auto& fn : prog.funcs)
    if (fn->body != nullptr)
      for_each_stmt(*fn->body, [&](const Stmt&) { ++n; });
  return n;
}

PassManager build_front() {
  PassManager pm;
  pm.add("parse", [](PassContext& ctx, obs::Span& span) {
    ctx.prog = Parser::parse(ctx.source, ctx.diags, ctx.options.overrides);
    count(span, "functions", static_cast<i64>(ctx.prog->funcs.size()));
    count(span, "globals", static_cast<i64>(ctx.prog->globals.size()));
    if (span.active()) count(span, "stmts", count_stmts(*ctx.prog));
  });
  pm.add("sema", [](PassContext& ctx, obs::Span& span) {
    Sema sema(ctx.diags);
    sema.run(*ctx.prog);
    count(span, "structs", static_cast<i64>(ctx.prog->structs.size()));
    count(span, "nprocs", ctx.prog->nprocs);
  });
  return pm;
}

PassManager build_back() {
  PassManager pm;
  pm.add("callgraph", [](PassContext& ctx, obs::Span& span) {
    ctx.callgraph = std::make_unique<CallGraph>(*ctx.prog);
    count(span, "call_sites",
          static_cast<i64>(ctx.callgraph->sites().size()));
    if (span.active()) {
      // No analysis reads a CFG; they are built only to be counted.
      i64 cfg_nodes = 0;
      for (const auto& fn : ctx.prog->funcs)
        cfg_nodes += static_cast<i64>(Cfg(*fn).nodes().size());
      count(span, "cfg_nodes", cfg_nodes);
    }
  });
  pm.add("pdv", [](PassContext& ctx, obs::Span& span) {
    ctx.summary.prog = ctx.prog.get();
    ctx.summary.nprocs = ctx.prog->nprocs;
    ctx.summary.pdvs = analyze_pdvs(*ctx.prog, *ctx.callgraph);
    count(span, "pdvs", static_cast<i64>(ctx.summary.pdvs.pdvs.size()));
  });
  pm.add("percf", [](PassContext& ctx, obs::Span& span) {
    ctx.summary.percf = analyze_per_process_cf(*ctx.prog, ctx.summary.pdvs);
    count(span, "decided_branches",
          static_cast<i64>(ctx.summary.percf.divergences.size()));
  });
  pm.add("phases", [](PassContext& ctx, obs::Span& span) {
    ctx.summary.phases = analyze_phases(*ctx.prog);
    count(span, "phases", ctx.summary.phases.phase_count);
    count(span, "suspicious_barriers",
          static_cast<i64>(ctx.summary.phases.suspicious_barriers.size()));
  });
  pm.add("sideeffects", [](PassContext& ctx, obs::Span& span) {
    summarize_side_effects(*ctx.callgraph, ctx.summary);
    count(span, "records", static_cast<i64>(ctx.summary.records.size()));
    if (span.active()) {
      i64 merged = 0;
      for (const FuncSummary& fs : ctx.summary.func_summaries)
        merged += static_cast<i64>(fs.records.size());
      count(span, "rsds_merged", merged);
    }
  });
  pm.add("report", [](PassContext& ctx, obs::Span& span) {
    ctx.report = classify_sharing(ctx.summary);
    count(span, "data", static_cast<i64>(ctx.report.data.size()));
  });
  pm.add("plan", [](PassContext& ctx, obs::Span& span) {
    if (ctx.options.plan != nullptr) {
      // Injected plan (--plan-in, repair-loop recompiles): used verbatim.
      ctx.transforms = *ctx.options.plan;
      count(span, "injected", 1);
    } else if (ctx.options.optimize) {
      ctx.transforms = decide_transforms(ctx.report, ctx.summary,
                                         ctx.options.block_size,
                                         ctx.options.decision);
    }
    count(span, "decisions",
          static_cast<i64>(ctx.transforms.decisions.size()));
  });
  pm.add("layout", [](PassContext& ctx, obs::Span& span) {
    ctx.layout =
        build_layout(*ctx.prog, ctx.transforms, ctx.options.block_size);
    count(span, "total_bytes", ctx.layout.total_bytes());
  });
  pm.add("codegen", [](PassContext& ctx, obs::Span& span) {
    ctx.code = compile_code(*ctx.prog, ctx.layout);
    count(span, "instructions", static_cast<i64>(ctx.code.code.size()));
    count(span, "plans", static_cast<i64>(ctx.code.plans.size()));
  });
  return pm;
}

}  // namespace

const PassManager& front_pipeline() {
  static const PassManager pm = build_front();
  return pm;
}

const PassManager& back_pipeline() {
  static const PassManager pm = build_back();
  return pm;
}

std::vector<std::string> compile_pass_names() {
  std::vector<std::string> names = front_pipeline().pass_names();
  for (const std::string& n : back_pipeline().pass_names())
    names.push_back(n);
  return names;
}

FrontHalf run_front(std::string_view source,
                    const ParamOverrides& overrides) {
  PassContext ctx;
  ctx.source = source;
  ctx.options.overrides = overrides;
  front_pipeline().run(ctx);
  return {std::move(ctx.prog)};
}

Compiled run_back(const FrontHalf& front, const CompileOptions& options) {
  PassContext ctx;
  ctx.options = options;
  ctx.prog = front.prog;
  back_pipeline().run(ctx);

  Compiled out;
  out.options = options;
  out.prog = std::move(ctx.prog);
  out.summary = std::move(ctx.summary);
  out.report = std::move(ctx.report);
  out.transforms = std::move(ctx.transforms);
  out.layout = std::move(ctx.layout);
  out.code = std::move(ctx.code);
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
