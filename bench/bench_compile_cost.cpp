// §3 compile-cost claim: "the execution time of our algorithms made up
// only 5% (on average) of the total running time" of the source-to-source
// restructurer.  We measure, with google-benchmark, the front-end cost
// (lex/parse/sema — the baseline every compiler pays) against the cost of
// the added analyses and transformation planning.
#include <benchmark/benchmark.h>

#include <map>

#include "bench_util.h"
#include "lang/sema.h"
#include "obs/trace_writer.h"

using namespace fsopt;
using namespace fsopt::benchx;

namespace {

/// Seconds per pass of one traced compile, from its `pass` spans.
std::map<std::string, double> traced_pass_seconds(
    const workloads::Workload& w, const CompileOptions& opt) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const u64 t0 = obs::now_ns();
  compile_source(w.natural, opt);
  obs::set_enabled(was_enabled);
  // Summarize this compile's spans only; what the log held before (a
  // --trace-out run) stays in it untouched.
  obs::TraceData data = obs::collect();
  for (obs::ThreadLog& t : data.threads)
    std::erase_if(t.spans,
                  [&](const obs::SpanEvent& s) { return s.start_ns < t0; });
  std::map<std::string, double> out;
  for (const obs::CategoryLine& line : obs::summarize(data).lines)
    if (line.category == "pass") out[line.name] = line.total_seconds;
  return out;
}

const workloads::Workload& biggest() { return workloads::get("pverify"); }

void BM_FrontEnd(benchmark::State& state) {
  const auto& w = biggest();
  ParamOverrides ov(w.sim_overrides.begin(), w.sim_overrides.end());
  ov["NPROCS"] = 12;
  for (auto _ : state) {
    DiagnosticEngine diags;
    auto prog = parse_and_check(w.natural, diags, ov);
    benchmark::DoNotOptimize(prog);
  }
}
BENCHMARK(BM_FrontEnd);

void BM_AnalysesAndTransforms(benchmark::State& state) {
  const auto& w = biggest();
  ParamOverrides ov(w.sim_overrides.begin(), w.sim_overrides.end());
  ov["NPROCS"] = 12;
  DiagnosticEngine diags;
  auto prog = parse_and_check(w.natural, diags, ov);
  for (auto _ : state) {
    ProgramSummary sum = analyze_program(*prog);
    SharingReport rep = classify_sharing(sum);
    TransformPlan ts = decide_transforms(rep, sum, 128);
    LayoutPlan plan = build_layout(*prog, ts, 128);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_AnalysesAndTransforms);

void BM_FullCompile(benchmark::State& state) {
  const auto& w = biggest();
  CompileOptions o = options_for(w, 12, true, false);
  for (auto _ : state) {
    Compiled c = compile_source(w.natural, o);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_FullCompile);

}  // namespace

int main(int argc, char** argv) {
  // Our shared flags are stripped first; the rest go to google-benchmark.
  BenchOptions bo = parse_bench_args(argc, argv, /*allow_unknown=*/true);
  JsonReport json;
  std::printf(
      "=== Compile cost (paper Sec. 3: analyses ~5%% of restructurer "
      "time) ===\n\n");
  // Print a one-shot ratio table before the detailed benchmark run.
  for (const std::string& name : fig3_programs()) {
    const auto& w = workloads::get(name);
    CompileOptions opt = options_for(w, 12, /*optimize=*/true,
                                     /*timing=*/false);
    std::map<std::string, double> pass = traced_pass_seconds(w, opt);
    // The paper's split: the front end every compiler pays (parse+sema),
    // the added analyses/planning, and code generation.
    double total = 0.0;
    for (const auto& [pass_name, sec] : pass) total += sec;
    double ana = total - pass["parse"] - pass["sema"] - pass["codegen"];
    std::printf("%-11s analyses %.0f us = %.1f%% of compile\n", name.c_str(),
                ana * 1e6, 100.0 * ana / total);
    json.add(name, "analyses_seconds", ana);
    json.add(name, "analyses_fraction_of_compile", ana / total);
  }
  std::printf("\n");
  json.write(bo.json_path);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
