// Explore any of the ten reproduced benchmarks from the command line:
// per-datum false-sharing attribution, block-size behaviour, and the
// N/C/P scalability comparison.
//
//   $ ./workload_explorer                 # list workloads
//   $ ./workload_explorer fmm             # full study of one workload
//   $ ./workload_explorer fmm 16          # ... at a given processor count
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "driver/experiment.h"
#include "support/stats.h"
#include "workloads/workloads.h"

using namespace fsopt;

static void list_workloads() {
  std::printf("workload     versions  description\n");
  for (const auto& w : workloads::all()) {
    std::string v = w.has_unopt() ? "N C" : "  C";
    if (w.has_prog()) v += " P";
    std::printf("%-12s %-8s %s\n", w.name.c_str(), v.c_str(),
                w.description.c_str());
  }
}

int main(int argc, char** argv) {
  // Replays/sweeps honour --threads N (or the FSOPT_THREADS env var).
  if (argc > 2 && std::string(argv[1]) == "--threads") {
    std::optional<int> threads = parse_count(argv[2]);
    if (!threads) {
      std::fprintf(stderr,
                   "%s: --threads expects a non-negative integer\n"
                   "usage: %s [--threads N] [WORKLOAD [NPROCS]]\n",
                   argv[0], argv[0]);
      return 2;
    }
    set_experiment_threads(*threads);
    argc -= 2;
    argv += 2;
  }
  if (argc < 2) {
    list_workloads();
    return 0;
  }
  const auto& w = workloads::get(argv[1]);
  i64 procs = argc > 2 ? std::atoll(argv[2]) : w.fig3_procs;

  CompileOptions nopt;
  nopt.overrides = w.sim_overrides;
  nopt.overrides["NPROCS"] = procs;
  CompileOptions copt = nopt;
  copt.optimize = true;

  Compiled n = compile_source(w.natural, nopt);
  Compiled c = compile_source(w.natural, copt);

  std::printf("===== %s @ %lld processors =====\n\n", w.name.c_str(),
              static_cast<long long>(procs));
  std::printf("--- transformations ---\n%s\n",
              c.transforms.render(c.summary).c_str());

  // Record the unoptimized trace once; the attribution study and the
  // block-size sweep below both replay it.
  EncodedTrace nt = record_encoded_trace(n);

  // Per-datum false-sharing attribution for the unoptimized layout.
  AddressMap am = build_address_map(n);
  auto st = replay_trace_study(nt, n, {128}, 32 * 1024, &am);
  std::printf("--- false-sharing attribution (unoptimized, 128B) ---\n");
  for (const auto& [name, s] : st.by_datum.at(128)) {
    if (s.false_sharing == 0) continue;
    std::printf("  %-16s %8llu false-sharing misses\n", name.c_str(),
                static_cast<unsigned long long>(s.false_sharing));
  }

  // Block-size sweep comparison.
  auto sn = replay_trace_study(nt, n, paper_block_sizes());
  auto sc = run_trace_study(c, paper_block_sizes());
  std::printf("\n--- block-size sweep (miss rate, fs rate) ---\n");
  std::printf("block   unoptimized        transformed\n");
  for (i64 b : paper_block_sizes()) {
    std::printf("%5lld   %6.2f%% (%5.2f%%)   %6.2f%% (%5.2f%%)\n",
                static_cast<long long>(b), 100 * sn.at(b).miss_rate(),
                100 * sn.at(b).false_sharing_rate(),
                100 * sc.at(b).miss_rate(),
                100 * sc.at(b).false_sharing_rate());
  }

  // Scalability comparison.
  CompileOptions tbase;
  tbase.overrides = w.time_overrides;
  std::string base_src = w.has_unopt() ? w.unopt : w.natural;
  i64 bl = baseline_cycles(base_src, tbase);
  CompileOptions topt = tbase;
  topt.optimize = true;
  std::printf("\n--- scalability (speedup over 1-proc unoptimized) ---\n");
  std::printf("procs   N        C        P\n");
  std::vector<i64> sweep = {1, 2, 4, 8, 12, 16, 24, 32, 48};
  SpeedupCurve cn, cc, cp;
  if (w.has_unopt()) cn = speedup_sweep(w.unopt, sweep, tbase, bl);
  cc = speedup_sweep(w.natural, sweep, topt, bl);
  if (w.has_prog()) cp = speedup_sweep(w.prog, sweep, tbase, bl);
  for (size_t i = 0; i < sweep.size(); ++i) {
    std::printf("%5lld  %5.2f    %5.2f    %5.2f\n",
                static_cast<long long>(sweep[i]),
                w.has_unopt() ? cn.speedup[i] : 0.0, cc.speedup[i],
                w.has_prog() ? cp.speedup[i] : 0.0);
  }
  return 0;
}
