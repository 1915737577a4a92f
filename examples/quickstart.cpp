// Quickstart: compile an explicitly parallel PPL program twice — once as
// written, once with fsopt's false-sharing transformations — and compare
// cache behaviour and simulated KSR2 execution time.
//
//   $ ./quickstart
//
// The program below has the classic bug the paper opens with: per-process
// counters packed next to each other, so every increment invalidates every
// other processor's cache block.
#include <cstdio>
#include <optional>

#include "driver/experiment.h"

using namespace fsopt;

static const char* kSource = R"PPL(
param NPROCS = 8;
param N = 4096;

int hits[NPROCS];    // per-process counters, adjacent in memory
int misses[NPROCS];  // ... and another vector of them
real data[N];
lock_t final_lock;
int grand_total;

void main(int pid) {
  int i;
  for (i = pid; i < N; i = i + nprocs) {
    data[i] = itor(i % 100) * 0.01;
  }
  barrier();
  for (i = pid; i < N; i = i + nprocs) {
    if (data[i] > 0.5) {
      hits[pid] = hits[pid] + 1;
    } else {
      misses[pid] = misses[pid] + 1;
    }
  }
  barrier();
  lock(final_lock);
  grand_total = grand_total + hits[pid] + misses[pid];
  unlock(final_lock);
}
)PPL";

int main(int argc, char** argv) {
  // Replays/sweeps honour --threads N (or the FSOPT_THREADS env var).
  if (argc > 2 && std::string_view(argv[1]) == "--threads") {
    std::optional<int> threads = parse_count(argv[2]);
    if (!threads) {
      std::fprintf(stderr,
                   "%s: --threads expects a non-negative integer\n"
                   "usage: %s [--threads N]\n",
                   argv[0], argv[0]);
      return 2;
    }
    set_experiment_threads(*threads);
  }

  // 1. Compile unoptimized and optimized versions.
  CompileOptions plain;
  CompileOptions optimized;
  optimized.optimize = true;
  Compiled n = compile_source(kSource, plain);
  Compiled c = compile_source(kSource, optimized);

  // 2. What did the analysis see, and what did it decide?
  std::printf("--- sharing classification ---\n%s\n",
              n.report.render().c_str());
  std::printf("--- transformations chosen ---\n%s\n",
              c.transforms.render(c.summary).c_str());

  // 3. Trace-driven cache comparison at the KSR2's 128-byte blocks.
  auto sn = run_trace_study(n, {128});
  auto sc = run_trace_study(c, {128});
  std::printf("unoptimized: miss rate %5.2f%%  (false sharing %5.2f%%)\n",
              100 * sn.at(128).miss_rate(),
              100 * sn.at(128).false_sharing_rate());
  std::printf("transformed: miss rate %5.2f%%  (false sharing %5.2f%%)\n\n",
              100 * sc.at(128).miss_rate(),
              100 * sc.at(128).false_sharing_rate());

  // 4. Simulated execution time on the KSR2 model.
  auto tn = run_ksr(n);
  auto tc = run_ksr(c);
  std::printf("KSR2 cycles: unoptimized %lld, transformed %lld (%.1f%% "
              "faster)\n",
              static_cast<long long>(tn.cycles),
              static_cast<long long>(tc.cycles),
              100.0 * (1.0 - static_cast<double>(tc.cycles) /
                                 static_cast<double>(tn.cycles)));
  return 0;
}
