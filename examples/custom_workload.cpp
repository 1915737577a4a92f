// Bring your own workload: a parallel histogram/stencil hybrid written the
// "natural" way, exhibiting all three §3.2 situations at once —
// interleaved per-process partials (group & transpose), per-bin tallies
// embedded in shared records (indirection), and adjacent busy scalars
// under an unpadded lock (pad & align + lock padding).  The example sweeps
// processor counts and shows where the unoptimized version stops scaling
// and the transformed one keeps going.
//
//   $ ./custom_workload
#include <cstdio>
#include <optional>

#include "driver/experiment.h"

using namespace fsopt;

static const char* kSource = R"PPL(
param NPROCS = 8;
param N = 2048;     // samples
param BINS = 48;    // histogram bins
param ROUNDS = 4;

struct Bin {
  int total;            // shared tally, written under the bin lock
  int seen[NPROCS];     // per-process contribution, embedded in the record
};

real samples[N];
struct Bin bins[BINS];
real partial[N];        // per-sample smoothing partials (owner = i mod P)
int round_no;           // busy scalars, adjacently allocated
int outliers;
lock_t blk[8];

real smooth(real v, int k) {
  int t;
  real a;
  a = v;
  for (t = 0; t < 10; t = t + 1) {
    a = a * 0.7 + sqrt(a * a + itor(k % 5) + 1.0) * 0.15;
  }
  return a;
}

void main(int pid) {
  int i;
  int r;
  int b;
  for (i = pid; i < N; i = i + nprocs) {
    samples[i] = itor((i * 37) % 1000) * 0.002;
    partial[i] = 0.0;
  }
  if (pid == 0) {
    round_no = 0;
    outliers = 0;
    for (b = 0; b < BINS; b = b + 1) {
      bins[b].total = 0;
    }
  }
  for (b = 0; b < BINS; b = b + 1) {
    bins[b].seen[pid] = 0;
  }
  barrier();
  for (r = 0; r < ROUNDS; r = r + 1) {
    for (i = pid; i < N; i = i + nprocs) {
      partial[i] = partial[i] + smooth(samples[i], i + r);
      b = rtoi(partial[i] * 8.0) % BINS;
      if (b < 0) {
        b = 0 - b;
      }
      bins[b].seen[pid] = bins[b].seen[pid] + 1;
      lock(blk[b % 8]);
      bins[b].total = bins[b].total + 1;
      unlock(blk[b % 8]);
      if (partial[i] > 100.0) {
        outliers = outliers + 1;
      }
    }
    barrier();
    if (pid == 0) {
      round_no = round_no + 1;
    }
    barrier();
  }
}
)PPL";

int main(int argc, char** argv) {
  // Sweeps honour --threads N (or the FSOPT_THREADS env var).
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

  CompileOptions base;
  CompileOptions optimized;
  optimized.optimize = true;

  Compiled c = compile_source(kSource, optimized);
  std::printf("--- what fsopt decided for the histogram kernel ---\n%s\n",
              c.transforms.render(c.summary).c_str());

  i64 bl = baseline_cycles(kSource, base);
  // Each curve's compile+run jobs fan out across the experiment pool.
  std::vector<i64> procs = {1, 2, 4, 8, 16, 32};
  SpeedupCurve n = speedup_sweep(kSource, procs, base, bl);
  SpeedupCurve t = speedup_sweep(kSource, procs, optimized, bl);
  std::printf("procs  unoptimized  transformed\n");
  for (size_t i = 0; i < procs.size(); ++i) {
    std::printf("%5lld  %10.2fx  %10.2fx\n",
                static_cast<long long>(procs[i]), n.speedup[i],
                t.speedup[i]);
  }
  std::printf(
      "\nSpeedups are relative to the uniprocessor run of the unoptimized\n"
      "version, as in the paper's Figure 4.\n");
  return 0;
}
