// fsopt_perfbench: the end-to-end benchmark binary.
//
//   fsopt_perfbench --workload plan_search|cache_sweep|ksr_speedup
//                   --seed N --seconds S --trace 0|1 --golden PATH
//                   [--commit ID] [--src-digest HEX] [--corrupt-golden]
//   fsopt_perfbench --capture-golden PATH
//
// Closed loop, one client: the ops of the workload run back to back in
// passes, each pass a seeded permutation of every op kind.  The first
// pass always completes; later passes stop issuing once --seconds have
// elapsed.  Every op's output is checked; a mismatch counts as a failed
// op and the run goes on.  The last stdout line is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it holds
// the run metadata.  run.py builds this binary and pins the environment.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "driver/experiment.h"
#include "layers.h"
#include "obs/metrics.h"
#include "obs/obs.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;
namespace obs = fsopt::obs;

namespace {

/// Set-up runs this many times per run; setup_s is their median.
constexpr int kSetupReps = 7;

/// Every environment knob the library reads.  All must be unset, except
/// FSOPT_THREADS, which may already equal the pool width; the benchmark
/// then pins FSOPT_THREADS itself, so the library's default thread count
/// (used where a caller passes 0 threads) is the pool width too.
const char* const kKnobs[] = {
    "FSOPT_SIMD",          "FSOPT_PIPELINE", "FSOPT_REPLAY_BATCH",
    "FSOPT_SEARCH_BUDGET", "FSOPT_THREADS",  "FSOPT_TRACE",
    "FSOPT_TRACE_SUMMARY", "FSOPT_METRICS"};

struct Args {
  std::string workload;
  u64 seed = 0;
  double seconds = 0.0;
  int trace = 0;
  std::string golden;
  std::string capture;
  std::string commit = "unknown";
  std::string src_digest = "unknown";
  bool corrupt = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "fsopt_perfbench: %s\n"
               "usage: fsopt_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --golden PATH [--commit ID] [--src-digest HEX] "
               "[--corrupt-golden]\n"
               "       fsopt_perfbench --capture-golden PATH\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value after " + flag);
      return argv[++i];
    };
    auto number = [&](const std::string& v) {
      char* end = nullptr;
      const double d = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0') usage(flag + " expects a number");
      return d;
    };
    if (flag == "--workload") {
      a.workload = next();
    } else if (flag == "--seed") {
      a.seed = static_cast<u64>(number(next()));
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = number(next());
      have_seconds = true;
    } else if (flag == "--trace") {
      const std::string v = next();
      if (v != "0" && v != "1") usage("--trace expects 0 or 1");
      a.trace = v == "1";
      have_trace = true;
    } else if (flag == "--golden") {
      a.golden = next();
    } else if (flag == "--capture-golden") {
      a.capture = next();
    } else if (flag == "--commit") {
      a.commit = next();
    } else if (flag == "--src-digest") {
      a.src_digest = next();
    } else if (flag == "--corrupt-golden") {
      a.corrupt = true;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!a.capture.empty()) return a;
  if (make_workload(a.workload) == nullptr)
    usage("--workload expects plan_search, cache_sweep or ksr_speedup");
  if (!have_seed || !have_seconds || !have_trace || a.golden.empty())
    usage("--seed, --seconds, --trace and --golden are required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

/// Refuse to run with a library knob set (the untraced run must not
/// trace), pin FSOPT_THREADS, and return every knob's value.
std::string pin_knobs(int width) {
  std::string seen;
  for (const char* k : kKnobs) {
    const char* v = std::getenv(k);
    seen += std::string(seen.empty() ? "" : ",") + k + "=" +
            (v == nullptr ? "unset" : v);
    if (v == nullptr) continue;
    if (std::strcmp(k, "FSOPT_THREADS") == 0 && std::atoi(v) == width)
      continue;
    std::fprintf(stderr,
                 "fsopt_perfbench: %s is set; run through perfbench/run.py "
                 "or unset it\n",
                 k);
    std::exit(2);
  }
  setenv("FSOPT_THREADS", std::to_string(width).c_str(), 1);
  return seen + " (FSOPT_THREADS pinned to " + std::to_string(width) + ")";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const size_t c = line.find(':');
      return c == std::string::npos ? line : line.substr(c + 2);
    }
  return "unknown";
}

std::string cpu_features() {
  std::ifstream in("/proc/cpuinfo");
  std::string line, out;
  while (std::getline(in, line)) {
    if (line.rfind("flags", 0) != 0) continue;
    std::istringstream flags(line.substr(line.find(':') + 1));
    std::string f;
    while (flags >> f)
      if (f == "sse4_2" || f == "avx" || f == "avx2" || f == "bmi2" ||
          f == "avx512f" || f == "avx512bw" || f == "avx512vl")
        out += (out.empty() ? "" : " ") + f;
    break;
  }
  return out.empty() ? "none" : out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

/// Fisher-Yates with a fixed generator, so the op order depends only on
/// the seed (not on the standard library's shuffle).
std::vector<size_t> permutation(size_t n, std::mt19937_64& rng) {
  std::vector<size_t> p(n);
  for (size_t i = 0; i < n; ++i) p[i] = i;
  for (size_t i = n; i > 1; --i) std::swap(p[i - 1], p[rng() % i]);
  return p;
}

/// Closed-loop throughput of a balanced pass: kinds / the sum of each
/// kind's median latency (robust to where the run's time ran out).
double balanced_ops_per_s(const std::vector<std::vector<double>>& lat) {
  double pass = 0.0;
  size_t kinds = 0;
  for (const auto& l : lat)
    if (!l.empty()) {
      pass += median(l);
      ++kinds;
    }
  return pass > 0.0 ? static_cast<double>(kinds) / pass : 0.0;
}

struct Tally {
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> failures;  // first few, for the report
};

/// Run one op, timing it and recording a failure instead of aborting.
/// Afterwards (untimed) freed memory goes back to the system, so the
/// peak-RSS figure is one op's high-water mark rather than how the heap
/// happened to fragment over the run.
double run_op(Workload& wl, size_t kind, const Golden& golden, Tally& tally,
              OpResult& result) {
  const double t0 = now_s();
  try {
    obs::Span span("bench", "op");
    result = wl.run(kind, golden);
  } catch (const std::exception& e) {
    result = OpResult{};
    result.failure = std::string("exception: ") + e.what();
  }
  const double dt = now_s() - t0;
  ++tally.attempted;
  if (!result.failure.empty()) {
    ++tally.failed;
    if (tally.failures.size() < 5)
      tally.failures.push_back(wl.label(kind) + ": " + result.failure);
  }
  malloc_trim(0);
  return dt;
}

int capture_golden(const std::string& path) {
  Golden g;
  for (const std::string& name : workload_names()) {
    std::fprintf(stderr, "capturing %s...\n", name.c_str());
    make_workload(name)->capture(g);
  }
  if (!g.save(path)) {
    std::fprintf(stderr, "fsopt_perfbench: cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(stderr, "golden values written to %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const int width = pool_width();
  const std::string knobs = pin_knobs(width);
  fsopt::set_experiment_threads(width);
  obs::set_thread_name("main");
  if (!args.capture.empty()) return capture_golden(args.capture);

  Golden golden;
  std::vector<double> setup_times;
  std::unique_ptr<Workload> wl;
  try {
    golden = Golden::load(args.golden);
    if (args.corrupt) golden.corrupt_first(args.workload);
    // Set-up is repeated so setup_s is a median, not one cold sample; in
    // the traced run it only prepares the loop.
    for (int r = 0; r < (args.trace ? 1 : kSetupReps); ++r) {
      const double t0 = now_s();
      wl = make_workload(args.workload);
      wl->setup();
      setup_times.push_back(now_s() - t0);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fsopt_perfbench: set-up failed: %s\n", e.what());
    return 1;
  }

  std::printf(
      "{\"meta\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %u, \"pool_width\": %d, \"cpu\": \"%s\", "
      "\"cpu_features\": \"%s\", \"compiler\": \"%s\", \"build_type\": "
      "\"%s\", \"commit\": \"%s\", \"src_digest\": \"%s\", \"env\": "
      "\"%s\", \"setup_reps\": %zu, \"kinds\": %zu}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace, std::thread::hardware_concurrency(), width,
      json_escape(cpu_model()).c_str(), cpu_features().c_str(),
      json_escape(__VERSION__).c_str(), PERFBENCH_BUILD_TYPE,
      json_escape(args.commit).c_str(), json_escape(args.src_digest).c_str(),
      json_escape(knobs).c_str(), setup_times.size(), wl->kinds());
  std::fflush(stdout);

  const size_t kinds = wl->kinds();
  std::mt19937_64 rng(args.seed);
  Tally tally;
  std::vector<std::vector<double>> lat_off(kinds), lat_on(kinds);
  std::vector<u64> fs_by_kind(kinds, 0);
  LayerAccount layers(width);

  // Traced execution of one op: fresh span/metric buffers, tracing on
  // for exactly the op, then account its spans by layer.
  auto traced = [&](size_t k) {
    obs::reset();
    obs::metrics_reset();
    const size_t workers_before = count_pool_workers(obs::collect());
    obs::set_metrics_enabled(true);
    obs::set_enabled(true);
    const u64 t0 = obs::now_ns();
    OpResult r;
    const double dt = run_op(*wl, k, golden, tally, r);
    lat_on[k].push_back(dt);
    const u64 t1 = t0 + static_cast<u64>(dt * 1e9);
    obs::set_enabled(false);
    obs::set_metrics_enabled(false);
    const obs::TraceData trace = obs::collect();
    layers.add_op(trace, obs::metrics_snapshot(), t0, t1, r,
                  wl->reference_work(k, golden), workers_before);
    obs::reset();
  };

  auto untraced = [&](size_t k) {
    OpResult r;
    lat_off[k].push_back(run_op(*wl, k, golden, tally, r));
    return r;
  };

  const double start = now_s();
  auto time_left = [&] { return now_s() - start < args.seconds; };
  size_t done = 0;
  for (size_t pass = 0; pass == 0 || time_left(); ++pass) {
    for (size_t k : permutation(kinds, rng)) {
      if (pass > 0 && !time_left()) break;
      if (!args.trace) {
        fs_by_kind[k] = untraced(k).plan_fs_misses;
      } else if (done % 2 == 0) {
        // Untraced and traced executions alternate which goes first.
        untraced(k);
        traced(k);
      } else {
        traced(k);
        untraced(k);
      }
      ++done;
    }
  }
  const double elapsed = now_s() - start;

  std::string metrics;
  char buf[256];
  auto add_metric = [&](const std::string& name, double value,
                        const std::string& unit) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name.c_str(), value,
                  unit.c_str());
    metrics += buf;
  };

  const double ops_off = balanced_ops_per_s(lat_off);
  if (args.trace) {
    const double ops_on = balanced_ops_per_s(lat_on);
    const double overhead = ops_on > 0.0 ? ops_off / ops_on - 1.0 : 0.0;
    std::fputs(layers.render(args.workload).c_str(), stdout);
    std::printf("tracing overhead: %.4f = %.4f ops/s untraced / %.4f ops/s "
                "traced - 1\n",
                overhead, ops_off, ops_on);
    for (const LayerMetric& m : layers.metrics(overhead))
      add_metric(m.name, m.value, m.unit);
  } else {
    u64 plan_fs = 0;
    for (u64 v : fs_by_kind) plan_fs += v;
    try {
      plan_fs += wl->post_run();
    } catch (const std::exception& e) {
      ++tally.attempted;
      ++tally.failed;
      tally.failures.push_back(std::string("post-run: ") + e.what());
    }
    std::vector<double> kind_p50;
    for (const auto& l : lat_off)
      if (!l.empty()) kind_p50.push_back(median(l));
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    add_metric("setup_s", median(setup_times), "s");
    add_metric("ops_per_s", ops_off, "1/s");
    add_metric("op_p50_ms", median(kind_p50) * 1e3, "ms");
    add_metric("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0,
               "MB");
    add_metric("plan_fs_misses", static_cast<double>(plan_fs), "count");
    std::printf("%s: %llu ops in %.2f s (%zu passes started), %.4f ops/s "
                "balanced, error rate %.4f\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(tally.attempted), elapsed,
                (done + kinds - 1) / kinds, ops_off,
                tally.attempted ? static_cast<double>(tally.failed) /
                                      static_cast<double>(tally.attempted)
                                : 0.0);
  }
  for (size_t k = 0; k < kinds; ++k)
    std::printf("  %-16s %3zu untraced samples, median %9.2f ms\n",
                wl->label(k).c_str(), lat_off[k].size(),
                median(lat_off[k]) * 1e3);
  for (const std::string& f : tally.failures)
    std::printf("FAILED %s\n", f.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              tally.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed), metrics.c_str());
  return 0;
}
