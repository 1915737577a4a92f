// Shared helpers for the paper-reproduction benchmark binaries.
//
// Each bench binary regenerates one table or figure of the paper
// (Jeremiassen & Eggers, PPoPP'95) on the fsopt substrate and prints the
// paper's reported numbers next to ours where applicable.  Absolute
// magnitudes differ (our substrate is a condensed kernel suite on a
// simulated KSR2, not the authors' testbed); the comparisons of interest
// are the *shapes*: who wins, by roughly what factor, where curves
// reverse.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "driver/experiment.h"
#include "obs/obs.h"
#include "support/json.h"
#include "support/stats.h"
#include "workloads/workloads.h"

namespace fsopt::benchx {

/// Flags shared by every bench binary:
///   --threads N       worker threads for replays/sweeps (default: the
///                     FSOPT_THREADS env var, else hardware concurrency)
///   --json PATH       also write machine-readable results to PATH
///   --trace-out PATH  write a Chrome trace of the run to PATH at exit
///                     (same as FSOPT_TRACE=PATH)
///   --trace-summary   print the runtime-trace aggregation at exit
struct BenchOptions {
  int threads = 0;
  std::string json_path;
};

/// Parse (and remove) the shared flags from argv.  With
/// `allow_unknown` the remaining flags are left in place for a second
/// parser (google-benchmark); otherwise an unknown flag is a usage error.
/// Applies --threads to the process-wide experiment knob.
inline BenchOptions parse_bench_args(int& argc, char** argv,
                                     bool allow_unknown = false) {
  BenchOptions o;
  int out = 1;
  auto usage = [&](const char* msg) {
    if (msg != nullptr) std::fprintf(stderr, "%s: %s\n", argv[0], msg);
    std::fprintf(stderr,
                 "usage: %s [--threads N] [--json PATH] "
                 "[--trace-out PATH] [--trace-summary]\n",
                 argv[0]);
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value after %s\n", argv[0],
                     a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--threads") {
      std::optional<int> n = parse_count(next());
      if (!n) usage("--threads expects a non-negative integer");
      o.threads = *n;
    } else if (a == "--json") {
      o.json_path = next();
    } else if (a == "--trace-out") {
      obs::set_trace_path(next());
    } else if (a == "--trace-summary") {
      obs::set_summary(true);
    } else if (!allow_unknown) {
      usage(nullptr);
    } else {
      argv[out++] = argv[i];
    }
  }
  if (allow_unknown) argc = out;
  set_experiment_threads(o.threads);
  if (obs::enabled()) obs::set_thread_name("main");
  return o;
}

/// Collects per-workload metric values and writes them as JSON:
///   {"meta": {...}, "results": [{"workload": ..., "metric": ...,
///    "value": ...}, ...]}
/// `meta` describes the run (host facts, notes) — run description used to
/// be smuggled in as fake "workload": "host" result rows, which every
/// consumer had to filter back out; it is a top-level object now (always
/// present, possibly empty).  tools/fsopt_diff reads both shapes.
class JsonReport {
 public:
  void add(const std::string& workload, const std::string& metric,
           double value) {
    rows_.push_back({workload, metric, value, "", false});
  }

  /// String-valued metric (feature strings and the like).
  void add(const std::string& workload, const std::string& metric,
           const std::string& text) {
    rows_.push_back({workload, metric, 0, text, true});
  }

  /// Run-level facts (host description, cpu count, notes) — emitted into
  /// the top-level "meta" object, not the results array.
  void meta(const std::string& key, const std::string& text) {
    meta_.push_back({key, 0, text, true});
  }
  void meta(const std::string& key, double value) {
    meta_.push_back({key, value, "", false});
  }

  /// Write to `path`; no-op when path is empty.  Exits with an error
  /// message if the file cannot be written.
  void write(const std::string& path) const {
    if (path.empty()) return;
    std::string doc;
    json::Writer w(&doc, 2);
    w.begin_object();
    w.key("meta").begin_object();
    for (const Meta& m : meta_) {
      w.key(m.key);
      if (m.is_text)
        w.value(m.text);
      else
        w.value(m.value);
    }
    w.end_object();
    w.key("results").begin_array();
    for (const Row& r : rows_) {
      w.begin_object().key("workload").value(r.workload).key("metric").value(
          r.metric);
      if (r.is_text)
        w.key("value").value(r.text);
      else
        w.key("value").value(r.value);
      w.end_object();
    }
    w.end_array().end_object();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr ||
        std::fwrite(doc.data(), 1, doc.size(), f) != doc.size()) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      std::exit(1);
    }
    std::fclose(f);
    std::printf("(json results written to %s)\n", path.c_str());
  }

 private:
  struct Row {
    std::string workload;
    std::string metric;
    double value;
    std::string text;
    bool is_text;
  };
  struct Meta {
    std::string key;
    double value;
    std::string text;
    bool is_text;
  };
  std::vector<Row> rows_;
  std::vector<Meta> meta_;
};

/// Processor counts used for speedup sweeps (all divide the workload
/// sizes).  The paper's KSR2 had 56 processors; we sweep to 48.
inline std::vector<i64> sweep_procs() { return {1, 2, 4, 8, 12, 16, 24, 32, 48}; }

/// Compile options for a workload version at a given processor count.
inline CompileOptions options_for(const workloads::Workload& w, i64 nprocs,
                                  bool optimize, bool timing) {
  CompileOptions o;
  o.overrides = timing ? w.time_overrides : w.sim_overrides;
  o.overrides["NPROCS"] = nprocs;
  o.optimize = optimize;
  return o;
}

/// Peak speedup of one source over the sweep, relative to `base_cycles`.
inline std::pair<double, i64> peak_speedup(const std::string& source,
                                           const CompileOptions& base,
                                           i64 base_cycles) {
  SpeedupCurve c = speedup_sweep(source, sweep_procs(), base, base_cycles);
  return c.peak();
}

/// Paper-reported values for side-by-side printing.
struct PaperSpeedups {
  const char* name;
  const char* original;    // "1.4 (8)" or "-"
  const char* compiler;
  const char* programmer;  // "-" when unavailable
};

inline const std::vector<PaperSpeedups>& paper_table3() {
  static const std::vector<PaperSpeedups> kTable = {
      {"maxflow", "1.4 (8)", "4.3 (16)", "-"},
      {"pverify", "2.5 (16)", "5.9 (16)", "3.5 (8)"},
      {"topopt", "9.2 (44)", "10.3 (28)", "10.2 (28)"},
      {"fmm", "16.4 (20)", "33.6 (48+)", "16.4 (20)"},
      {"radiosity", "7.0 (8)", "19.2 (28)", "7.4 (8)"},
      {"raytrace", "7.0 (8)", "9.6 (12)", "9.2 (12)"},
      {"locusroute", "-", "12.3 (20)", "12.0 (20)"},
      {"mp3d", "-", "2.9 (28)", "1.3 (4)"},
      {"pthor", "-", "2.8 (4)", "2.2 (4)"},
      {"water", "-", "9.9 (40)", "4.6 (12)"},
  };
  return kTable;
}

/// Paper Table 2: total FS reduction and per-transformation fractions.
struct PaperTable2 {
  const char* name;
  const char* total;
  const char* gt;
  const char* indir;
  const char* pad;
  const char* locks;
};

inline const std::vector<PaperTable2>& paper_table2() {
  static const std::vector<PaperTable2> kTable = {
      {"maxflow", "56.5%", "-", "-", "49.2%", "7.3%"},
      {"pverify", "91.2%", "6.4%", "81.6%", "-", "3.1%"},
      {"topopt", "79.9%", "61.3%", "18.6%", "-", "-"},
      {"fmm", "90.8%", "84.8%", "-", "-", "6.0%"},
      {"radiosity", "93.5%", "85.6%", "-", "1.0%", "6.8%"},
      {"raytrace", "78.3%", "70.4%", "-", "3.3%", "4.6%"},
  };
  return kTable;
}

/// The six programs with both N and C versions (Figure 3 / Table 2).
inline std::vector<std::string> fig3_programs() {
  return {"maxflow", "pverify", "topopt", "fmm", "radiosity", "raytrace"};
}

inline std::string speedup_cell(double s, i64 at) {
  return fixed(s, 1) + " (" + std::to_string(at) + ")";
}

}  // namespace fsopt::benchx
