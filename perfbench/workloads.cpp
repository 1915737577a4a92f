// The three benchmark workloads and their per-op output checks.
//
// Every call goes through the public driver / analysis / sim entry
// points the repository keeps (compile_source, record_encoded_trace,
// replay_trace_study, search_plan, diagnose, speedup_sweep, ...), each
// wrapped in a "bench" span so the traced run can split the op's wall
// time by layer (layers.cpp).
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "analysis/diagnose.h"
#include "bench.h"
#include "driver/experiment.h"
#include "obs/obs.h"
#include "workloads/workloads.h"

namespace perfbench {

using namespace fsopt;

// ---------------------------------------------------------------------------
// Golden values
// ---------------------------------------------------------------------------

Golden Golden::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read golden file " + path);
  Golden g;
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    size_t t1 = line.find('\t');
    size_t t2 = t1 == std::string::npos ? t1 : line.find('\t', t1 + 1);
    if (t2 == std::string::npos)
      throw std::runtime_error(path + ":" + std::to_string(lineno) +
                               ": expected workload<TAB>key<TAB>value");
    const std::string num = line.substr(t2 + 1);
    char* end = nullptr;
    const long long v = std::strtoll(num.c_str(), &end, 10);
    if (num.empty() || *end != '\0')
      throw std::runtime_error(path + ":" + std::to_string(lineno) +
                               ": value is not an integer");
    g.values_[line.substr(0, t1)][line.substr(t1 + 1, t2 - t1 - 1)] = v;
  }
  return g;
}

const i64* Golden::find(const std::string& workload,
                        const std::string& key) const {
  auto w = values_.find(workload);
  if (w == values_.end()) return nullptr;
  auto k = w->second.find(key);
  return k == w->second.end() ? nullptr : &k->second;
}

void Golden::set(const std::string& workload, const std::string& key,
                 i64 value) {
  values_[workload][key] = value;
}

void Golden::corrupt_first(const std::string& workload) {
  auto w = values_.find(workload);
  if (w == values_.end() || w->second.empty())
    throw std::runtime_error("no golden values for " + workload);
  --w->second.begin()->second;
}

bool Golden::save(const std::string& path) const {
  std::ofstream out(path);
  out << "# fsopt perfbench golden values: workload<TAB>key<TAB>integer.\n"
         "# Regenerate with: fsopt_perfbench --capture-golden PATH\n";
  for (const auto& [w, keys] : values_)
    for (const auto& [k, v] : keys) out << w << '\t' << k << '\t' << v << '\n';
  return static_cast<bool>(out);
}

int pool_width() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(std::min(4u, hw));
}

namespace {

/// Compare one observed value with its golden value; appends a
/// description of the mismatch to `failure`.
void expect_eq(const Golden& golden, const char* workload,
               const std::string& key, i64 got, std::string& failure) {
  const i64* want = golden.find(workload, key);
  if (want == nullptr) {
    failure += key + ": no golden value; ";
  } else if (*want != got) {
    failure += key + ": got " + std::to_string(got) + ", golden " +
               std::to_string(*want) + "; ";
  }
}

/// 63-bit FNV-1a over every counter of a MissStats (kept below 2^63 so
/// it round-trips through the golden file's signed integers).
struct Fnv {
  u64 h = 1469598103934665603ull;
  void add(u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void add(const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
    add(s.size());
  }
  void add(const MissStats& s) {
    for (u64 v : {s.refs, s.hits, s.cold, s.replacement, s.true_sharing,
                  s.false_sharing, s.upgrades, s.invalidations})
      add(v);
  }
  i64 value() const { return static_cast<i64>(h >> 1); }
};

CompileOptions sim_options(const workloads::Workload& w, bool optimize) {
  CompileOptions o;
  o.overrides = w.sim_overrides;
  o.overrides["NPROCS"] = w.fig3_procs;
  o.optimize = optimize;
  o.block_size = 128;
  return o;
}

CompileOptions timing_options(const workloads::Workload& w, bool optimize) {
  CompileOptions o;
  o.overrides = w.time_overrides;
  o.overrides["NPROCS"] = 1;
  o.optimize = optimize;
  return o;
}

// ---------------------------------------------------------------------------
// plan_search: search_plan + diagnose per program (fsoptc --workload W
// --planner search --diagnose=json).
// ---------------------------------------------------------------------------

class PlanSearch : public Workload {
 public:
  const char* name() const override { return "plan_search"; }

  void setup() override {
    programs_.clear();
    for (const workloads::Workload& w : workloads::all()) {
      // Pre-flight: every input must compile before timing starts.
      compile_source(w.natural, sim_options(w, true));
      programs_.push_back(&w);
    }
  }

  size_t kinds() const override { return programs_.size(); }
  std::string label(size_t k) const override { return programs_[k]->name; }

  OpResult run(size_t k, const Golden& golden) override {
    const workloads::Workload& w = *programs_[k];
    SearchPlanResult r;
    {
      obs::Span span("bench", "search_plan");
      r = search(w);
    }
    DiagnosisReport diag;
    {
      obs::Span span("bench", "diagnose");
      DiagnoseOptions d;
      d.block_size = 128;
      diag = diagnose(r.final_compiled, w.name, d);
    }

    OpResult out;
    out.frontier_size = r.search.frontier.size();
    if (r.search.frontier.empty()) out.failure += "empty Pareto frontier; ";
    const RepairResult& seed = r.seed;
    const std::map<i64, MissStats>& seed_sweep =
        seed.iterations.empty() ? seed.baseline_sweep
                                : seed.iterations.back().sweep;
    for (i64 b : kSweep) {
      auto fs_it = r.final_fs().find(b);
      if (fs_it == r.final_fs().end()) {
        out.failure += "no score at block " + std::to_string(b) + "; ";
        continue;
      }
      const u64 fs = fs_it->second;
      out.plan_fs_misses += fs;
      const std::string key = w.name + "/fs@" + std::to_string(b);
      const i64* want = golden.find(name(), key);
      if (want == nullptr)
        out.failure += key + ": no golden value; ";
      else if (static_cast<i64>(fs) > *want)
        out.failure += key + ": " + std::to_string(fs) + " > seed " +
                       std::to_string(*want) + "; ";
      auto s = seed_sweep.find(b);
      if (s != seed_sweep.end() && fs > s->second.false_sharing)
        out.failure += key + ": worse than the graph seed plan; ";
    }
    // The diagnosis replays the winning compile at the plan's block size
    // and L1: its total must equal the search's own score there.
    auto fs128 = r.final_fs().find(128);
    if (diag.datums.empty() || fs128 == r.final_fs().end() ||
        diag.totals.false_sharing != fs128->second)
      out.failure += "diagnosis disagrees with the search score; ";
    return out;
  }

  void capture(Golden& golden) override {
    setup();
    for (const workloads::Workload* w : programs_) {
      const SearchPlanResult r = search(*w);
      for (i64 b : kSweep)
        golden.set(name(), w->name + "/fs@" + std::to_string(b),
                   static_cast<i64>(r.final_fs().at(b)));
    }
  }

 private:
  /// fsoptc --planner search at block 128 with the default budget.
  static SearchPlanResult search(const workloads::Workload& w) {
    SearchPlanOptions so;
    so.seed.block_size = 128;
    so.seed.sweep_blocks = kSweep;
    return search_plan(w.natural, sim_options(w, true), so);
  }

  inline static const std::vector<i64> kSweep = {32, 64, 128, 256};
  std::vector<const workloads::Workload*> programs_;
};

// ---------------------------------------------------------------------------
// cache_sweep: one variant (N, C or P) per op — compile, record once,
// replay the paper's block sizes at six L1 sizes with attribution.
// ---------------------------------------------------------------------------

class CacheSweep : public Workload {
 public:
  const char* name() const override { return "cache_sweep"; }

  void setup() override {
    jobs_ = workload_matrix_jobs(128);
    for (const CompileJob& j : jobs_) compile_source(j.source, j.options);
  }

  size_t kinds() const override { return jobs_.size(); }
  std::string label(size_t k) const override { return jobs_[k].label; }

  OpResult run(size_t k, const Golden& golden) override {
    OpResult out;
    study(k, [&](const std::string& key, i64 fp, const MissStats& s) {
      expect_eq(golden, name(), key, fp, out.failure);
      if (is_compiler_variant(k)) out.plan_fs_misses += s.false_sharing;
    });
    return out;
  }

  void capture(Golden& golden) override {
    setup();
    for (size_t k = 0; k < kinds(); ++k)
      study(k, [&](const std::string& key, i64 fp, const MissStats&) {
        golden.set(name(), key, fp);
      });
  }

 private:
  bool is_compiler_variant(size_t k) const {
    const std::string& l = jobs_[k].label;
    return l.size() >= 2 && l.compare(l.size() - 2, 2, "/C") == 0;
  }

  /// Run op `k` and hand every (L1, block) result to `sink` as
  /// (golden key, fingerprint of totals + per-datum stats, totals).
  template <typename Sink>
  void study(size_t k, Sink&& sink) {
    const CompileJob& job = jobs_[k];
    Compiled c;
    {
      obs::Span span("bench", "compile_source");
      c = compile_source(job.source, job.options);
    }
    EncodedTrace trace;
    {
      obs::Span span("bench", "record_encoded_trace");
      trace = record_encoded_trace(c);
    }
    const AddressMap am = build_address_map(c);
    const std::vector<i64> blocks = paper_block_sizes();
    for (i64 l1_kb : {8, 16, 32, 64, 128, 256}) {
      TraceStudyResult r;
      {
        obs::Span span("bench", "replay_trace_study");
        r = replay_trace_study(trace, c, blocks, l1_kb * 1024, &am);
      }
      for (i64 b : blocks) {
        Fnv fp;
        const MissStats& s = r.at(b);
        fp.add(s);
        for (const auto& [datum, ds] : r.by_datum[b]) {
          fp.add(datum);
          fp.add(ds);
        }
        sink(job.label + "/l1=" + std::to_string(l1_kb) + "K/b=" +
                 std::to_string(b),
             fp.value(), s);
      }
    }
  }

  std::vector<CompileJob> jobs_;
};

// ---------------------------------------------------------------------------
// ksr_speedup: one speedup_sweep (KSR2 timing model) per op, for the N
// and C versions of the six Figure-3 programs.
// ---------------------------------------------------------------------------

class KsrSpeedup : public Workload {
 public:
  const char* name() const override { return "ksr_speedup"; }

  void setup() override {
    ops_.clear();
    for (const char* p : {"maxflow", "pverify", "topopt", "fmm", "radiosity",
                          "raytrace"}) {
      const workloads::Workload& w = workloads::get(p);
      const i64 base = baseline_cycles(w.unopt, timing_options(w, false));
      ops_.push_back({&w, false, base});
      ops_.push_back({&w, true, base});
    }
  }

  size_t kinds() const override { return ops_.size(); }
  std::string label(size_t k) const override {
    return ops_[k].w->name + (ops_[k].optimize ? "/C" : "/N");
  }

  OpResult run(size_t k, const Golden& golden) override {
    const Op& op = ops_[k];
    SpeedupCurve curve;
    {
      obs::Span span("bench", "speedup_sweep");
      curve = speedup_sweep(source(op), kProcs,
                            timing_options(*op.w, op.optimize), op.baseline);
    }
    OpResult out;
    expect_eq(golden, name(), op.w->name + "/baseline", op.baseline,
              out.failure);
    if (curve.speedup.size() != kProcs.size()) {
      out.failure += "sweep returned the wrong number of points; ";
      return out;
    }
    for (size_t i = 0; i < kProcs.size(); ++i) {
      // speedup = baseline / cycles, exact to well under half a cycle.
      const double s = curve.speedup[i];
      const i64 cycles =
          s > 0.0 ? std::llround(static_cast<double>(op.baseline) / s) : -1;
      expect_eq(golden, name(), point_key(k, "cycles", kProcs[i]), cycles,
                out.failure);
    }
    return out;
  }

  /// False-sharing misses the compiler's plans incur on the simulated
  /// KSR2 at each program's Figure-3 processor count.
  u64 post_run() override {
    u64 fs = 0;
    for (const Op& op : ops_)
      if (op.optimize)
        fs += compile_and_time(op.w->natural, op.w->fig3_procs,
                               timing_options(*op.w, true))
                  .ksr.classified.false_sharing;
    return fs;
  }

  std::pair<u64, u64> reference_work(size_t k,
                                     const Golden& golden) const override {
    u64 instr = 0, cycles = 0;
    for (i64 p : kProcs) {
      if (const i64* v = golden.find(name(), point_key(k, "instr", p)))
        instr += static_cast<u64>(*v);
      if (const i64* v = golden.find(name(), point_key(k, "cycles", p)))
        cycles += static_cast<u64>(*v);
    }
    return {instr, cycles};
  }

  void capture(Golden& golden) override {
    setup();
    for (size_t k = 0; k < kinds(); ++k) {
      const Op& op = ops_[k];
      golden.set(name(), op.w->name + "/baseline", op.baseline);
      for (i64 p : kProcs) {
        TimingResult t = compile_and_time(source(op), p,
                                          timing_options(*op.w, op.optimize));
        golden.set(name(), point_key(k, "cycles", p), t.cycles);
        golden.set(name(), point_key(k, "instr", p),
                   static_cast<i64>(t.instructions));
      }
    }
  }

 private:
  struct Op {
    const workloads::Workload* w;
    bool optimize;
    i64 baseline;
  };

  static std::string_view source(const Op& op) {
    return op.optimize ? std::string_view(op.w->natural)
                       : std::string_view(op.w->unopt);
  }
  std::string point_key(size_t k, const char* what, i64 procs) const {
    return label(k) + "/" + what + "@" + std::to_string(procs);
  }

  inline static const std::vector<i64> kProcs = {1,  2,  4,  8, 12,
                                                 16, 24, 32, 48};
  std::vector<Op> ops_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"plan_search", "cache_sweep",
                                                 "ksr_speedup"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "plan_search") return std::make_unique<PlanSearch>();
  if (name == "cache_sweep") return std::make_unique<CacheSweep>();
  if (name == "ksr_speedup") return std::make_unique<KsrSpeedup>();
  return nullptr;
}

}  // namespace perfbench
