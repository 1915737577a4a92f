#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <string_view>

#include "driver/pipeline.h"

namespace perfbench {

using fsopt::obs::MetricsSnapshot;
using fsopt::obs::SpanEvent;
using fsopt::obs::ThreadLog;
using fsopt::obs::TraceData;

const char* layer_name(int layer) {
  static const char* const kNames[kLayers] = {
      "interp.record", "interp.timing", "sim.replay",      "sim.diagnose",
      "trace.decode",  "trace.partition", "transform.search", "compile",
      "pool",          "bench"};
  return kNames[layer];
}

namespace {

/// The layer a span's self time belongs to, or -1 for spans this
/// benchmark does not know (they inherit the enclosing span's layer, so
/// spans added inside a layer later do not move time between layers).
int layer_of(const SpanEvent& s) {
  const std::string_view cat = s.category;
  const std::string_view name = s.name;
  if (cat == "record") return kRecord;
  if (cat == "sweep") return kTiming;
  if (cat == "replay") {
    if (name == "decode_chunk") return kDecode;
    if (name == "partition") return kPartition;
    return kReplay;
  }
  if (cat == "pass" || cat == "compile") return kCompile;
  if (cat == "pool") return kPool;
  if (cat == "bench") {
    if (name == "search_plan") return kSearch;
    if (name == "diagnose") return kDiagnose;
    if (name == "compile_source") return kCompile;
    if (name == "record_encoded_trace") return kRecord;
    if (name == "replay_trace_study") return kReplay;
    if (name == "speedup_sweep") return kTiming;
    return kBench;
  }
  return -1;
}

double arg_of(const SpanEvent& s, std::string_view key) {
  for (const fsopt::obs::Arg& a : s.args)
    if (!a.is_str && a.key == key) return a.num;
  return 0.0;
}

double counter_of(const MetricsSnapshot& m, std::string_view name) {
  for (const fsopt::obs::MetricSample& s : m.samples)
    if (s.name == name && s.labels.empty()) return s.value;
  return 0.0;
}

/// A self-time segment of one span, or a pool-job interval.
struct Event {
  u64 t;
  int layer;  // -1 for job-interval events
  int delta;  // +1 open, -1 close
  bool main;
};

}  // namespace

size_t count_pool_workers(const TraceData& trace) {
  size_t n = 0;
  for (const ThreadLog& th : trace.threads)
    if (th.name.rfind("pool-worker", 0) == 0) ++n;
  return n;
}

void LayerAccount::add_op(const TraceData& trace,
                          const MetricsSnapshot& metrics, u64 t0, u64 t1,
                          const OpResult& result, std::pair<u64, u64> work,
                          size_t pool_workers_before) {
  static const std::string last_pass = fsopt::compile_pass_names().back();
  ++ops_;
  threads_spawned_ += count_pool_workers(trace) - pool_workers_before;
  op_wall_ += static_cast<double>(t1 - t0) * 1e-9;
  calls_[kBench] += 1;
  frontier_ += static_cast<double>(result.frontier_size);
  ref_instr_ += static_cast<double>(work.first);
  ref_cycles_ += static_cast<double>(work.second);

  std::vector<Event> events = {{t0, kBench, 0, true}, {t1, kBench, 0, true}};
  for (const ThreadLog& th : trace.threads) {
    const bool main = th.name == "main";
    struct Span {
      u64 b, e;
      int layer;
    };
    std::vector<Span> spans;
    for (const SpanEvent& s : th.spans) {
      const u64 b = std::max(s.start_ns, t0);
      const u64 e = std::min(s.start_ns + s.dur_ns, t1);
      if (e < b) continue;  // outside the op
      const std::string_view cat = s.category;
      const int layer = layer_of(s);
      if (cat == "record") {
        const double refs = arg_of(s, "refs");
        calls_[kRecord] += 1;
        record_refs_ += refs;
        record_bytes_ += refs * arg_of(s, "bytes_per_ref");
      } else if (cat == "replay" && s.name == "plane") {
        calls_[kReplay] += 1;
        plane_refs_ += arg_of(s, "refs");
      } else if (cat == "pass") {
        if (s.name == last_pass) calls_[kCompile] += 1;
      } else if (cat == "pool") {
        calls_[kPool] += 1;
        pool_job_busy_ += static_cast<double>(e - b) * 1e-9;
        if (!main) {
          events.push_back({b, -1, +1, false});
          events.push_back({e, -1, -1, false});
        }
      } else if (cat == "bench" ? layer == kSearch || layer == kDiagnose
                                : layer == kTiming || layer == kDecode ||
                                      layer == kPartition) {
        calls_[layer] += 1;
      }
      spans.push_back({b, e, layer});
    }
    // Nesting on one thread follows interval containment: sort by start,
    // longer first, and walk with a stack; each span's self time is what
    // its children leave uncovered.
    std::sort(spans.begin(), spans.end(), [](const Span& x, const Span& y) {
      return x.b != y.b ? x.b < y.b : x.e > y.e;
    });
    struct Open {
      u64 e;
      int layer;
      u64 cursor;  // self time emitted up to here
    };
    std::vector<Open> stack;
    auto emit = [&](int layer, u64 b, u64 e) {
      if (e <= b) return;
      events.push_back({b, layer, +1, main});
      events.push_back({e, layer, -1, main});
    };
    auto close_top = [&] {
      Open top = stack.back();
      stack.pop_back();
      emit(top.layer, top.cursor, top.e);
      if (!stack.empty())
        stack.back().cursor = std::max(stack.back().cursor, top.e);
    };
    for (const Span& s : spans) {
      while (!stack.empty() && stack.back().e <= s.b) close_top();
      int layer = s.layer;
      u64 e = s.e;
      if (!stack.empty()) {
        Open& parent = stack.back();
        emit(parent.layer, parent.cursor, s.b);
        parent.cursor = s.b;
        e = std::min(e, parent.e);
        if (layer < 0) layer = parent.layer;
      }
      if (layer < 0) layer = kBench;
      stack.push_back({e, layer, s.b});
    }
    while (!stack.empty()) close_top();
  }

  // Sweep the op's timeline.  While any worker runs a pool job the
  // client is blocked in the pool, so the instant belongs to the
  // workers' innermost spans; otherwise to the client's.
  std::sort(events.begin(), events.end(),
            [](const Event& x, const Event& y) { return x.t < y.t; });
  int main_open[kLayers] = {};
  int worker_open[kLayers] = {};
  int workers = 0;
  int jobs = 0;
  for (size_t i = 0; i < events.size();) {
    const u64 t = events[i].t;
    for (; i < events.size() && events[i].t == t; ++i) {
      const Event& ev = events[i];
      if (ev.layer < 0) {
        jobs += ev.delta;
      } else if (ev.main) {
        main_open[ev.layer] += ev.delta;
      } else {
        worker_open[ev.layer] += ev.delta;
        workers += ev.delta;
      }
    }
    if (i == events.size() || t >= t1) break;
    const double dt =
        static_cast<double>(std::min(events[i].t, t1) - t) * 1e-9;
    const bool waiting = jobs > 0 && workers > 0;
    int main_layer = kBench;
    for (int l = 0; l < kLayers; ++l)
      if (main_open[l] > 0) main_layer = l;
    for (int l = 0; l < kLayers; ++l) {
      if (worker_open[l] <= 0) continue;
      busy_[l] += dt * worker_open[l];
      if (waiting) wall_[l] += dt * worker_open[l] / workers;
    }
    if (!waiting) {
      wall_[main_layer] += dt;
      busy_[main_layer] += dt;
    }
  }

  search_replays_ += counter_of(metrics, "search.replays");
  search_generated_ += counter_of(metrics, "search.candidates");
  search_pruned_ += counter_of(metrics, "search.pruned");
  repair_iterations_ += counter_of(metrics, "repair.iterations");
  repair_rollbacks_ += counter_of(metrics, "repair.rollbacks");
  pool_jobs_ += counter_of(metrics, "pool.jobs");
}

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

std::vector<LayerMetric> LayerAccount::metrics(double overhead_frac) const {
  const double n = static_cast<double>(std::max<size_t>(ops_, 1));
  auto per_op = [&](double v) { return v / n; };
  return {
      {"interp.record.calls", "count/op", per_op(calls_[kRecord])},
      {"interp.record.s", "s/op", per_op(wall_[kRecord])},
      {"interp.record.mrefs_per_s", "Mref/s",
       ratio(record_refs_, busy_[kRecord]) * 1e-6},
      {"interp.timing.s", "s/op", per_op(wall_[kTiming])},
      {"interp.timing.minstr_per_s", "Minstr/s",
       ratio(ref_instr_, busy_[kTiming]) * 1e-6},
      {"sim.ksr.sim_cycles_per_s", "cycles/s",
       ratio(ref_cycles_, busy_[kTiming])},
      {"sim.replay.s", "s/op", per_op(wall_[kReplay])},
      {"sim.replay.plane_mrefs_per_s", "Mref/s",
       ratio(plane_refs_, busy_[kReplay]) * 1e-6},
      {"sim.diagnose.s", "s/op", per_op(wall_[kDiagnose])},
      {"trace.decode.s", "s/op", per_op(wall_[kDecode])},
      {"trace.partition.s", "s/op", per_op(wall_[kPartition])},
      {"trace.bytes_per_ref", "B/ref", ratio(record_bytes_, record_refs_)},
      {"search.replays", "count/op", per_op(search_replays_)},
      {"search.generated", "count/op", per_op(search_generated_)},
      {"search.pruned", "count/op", per_op(search_pruned_)},
      {"search.frontier_per_replay", "frac", ratio(frontier_, search_replays_)},
      {"search.self.s", "s/op", per_op(wall_[kSearch])},
      {"repair.iterations", "count/op", per_op(repair_iterations_)},
      {"repair.rollbacks", "count/op", per_op(repair_rollbacks_)},
      {"compile.calls", "count/op", per_op(calls_[kCompile])},
      {"compile.s", "s/op", per_op(wall_[kCompile])},
      {"pool.jobs", "count/op", per_op(pool_jobs_)},
      {"pool.threads_spawned", "count/op",
       per_op(static_cast<double>(threads_spawned_))},
      {"pool.utilization", "frac",
       ratio(pool_job_busy_, width_ * op_wall_)},
      {"pool.s", "s/op", per_op(wall_[kPool])},
      {"bench.s", "s/op", per_op(wall_[kBench])},
      {"op.s", "s/op", per_op(op_wall_)},
      {"obs.overhead_frac", "frac", overhead_frac},
  };
}

std::string LayerAccount::render(const std::string& workload) const {
  const double n = static_cast<double>(std::max<size_t>(ops_, 1));
  static const char* const kCallUnit[kLayers] = {
      "recordings", "sweep points", "planes",  "diagnoses", "chunks",
      "partitions", "searches",     "compiles", "pool jobs", "ops"};
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "traced run: %s, %zu traced ops, %.4f s/op wall\n"
                "%-18s %11s %7s %11s %10s  %s\n",
                workload.c_str(), ops_, op_wall_ / n, "layer", "wall s/op",
                "share", "busy s/op", "calls/op", "calls are");
  out += line;
  for (int l = 0; l < kLayers; ++l) {
    std::snprintf(line, sizeof(line),
                  "%-18s %11.5f %6.1f%% %11.5f %10.2f  %s\n", layer_name(l),
                  wall_[l] / n,
                  100.0 * ratio(wall_[l], op_wall_), busy_[l] / n,
                  calls_[l] / n, kCallUnit[l]);
    out += line;
  }
  std::snprintf(
      line, sizeof(line),
      "ratios (per op, with base):\n"
      "  record  %.3f Mref/s = %.0f refs / %.5f s busy\n"
      "  replay  %.3f Mref/s = %.0f plane refs / %.5f s busy\n",
      ratio(record_refs_, busy_[kRecord]) * 1e-6, record_refs_ / n,
      busy_[kRecord] / n, ratio(plane_refs_, busy_[kReplay]) * 1e-6,
      plane_refs_ / n, busy_[kReplay] / n);
  out += line;
  std::snprintf(
      line, sizeof(line),
      "  timing  %.3f Minstr/s = %.0f instr / %.5f s busy; "
      "%.4g cycles/s = %.0f cycles / same\n",
      ratio(ref_instr_, busy_[kTiming]) * 1e-6, ref_instr_ / n,
      busy_[kTiming] / n, ratio(ref_cycles_, busy_[kTiming]),
      ref_cycles_ / n);
  out += line;
  std::snprintf(line, sizeof(line),
                "  search  %.3f frontier/replay = %.1f frontier / %.1f "
                "replays; %.1f generated, %.1f pruned\n",
                ratio(frontier_, search_replays_), frontier_ / n,
                search_replays_ / n, search_generated_ / n,
                search_pruned_ / n);
  out += line;
  std::snprintf(line, sizeof(line),
                "  pool    %.3f utilization = %.5f s job busy / (%d x "
                "%.5f s wall); %.1f jobs, %.1f threads spawned\n",
                ratio(pool_job_busy_, width_ * op_wall_), pool_job_busy_ / n,
                width_, op_wall_ / n, pool_jobs_ / n,
                static_cast<double>(threads_spawned_) / n);
  out += line;
  return out;
}

}  // namespace perfbench
