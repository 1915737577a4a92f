#include "driver/experiment.h"

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "workloads/workloads.h"

namespace fsopt {

std::vector<i64> paper_block_sizes() { return {4, 8, 16, 32, 64, 128, 256}; }
std::vector<i64> table2_block_sizes() { return {8, 16, 32, 64, 128, 256}; }

namespace {

/// Largest address contribution of one dimension over [0, extent).
i64 max_dim_contribution(const DimMap& d, i64 extent) {
  if (extent <= 0) return 0;
  i64 x1 = extent - 1;
  i64 best = d.apply(x1);
  if (d.split > 1) {
    i64 x2 = (x1 / d.split) * d.split - 1;  // end of last full chunk
    if (x2 >= 0) best = std::max(best, d.apply(x2));
  }
  return std::max<i64>(best, 0);
}

void add_resolved_range(AddressMap& map, const ResolvedAccess& ra,
                        const std::vector<i64>& extents, i64 elem_bytes,
                        const std::string& name) {
  i64 hi = ra.base + ra.const_off + elem_bytes;
  for (size_t i = 0; i < ra.dims.size() && i < extents.size(); ++i)
    hi += max_dim_contribution(ra.dims[i], extents[i]);
  map.add(ra.base, hi, name);
}

}  // namespace

AddressMap build_address_map(const Compiled& c) {
  AddressMap map;
  for (const auto& g : c.prog->globals) {
    ResolvedAccess ra = c.layout.resolve(*g, -1);
    std::vector<i64> ext(g->dims.begin(), g->dims.end());
    const DatumLayout* dl = c.layout.get(g->id, -1);
    i64 elem = dl != nullptr && dl->elem_size_override > 0
                   ? dl->elem_size_override
                   : g->elem.byte_size();
    add_resolved_range(map, ra, ext, elem, g->name);
    // Indirection heaps of struct fields live in their own ranges.
    if (g->elem.is_struct) {
      const StructType& st = *g->elem.strct;
      for (size_t fi = 0; fi < st.fields.size(); ++fi) {
        const DatumLayout* fl = c.layout.get(g->id, static_cast<int>(fi));
        if (fl == nullptr) continue;
        ResolvedAccess fra = c.layout.resolve(*g, static_cast<int>(fi));
        std::vector<i64> fext = ext;
        if (st.fields[fi].array_len > 0)
          fext.push_back(st.fields[fi].array_len);
        add_resolved_range(map, fra, fext,
                           scalar_size(st.fields[fi].kind),
                           g->name + "." + st.fields[fi].name);
      }
    }
  }
  map.add(c.code.barrier_base, c.code.total_bytes, "<barrier>");
  return map;
}

const MissStats& TraceStudyResult::at(i64 block) const {
  auto it = by_block.find(block);
  if (it == by_block.end()) {
    std::string have;
    for (const auto& [b, stats] : by_block) {
      if (!have.empty()) have += ", ";
      have += std::to_string(b);
    }
    throw InternalError("block size " + std::to_string(block) +
                        " was not simulated in this trace study (simulated"
                        " block sizes: " +
                        (have.empty() ? "none" : have) + ")");
  }
  return it->second;
}

EncodedTrace record_encoded_trace(const Compiled& c) {
  obs::Span span("record", "record_encoded_trace");
  TraceEncoder enc;
  MachineOptions mo;
  mo.sink = &enc;
  Machine machine(c.code, mo);
  machine.run();
  EncodedTrace trace = enc.take();
  if (span.active()) {
    span.arg("refs", static_cast<double>(trace.size()));
    span.arg("nprocs", static_cast<double>(c.nprocs()));
    span.arg("bytes_per_ref", trace.bytes_per_ref());
    double sec = span.elapsed_seconds();
    if (sec > 0.0)
      span.arg("refs_per_sec", static_cast<double>(trace.size()) / sec);
  }
  if (obs::metrics_enabled()) {
    static obs::Gauge& bpr = obs::metric_gauge("trace.codec_bytes_per_ref");
    static obs::Counter& recorded =
        obs::metric_counter("trace.recorded_refs");
    bpr.set(trace.bytes_per_ref());
    recorded.inc(trace.size());
  }
  return trace;
}

namespace {

/// One cache configuration per swept block size for compile `c`.
std::vector<CacheParams> sweep_params(const Compiled& c,
                                      const std::vector<i64>& block_sizes,
                                      i64 l1_bytes) {
  std::vector<CacheParams> params;
  params.reserve(block_sizes.size());
  for (i64 b : block_sizes)
    params.push_back({c.nprocs(), l1_bytes, b, c.code.total_bytes});
  return params;
}

}  // namespace

TraceStudyResult replay_trace_study(const EncodedTrace& trace,
                                    const Compiled& c,
                                    const std::vector<i64>& block_sizes,
                                    i64 l1_bytes,
                                    const AddressMap* attribution,
                                    int threads, bool collect_conflicts) {
  TraceStudyResult out;
  out.refs = trace.size();
  if (block_sizes.empty()) return out;
  std::vector<ConflictGraph> graphs;
  MultiReplayResult multi =
      replay_multi(trace, sweep_params(c, block_sizes, l1_bytes), attribution,
                   threads, collect_conflicts ? &graphs : nullptr);
  for (size_t i = 0; i < block_sizes.size(); ++i) {
    out.by_block[block_sizes[i]] = multi.stats[i];
    if (attribution != nullptr)
      out.by_datum[block_sizes[i]] = std::move(multi.by_datum[i]);
    if (collect_conflicts)
      out.conflicts[block_sizes[i]] = std::move(graphs[i]);
  }
  return out;
}

TraceStudyResult run_trace_study(const Compiled& c,
                                 const std::vector<i64>& block_sizes,
                                 i64 l1_bytes,
                                 const AddressMap* attribution,
                                 int threads, bool collect_conflicts) {
  EncodedTrace trace = record_encoded_trace(c);
  return replay_trace_study(trace, c, block_sizes, l1_bytes, attribution,
                            threads, collect_conflicts);
}

EncodedTrace TraceCache::trace(const Compiled& c) {
  std::lock_guard<std::mutex> lock(mu_);
  if (relocate_) {
    obs::Span span("trace", "relocate");
    for (const Entry& e : entries_) {
      std::shared_ptr<const AddressRelocation> rel =
          relocation_between(e.code, c.code);
      if (rel == nullptr) continue;
      ++relocations_;
      if (span.active()) {
        span.arg("refs", static_cast<double>(e.trace.size()));
        span.arg("words", static_cast<double>(rel->words()));
      }
      static obs::Counter& relocations =
          obs::metric_counter("trace.relocations");
      static obs::Counter& relocated =
          obs::metric_counter("trace.relocated_refs");
      relocations.inc();
      relocated.inc(e.trace.size());
      return e.trace.relocated(std::move(rel));
    }
  }
  ++recordings_;
  EncodedTrace t = record_encoded_trace(c);
  if (relocate_) entries_.push_back({c.code, t});
  return t;
}

u64 TraceCache::recordings() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recordings_;
}

u64 TraceCache::relocations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return relocations_;
}

FalseSharingProfile build_fs_profile(const TraceStudyResult& study,
                                     i64 block_size) {
  auto it = study.by_datum.find(block_size);
  FSOPT_CHECK(it != study.by_datum.end(),
              "trace study carries no per-datum attribution for block size " +
                  std::to_string(block_size));
  return build_fs_profile(it->second, block_size);
}

FalseSharingProfile build_fs_profile(
    const std::map<std::string, MissStats>& by_datum, i64 block_size) {
  FalseSharingProfile profile;
  profile.block_size = block_size;
  for (const auto& [name, stats] : by_datum) {
    if (stats.refs == 0) continue;
    profile.total_fs += stats.false_sharing;
    profile.entries.push_back({name, stats.false_sharing, stats.misses(),
                               0.0});
  }
  if (profile.total_fs > 0)
    for (auto& e : profile.entries)
      e.fs_share = static_cast<double>(e.fs_misses) /
                   static_cast<double>(profile.total_fs);
  std::sort(profile.entries.begin(), profile.entries.end(),
            [](const FalseSharingProfile::Entry& a,
               const FalseSharingProfile::Entry& b) {
              if (a.fs_misses != b.fs_misses)
                return a.fs_misses > b.fs_misses;
              return a.name < b.name;
            });
  return profile;
}

ConflictProfile build_conflict_profile(const TraceStudyResult& study,
                                       i64 block_size, const AddressMap& map) {
  auto it = study.conflicts.find(block_size);
  FSOPT_CHECK(it != study.conflicts.end(),
              "trace study carries no conflict graph for block size " +
                  std::to_string(block_size) +
                  " (run with collect_conflicts)");
  return build_conflict_profile({&it->second}, block_size, map);
}

ConflictProfile build_conflict_profile(
    const std::vector<const ConflictGraph*>& graphs, i64 block_size,
    const AddressMap& map) {
  struct PairKey {
    i64 wo, vo;
    int wp, vp;
    bool operator<(const PairKey& o) const {
      if (wo != o.wo) return wo < o.wo;
      if (vo != o.vo) return vo < o.vo;
      if (wp != o.wp) return wp < o.wp;
      return vp < o.vp;
    }
  };
  std::map<std::string, std::map<PairKey, u64>> acc;
  for (const ConflictGraph* graph : graphs) {
    for (const LineConflicts& lc : graph->lines) {
      for (const ConflictEdge& e : lc.edges) {
        int wi = map.index_of(e.writer_word);
        int vi = map.index_of(e.victim_word);
        if (wi < 0 || wi != vi) continue;  // unmapped or cross-datum
        const AddrRange& r = map.ranges()[static_cast<size_t>(wi)];
        acc[r.name][{e.writer_word - r.lo, e.victim_word - r.lo,
                     e.writer_proc, e.victim_proc}] += e.weight;
      }
    }
  }
  ConflictProfile out;
  out.block_size = block_size;
  for (auto& [name, pairs] : acc) {
    ConflictProfile::Entry en;
    en.name = name;
    for (const auto& [k, w] : pairs) {
      en.pairs.push_back({k.wo, k.vo, k.wp, k.vp, w});
      en.weight += w;
    }
    out.total_weight += en.weight;
    out.entries.push_back(std::move(en));
  }
  std::sort(out.entries.begin(), out.entries.end(),
            [](const ConflictProfile::Entry& a,
               const ConflictProfile::Entry& b) {
              if (a.weight != b.weight) return a.weight > b.weight;
              return a.name < b.name;
            });
  return out;
}

namespace {

/// The repair loop's compile options: optimize on, the repair block size.
CompileOptions repair_compile_options(const CompileOptions& base,
                                      const RepairLoopOptions& opt) {
  CompileOptions copt = base;
  copt.optimize = true;
  copt.block_size = opt.block_size;
  return copt;
}

/// The block sizes candidates are scored across (RepairLoopOptions::
/// sweep_blocks), sorted, with the repair block size always included.
std::vector<i64> swept_blocks(const RepairLoopOptions& opt, bool graph) {
  std::vector<i64> blocks = opt.sweep_blocks;
  if (blocks.empty())
    blocks = graph ? std::vector<i64>{32, 64, 128, 256}
                   : std::vector<i64>{opt.block_size};
  if (std::find(blocks.begin(), blocks.end(), opt.block_size) == blocks.end())
    blocks.push_back(opt.block_size);
  std::sort(blocks.begin(), blocks.end());
  return blocks;
}

/// repair_loop over an already-run front half, taking every trace from
/// `traces` (search_plan shares both with its candidate evaluations).
RepairResult repair_loop_with(const FrontHalf& front,
                              const CompileOptions& base,
                              const RepairLoopOptions& opt) {
  TraceCache own;
  TraceCache& traces = opt.traces != nullptr ? *opt.traces : own;
  FSOPT_CHECK(base.plan == nullptr,
              "repair_loop owns plan injection; base.plan must be unset");
  const bool graph = opt.planner_name == "graph";
  FSOPT_CHECK(graph || opt.planner_name == "profile",
              "repair_loop planner must be 'profile' or 'graph', got '" +
                  opt.planner_name + "'");
  const CompileOptions copt = repair_compile_options(base, opt);
  const std::vector<i64> blocks = swept_blocks(opt, graph);

  // Study one compile across the sweep, its trace from the cache.
  auto study_of = [&](const Compiled& c, const AddressMap& am) {
    return replay_trace_study(traces.trace(c), c, blocks, opt.l1_bytes, &am,
                              opt.threads, graph);
  };

  RepairResult out;
  Compiled current = run_back(front, copt);
  out.static_plan = current.transforms;

  AddressMap am = build_address_map(current);
  TraceStudyResult study = study_of(current, am);
  out.baseline = study.at(opt.block_size);
  out.baseline_by_datum = study.by_datum[opt.block_size];
  for (i64 b : blocks) out.baseline_sweep[b] = study.at(b);
  if (graph) out.conflicts = study.conflicts;

  auto total_fs = [&blocks](const TraceStudyResult& s) {
    u64 t = 0;
    for (i64 b : blocks) t += s.at(b).false_sharing;
    return t;
  };

  static obs::Counter& loops = obs::metric_counter("repair.loops");
  static obs::Counter& iterations = obs::metric_counter("repair.iterations");
  static obs::Counter& rollbacks = obs::metric_counter("repair.rollbacks");
  loops.inc();

  TransformPlan prev = out.static_plan;
  for (int iter = 0; iter < opt.max_iterations; ++iter) {
    iterations.inc();
    FalseSharingProfile profile = build_fs_profile(study, opt.block_size);
    ConflictProfile conflicts;
    PlannerInputs in{current.report, current.summary, copt.decision,
                     opt.block_size, &profile, &prev};
    if (graph) {
      conflicts = build_conflict_profile(study, opt.block_size, am);
      in.conflicts = &conflicts;
    }
    TransformPlan next =
        graph ? graph_plan(in, opt.planner) : profile_plan(in, opt.planner);
    PlanDiff diff = plan_diff(prev, next);
    if (diff.empty()) {
      out.converged = true;
      break;
    }
    CompileOptions iter_opt = copt;
    iter_opt.plan = std::make_shared<TransformPlan>(next);
    Compiled cand = run_back(front, iter_opt);

    // Verify: re-trace under the new layout and re-attribute.
    AddressMap cand_am = build_address_map(cand);
    TraceStudyResult cand_study = study_of(cand, cand_am);

    if (graph) {
      // Multi-size acceptance: the candidate must strictly reduce the
      // summed false-sharing misses across the sweep and may not regress
      // any single swept size.  A candidate that fails is rolled back and
      // the loop stops — the planner's best next step does not help, so
      // iterating further cannot either (decisions only accumulate).
      bool regressed = false;
      for (i64 b : blocks)
        if (cand_study.at(b).false_sharing > study.at(b).false_sharing)
          regressed = true;
      if (regressed || total_fs(cand_study) >= total_fs(study)) {
        rollbacks.inc();
        out.converged = true;
        break;
      }
    }

    current = std::move(cand);
    am = std::move(cand_am);
    study = std::move(cand_study);
    RepairIteration it;
    it.plan = next;
    it.diff = std::move(diff);
    it.stats = study.at(opt.block_size);
    it.by_datum = study.by_datum[opt.block_size];
    for (i64 b : blocks) it.sweep[b] = study.at(b);
    out.iterations.push_back(std::move(it));
    prev = std::move(next);
    if (graph) out.conflicts = study.conflicts;
  }
  out.final_compiled = std::move(current);
  return out;
}

}  // namespace

RepairResult repair_loop(std::string_view source, const CompileOptions& base,
                         const RepairLoopOptions& opt) {
  // One shared parse+sema front serves the baseline and every recompile:
  // the source and overrides never change, only the injected plan does —
  // which also keeps symbol ids stable, so plans stay valid across
  // iterations (and every compile has the same instructions, which is
  // what lets one recording serve them all).
  return repair_loop_with(run_front(source, base.overrides), base, opt);
}

SearchPlanResult search_plan(std::string_view source,
                             const CompileOptions& base,
                             const SearchPlanOptions& opt) {
  FSOPT_CHECK(base.plan == nullptr,
              "search_plan owns plan injection; base.plan must be unset");
  // The seed loop and every candidate share one front and one trace
  // cache: the candidates relocate the seed loop's recordings.
  TraceCache own;
  RepairLoopOptions sopt = opt.seed;
  sopt.planner_name = "graph";
  if (sopt.traces == nullptr) sopt.traces = &own;
  TraceCache& traces = *sopt.traces;

  FrontHalf front = run_front(source, base.overrides);
  SearchPlanResult out;
  out.seed = repair_loop_with(front, base, sopt);

  const CompileOptions copt = repair_compile_options(base, sopt);
  const std::vector<i64> blocks = swept_blocks(sopt, true);

  // Planner inputs come from the seed loop's final compile — no
  // re-trace: the loop already kept its per-datum attribution and
  // conflict graphs.
  const Compiled& cur = out.seed.final_compiled;
  AddressMap am = build_address_map(cur);
  const std::map<std::string, MissStats>& by_datum =
      out.seed.iterations.empty() ? out.seed.baseline_by_datum
                                  : out.seed.iterations.back().by_datum;
  FalseSharingProfile profile = build_fs_profile(by_datum, sopt.block_size);
  // Union the conflict profiles of *every* swept size: residual false
  // sharing that only manifests at a non-target block size (e.g. two
  // 128-padded elements sharing one 256 B unit) must still surface a
  // search domain, or the search would be blind to exactly the misses
  // the greedy planner could not remove.
  std::vector<const ConflictGraph*> swept_graphs;
  for (const auto& [b, g] : out.seed.conflicts) swept_graphs.push_back(&g);
  const ConflictProfile conflicts =
      build_conflict_profile(swept_graphs, sopt.block_size, am);

  // Candidate evaluation, one candidate per worker: each job recompiles
  // against the shared front (the Program is immutable after sema, so
  // back halves run concurrently), takes the trace from the cache (a
  // relocation unless the shape is new) and replays every swept size
  // with its share of the thread budget: one walk when the batch keeps
  // every worker busy, region shards when it is smaller than the budget.
  // Each job writes only its own slot and drops its compile and trace on
  // return: at most `threads` candidates are live, whatever the budget.
  // The replay engine is bit-identical for any thread count, so the
  // whole search is too.
  const int threads = sopt.threads > 0 ? sopt.threads : experiment_threads();
  PlanEvaluator evaluate = [&](const std::vector<TransformPlan>& batch) {
    std::vector<PlanScore> scores(batch.size());
    const int jobs = static_cast<int>(batch.size());
    const int replay_threads = jobs > 0 ? std::max(1, threads / jobs) : 1;
    parallel_for_each(threads, batch.size(), [&](size_t i) {
      CompileOptions cand_opt = copt;
      cand_opt.plan = std::make_shared<TransformPlan>(batch[i]);
      Compiled cand = run_back(front, cand_opt);
      MultiReplayResult multi = replay_multi(
          traces.trace(cand), sweep_params(cand, blocks, sopt.l1_bytes),
          nullptr, replay_threads);
      PlanScore& score = scores[i];
      for (size_t k = 0; k < blocks.size(); ++k) {
        const MissStats& s = multi.stats[k];
        score.fs[blocks[k]] = s.false_sharing;
        score.cold_capacity[blocks[k]] = s.cold + s.replacement;
      }
      score.footprint = cand.layout.total_bytes();
    });
    return scores;
  };

  TransformPlan seed_plan = out.seed.final_plan();
  PlannerInputs in{cur.report,      cur.summary, copt.decision,
                   sopt.block_size, &profile,    &seed_plan};
  in.conflicts = &conflicts;
  SearchPlanner planner(opt.budget, blocks, evaluate);
  out.search = planner.search(in);

  CompileOptions fin = copt;
  fin.plan = std::make_shared<TransformPlan>(out.search.best().plan);
  out.final_compiled = run_back(front, fin);
  return out;
}

std::vector<CompileJob> workload_matrix_jobs(i64 block_size) {
  std::vector<CompileJob> jobs;
  for (const workloads::Workload& w : workloads::all()) {
    CompileOptions base;
    base.overrides = w.sim_overrides;
    base.overrides["NPROCS"] = w.fig3_procs;
    base.block_size = block_size;

    CompileOptions n = base;
    n.optimize = false;
    jobs.push_back({w.name + "/N", w.natural, n});

    CompileOptions c = base;
    c.optimize = true;
    jobs.push_back({w.name + "/C", w.natural, c});

    if (w.has_prog()) {
      CompileOptions p = base;
      p.optimize = false;
      jobs.push_back({w.name + "/P", w.prog, p});
    }
  }
  return jobs;
}

TimingResult run_ksr(const Compiled& c, KsrParams params) {
  params.nprocs = c.nprocs();
  params.total_bytes = c.code.total_bytes;
  KsrMemorySystem mem(params);
  MachineOptions mo;
  mo.ksr = &mem;
  Machine machine(c.code, mo);
  machine.run();
  TimingResult out;
  out.cycles = machine.finish_cycles();
  out.ksr = mem.stats();
  out.refs = machine.refs();
  out.instructions = machine.instructions();
  return out;
}

TimingResult compile_and_time(std::string_view source, i64 nprocs,
                              const CompileOptions& base) {
  CompileOptions opt = base;
  opt.overrides["NPROCS"] = nprocs;
  Compiled c = compile_source(source, opt);
  return run_ksr(c);
}

std::pair<double, i64> SpeedupCurve::peak() const {
  double best = 0.0;
  i64 at = 0;
  for (size_t i = 0; i < procs.size(); ++i) {
    if (speedup[i] > best) {
      best = speedup[i];
      at = procs[i];
    }
  }
  return {best, at};
}

SpeedupCurve speedup_sweep(std::string_view source,
                           const std::vector<i64>& procs,
                           const CompileOptions& base, i64 base_cycles,
                           int threads) {
  // Each processor count is an independent compile+run job.  Run time
  // grows with the processor count, so the pool starts the largest
  // machines first and the small ones fill in behind them; every result
  // lands in its own slot, so the order does not show in the output.
  SpeedupCurve out;
  out.procs = procs;
  out.speedup.assign(procs.size(), 0.0);
  std::vector<size_t> order(procs.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return procs[a] > procs[b];
  });
  if (threads <= 0) threads = experiment_threads();
  parallel_for_each(threads, order.size(), [&](size_t k) {
    const size_t i = order[k];
    obs::Span span("sweep", "compile_and_time");
    if (span.active()) span.arg("procs", static_cast<double>(procs[i]));
    TimingResult t = compile_and_time(source, procs[i], base);
    out.speedup[i] = static_cast<double>(base_cycles) /
                     static_cast<double>(t.cycles);
  });
  return out;
}

i64 baseline_cycles(std::string_view source, const CompileOptions& base) {
  CompileOptions opt = base;
  opt.optimize = false;
  return compile_and_time(source, 1, opt).cycles;
}

std::unique_ptr<Machine> run_program(const Compiled& c, TraceSink* sink) {
  MachineOptions mo;
  mo.sink = sink;
  auto m = std::make_unique<Machine>(c.code, mo);
  m->run();
  return m;
}

}  // namespace fsopt
