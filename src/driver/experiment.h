// Experiment harness shared by the benchmarks, tests and examples.
//
// The pipeline is record-once / replay-many: one interpreter run records
// the compressed reference stream (EncodedTrace); every cache
// configuration (block size) is then a plane of one multi-plane replay
// of that recording (replay_multi, sim/multi.h).  With more than one
// thread, replay_multi splits a sweep into region shards that each
// decode the recording and replay all planes on their own regions, the
// shards taking the thread budget; the compile+run timing jobs of a
// processor-count sweep and the candidates of a plan-search batch share
// it the same way.  Every fan-out is one fork-join parallel_for_each,
// and every `threads = 0` resolves through experiment_threads() (both in
// support/thread_pool.h, included below).  Each job owns its simulator
// and writes into its own result slot, and slots are merged in a fixed
// order, so results are bit-identical for any thread count.
#pragma once

#include <map>
#include <mutex>

#include "driver/compiler.h"
#include "driver/pipeline.h"
#include "interp/machine.h"
#include "sim/ksr.h"
#include "sim/multi.h"
#include "support/thread_pool.h"
#include "trace/encode.h"
#include "transform/planner.h"
#include "transform/search.h"

namespace fsopt {

/// The block sizes the paper's simulation study sweeps (§4).
std::vector<i64> paper_block_sizes();  // 4..256
/// Block sizes used for Table 2 averages (8-256).
std::vector<i64> table2_block_sizes();

struct TraceStudyResult {
  std::map<i64, MissStats> by_block;  // block size -> stats
  /// Per-datum attribution per block size (filled when requested).
  std::map<i64, std::map<std::string, MissStats>> by_datum;
  /// Word-granularity false-sharing conflict graphs per block size
  /// (filled only when the study was run with collect_conflicts).
  std::map<i64, ConflictGraph> conflicts;
  u64 refs = 0;
  /// Stats for one simulated block size.  Throws InternalError naming the
  /// requested and the simulated block sizes when `block` was not part of
  /// the study.
  const MissStats& at(i64 block) const;
};

/// Address ranges of every global (and indirection heap region) under the
/// compiled layout, for per-datum miss attribution.
AddressMap build_address_map(const Compiled& c);

/// Execute `c` once in trace mode, recording straight into the
/// compressed columnar form (trace/encode.h) — the interpreter's
/// reference stream is encoded as it is emitted, so the raw 16-byte
/// stream never exists in memory (~3-5x smaller resident trace).
EncodedTrace record_encoded_trace(const Compiled& c);

/// Replay a recorded trace against each block size, every block size a
/// plane of one replay_multi over the compressed trace, with `threads`
/// workers (0 = the experiment_threads() knob).  `c` only supplies
/// nprocs/total_bytes.  replay_multi picks the region shards itself: up
/// to min(8, threads) when the region nests every block, one whole walk
/// otherwise (one thread, or a sweep such as {48, 64} B).  Results are
/// bit-identical for every thread count.
///
/// `collect_conflicts` additionally accumulates each block size's
/// word-granularity false-sharing conflict graph (TraceStudyResult::
/// conflicts), sharded like the rest of the replay.  Collection changes
/// no statistic — stats stay bit-identical to a non-collecting study.
TraceStudyResult replay_trace_study(const EncodedTrace& trace,
                                    const Compiled& c,
                                    const std::vector<i64>& block_sizes,
                                    i64 l1_bytes = 32 * 1024,
                                    const AddressMap* attribution = nullptr,
                                    int threads = 0,
                                    bool collect_conflicts = false);

/// record_encoded_trace + replay_trace_study: the interpreter executes
/// exactly once however many block sizes are studied, the recording is
/// held compressed, and the replay walks it once for all block sizes.
TraceStudyResult run_trace_study(const Compiled& c,
                                 const std::vector<i64>& block_sizes,
                                 i64 l1_bytes = 32 * 1024,
                                 const AddressMap* attribution = nullptr,
                                 int threads = 0,
                                 bool collect_conflicts = false);

// ---------------------------------------------------------------------------
// Relocatable traces: record once per plan shape.
//
// A layout is a function from datum elements to addresses, and in trace
// mode every reference costs the same two cycles, so the interleaving
// the interpreter records does not depend on the layout.  Two compiles
// of one program whose plans differ only in where data lives — every
// transformation except indirection, which adds pointer-slot loads —
// therefore record the same stream up to a word-for-word relocation
// (relocation_between, interp/bytecode.h).  TraceCache records each
// distinct shape once and serves every later compile of that shape by
// relocating the cached recording in the chunk decoder
// (EncodedTrace::relocated): a candidate costs a replay, not a
// re-recording, and its stats are bit-identical to a fresh recording's.
// ---------------------------------------------------------------------------

class TraceCache {
 public:
  /// `relocate` = false records every compile afresh and caches nothing
  /// (the reference the relocated results are checked against).
  explicit TraceCache(bool relocate = true) : relocate_(relocate) {}

  /// The encoded trace of `c`: a relocated view of a cached recording of
  /// the same shape when there is one, else a fresh recording (which is
  /// then cached).  Thread-safe: one lock is held across the lookup and
  /// any recording, so concurrent callers still record each shape once.
  EncodedTrace trace(const Compiled& c);

  /// Interpreter recordings made / traces served by relocation.
  u64 recordings() const;
  u64 relocations() const;

 private:
  struct Entry {
    CodeImage code;
    EncodedTrace trace;
  };
  bool relocate_;
  mutable std::mutex mu_;       // guards everything below
  std::vector<Entry> entries_;  // one per distinct shape
  u64 recordings_ = 0;
  u64 relocations_ = 0;
};

// ---------------------------------------------------------------------------
// The detect -> transform -> verify repair loop.
//
// Static profiling under-weights busy data hidden in loops with unknown
// bounds (DecisionOptions::min_weight_fraction), which is why Maxflow and
// Raytrace keep residual false sharing (§5).  The simulator, however,
// *measures* per-datum false sharing (TraceStudyResult::by_datum); the
// repair loop feeds that measurement back:
//
//   compile C(static) -> trace -> replay with attribution ->
//   build_fs_profile -> profile_plan extends the plan -> recompile ->
//   re-trace -> verify the attributed misses actually disappeared,
//
// iterating until the plan reaches a fixed point (profile_plan only
// ever adds decisions, so the loop converges) or max_iterations.  The
// re-trace is a relocation of the baseline recording whenever the new
// plan keeps the baseline's shape (RepairLoopOptions::traces).
// ---------------------------------------------------------------------------

/// Distill one block size's per-datum attribution into the name-keyed
/// profile profile_plan consumes.  Throws InternalError if the study
/// carries no attribution for `block_size`.
FalseSharingProfile build_fs_profile(const TraceStudyResult& study,
                                     i64 block_size);

/// Same distillation from a raw per-datum map (RepairResult keeps these
/// for its final compile, so the search seeding path can rebuild the
/// planner inputs without re-tracing).
FalseSharingProfile build_fs_profile(
    const std::map<std::string, MissStats>& by_datum, i64 block_size);

/// Distill the intra-datum edges of the study's conflict graph at
/// `block_size` into the datum-relative ConflictProfile the graph planner
/// consumes.  Edges whose endpoints fall in different address-map ranges
/// are dropped (cross-datum sharing is the inter-datum transforms'
/// territory); offsets are bytes relative to each datum's range base.
/// Throws InternalError when the study carries no conflict graph for
/// `block_size` (i.e. was not run with collect_conflicts).
ConflictProfile build_conflict_profile(const TraceStudyResult& study,
                                       i64 block_size, const AddressMap& map);

/// Same distillation straight from collected graphs, their edge weights
/// summed pair by pair: the study overload passes its one graph, and the
/// search seeding path passes the final compile's graphs of every swept
/// size (RepairResult keeps them), without re-tracing.  `block_size` only
/// labels the result.
ConflictProfile build_conflict_profile(
    const std::vector<const ConflictGraph*>& graphs, i64 block_size,
    const AddressMap& map);

struct RepairLoopOptions {
  /// Coherence-unit size the repair targets (plan + simulation).
  i64 block_size = 128;
  /// Upper bound on profile->replan->reverify rounds.
  int max_iterations = 3;
  /// Options of the profile pass (graph_plan runs one first).
  ProfilePlannerOptions planner;
  /// Which planner drives the loop: "profile" (the historical behavior)
  /// or "graph" (conflict-graph-guided intra-datum repair; collects the
  /// word-granularity graph each round and scores candidate plans across
  /// the whole block-size sweep, rolling back a candidate that regresses
  /// any swept size).
  std::string planner_name = "profile";
  /// Block sizes candidate plans are scored across.  Empty = just
  /// {block_size} for the profile planner (the historical behavior) and
  /// {32, 64, 128, 256} for the graph planner.  `block_size` is always
  /// included.
  std::vector<i64> sweep_blocks;
  i64 l1_bytes = 32 * 1024;
  /// Worker threads for the replays (0 = experiment_threads()).
  int threads = 0;
  /// Where every compile's trace comes from: the interpreter records
  /// once per plan shape and every other candidate replays a relocated
  /// recording.  Null = a private cache for this call; pass one to share
  /// recordings across calls on the same program (it must outlive them),
  /// or a TraceCache(false) to re-record every candidate.  Results are
  /// identical either way.
  TraceCache* traces = nullptr;
};

/// One profile->replan->reverify round.
struct RepairIteration {
  TransformPlan plan;
  /// What this round's plan added relative to the previous plan.
  PlanDiff diff;
  /// Re-simulated stats under the new plan, at the repair block size.
  MissStats stats;
  std::map<std::string, MissStats> by_datum;
  /// Stats at every swept block size (keyed by size).
  std::map<i64, MissStats> sweep;
};

struct RepairResult {
  /// The C(static) starting point at the repair block size.
  TransformPlan static_plan;
  MissStats baseline;
  std::map<std::string, MissStats> baseline_by_datum;
  /// Baseline stats at every swept block size.
  std::map<i64, MissStats> baseline_sweep;
  /// Word-granularity conflict graphs of the final accepted compile,
  /// keyed by block size (graph planner only; feeds
  /// `fsoptc --conflict-graph-out`).
  std::map<i64, ConflictGraph> conflicts;
  std::vector<RepairIteration> iterations;
  /// True when the last planning round added nothing (fixed point
  /// reached before max_iterations ran out).
  bool converged = false;
  /// The compile of the final plan (the baseline compile when the loop
  /// added nothing) — carries the layout and code for further study.
  Compiled final_compiled;

  const TransformPlan& final_plan() const {
    return iterations.empty() ? static_plan : iterations.back().plan;
  }
  const MissStats& final_stats() const {
    return iterations.empty() ? baseline : iterations.back().stats;
  }
  /// Did the repair actually reduce simulated false-sharing misses?
  bool improved() const {
    return final_stats().false_sharing < baseline.false_sharing;
  }
};

/// Run the repair loop on `source`.  `base` supplies overrides and §3.3
/// knobs; optimize is forced on for the static baseline and `base.plan`
/// must be unset (the loop owns plan injection).
RepairResult repair_loop(std::string_view source, const CompileOptions& base,
                         const RepairLoopOptions& opt = {});

// ---------------------------------------------------------------------------
// Plan-space search (transform/search.h), driven by real replays.
//
// The graph repair loop seeds the search: its converged plan becomes
// candidate 0, so the search result can never be worse than the greedy
// planner at any swept block size — per-block winners are argmins over
// evaluated candidates and the seed is always evaluated.  The search
// hands over its candidates in batches, and each batch is scored one
// candidate per worker: every candidate is compiled against the same
// shared front half (symbol ids stay stable, so plans remain valid), its
// trace taken from the TraceCache the seed loop filled (recorded only
// when its shape is new), and all swept block sizes replayed at once
// (replay_multi) with its share of the thread budget.
// ---------------------------------------------------------------------------

struct SearchPlanOptions {
  /// The seeding repair loop (planner_name is forced to "graph"; its
  /// block_size / sweep_blocks / l1_bytes / threads also govern the
  /// candidate evaluations).
  RepairLoopOptions seed;
  SearchBudget budget;
};

struct SearchPlanResult {
  /// The graph repair loop that produced the seed plan.
  RepairResult seed;
  /// The full search record: every evaluated candidate, the per-block
  /// winners and the Pareto frontier (search_result_to_json exports it).
  SearchResult search;
  /// Compile of the best-overall plan (for --plan-out, further study).
  Compiled final_compiled;

  const TransformPlan& final_plan() const { return search.best().plan; }
  /// Measured false-sharing misses of the winning plan per swept size.
  const std::map<i64, u64>& final_fs() const { return search.best().score.fs; }
};

/// Seed from the graph repair loop, then search the plan space under
/// `opt.budget`.  `base.plan` must be unset, as for repair_loop.
SearchPlanResult search_plan(std::string_view source,
                             const CompileOptions& base,
                             const SearchPlanOptions& opt = {});

// ---------------------------------------------------------------------------
// The workload matrix: every (workload, version, param-override)
// combination the paper's tables compile.
// ---------------------------------------------------------------------------

/// One compile of the matrix.  `source` must outlive the job (workload
/// sources are static, so this is free in practice).
struct CompileJob {
  std::string label;        // e.g. "fmm/C"
  std::string_view source;
  CompileOptions options;
};

/// The standard experiment matrix: every workload in version N (natural
/// source, no transformations), C (natural source, compiler-optimized)
/// and P (programmer-optimized source, when the paper has one), with
/// sim_overrides and the workload's Figure-3 processor count.
std::vector<CompileJob> workload_matrix_jobs(i64 block_size = 128);

struct TimingResult {
  i64 cycles = 0;
  KsrStats ksr;
  u64 refs = 0;
  u64 instructions = 0;
};

/// Execute under the KSR2 timing model.
TimingResult run_ksr(const Compiled& c, KsrParams params = {});

/// Compile `source` with NPROCS=n (plus `base` overrides) and run under
/// the KSR model; returns simulated cycles.
TimingResult compile_and_time(std::string_view source, i64 nprocs,
                              const CompileOptions& base);

struct SpeedupCurve {
  std::vector<i64> procs;
  std::vector<double> speedup;  // relative to supplied baseline cycles

  /// Maximum speedup and the processor count where it occurs.
  std::pair<double, i64> peak() const;
};

/// Sweep processor counts, compiling and timing each count as an
/// independent pool job.  Speedups are relative to `baseline_cycles`
/// (the paper uses the uniprocessor run of the *unoptimized* version).
SpeedupCurve speedup_sweep(std::string_view source,
                           const std::vector<i64>& procs,
                           const CompileOptions& base, i64 baseline_cycles,
                           int threads = 0);

/// Uniprocessor cycles of the unoptimized program (the speedup baseline).
i64 baseline_cycles(std::string_view source, const CompileOptions& base);

/// Run and check nothing (executes the program once, trace mode, feeding
/// every shared reference to `sink` when given); returns the machine for
/// memory inspection.
std::unique_ptr<Machine> run_program(const Compiled& c,
                                     TraceSink* sink = nullptr);

}  // namespace fsopt
