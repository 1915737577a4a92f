// SearchPlanner: the plan-space search scored by simulated misses.
//
// The centerpiece is a brute-force oracle: for synthetic workloads whose
// constraint-pruned move space is small, the whole cross product of
// per-datum moves is enumerated and evaluated independently, and the
// search (given a budget covering the space) must land on exactly the
// oracle-optimal plan — same (fs_total, spatial_loss) and same
// layout-relevant decisions.  Around it: the seed-dominance invariant
// (never worse than the seed at any swept size, in both the exhaustive
// and the beam regime), graceful degradation at budget 0, bit-identical
// results across thread counts and repeated runs, batched scoring's one
// speculative exit, the search records of all ten workloads pinned byte
// for byte, a property-fuzz pass over random budgets (FSOPT_FUZZ_ITERS
// scales it), and the kFieldReorder path: planner emission, JSON round-
// trip and plan re-injection producing identical miss tables.
#include "transform/search.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <random>

#include "driver/experiment.h"
#include "lang/sema.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "semantic_safety.h"
#include "support/json.h"
#include "workloads/workloads.h"

namespace fsopt {
namespace {

// Two single-word-per-process arrays ping-ponging adjacent words: two
// program datums plus the interpreter barrier, each with a handful of
// feasible moves — a plan space of a few dozen assignments, small enough
// to enumerate exhaustively yet rich enough that moves interact (both
// arrays must be treated to zero the false sharing).
constexpr const char* kTwoArrays =
    "param NPROCS = 4;"
    "int x[NPROCS]; int y[NPROCS];"
    "void main(int pid) { int r;"
    "  for (r = 0; r < 50; r = r + 1) {"
    "    x[pid] = x[pid] + 1;"
    "    y[pid] = y[pid] + r;"
    "  } }";

// Four 32-byte array fields, interleaved across two processor classes:
// proc 0 owns a and c, proc 4 owns b and d.  In source order every
// 64-byte block mixes the classes; the permutation [a, c, b, d] packs
// each class into its own block — the case where a free field reorder
// beats a footprint-costing hot/cold split.
constexpr const char* kReorder =
    "param NPROCS = 8;"
    "struct S { int a[8]; int b[8]; int c[8]; int d[8]; };"
    "struct S g[1];"
    "void main(int pid) { int i; int r;"
    "  for (r = 0; r < 50; r = r + 1) {"
    "    if (pid == 0) { for (i = 0; i < 8; i = i + 1) {"
    "      g[0].a[i] = g[0].a[i] + 1; g[0].c[i] = g[0].c[i] + 1; } }"
    "    if (pid == 4) { for (i = 0; i < 8; i = i + 1) {"
    "      g[0].b[i] = g[0].b[i] + 1; g[0].d[i] = g[0].d[i] + 1; } }"
    "  } }";

// Layout-relevant canonical key (decision order and reasons excluded),
// mirroring the dedup rule the search applies, so the oracle can compare
// plans the way the search does.
std::string key_of(const TransformPlan& p) {
  std::vector<std::string> lines;
  for (const TransformDecision& d : p.decisions) {
    std::string s = std::to_string(d.datum.sym) + "." +
                    std::to_string(d.datum.field) + ":" +
                    std::to_string(static_cast<int>(d.kind)) + ":" +
                    std::to_string(d.pid_dim) + ":" +
                    std::to_string(static_cast<int>(d.shape)) + ":" +
                    std::to_string(d.chunk);
    for (int f : d.fields) s += "," + std::to_string(f);
    lines.push_back(std::move(s));
  }
  std::sort(lines.begin(), lines.end());
  std::string key;
  for (const std::string& l : lines) {
    key += l;
    key += ";";
  }
  return key;
}

// Real-replay harness: baseline compile, profiles distilled from an
// attributed + conflict-collecting study, and a memoizing evaluator
// (compile with the candidate plan injected, study the swept sizes).
// The memo makes the oracle's exhaustive re-walk of the space nearly
// free after the search has evaluated most of it.
struct SearchHarness {
  std::string source;
  CompileOptions options;
  Compiled compiled;
  AddressMap am;
  FalseSharingProfile profile;
  ConflictProfile conflicts;
  TransformPlan empty_base;
  std::vector<i64> blocks{32, 64, 128, 256};
  i64 target = 128;
  int threads = 1;
  std::shared_ptr<std::map<std::string, PlanScore>> memo =
      std::make_shared<std::map<std::string, PlanScore>>();

  static SearchHarness make(const char* src, i64 nprocs) {
    SearchHarness h;
    h.source = src;
    h.options.overrides = {{"NPROCS", nprocs}};
    h.compiled = compile_source(h.source, h.options);
    h.am = build_address_map(h.compiled);
    TraceStudyResult st = run_trace_study(h.compiled, h.blocks, 32 * 1024,
                                          &h.am, 1, true);
    h.profile = build_fs_profile(st, h.target);
    h.conflicts = build_conflict_profile(st, h.target, h.am);
    return h;
  }

  PlannerInputs inputs() const {
    PlannerInputs in{compiled.report, compiled.summary, {}, target,
                     &profile, &empty_base, &conflicts};
    return in;
  }

  Compiled compile_with(const TransformPlan& p) const {
    CompileOptions o = options;
    o.plan = std::make_shared<TransformPlan>(p);
    return compile_source(source, o);
  }

  /// Score one candidate from its trace, as the driver's evaluator does.
  PlanScore score(const Compiled& c, const EncodedTrace& trace) const {
    TraceStudyResult st = replay_trace_study(trace, c, blocks, 32 * 1024,
                                             nullptr, threads);
    PlanScore s;
    for (i64 b : blocks) {
      s.fs[b] = st.at(b).false_sharing;
      s.cold_capacity[b] = st.at(b).cold + st.at(b).replacement;
    }
    s.footprint = c.layout.total_bytes();
    return s;
  }

  PlanEvaluator evaluator() {
    return [this](const std::vector<TransformPlan>& batch) {
      std::vector<PlanScore> scores;
      for (const TransformPlan& p : batch) {
        auto it = memo->find(key_of(p));
        if (it == memo->end()) {
          Compiled c = compile_with(p);
          it = memo->emplace(key_of(p), score(c, record_encoded_trace(c)))
                   .first;
        }
        scores.push_back(it->second);
      }
      return scores;
    };
  }
};

u64 spatial_loss_of(const PlanScore& s, const PlanScore& seed, i64 block) {
  u64 loss = 0;
  for (const auto& [b, v] : s.cold_capacity) {
    auto it = seed.cold_capacity.find(b);
    u64 base = it != seed.cold_capacity.end() ? it->second : 0;
    if (v > base) loss += v - base;
  }
  if (s.footprint > seed.footprint)
    loss += static_cast<u64>((s.footprint - seed.footprint + block - 1) /
                             block);
  return loss;
}

void expect_frontier_sound(const SearchResult& r) {
  ASSERT_FALSE(r.frontier.empty());
  // Ascending fs_total, strictly descending spatial_loss: the very shape
  // of a non-dominated set over two minimized axes.
  for (size_t i = 1; i < r.frontier.size(); ++i) {
    const SearchCandidate& prev = r.evaluated[r.frontier[i - 1]];
    const SearchCandidate& cur = r.evaluated[r.frontier[i]];
    EXPECT_LE(prev.fs_total, cur.fs_total);
    EXPECT_GT(prev.spatial_loss, cur.spatial_loss);
  }
  // No evaluated candidate strictly dominates a frontier member.
  for (size_t fi : r.frontier)
    for (const SearchCandidate& c : r.evaluated) {
      bool dominates = (c.fs_total < r.evaluated[fi].fs_total &&
                        c.spatial_loss <= r.evaluated[fi].spatial_loss) ||
                       (c.fs_total <= r.evaluated[fi].fs_total &&
                        c.spatial_loss < r.evaluated[fi].spatial_loss);
      EXPECT_FALSE(dominates)
          << "candidate " << c.order << " dominates frontier member " << fi;
    }
}

void expect_never_worse_than_seed(const SearchResult& r) {
  const PlanScore& seed = r.evaluated[0].score;
  for (i64 b : r.blocks) {
    EXPECT_LE(r.best().score.fs.at(b), seed.fs.at(b)) << "block " << b;
    EXPECT_LE(r.evaluated[r.best_by_block.at(b)].score.fs.at(b),
              seed.fs.at(b))
        << "block " << b;
  }
}

// ---------------------------------------------------------------------------
// Brute-force oracle: the exhaustive regime must find the space optimum.
// ---------------------------------------------------------------------------

TEST(SearchOracle, ExhaustiveRegimeMatchesBruteForce) {
  SearchHarness h = SearchHarness::make(kTwoArrays, 4);
  SearchBudget budget;
  budget.max_replays = 500;
  SearchPlanner planner(budget, h.blocks, h.evaluator());
  PlannerInputs in = h.inputs();

  SearchResult r = planner.search(in);
  ASSERT_GT(r.evaluated[0].fs_total, 0u) << "seed must leave work to do";
  ASSERT_TRUE(r.exhaustive) << "space must fit the budget for the oracle";

  // Enumerate the full cross product of per-datum moves ourselves, from
  // the same seed, over the same pruned domains, in the search's own
  // digit order — the independent referee.
  std::vector<SearchDomain> domains = planner.domains(in);
  ASSERT_GE(domains.size(), 2u);
  u64 space = 1;
  for (const SearchDomain& d : domains) space *= d.moves.size() + 1;
  ASSERT_LE(space - 1, static_cast<u64>(budget.max_replays));

  PlanEvaluator eval = h.evaluator();
  PlanScore seed_score = eval({h.empty_base})[0];
  bool have_best = false;
  u64 best_fs = 0, best_loss = 0;
  TransformPlan best_plan;
  for (u64 idx = 0; idx < space; ++idx) {
    u64 rem = idx;
    TransformPlan p = h.empty_base;
    for (const SearchDomain& d : domains) {
      u64 digit = rem % (d.moves.size() + 1);
      rem /= d.moves.size() + 1;
      if (digit > 0) p = apply_search_move(p, d.moves[digit - 1]);
    }
    PlanScore s = eval({p})[0];
    // The oracle optimum honors the same contract as the search: weakly
    // dominate the seed at every swept size.
    bool dominates = true;
    for (const auto& [b, v] : seed_score.fs)
      if (s.fs.at(b) > v) dominates = false;
    if (!dominates) continue;
    u64 fs = s.fs_total();
    u64 loss = spatial_loss_of(s, seed_score, h.target);
    if (!have_best || fs < best_fs ||
        (fs == best_fs && loss < best_loss)) {
      have_best = true;
      best_fs = fs;
      best_loss = loss;
      best_plan = p;
    }
  }
  ASSERT_TRUE(have_best);

  EXPECT_EQ(r.best().fs_total, best_fs);
  EXPECT_EQ(r.best().spatial_loss, best_loss);
  EXPECT_EQ(key_of(r.best().plan), key_of(best_plan));
  // The search actually solves this space: both arrays get treated.
  EXPECT_EQ(best_fs, 0u);
  EXPECT_LT(r.best().fs_total, r.evaluated[0].fs_total);

  expect_never_worse_than_seed(r);
  expect_frontier_sound(r);
}

// The search seeded by the graph planner can only refine it: at every
// swept size the winner's false sharing is at most the graph plan's.
TEST(SearchOracle, NeverWorseThanGraphPlannerSeed) {
  SearchHarness h = SearchHarness::make(kTwoArrays, 4);
  SearchBudget budget;
  budget.max_replays = 60;
  SearchPlanner planner(budget, h.blocks, h.evaluator());
  PlannerInputs in = h.inputs();
  in.base = nullptr;  // seed from graph_plan over the same inputs

  SearchResult r = planner.search(in);
  PlannerInputs gin = h.inputs();
  gin.base = nullptr;
  PlanScore graph_score = h.evaluator()({graph_plan(gin)})[0];
  for (i64 b : h.blocks)
    EXPECT_LE(r.best().score.fs.at(b), graph_score.fs.at(b))
        << "block " << b;
  expect_frontier_sound(r);
}

// ---------------------------------------------------------------------------
// Budget handling
// ---------------------------------------------------------------------------

TEST(SearchBudgetTest, TightBudgetStaysWithinReplayBound) {
  SearchHarness h = SearchHarness::make(kTwoArrays, 4);
  SearchBudget budget;
  budget.max_replays = 5;  // far below the space: beam regime
  budget.beam_width = 2;
  SearchPlanner planner(budget, h.blocks, h.evaluator());
  SearchResult r = planner.search(h.inputs());

  EXPECT_FALSE(r.exhaustive);
  EXPECT_LE(r.replays, static_cast<u64>(budget.max_replays) + 1);
  EXPECT_GT(r.evaluated.size(), 1u);
  expect_never_worse_than_seed(r);
  expect_frontier_sound(r);
}

TEST(SearchBudgetTest, ZeroBudgetDegradesToSeed) {
  SearchHarness h = SearchHarness::make(kTwoArrays, 4);
  SearchBudget budget;
  budget.max_replays = 0;
  SearchPlanner planner(budget, h.blocks, h.evaluator());
  SearchResult r = planner.search(h.inputs());

  EXPECT_EQ(r.replays, 1u);
  ASSERT_EQ(r.evaluated.size(), 1u);
  EXPECT_EQ(r.best_overall, 0u);
  EXPECT_EQ(r.frontier, std::vector<size_t>{0});
  // The winner *is* the seed, decision for decision.
  EXPECT_EQ(key_of(r.best().plan), key_of(h.empty_base));
}

// ---------------------------------------------------------------------------
// Determinism: identical plans, winners and frontier — byte for byte —
// for any evaluator thread count and across repeated runs.
// ---------------------------------------------------------------------------

TEST(SearchDeterminism, BitIdenticalAcrossThreadsAndRuns) {
  SearchBudget budget;
  budget.max_replays = 40;

  std::vector<std::string> docs;
  for (int threads : {1, 4, 1}) {
    SearchHarness h = SearchHarness::make(kTwoArrays, 4);
    h.threads = threads;
    h.memo->clear();  // no cross-run reuse: every run replays for real
    SearchPlanner planner(budget, h.blocks, h.evaluator());
    SearchResult r = planner.search(h.inputs());
    docs.push_back(search_result_to_json(r, *h.compiled.prog));
  }
  EXPECT_EQ(docs[0], docs[1]) << "threads=1 vs threads=4";
  EXPECT_EQ(docs[0], docs[2]) << "repeated run";
}

// ---------------------------------------------------------------------------
// Batched evaluation: the search hands the evaluator one exhaustive
// enumeration or one beam round at a time and commits the scores in
// generation order.  The one exit that reads a score — a beam candidate
// with zero false sharing and zero loss — must leave the result exactly
// where a one-candidate-at-a-time loop leaves it.  No workload reaches
// that exit, so a scripted evaluator forces it.
// ---------------------------------------------------------------------------

u64 fnv1a(const std::string& doc) {
  u64 h = 14695981039346656037ull;
  for (unsigned char ch : doc) {
    h ^= ch;
    h *= 1099511628211ull;
  }
  return h;
}

// A score that is a pure function of the plan's canonical key, so it
// never depends on the batch the plan arrives in.  The plan keyed `zero`
// (when set) scores no misses and no footprint: zero loss against any
// seed.
PlanScore scripted_score(const TransformPlan& p, const std::string& zero) {
  const std::string key = key_of(p);
  const bool unbeatable = !zero.empty() && key == zero;
  PlanScore s;
  u64 h = fnv1a(key);
  for (i64 b : {32, 64, 128, 256}) {
    s.fs[b] = unbeatable ? 0 : 1 + h % 97;
    h /= 97;
    s.cold_capacity[b] = unbeatable ? 0 : 50 + h % 13;
    h /= 13;
  }
  s.footprint = unbeatable ? 0 : 4096 + static_cast<i64>(h % 8) * 64;
  return s;
}

TEST(SearchBatch, ZeroLossExitCommitsLikeTheSerialLoop) {
  SearchHarness h = SearchHarness::make(kTwoArrays, 4);
  std::string zero;
  PlanEvaluator scripted = [&](const std::vector<TransformPlan>& batch) {
    std::vector<PlanScore> scores;
    for (const TransformPlan& p : batch)
      scores.push_back(scripted_score(p, zero));
    return scores;
  };
  auto run = [&](int rounds) {
    SearchBudget budget;
    budget.max_replays = 20;  // under the space's 24 candidates: beam
    budget.max_rounds = rounds;
    return SearchPlanner(budget, h.blocks, scripted).search(h.inputs());
  };

  // Without the exit, round 1 is candidates 1-8 and round 2 is 9-18,
  // with dedup pruning interleaved in round 2.
  SearchResult plain = run(3);
  ASSERT_FALSE(plain.exhaustive);
  EXPECT_EQ(plain.discarded, 0u);
  const u64 round2_end = run(2).replays - 1;
  ASSERT_EQ(run(1).replays - 1, 8u);
  ASSERT_EQ(round2_end, 18u);

  // Candidate 13, mid round 2, becomes unbeatable.
  constexpr size_t kExit = 13;
  zero = key_of(plain.evaluated[kExit].plan);
  obs::set_enabled(true);
  obs::set_metrics_enabled(true);
  obs::reset();
  obs::Counter& discarded = obs::metric_counter("search.discarded");
  const u64 discarded_before = discarded.value();
  SearchResult r = run(3);
  const u64 discarded_counted = discarded.value() - discarded_before;
  obs::TraceData trace = obs::collect();
  obs::set_enabled(false);
  obs::set_metrics_enabled(false);
  obs::reset();

  // Captured from a search that scored one candidate per evaluator call,
  // with the same scripted scores.
  EXPECT_EQ(fnv1a(search_result_to_json(r, *h.compiled.prog)),
            0x89d3c579a7af3363ull);
  EXPECT_EQ(r.generated, 18u);
  EXPECT_EQ(r.pruned, 4u);
  EXPECT_EQ(r.replays, 14u);
  ASSERT_EQ(r.evaluated.size(), kExit + 1);
  EXPECT_EQ(r.best_overall, kExit);
  // The rest of round 2 was scored and thrown away.
  EXPECT_EQ(r.discarded, round2_end - kExit);
  EXPECT_EQ(discarded_counted, r.discarded);

  // One span per batch: the seed, round 1, round 2.
  std::vector<std::pair<double, double>> batches;
  for (const obs::ThreadLog& t : trace.threads)
    for (const obs::SpanEvent& sp : t.spans) {
      if (std::string_view(sp.category) != "search" || sp.name != "batch")
        continue;
      std::pair<double, double> args{-1, -1};
      for (const obs::Arg& a : sp.args) {
        if (a.key == "candidates") args.first = a.num;
        if (a.key == "discarded") args.second = a.num;
      }
      batches.push_back(args);
    }
  EXPECT_EQ(batches, (std::vector<std::pair<double, double>>{
                         {1, 0}, {8, 0}, {10, 5}}));
}

// ---------------------------------------------------------------------------
// All ten workloads searched as `fsoptc --workload W --planner search`
// does (block 128, sweep {32, 64, 128, 256}, default budget): the search
// record's JSON document, hashed with 64-bit FNV-1a.  Captured when every
// candidate was scored alone and replayed on the whole thread budget, so
// scoring a batch one candidate per worker must not move one byte.  All
// ten at 4 threads; water (exhaustive) and fmm (beam) at 1 thread too.
// ---------------------------------------------------------------------------

TEST(SearchGolden, TenWorkloads) {
  static const std::map<std::string, u64> kGolden = {
      {"maxflow", 0xf33297d9dec6f3cdull},
      {"pverify", 0x1bc91ab4dda0e445ull},
      {"topopt", 0x52099097ffe339cbull},
      {"fmm", 0x7045fa66403cff75ull},
      {"radiosity", 0xd7ac90ea3b2a8c6cull},
      {"raytrace", 0x827839e3db28680aull},
      {"locusroute", 0xbfd60da8201324a7ull},
      {"mp3d", 0xbf6e721a2521eef9ull},
      {"pthor", 0x786d7b603529e5f4ull},
      {"water", 0x977fa3cfe2943950ull},
  };
  auto search = [](const std::string& name, int threads) {
    const workloads::Workload& w = workloads::get(name);
    CompileOptions base;
    base.overrides = w.sim_overrides;
    base.overrides["NPROCS"] = w.fig3_procs;
    base.block_size = 128;
    SearchPlanOptions so;
    so.seed.block_size = 128;
    so.seed.sweep_blocks = {32, 64, 128, 256};
    so.seed.threads = threads;
    SearchPlanResult r = search_plan(w.natural, base, so);
    EXPECT_EQ(r.search.discarded, 0u) << name;
    return std::make_pair(
        fnv1a(search_result_to_json(r.search, *r.final_compiled.prog)),
        r.search.exhaustive);
  };
  for (const auto& [name, want] : kGolden)
    EXPECT_EQ(search(name, 4).first, want) << name;
  EXPECT_EQ(search("water", 1), std::make_pair(kGolden.at("water"), true));
  EXPECT_EQ(search("fmm", 1), std::make_pair(kGolden.at("fmm"), false));
}

// ---------------------------------------------------------------------------
// Relocated candidate traces: every candidate takes its trace from a
// TraceCache.  Each relocated trace must equal a fresh recording of the
// candidate reference for reference, the cache must record once per plan
// shape (no candidate here adds indirection, so exactly once), and the
// search must land on a byte-identical result.
// ---------------------------------------------------------------------------

TEST(SearchRelocation, EveryCandidateTraceEqualsAFreshRecording) {
  struct Case {
    const char* src;
    i64 nprocs;
  };
  for (const Case& k : {Case{kTwoArrays, 4}, Case{kReorder, 8}}) {
    SearchHarness h = SearchHarness::make(k.src, k.nprocs);
    TraceCache cache;
    u64 evaluated = 0;
    PlanEvaluator relocating = [&](const std::vector<TransformPlan>& batch) {
      std::vector<PlanScore> scores;
      for (const TransformPlan& p : batch) {
        Compiled c = h.compile_with(p);
        EncodedTrace trace = cache.trace(c);
        VectorSink got, want;
        trace.replay(got);
        record_encoded_trace(c).replay(want);
        EXPECT_EQ(got.refs(), want.refs()) << key_of(p);
        ++evaluated;
        scores.push_back(h.score(c, trace));
      }
      return scores;
    };
    SearchBudget budget;
    budget.max_replays = 40;
    SearchResult r =
        SearchPlanner(budget, h.blocks, relocating).search(h.inputs());
    SearchResult ref =
        SearchPlanner(budget, h.blocks, h.evaluator()).search(h.inputs());
    EXPECT_EQ(search_result_to_json(r, *h.compiled.prog),
              search_result_to_json(ref, *h.compiled.prog));
    EXPECT_EQ(evaluated, r.replays);
    EXPECT_GE(r.replays, 3u);
    EXPECT_EQ(cache.recordings(), 1u);
    EXPECT_EQ(cache.relocations(), evaluated - 1);
  }
}

// search_plan end to end on a workload whose plans indirect (pointer
// loads change the shape): relocating and re-recording every candidate
// must agree byte for byte, with far fewer recordings.
TEST(SearchRelocation, SearchPlanIdenticalWithAndWithoutRelocation) {
  const workloads::Workload& w = workloads::get("pthor");
  CompileOptions base;
  base.overrides = w.sim_overrides;
  base.overrides["NPROCS"] = w.fig3_procs;
  SearchPlanOptions so;
  so.budget.max_replays = 12;
  TraceCache relocating;
  so.seed.traces = &relocating;
  SearchPlanResult relocated = search_plan(w.natural, base, so);
  TraceCache recording(false);
  so.seed.traces = &recording;
  SearchPlanResult recorded = search_plan(w.natural, base, so);

  const Program& prog = *relocated.final_compiled.prog;
  EXPECT_EQ(search_result_to_json(relocated.search, prog),
            search_result_to_json(recorded.search, prog));
  EXPECT_EQ(relocated.seed.baseline_sweep, recorded.seed.baseline_sweep);
  ASSERT_EQ(relocated.seed.iterations.size(),
            recorded.seed.iterations.size());
  for (size_t i = 0; i < relocated.seed.iterations.size(); ++i) {
    EXPECT_EQ(relocated.seed.iterations[i].sweep,
              recorded.seed.iterations[i].sweep);
    EXPECT_EQ(relocated.seed.iterations[i].by_datum,
              recorded.seed.iterations[i].by_datum);
  }
  // The same trace requests, served by relocation instead of recording.
  EXPECT_EQ(recording.relocations(), 0u);
  EXPECT_GT(recording.recordings(), recorded.search.replays);
  EXPECT_EQ(relocating.recordings() + relocating.relocations(),
            recording.recordings());
  EXPECT_LT(relocating.recordings(), recording.recordings() / 4);
}

// ---------------------------------------------------------------------------
// apply_search_move semantics
// ---------------------------------------------------------------------------

TEST(ApplySearchMove, DisplacesCollidingDecisionsAndHonorsRemoval) {
  TransformPlan plan;
  plan.decisions.push_back({{7, -1}, TransformKind::kPadAlign, -1,
                            PartitionShape::kBlocked, 1, {}, {}});
  plan.decisions.push_back({{9, 2}, TransformKind::kIntraPad, -1,
                            PartitionShape::kBlocked, 64, {}, {}});

  // Symbol-level move on sym 9 displaces the field-level decision.
  TransformDecision mv{{9, -1}, TransformKind::kHotColdSplit, -1,
                       PartitionShape::kBlocked, 1, {}, {}};
  mv.fields = {0, 1};
  TransformPlan next = apply_search_move(plan, mv);
  ASSERT_EQ(next.decisions.size(), 2u);
  EXPECT_EQ(next.decisions[0].datum.sym, 7);
  EXPECT_EQ(next.decisions[1].kind, TransformKind::kHotColdSplit);

  // kNone is pure removal.
  TransformDecision none{{7, -1}, TransformKind::kNone, -1,
                         PartitionShape::kBlocked, 1, {}, {}};
  TransformPlan removed = apply_search_move(next, none);
  ASSERT_EQ(removed.decisions.size(), 1u);
  EXPECT_EQ(removed.decisions[0].datum.sym, 9);

  // Unrelated datums stack.
  TransformDecision other{{11, -1}, TransformKind::kPadAlign, -1,
                          PartitionShape::kBlocked, 1, {}, {}};
  EXPECT_EQ(apply_search_move(removed, other).decisions.size(), 2u);
}

// ---------------------------------------------------------------------------
// Property fuzz: random budgets, fixed workload.  Every run must honor
// the replay bound, seed dominance, frontier soundness and determinism.
// FSOPT_FUZZ_ITERS scales the number of rounds.
// ---------------------------------------------------------------------------

TEST(SearchFuzz, InvariantsHoldAcrossRandomBudgets) {
  int iters = 4;
  if (const char* env = std::getenv("FSOPT_FUZZ_ITERS")) {
    int v = std::atoi(env);
    if (v > 0) iters = v;
  }
  SearchHarness h = SearchHarness::make(kTwoArrays, 4);
  std::mt19937 rng(20260808);
  for (int it = 0; it < iters; ++it) {
    SearchBudget budget;
    budget.max_replays = static_cast<int>(rng() % 48);
    budget.beam_width = 1 + static_cast<int>(rng() % 4);
    budget.max_rounds = 1 + static_cast<int>(rng() % 3);
    SearchPlanner planner(budget, h.blocks, h.evaluator());

    SearchResult r1 = planner.search(h.inputs());
    SearchResult r2 = planner.search(h.inputs());
    SCOPED_TRACE("iter " + std::to_string(it) + " max_replays=" +
                 std::to_string(budget.max_replays) + " beam=" +
                 std::to_string(budget.beam_width));
    EXPECT_LE(r1.replays, static_cast<u64>(budget.max_replays) + 1);
    expect_never_worse_than_seed(r1);
    expect_frontier_sound(r1);
    EXPECT_EQ(search_result_to_json(r1, *h.compiled.prog),
              search_result_to_json(r2, *h.compiled.prog))
        << "same budget, same inputs, different result";
  }
}

// ---------------------------------------------------------------------------
// kFieldReorder: emission, JSON round-trip, re-injection identity.
// ---------------------------------------------------------------------------

struct Ctx {
  std::unique_ptr<Program> prog;
  ProgramSummary summary;
  SharingReport report;
};

Ctx analyze(std::string_view src, i64 nprocs) {
  Ctx c;
  DiagnosticEngine diags;
  c.prog = parse_and_check(src, diags, {{"NPROCS", nprocs}});
  c.summary = analyze_program(*c.prog);
  c.report = classify_sharing(c.summary);
  return c;
}

// A synthetic conflict profile with the known two-class structure of
// kReorder: proc 0 owns fields a (offset 0) and c (offset 64), proc 4
// owns b (offset 32) and d (offset 96).
ConflictProfile reorder_conflicts() {
  ConflictProfile prof;
  prof.block_size = 64;
  prof.total_weight = 160;
  prof.entries.push_back({"g",
                          160,
                          {{0, 32, 0, 4, 40},
                           {32, 0, 4, 0, 40},
                           {64, 96, 0, 4, 40},
                           {96, 64, 4, 0, 40}}});
  return prof;
}

TEST(FieldReorder, GraphPlannerEmitsSeparatingPermutation) {
  Ctx c = analyze(kReorder, 8);
  const GlobalSym* g = c.prog->find_global("g");
  ASSERT_NE(g, nullptr);
  TransformPlan empty;
  ConflictProfile prof = reorder_conflicts();
  PlannerInputs in{c.report, c.summary, {}, 64, nullptr, &empty, &prof};
  TransformPlan plan = graph_plan(in);

  const TransformDecision* d = plan.find({g->id, -1});
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->kind, TransformKind::kFieldReorder);
  // a (class 0), c (class 0), b (class 4), d (class 4).
  EXPECT_EQ(d->fields, (std::vector<int>{0, 2, 1, 3}));
  EXPECT_EQ(d->reason.code, ReasonCode::kConflictGraph);

  // When the permutation provably cannot separate the classes at the
  // target size — a 256-byte unit swallows the whole 128-byte element —
  // the planner must fall back to the hot/cold split instead.
  PlannerInputs big = in;
  big.block_size = 256;
  TransformPlan big_plan = graph_plan(big);
  const TransformDecision* d2 = big_plan.find({g->id, -1});
  ASSERT_NE(d2, nullptr);
  EXPECT_EQ(d2->kind, TransformKind::kHotColdSplit);
}


// The intra-datum kinds keep the program's meaning: kReorder is race-free
// (processes 0 and 4 write disjoint fields), so under the graph planner's
// field reorder (64 B) and hot/cold split (256 B) every global must end
// as it does unplanned.
TEST(SemanticSafety, FieldReorderAndHotColdSplitKeepEveryGlobal) {
  Ctx c = analyze(kReorder, 8);
  const GlobalSym* g = c.prog->find_global("g");
  ASSERT_NE(g, nullptr);
  TransformPlan empty;
  ConflictProfile prof = reorder_conflicts();
  CompileOptions base;
  base.overrides = {{"NPROCS", 8}};
  const Compiled natural = compile_source(kReorder, base);
  for (const auto& [block, kind] :
       {std::pair{i64{64}, TransformKind::kFieldReorder},
        std::pair{i64{256}, TransformKind::kHotColdSplit}}) {
    PlannerInputs in{c.report, c.summary, {}, block, nullptr, &empty, &prof};
    const TransformPlan plan = graph_plan(in);
    const TransformDecision* d = plan.find({g->id, -1});
    ASSERT_NE(d, nullptr) << block;
    ASSERT_EQ(d->kind, kind) << block;
    CompileOptions with_plan = base;
    with_plan.block_size = block;
    with_plan.plan = std::make_shared<TransformPlan>(plan);
    expect_same_final_globals(natural, compile_source(kReorder, with_plan));
  }
}
TEST(FieldReorder, JsonRoundTripAndReinjectionIdentity) {
  Ctx c = analyze(kReorder, 8);
  TransformPlan empty;
  ConflictProfile prof = reorder_conflicts();
  PlannerInputs in{c.report, c.summary, {}, 64, nullptr, &empty, &prof};
  TransformPlan plan = graph_plan(in);
  ASSERT_NE(plan.find({c.prog->find_global("g")->id, -1}), nullptr);

  // Round-trip: serialize -> parse -> serialize is byte-equal and the
  // permutation survives.
  std::string doc = plan_to_json(plan, *c.prog);
  TransformPlan parsed = plan_from_json(doc, *c.prog);
  EXPECT_EQ(plan_to_json(parsed, *c.prog), doc);
  EXPECT_EQ(parsed, plan);

  // Re-injection: compiling with the plan and with its JSON round-trip
  // must produce identical miss tables at every swept size — and the
  // reorder must actually eliminate g's false sharing, which the natural
  // field order provably has at 64 (every block mixes the two classes).
  CompileOptions base;
  base.overrides = {{"NPROCS", 8}};
  std::vector<i64> blocks{32, 64};

  Compiled plain = compile_source(kReorder, base);
  AddressMap am0 = build_address_map(plain);
  TraceStudyResult st0 = run_trace_study(plain, blocks, 32 * 1024, &am0);
  EXPECT_GT(st0.by_datum.at(64).at("g").false_sharing, 0u);

  CompileOptions with_plan = base;
  with_plan.block_size = 64;
  with_plan.plan = std::make_shared<TransformPlan>(plan);
  Compiled direct = compile_source(kReorder, with_plan);
  AddressMap am1 = build_address_map(direct);
  TraceStudyResult st1 = run_trace_study(direct, blocks, 32 * 1024, &am1);

  CompileOptions with_parsed = base;
  with_parsed.block_size = 64;
  with_parsed.plan = std::make_shared<TransformPlan>(parsed);
  Compiled rt = compile_source(kReorder, with_parsed);
  AddressMap am2 = build_address_map(rt);
  TraceStudyResult st2 = run_trace_study(rt, blocks, 32 * 1024, &am2);

  for (i64 b : blocks) {
    EXPECT_EQ(st1.at(b), st2.at(b)) << "block " << b;
    EXPECT_EQ(st1.by_datum.at(b), st2.by_datum.at(b)) << "block " << b;
  }
  EXPECT_EQ(st1.by_datum.at(64).at("g").false_sharing, 0u)
      << "the permutation should put each class in its own block";
}

}  // namespace
}  // namespace fsopt
