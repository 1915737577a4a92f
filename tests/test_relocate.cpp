// Relocatable traces: AddressRelocation + EncodedTrace::relocated
// (trace/encode.h), relocation_between (interp/bytecode.h) and the
// driver's TraceCache.
//
// The gate is exactness: wherever relocation_between admits a pair of
// compiles, the relocated recording must be the very stream a fresh
// recording of the target makes — reference for reference — across the
// whole 29-cell workload matrix (N relocated to N, C and P of the same
// workload), for compiles that keep an indirection shape, and for random
// plans drawn from the search's move domains; pairs whose shapes differ
// (indirection added or dropped, another source) must be refused, never
// approximated.  The search-side gate (every candidate a plan search
// evaluates) lives in test_search_planner.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <random>

#include "driver/experiment.h"
#include "workloads/workloads.h"

namespace fsopt {
namespace {

MemRef ref(i64 addr, u8 size, u8 proc, bool write) {
  return MemRef{addr, size, proc, write ? RefType::kWrite : RefType::kRead};
}

std::vector<MemRef> decode_all(const EncodedTrace& t) {
  VectorSink sink;
  t.replay(sink);
  return sink.refs();
}

/// Chunk-by-chunk stream equality (two chunks resident at a time, so
/// whole-workload traces never materialize raw).
void expect_same_stream(const EncodedTrace& got, const EncodedTrace& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  ASSERT_EQ(got.chunk_count(), want.chunk_count()) << what;
  std::vector<MemRef> a, b;
  for (size_t k = 0; k < got.chunk_count(); ++k) {
    got.decode_chunk(k, a);
    want.decode_chunk(k, b);
    ASSERT_EQ(a.size(), b.size()) << what << " chunk " << k;
    for (size_t i = 0; i < a.size(); ++i)
      ASSERT_EQ(a[i], b[i]) << what << " chunk " << k << " ref " << i;
  }
}

bool uses_indirection(const CodeImage& code) {
  return std::any_of(code.plans.begin(), code.plans.end(),
                     [](const AccessPlan& p) {
                       return p.indirection.has_value();
                     });
}

// ---------------------------------------------------------------------------
// The relocation table and the relocated view.
// ---------------------------------------------------------------------------

TEST(AddressRelocation, MapsWordsOneToOneAndRejectsEverythingElse) {
  AddressRelocation rel;
  EXPECT_TRUE(rel.map_word(0, 64));
  EXPECT_TRUE(rel.map_word(4, 128));
  EXPECT_TRUE(rel.map_word(0, 64));    // the same pair again: consistent
  EXPECT_FALSE(rel.map_word(0, 68));   // the source already maps elsewhere
  EXPECT_FALSE(rel.map_word(8, 128));  // the target is already an image
  EXPECT_FALSE(rel.map_word(2, 256));  // misaligned
  EXPECT_FALSE(rel.map_word(-4, 256));
  EXPECT_EQ(rel.words(), 2u);

  std::vector<MemRef> refs = {ref(0, 4, 0, false), ref(4, 4, 1, true),
                              ref(0, 8, 2, false)};
  rel.apply(refs.data(), refs.size());
  EXPECT_EQ(refs[0], ref(64, 4, 0, false));
  EXPECT_EQ(refs[1], ref(128, 4, 1, true));
  EXPECT_EQ(refs[2], ref(64, 8, 2, false));

  MemRef stray = ref(12, 4, 0, false);
  EXPECT_THROW(rel.apply(&stray, 1), InternalError);
}

TEST(AddressRelocation, RelocatedViewSharesChunksAndRelocatesEveryDecodePath) {
  // A multi-chunk stream over 64 words, relocated by reversing the word
  // order into a region at 4096.
  constexpr i64 kWords = 64;
  std::vector<MemRef> raw;
  for (int i = 0; i < 1000; ++i)
    raw.push_back(ref(4 * ((i * 7) % kWords), (i % 5 == 0) ? 8 : 4,
                      static_cast<u8>(i % 6), i % 3 == 0));
  EncodedTrace enc = encode_trace(raw, 96);
  ASSERT_GT(enc.chunk_count(), 2u);

  auto rel = std::make_shared<AddressRelocation>();
  for (i64 w = 0; w < kWords; ++w)
    ASSERT_TRUE(rel->map_word(4 * w, 4096 + 4 * (kWords - 1 - w)));
  std::vector<MemRef> want = raw;
  for (MemRef& r : want) r.addr = 4096 + 4 * (kWords - 1 - r.addr / 4);

  EncodedTrace moved = enc.relocated(rel);
  EXPECT_EQ(moved.size(), enc.size());
  EXPECT_EQ(moved.chunk_count(), enc.chunk_count());
  EXPECT_EQ(moved.memory_bytes(), enc.memory_bytes());
  EXPECT_EQ(decode_all(moved), want);

  std::vector<MemRef> chunked, part;
  for (size_t k = 0; k < moved.chunk_count(); ++k) {
    moved.decode_chunk(k, part);
    chunked.insert(chunked.end(), part.begin(), part.end());
  }
  EXPECT_EQ(chunked, want);

  // The source trace is untouched, and a view is not relocated twice.
  EXPECT_EQ(decode_all(enc), raw);
  EXPECT_THROW(moved.relocated(rel), InternalError);
}

// ---------------------------------------------------------------------------
// relocation_between on compiled programs.
// ---------------------------------------------------------------------------

// A per-process struct field (the compiler indirects g.v), a
// group&transposed array, padded scalars, a lock and the barrier: every
// kind of reference the interpreter emits.
constexpr const char* kMixed =
    "param NPROCS = 4; param N = 16;\n"
    "struct S { int v[NPROCS]; int w; };\n"
    "struct S g[N];\n"
    "real a[N];\n"
    "int done[NPROCS];\n"
    "lock_t l; int total;\n"
    "void main(int pid) { int i; int r;\n"
    "  for (r = 0; r < 3; r = r + 1) {\n"
    "    for (i = 0; i < N; i = i + 1) { g[i].v[pid] = g[i].v[pid] + i; }\n"
    "    for (i = pid; i < N; i = i + NPROCS) {\n"
    "      a[i] = a[i] + itor(i) * 0.5;\n"
    "    }\n"
    "    barrier();\n"
    "  }\n"
    "  done[pid] = 1;\n"
    "  lock(l); total = total + pid; unlock(l);\n"
    "}\n";

Compiled compile_mixed(bool optimize, i64 block) {
  CompileOptions o;
  o.optimize = optimize;
  o.block_size = block;
  return compile_source(kMixed, o);
}

TEST(RelocationBetween, SameImageIsTheIdentity) {
  Compiled n = compile_mixed(false, 128);
  auto rel = relocation_between(n.code, n.code);
  ASSERT_NE(rel, nullptr);
  EncodedTrace t = record_encoded_trace(n);
  expect_same_stream(t.relocated(rel), t, "identity");
}

TEST(RelocationBetween, IndirectionChangesTheShape) {
  Compiled n = compile_mixed(false, 128);
  Compiled c = compile_mixed(true, 128);
  ASSERT_TRUE(uses_indirection(c.code)) << "expected the compiler to indirect "
                                           "the per-process field g.v";
  EXPECT_EQ(relocation_between(n.code, c.code), nullptr);
  EXPECT_EQ(relocation_between(c.code, n.code), nullptr);

  // Another source is another shape too.
  Compiled other = compile_source("param NPROCS = 4; int x[NPROCS];"
                                  "void main(int pid) { x[pid] = pid; }");
  EXPECT_EQ(relocation_between(n.code, other.code), nullptr);
}

TEST(RelocationBetween, SameIndirectionShapeRelocatesExactly) {
  // Two compiler layouts that both indirect g.v but pad at different
  // block sizes: same shape, different addresses everywhere.
  Compiled c128 = compile_mixed(true, 128);
  Compiled c64 = compile_mixed(true, 64);
  ASSERT_TRUE(uses_indirection(c128.code) && uses_indirection(c64.code));
  ASSERT_NE(c128.code.total_bytes, c64.code.total_bytes);
  auto rel = relocation_between(c128.code, c64.code);
  ASSERT_NE(rel, nullptr);
  expect_same_stream(record_encoded_trace(c128).relocated(rel),
                     record_encoded_trace(c64), "C@128 -> C@64");
}

TEST(TraceCache, RecordsOncePerShape) {
  Compiled n = compile_mixed(false, 128);
  Compiled c128 = compile_mixed(true, 128);
  Compiled c64 = compile_mixed(true, 64);
  Compiled n_again = compile_mixed(false, 64);

  TraceCache cache;
  EncodedTrace tn = cache.trace(n);          // new shape: recorded
  EncodedTrace t128 = cache.trace(c128);     // indirection: recorded
  EncodedTrace t64 = cache.trace(c64);       // relocated from c128
  EncodedTrace tn2 = cache.trace(n_again);   // relocated from n
  EXPECT_EQ(cache.recordings(), 2u);
  EXPECT_EQ(cache.relocations(), 2u);
  expect_same_stream(t64, record_encoded_trace(c64), "cached C@64");
  expect_same_stream(tn2, record_encoded_trace(n_again), "cached N");

  TraceCache off(false);
  off.trace(n);
  off.trace(n_again);
  EXPECT_EQ(off.recordings(), 2u);
  EXPECT_EQ(off.relocations(), 0u);
}

// ---------------------------------------------------------------------------
// The workload matrix: relocate each workload's N recording to every one
// of its cells.
// ---------------------------------------------------------------------------

TEST(RelocationMatrix, RelocatedNRecordingEqualsEveryAdmittedCell) {
  std::vector<CompileJob> jobs = workload_matrix_jobs();
  ASSERT_EQ(jobs.size(), 29u);  // 10 N + 10 C + 9 P
  std::vector<Compiled> cells;
  for (const CompileJob& job : jobs)
    cells.push_back(compile_source(job.source, job.options));

  std::map<std::string, size_t> n_cell;  // workload -> its N cell
  std::map<std::string, EncodedTrace> n_trace;
  int relocated_c = 0;
  for (size_t i = 0; i < cells.size(); ++i) {
    const std::string& label = jobs[i].label;
    const std::string workload = label.substr(0, label.find('/'));
    const std::string variant = label.substr(label.find('/') + 1);
    const Compiled& to = cells[i];
    if (variant == "N") {
      n_cell[workload] = i;
      n_trace[workload] = record_encoded_trace(to);
    }
    const Compiled& from = cells.at(n_cell.at(workload));
    auto rel = relocation_between(from.code, to.code);
    if (rel == nullptr) {
      // Refused: only another source (P) or added pointer-slot loads (a
      // C plan with indirection) may differ in shape.
      EXPECT_NE(variant, "N") << label;
      if (variant == "C") {
        EXPECT_TRUE(uses_indirection(to.code)) << label;
      }
      continue;
    }
    EncodedTrace fresh = record_encoded_trace(to);
    EncodedTrace moved = n_trace.at(workload).relocated(rel);
    expect_same_stream(moved, fresh, label);
    if (variant != "C") continue;
    ++relocated_c;
    // End to end through the (auto-sharded) study with attribution.
    AddressMap am = build_address_map(to);
    TraceStudyResult a = replay_trace_study(moved, to, {16, 128}, 32 * 1024,
                                            &am);
    TraceStudyResult b = replay_trace_study(fresh, to, {16, 128}, 32 * 1024,
                                            &am);
    EXPECT_EQ(a.by_block, b.by_block) << label;
    EXPECT_EQ(a.by_datum, b.by_datum) << label;
  }
  // Seven of the ten C plans keep N's shape (pverify, topopt and pthor
  // add indirection).
  EXPECT_GE(relocated_c, 7);
}

// ---------------------------------------------------------------------------
// Random plans drawn from the search's own move domains, all served by
// one cache: whatever mix of moves a plan combines, its trace — relocated
// or recorded — must be its fresh recording.  FSOPT_FUZZ_ITERS scales
// the plans per workload.
// ---------------------------------------------------------------------------

TEST(RelocationFuzz, RandomPlansGetTheirOwnRecording) {
  int iters = 6;
  if (const char* env = std::getenv("FSOPT_FUZZ_ITERS")) {
    int v = std::atoi(env);
    if (v > 0) iters = v;
  }
  const std::vector<i64> blocks = {32, 64, 128, 256};
  std::mt19937 rng(20261016);
  // pthor's static plan indirects; mp3d's and locusroute's do not.
  for (const char* name : {"mp3d", "pthor", "locusroute"}) {
    const workloads::Workload& w = workloads::get(name);
    CompileOptions base;
    base.overrides = w.sim_overrides;
    base.overrides["NPROCS"] = w.fig3_procs;
    base.optimize = true;
    Compiled c = compile_source(w.natural, base);
    AddressMap am = build_address_map(c);
    TraceStudyResult st =
        run_trace_study(c, blocks, 32 * 1024, &am, 0, true);
    FalseSharingProfile profile = build_fs_profile(st, 128);
    ConflictProfile conflicts = build_conflict_profile(st, 128, am);
    PlannerInputs in{c.report, c.summary,    base.decision, 128,
                     &profile, &c.transforms, &conflicts};
    std::vector<SearchDomain> domains =
        SearchPlanner({}, blocks, nullptr).domains(in);
    ASSERT_FALSE(domains.empty()) << name;

    TraceCache cache;
    for (int it = 0; it < iters; ++it) {
      TransformPlan plan = c.transforms;
      for (const SearchDomain& d : domains) {
        const size_t pick = rng() % (d.moves.size() + 1);
        if (pick > 0) plan = apply_search_move(plan, d.moves[pick - 1]);
      }
      CompileOptions o = base;
      o.plan = std::make_shared<TransformPlan>(plan);
      Compiled cand = compile_source(w.natural, o);
      expect_same_stream(cache.trace(cand), record_encoded_trace(cand),
                         std::string(name) + " plan " + std::to_string(it));
    }
    EXPECT_GT(cache.relocations(), 0u) << name;
  }
}

}  // namespace
}  // namespace fsopt
