// Tests for the access-pattern taxonomy (sim/patterns.h) and the
// diagnosis layer built on it (analysis/diagnose.h): synthetic reference
// streams with a known shape must get the expected label, the diagnosis
// report must serialize to a parseable JSON document, and every
// workload's report is pinned to its captured value.
#include "sim/patterns.h"

#include <gtest/gtest.h>

#include <set>

#include "analysis/diagnose.h"
#include "driver/experiment.h"
#include "reference_sim.h"
#include "support/json.h"
#include "workloads/workloads.h"

namespace fsopt {
namespace {

MemRef read_ref(i64 addr, int proc) {
  return {addr, 4, static_cast<u8>(proc), RefType::kRead};
}
MemRef write_ref(i64 addr, int proc) {
  return {addr, 4, static_cast<u8>(proc), RefType::kWrite};
}

/// Feed a hand-built stream to the reference model (for the attributed
/// miss classes) and to a PatternCollector; return the labeled summaries.
struct Harness {
  AddressMap map;
  CacheParams params;

  explicit Harness(i64 nprocs, i64 cache_bytes = 32 * 1024,
                   i64 block = 64, i64 total = 1 << 20)
      : params{nprocs, cache_bytes, block, total} {}

  std::vector<DatumPattern> run(const std::vector<MemRef>& refs,
                                const PatternThresholds& t = {}) {
    benchx::ReferenceSim sim(params, &map);
    sim.on_batch(refs.data(), refs.size());
    PatternCollector pc(&map, params);
    pc.on_batch(refs.data(), refs.size());
    return pc.patterns(sim.by_datum(), t);
  }
};

const DatumPattern* find(const std::vector<DatumPattern>& ps,
                         const std::string& name) {
  for (const DatumPattern& p : ps)
    if (p.name == name) return &p;
  return nullptr;
}

TEST(PatternNames, RoundTripEverySpelling) {
  // The diagnosis report keys each datum's label by its spelling, so the
  // eight spellings must be distinct.
  std::set<std::string> spellings;
  for (AccessPattern p :
       {AccessPattern::kNone, AccessPattern::kStrided,
        AccessPattern::kPingPong, AccessPattern::kMigratory,
        AccessPattern::kProducerConsumer, AccessPattern::kReadShared,
        AccessPattern::kThrashingCapacity, AccessPattern::kConflict}) {
    spellings.insert(pattern_name(p));
  }
  EXPECT_EQ(spellings.size(), 8u);
  EXPECT_STREQ(pattern_name(AccessPattern::kThrashingCapacity),
               "thrashing(capacity)");
}

TEST(Patterns, KnownStrideWalkIsStrided) {
  Harness h(1);
  h.map.add(0, 4096, "walk");
  std::vector<MemRef> refs;
  // One processor writes every 8th word — a single dominant stride, no
  // sharing of any kind.
  for (i64 a = 0; a + 4 <= 4096; a += 32) refs.push_back(write_ref(a, 0));
  auto ps = h.run(refs);
  const DatumPattern* p = find(ps, "walk");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->label, AccessPattern::kStrided);
  EXPECT_EQ(p->dominant_stride, 32);
  EXPECT_GE(p->stride_share, 0.99);
  EXPECT_EQ(p->writers, 1);
}

TEST(Patterns, TwoProcAlternatingWritesOnOneLineArePingPong) {
  Harness h(2);
  h.map.add(0, 64, "line");
  std::vector<MemRef> refs;
  // Proc 0 owns word 0, proc 1 owns word 32 — same 64-byte block, strict
  // alternation: every miss after warmup is a sharing miss and every
  // ownership run has length 1.
  for (int i = 0; i < 200; ++i) {
    refs.push_back(write_ref(0, 0));
    refs.push_back(write_ref(32, 1));
  }
  auto ps = h.run(refs);
  const DatumPattern* p = find(ps, "line");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->label, AccessPattern::kPingPong);
  EXPECT_EQ(p->writers, 2);
  EXPECT_GE(p->pingpong_share, 0.99);
  EXPECT_LT(p->mean_run, 2.0);
  EXPECT_GT(p->stats.false_sharing, 0u);
}

TEST(Patterns, SingleWriterMigrationIsMigratory) {
  Harness h(4);
  h.map.add(0, 64, "token");
  std::vector<MemRef> refs;
  // Ownership moves between processors in long runs: each works the word
  // 32 times before handing off — sharing misses, but nothing like the
  // ping-pong cadence.
  for (int round = 0; round < 8; ++round)
    for (int proc = 0; proc < 4; ++proc)
      for (int k = 0; k < 32; ++k) refs.push_back(write_ref(0, proc));
  auto ps = h.run(refs);
  const DatumPattern* p = find(ps, "token");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->label, AccessPattern::kMigratory);
  EXPECT_EQ(p->writers, 4);
  EXPECT_GE(p->mean_run, 4.0);
}

TEST(Patterns, OneWriterManyReadersIsProducerConsumer) {
  Harness h(4);
  h.map.add(0, 64, "mailbox");
  std::vector<MemRef> refs;
  // Proc 0 publishes, procs 1-3 read it back: the read misses are
  // sharing misses, but only one processor ever writes.
  for (int i = 0; i < 100; ++i) {
    refs.push_back(write_ref(0, 0));
    for (int proc = 1; proc < 4; ++proc) refs.push_back(read_ref(0, proc));
  }
  auto ps = h.run(refs);
  const DatumPattern* p = find(ps, "mailbox");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->label, AccessPattern::kProducerConsumer);
  EXPECT_EQ(p->writers, 1);
  EXPECT_GE(p->readers, 3);
}

TEST(Patterns, ReadOnlyFanOutIsReadSharedEvenWhenStrided) {
  Harness h(4);
  h.map.add(0, 4096, "table");
  std::vector<MemRef> refs;
  // Every processor walks the table in a regular stride, nobody writes.
  // Read-shared outranks strided in the ladder: read-only data cannot
  // falsely share, which is the more useful headline.
  for (int proc = 0; proc < 4; ++proc)
    for (i64 a = 0; a + 4 <= 4096; a += 64)
      refs.push_back(read_ref(a, proc));
  auto ps = h.run(refs);
  const DatumPattern* p = find(ps, "table");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->label, AccessPattern::kReadShared);
  EXPECT_EQ(p->writes, 0u);
  EXPECT_EQ(p->readers, 4);
}

TEST(Patterns, CapacityOverflowIsThrashing) {
  // 256-byte cache, 4 KiB working set, walked repeatedly: after the cold
  // pass every miss is a replacement miss and the footprint exceeds the
  // per-processor cache.
  Harness h(1, /*cache_bytes=*/256, /*block=*/64);
  h.map.add(0, 4096, "big");
  std::vector<MemRef> refs;
  for (int pass = 0; pass < 4; ++pass)
    for (i64 a = 0; a + 4 <= 4096; a += 64) refs.push_back(read_ref(a, 0));
  auto ps = h.run(refs);
  const DatumPattern* p = find(ps, "big");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->label, AccessPattern::kThrashingCapacity);
  EXPECT_GT(p->footprint, 256);
}

TEST(Patterns, EvictionPressureWithSmallFootprintIsConflict) {
  // Datum "small" fits the cache easily, but the interleaved walk over
  // "filler" keeps evicting it: replacement-dominated misses with a
  // resident-size footprint — a conflict, not a capacity problem.
  Harness h(1, /*cache_bytes=*/256, /*block=*/64);
  h.map.add(0, 64, "small");
  h.map.add(4096, 8192, "filler");
  std::vector<MemRef> refs;
  for (int round = 0; round < 64; ++round) {
    refs.push_back(read_ref(0, 0));
    for (i64 a = 4096; a + 4 <= 8192; a += 64)
      refs.push_back(read_ref(a, 0));
  }
  auto ps = h.run(refs);
  const DatumPattern* p = find(ps, "small");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->label, AccessPattern::kConflict);
  EXPECT_LE(p->footprint, 256);
}

TEST(Patterns, TooFewReferencesStayUnlabeled) {
  Harness h(2);
  h.map.add(0, 64, "rare");
  std::vector<MemRef> refs = {write_ref(0, 0), write_ref(0, 1),
                              write_ref(0, 0)};
  auto ps = h.run(refs);
  const DatumPattern* p = find(ps, "rare");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->label, AccessPattern::kNone);  // under min_refs
}

TEST(Patterns, AttributionOfAnotherStreamIsRejected) {
  // The summaries take their miss classes from the replay's attribution;
  // a map that does not count the summarized references is a caller bug.
  Harness h(2);
  h.map.add(0, 64, "line");
  std::vector<MemRef> refs = {write_ref(0, 0), write_ref(32, 1)};
  PatternCollector pc(&h.map, h.params);
  pc.on_batch(refs.data(), refs.size());
  EXPECT_THROW(pc.patterns({}), InternalError);
  MissStats one;
  one.refs = 1;
  EXPECT_THROW(pc.patterns({{"line", one}}), InternalError);
}

// ---------------------------------------------------------------------------
// Diagnosis report.
// ---------------------------------------------------------------------------

const char* kProgram =
    "param NPROCS = 4;\n"
    "param N = 64;\n"
    "struct cell { int count; int pad; };\n"
    "struct cell cells[64];\n"
    "void main(int pid) {\n"
    "  int i;\n"
    "  for (i = pid; i < N; i = i + NPROCS) {\n"
    "    cells[i].count = cells[i].count + 1;\n"
    "  }\n"
    "  barrier();\n"
    "}\n";

TEST(Diagnose, ReportCoversDatumsAndRoundTripsThroughJson) {
  Compiled c = compile_source(kProgram, CompileOptions{});
  DiagnoseOptions opt;
  opt.block_size = 64;
  DiagnosisReport rep = diagnose(c, "synthetic", opt);

  EXPECT_EQ(rep.workload, "synthetic");
  EXPECT_EQ(rep.block_size, 64);
  EXPECT_GT(rep.refs, 0u);
  ASSERT_FALSE(rep.datums.empty());
  for (const DatumDiagnosis& d : rep.datums) {
    EXPECT_FALSE(d.name.empty());
    ASSERT_FALSE(d.recommendations.empty());
    // Ranked: scores are non-increasing, actions unique.
    for (size_t i = 1; i < d.recommendations.size(); ++i) {
      EXPECT_LE(d.recommendations[i].score,
                d.recommendations[i - 1].score);
      EXPECT_NE(d.recommendations[i].action,
                d.recommendations[i - 1].action);
    }
  }
  // The interleaved writers of `cells` falsely share; the report must
  // say so and recommend something.
  const DatumDiagnosis* cells = rep.find("cells.count");
  if (cells == nullptr) cells = rep.find("cells");
  ASSERT_NE(cells, nullptr);
  EXPECT_GT(cells->stats.false_sharing, 0u);
  EXPECT_NE(cells->top().action, "none");

  std::string doc = diagnosis_to_json(rep);
  EXPECT_TRUE(json::parse(doc).has_value()) << doc;

  EXPECT_FALSE(render_diagnosis(rep).empty());
}

TEST(Diagnose, PlannerBackedRecommendationOutranksHeuristics) {
  // Compile *without* transformations so the planner has repairs to
  // propose; every planner-backed recommendation must sit at the top of
  // its datum's ranking.
  Compiled c = compile_source(kProgram, CompileOptions{});
  DiagnoseOptions opt;
  opt.block_size = 64;
  DiagnosisReport rep = diagnose(c, "synthetic", opt);
  bool any_planner = false;
  for (const DatumDiagnosis& d : rep.datums) {
    for (size_t i = 0; i < d.recommendations.size(); ++i) {
      if (d.recommendations[i].from_planner) {
        any_planner = true;
        EXPECT_EQ(i, 0u) << d.name;
      }
    }
  }
  EXPECT_TRUE(any_planner);
}

// Every workload's C compile at 128 B, diagnosed with the default
// options: the report's JSON document, hashed with 64-bit FNV-1a.  Any
// change to the replay, the attribution, the conflict graph, the pattern
// summarizer or the planner-backed recommendations moves one of these;
// a restructuring of how the report is computed must not.
TEST(Diagnose, GoldenReports) {
  static const std::pair<const char*, u64> kGolden[] = {
      {"maxflow", 0x2d6dcc08258f8e7eull},
      {"pverify", 0x324655a94cdf6dd5ull},
      {"topopt", 0x750ba21ff37b3a3dull},
      {"fmm", 0xf9337e86b8968c0dull},
      {"radiosity", 0x5d3e189772c7dda3ull},
      {"raytrace", 0xbea6be59b34e96dfull},
      {"locusroute", 0x5c47886070c78a03ull},
      {"mp3d", 0x8f9c71d2aabc1c8dull},
      {"pthor", 0xa101ac0c840a32c3ull},
      {"water", 0x6d0cfe3428437198ull},
  };
  for (const auto& [name, want] : kGolden) {
    const workloads::Workload& w = workloads::get(name);
    CompileOptions o;
    o.overrides = w.sim_overrides;
    o.overrides["NPROCS"] = w.fig3_procs;
    o.optimize = true;
    o.block_size = 128;
    Compiled c = compile_source(w.natural, o);
    const std::string doc = diagnosis_to_json(diagnose(c, w.name));
    u64 h = 14695981039346656037ull;
    for (unsigned char ch : doc) {
      h ^= ch;
      h *= 1099511628211ull;
    }
    EXPECT_EQ(h, want) << name;
  }
}

TEST(Diagnose, TransformActionVocabulary) {
  EXPECT_STREQ(transform_action(TransformKind::kPadAlign), "pad");
  EXPECT_STREQ(transform_action(TransformKind::kLockPad), "pad");
  EXPECT_STREQ(transform_action(TransformKind::kFieldReorder), "reorder");
  EXPECT_STREQ(transform_action(TransformKind::kGroupTranspose), "reorder");
  EXPECT_STREQ(transform_action(TransformKind::kHotColdSplit), "split");
  EXPECT_STREQ(transform_action(TransformKind::kIndirection), "split");
  EXPECT_STREQ(transform_action(TransformKind::kIntraPad), "stride");
  EXPECT_STREQ(transform_action(TransformKind::kNone), "none");
}

}  // namespace
}  // namespace fsopt
