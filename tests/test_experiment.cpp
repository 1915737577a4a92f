// Tests for the record-once/replay-many experiment harness: thread-count
// determinism, trace reuse, result merging, and the at() diagnostics.
#include <gtest/gtest.h>

#include "driver/experiment.h"

namespace fsopt {
namespace {

const char* kProgram =
    "param NPROCS = 4; param N = 48;\n"
    "real a[N]; int counters[NPROCS]; lock_t l; int done;\n"
    "void main(int pid) { int i; int r;\n"
    "  for (r = 0; r < 4; r = r + 1) {\n"
    "    for (i = pid; i < N; i = i + nprocs) { a[i] = a[i] + 1.0; }\n"
    "    counters[pid] = counters[pid] + 1;\n"
    "    barrier();\n"
    "  }\n"
    "  lock(l); done = done + 1; unlock(l);\n"
    "}\n";

Compiled compile_opt() {
  CompileOptions opt;
  opt.optimize = true;
  return compile_source(kProgram, opt);
}

TEST(Experiment, TraceStudyDeterministicAcrossThreadCounts) {
  Compiled c = compile_opt();
  AddressMap am = build_address_map(c);
  TraceStudyResult serial =
      run_trace_study(c, paper_block_sizes(), 32 * 1024, &am, /*threads=*/1);
  for (int threads : {2, 4, 8}) {
    TraceStudyResult parallel =
        run_trace_study(c, paper_block_sizes(), 32 * 1024, &am, threads);
    EXPECT_EQ(parallel.refs, serial.refs) << threads;
    // Every MissStats field of every block size must be bit-identical.
    EXPECT_EQ(parallel.by_block, serial.by_block) << threads;
    // ... and the per-datum attribution too.
    EXPECT_EQ(parallel.by_datum, serial.by_datum) << threads;
  }
}

TEST(Experiment, RecordedTraceReplaysLikeTheOneShotStudy) {
  Compiled c = compile_opt();
  TraceStudyResult oneshot = run_trace_study(c, {16, 128});
  EncodedTrace trace = record_encoded_trace(c);
  EXPECT_EQ(trace.size(), oneshot.refs);
  TraceStudyResult replayed = replay_trace_study(trace, c, {16, 128});
  EXPECT_EQ(replayed.by_block, oneshot.by_block);
  // A second replay of the same buffer gives the same answer again.
  TraceStudyResult again = replay_trace_study(trace, c, {16, 128});
  EXPECT_EQ(again.by_block, oneshot.by_block);
}

TEST(Experiment, AtDiagnosesUnsimulatedBlockSize) {
  Compiled c = compile_source(kProgram, {});
  TraceStudyResult st = run_trace_study(c, {16, 128});
  EXPECT_NO_THROW(st.at(16));
  try {
    st.at(64);
    FAIL() << "expected InternalError";
  } catch (const InternalError& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("64"), std::string::npos) << msg;
    EXPECT_NE(msg.find("16, 128"), std::string::npos) << msg;
  }
}

TEST(Experiment, AtOnEmptyStudyNamesNoSizes) {
  TraceStudyResult st;
  try {
    st.at(32);
    FAIL() << "expected InternalError";
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find("none"), std::string::npos);
  }
}

TEST(Experiment, BlockSubsetStudiesMatchTheWholeSweep) {
  // Planes never interact: studying a subset of the block sizes gives
  // each one the stats it has in the whole sweep.
  Compiled c = compile_opt();
  EncodedTrace trace = record_encoded_trace(c);
  TraceStudyResult all = replay_trace_study(trace, c, {16, 64, 128});
  TraceStudyResult lo = replay_trace_study(trace, c, {16});
  TraceStudyResult hi = replay_trace_study(trace, c, {64, 128});
  EXPECT_EQ(lo.at(16), all.at(16));
  EXPECT_EQ(hi.at(64), all.at(64));
  EXPECT_EQ(hi.at(128), all.at(128));
  EXPECT_EQ(lo.refs, all.refs);
  EXPECT_EQ(hi.refs, all.refs);
}

TEST(Experiment, MissStatsMergeAddsEveryField) {
  MissStats a;
  a.refs = 10; a.hits = 5; a.cold = 1; a.replacement = 1;
  a.true_sharing = 1; a.false_sharing = 2; a.upgrades = 3;
  a.invalidations = 4;
  MissStats b = a;
  b.merge(a);
  EXPECT_EQ(b.refs, 20u);
  EXPECT_EQ(b.hits, 10u);
  EXPECT_EQ(b.cold, 2u);
  EXPECT_EQ(b.replacement, 2u);
  EXPECT_EQ(b.true_sharing, 2u);
  EXPECT_EQ(b.false_sharing, 4u);
  EXPECT_EQ(b.upgrades, 6u);
  EXPECT_EQ(b.invalidations, 8u);
}

TEST(Experiment, SpeedupSweepDeterministicAcrossThreadCounts) {
  CompileOptions base;
  i64 bl = baseline_cycles(kProgram, base);
  SpeedupCurve serial =
      speedup_sweep(kProgram, {1, 2, 4}, base, bl, /*threads=*/1);
  SpeedupCurve parallel =
      speedup_sweep(kProgram, {1, 2, 4}, base, bl, /*threads=*/4);
  EXPECT_EQ(serial.procs, parallel.procs);
  ASSERT_EQ(serial.speedup.size(), parallel.speedup.size());
  for (size_t i = 0; i < serial.speedup.size(); ++i)
    EXPECT_EQ(serial.speedup[i], parallel.speedup[i]) << i;
}

TEST(Experiment, ThreadsKnobRoundTrips) {
  set_experiment_threads(3);
  EXPECT_EQ(experiment_threads(), 3);
  set_experiment_threads(0);
  EXPECT_GE(experiment_threads(), 1);  // auto
}

}  // namespace
}  // namespace fsopt
