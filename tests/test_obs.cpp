// Tests for the runtime tracing subsystem (src/obs/): span recording,
// nesting and thread attribution, Chrome-trace JSON well-formedness,
// parallel_for_each instrumentation (worker names, one job span per
// worker), summary aggregation, and the must-not-perturb-results
// guarantee — replay stats bit-identical with tracing on vs. off,
// alongside the composed-replay suite in test_multi_shard_replay.cpp.
// The second half covers the metrics registry (obs/metrics.h):
// concurrent-increment exactness, the kind-mismatch check, both
// expositions, the partial-data marker, pool.jobs per parallel call, the
// interpreter's run span and counters on a KSR2 timing run, and the
// decode and plane work counters of a sharded sweep.
#include "obs/obs.h"

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <thread>

#include "driver/experiment.h"
#include "obs/metrics.h"
#include "obs/trace_writer.h"
#include "support/json.h"
#include "support/thread_pool.h"

namespace fsopt {
namespace {

/// Every obs test starts from a clean, enabled recorder and leaves
/// tracing disabled so the rest of the suite runs uninstrumented.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::reset();
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::reset();
  }
};

const obs::ThreadLog* log_with_span(const obs::TraceData& data,
                                    std::string_view name) {
  for (const obs::ThreadLog& t : data.threads)
    for (const obs::SpanEvent& s : t.spans)
      if (s.name == name) return &t;
  return nullptr;
}

const obs::SpanEvent* find_span(const obs::TraceData& data,
                                std::string_view name) {
  for (const obs::ThreadLog& t : data.threads)
    for (const obs::SpanEvent& s : t.spans)
      if (s.name == name) return &s;
  return nullptr;
}

TEST_F(ObsTest, DisabledSpansRecordNothing) {
  obs::set_enabled(false);
  {
    obs::Span span("test", "invisible");
    EXPECT_FALSE(span.active());
    span.arg("k", 1.0);  // must be a no-op, not a crash
  }
  obs::TraceData data = obs::collect();
  EXPECT_EQ(data.span_count(), 0u);
}

TEST_F(ObsTest, SpanNestingAndThreadAttribution) {
  obs::set_thread_name("obs-test-main");
  {
    obs::Span outer("test", "outer");
    ASSERT_TRUE(outer.active());
    {
      obs::Span inner("test", "inner");
      ASSERT_TRUE(inner.active());
    }
  }
  std::thread worker([] {
    obs::set_thread_name("obs-test-worker");
    obs::Span span("test", "elsewhere");
  });
  worker.join();

  obs::TraceData data = obs::collect();
  const obs::SpanEvent* outer = find_span(data, "outer");
  const obs::SpanEvent* inner = find_span(data, "inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  // The inner interval nests inside the outer one.
  EXPECT_GE(inner->start_ns, outer->start_ns);
  EXPECT_LE(inner->start_ns + inner->dur_ns,
            outer->start_ns + outer->dur_ns);

  // Same thread for outer/inner; a different, named thread for the third.
  const obs::ThreadLog* main_log = log_with_span(data, "outer");
  const obs::ThreadLog* worker_log = log_with_span(data, "elsewhere");
  ASSERT_NE(main_log, nullptr);
  ASSERT_NE(worker_log, nullptr);
  EXPECT_EQ(main_log, log_with_span(data, "inner"));
  EXPECT_NE(main_log->tid, worker_log->tid);
  EXPECT_EQ(main_log->name, "obs-test-main");
  EXPECT_EQ(worker_log->name, "obs-test-worker");
}

TEST_F(ObsTest, ChromeTraceJsonRoundTripsThroughValidator) {
  {
    obs::Span span("cat/with\"quote", "na\\me\nwith\tescapes");
    span.arg("refs", 12345.0);
    span.arg("label", "fmm/C \"quoted\"");
  }
  obs::TraceData data = obs::collect();
  ASSERT_EQ(data.span_count(), 1u);

  std::string doc = obs::chrome_trace_json(data);
  EXPECT_TRUE(json::parse(doc).has_value()) << doc;
  // The document carries the span (escaped), its args, and the
  // trace-event framing.
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("na\\\\me\\nwith\\tescapes"), std::string::npos);
  EXPECT_NE(doc.find("\"refs\": 12345"), std::string::npos);
  EXPECT_NE(doc.find("fmm/C \\\"quoted\\\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\": \"M\""), std::string::npos);
}

TEST_F(ObsTest, ParallelForEachNamesWorkersAndRecordsOneJobSpanEach) {
  // Each of the min(threads, n) workers records one pool/job span on a
  // thread named pool-worker-<w>; perfbench counts these names as
  // pool.threads_spawned.
  parallel_for_each(4, 8, [](size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  obs::TraceData data = obs::collect();
  std::multiset<std::string> job_threads;
  for (const obs::ThreadLog& t : data.threads)
    for (const obs::SpanEvent& s : t.spans)
      if (std::string_view(s.category) == "pool" && s.name == "job")
        job_threads.insert(t.name);
  EXPECT_EQ(job_threads,
            (std::multiset<std::string>{"pool-worker-0", "pool-worker-1",
                                        "pool-worker-2", "pool-worker-3"}));

  obs::TraceSummary summary = obs::summarize(data);
  EXPECT_GT(summary.pool_utilization(), 0.0);
  EXPECT_LE(summary.pool_utilization(), 1.0 + 1e-9);

  // The inline path starts no worker and records no span.
  obs::reset();
  parallel_for_each(1, 8, [](size_t) {});
  parallel_for_each(4, 1, [](size_t) {});
  EXPECT_EQ(obs::collect().span_count(), 0u);
}

// Every parallel call starts fresh workers, so a run sees many more pool
// threads than ever work at once.  Utilization divides by the peak number
// of jobs running at once: two pools of four, one after the other, are
// four workers, not eight.
TEST_F(ObsTest, PoolUtilizationDividesByPeakConcurrentJobs) {
  obs::TraceData data;
  u32 tid = 1;
  for (u64 start : {u64{0}, u64{2'000'000}}) {
    for (int w = 0; w < 4; ++w) {
      obs::ThreadLog log;
      log.tid = tid++;
      obs::SpanEvent job;
      job.category = "pool";
      job.name = "job";
      job.start_ns = start + static_cast<u64>(w) * 100'000;
      job.dur_ns = 1'000'000;
      log.spans.push_back(job);
      data.threads.push_back(std::move(log));
    }
  }
  obs::TraceSummary summary = obs::summarize(data);
  EXPECT_EQ(summary.pool_workers, 4);
  EXPECT_GT(summary.pool_utilization(), 0.0);
  EXPECT_LE(summary.pool_utilization(), 1.0);
}

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

/// One cache configuration per paper block size for compile `c`.
std::vector<CacheParams> paper_params(const Compiled& c) {
  std::vector<CacheParams> params;
  for (i64 b : paper_block_sizes())
    params.push_back({c.nprocs(), 32 * 1024, b, c.code.total_bytes});
  return params;
}

/// A two-shard sweep of `c` over the paper block sizes: what
/// replay_trace_study runs with two threads, called directly.
MultiReplayResult composed_sweep(const Compiled& c) {
  return replay_multi(record_encoded_trace(c), paper_params(c), nullptr,
                      /*threads=*/2);
}

TEST_F(ObsTest, EndToEndRunEmitsPassRecordAndReplaySpans) {
  Compiled c = compile_source(kProgram, CompileOptions{});
  composed_sweep(c);

  obs::TraceData data = obs::collect();
  EXPECT_NE(find_span(data, "parse"), nullptr);
  EXPECT_NE(find_span(data, "codegen"), nullptr);
  EXPECT_NE(find_span(data, "record_encoded_trace"), nullptr);
  // The sharded replay: one span per shard with its simulated and
  // scanned references and throughput, one span per plane with the
  // miss-class counters.
  const obs::SpanEvent* shard = find_span(data, "multi_shard");
  ASSERT_NE(shard, nullptr);
  bool has_refs = false, has_scanned = false;
  for (const obs::Arg& a : shard->args) {
    has_refs |= a.key == "refs";
    has_scanned |= a.key == "scanned";
  }
  EXPECT_TRUE(has_refs);
  EXPECT_TRUE(has_scanned);
  const obs::SpanEvent* plane = find_span(data, "plane");
  ASSERT_NE(plane, nullptr);
  bool has_fs = false;
  for (const obs::Arg& a : plane->args) has_fs |= a.key == "false_sharing";
  EXPECT_TRUE(has_fs);

  obs::TraceSummary summary = obs::summarize(data);
  EXPECT_FALSE(summary.slowest_pass.empty());
  EXPECT_GE(summary.slowest_shard, 0);
  EXPECT_GT(summary.wall_seconds, 0.0);
  std::string rendered = obs::render_summary(data);
  EXPECT_NE(rendered.find("pass"), std::string::npos);
  EXPECT_NE(rendered.find("slowest pass"), std::string::npos);
  EXPECT_NE(rendered.find("slowest replay shard"), std::string::npos);
}

TEST_F(ObsTest, StatsBitIdenticalWithTracingOnAndOff) {
  // The observability guarantee: instrumentation reads clocks and writes
  // its own buffers, never simulator state — so every stat of a traced
  // run equals the untraced run exactly.
  obs::set_enabled(false);
  Compiled off_c = compile_source(kProgram, CompileOptions{});
  TraceStudyResult off =
      run_trace_study(off_c, paper_block_sizes(), 32 * 1024, nullptr,
                      /*threads=*/2);
  MultiReplayResult off_composed = composed_sweep(off_c);

  obs::set_enabled(true);
  Compiled on_c = compile_source(kProgram, CompileOptions{});
  TraceStudyResult on =
      run_trace_study(on_c, paper_block_sizes(), 32 * 1024, nullptr,
                      /*threads=*/2);
  MultiReplayResult on_composed = composed_sweep(on_c);
  EXPECT_EQ(off_composed.stats, on_composed.stats);

  EXPECT_EQ(compile_fingerprint(off_c), compile_fingerprint(on_c));
  EXPECT_EQ(off.refs, on.refs);
  ASSERT_EQ(off.by_block.size(), on.by_block.size());
  for (const auto& [block, stats] : off.by_block) {
    ASSERT_TRUE(on.by_block.count(block)) << "block " << block;
    EXPECT_EQ(stats, on.by_block.at(block)) << "block " << block;
  }
  // And the traced run actually recorded something.
  EXPECT_GT(obs::collect().span_count(), 0u);
}

TEST_F(ObsTest, ResetDropsEventsButKeepsThreadNames) {
  obs::set_thread_name("keeper");
  { obs::Span span("test", "gone-after-reset"); }
  ASSERT_GE(obs::collect().span_count(), 1u);
  obs::reset();
  obs::TraceData data = obs::collect();
  EXPECT_EQ(data.span_count(), 0u);
  bool found = false;
  for (const obs::ThreadLog& t : data.threads) found |= t.name == "keeper";
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Metrics registry (obs/metrics.h).
// ---------------------------------------------------------------------------

/// Instruments are process-global (registrations persist), so every test
/// zeroes them and uses its own metric names.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_metrics_enabled(true);
    obs::metrics_reset();
    obs::reset();  // clears any partial marker a prior test left behind
  }
  void TearDown() override {
    obs::set_metrics_enabled(false);
    obs::metrics_reset();
    obs::reset();
  }

  const obs::MetricSample* sample(const obs::MetricsSnapshot& snap,
                                  std::string_view name) {
    for (const obs::MetricSample& s : snap.samples)
      if (s.name == name) return &s;
    return nullptr;
  }
};

TEST_F(MetricsTest, ConcurrentIncrementsAreLossless) {
  obs::Counter& c = obs::metric_counter("test.concurrent_counter");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.inc();
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<u64>(kThreads) * kPerThread);
}

TEST_F(MetricsTest, DisabledUpdatesAccumulateNothing) {
  obs::Counter& c = obs::metric_counter("test.disabled_counter");
  obs::Gauge& g = obs::metric_gauge("test.disabled_gauge");
  obs::set_metrics_enabled(false);
  c.inc(5);
  g.set(3.0);
  g.add(2.0);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST_F(MetricsTest, KindMismatchThrows) {
  obs::metric_counter("test.kind_clash");
  EXPECT_THROW(obs::metric_gauge("test.kind_clash"), InternalError);
  // Same name under different labels is a distinct instrument — no clash.
  obs::metric_gauge("test.kind_clash", {{"labeled", "yes"}});
}

TEST_F(MetricsTest, SnapshotExportsJsonAndPrometheus) {
  obs::metric_counter("test.export_counter").inc(3);
  obs::metric_gauge("test.export_gauge", {{"workload", "fmm"}}).set(1.5);

  obs::MetricsSnapshot snap = obs::metrics_snapshot();
  EXPECT_FALSE(snap.partial());
  const obs::MetricSample* c = sample(snap, "test.export_counter");
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->value, 3.0);

  std::string doc = obs::metrics_to_json(snap);
  EXPECT_TRUE(json::parse(doc).has_value()) << doc;
  EXPECT_NE(doc.find("\"metrics_version\": 1"), std::string::npos);
  EXPECT_NE(doc.find("\"test.export_gauge\""), std::string::npos);

  std::string prom = obs::metrics_to_prometheus(snap);
  EXPECT_NE(prom.find("fsopt_test_export_counter_total 3"),
            std::string::npos);
  EXPECT_NE(prom.find("fsopt_test_export_gauge{workload=\"fmm\"} 1.5"),
            std::string::npos);
  EXPECT_NE(prom.find("fsopt_partial 0"), std::string::npos);
}

TEST_F(MetricsTest, PartialMarkerFlowsIntoBothExpositions) {
  obs::mark_partial("unit-test abort");
  obs::mark_partial("second reason loses");  // first reason sticks
  EXPECT_EQ(obs::partial_reason(), "unit-test abort");

  obs::MetricsSnapshot snap = obs::metrics_snapshot();
  EXPECT_TRUE(snap.partial());
  EXPECT_EQ(snap.partial_reason, "unit-test abort");
  EXPECT_NE(obs::metrics_to_json(snap).find("\"partial\": true"),
            std::string::npos);
  EXPECT_NE(obs::metrics_to_prometheus(snap).find("fsopt_partial 1"),
            std::string::npos);

  obs::reset();  // reset clears the marker with the rest of the obs state
  EXPECT_EQ(obs::partial_reason(), "");
  EXPECT_FALSE(obs::metrics_snapshot().partial());
}

TEST_F(MetricsTest, ParallelForEachCountsOneJobPerWorker) {
  // Each call adds min(threads, n) to pool.jobs; the inline path adds 0.
  parallel_for_each(2, 5, [](size_t) {});
  parallel_for_each(4, 3, [](size_t) {});
  parallel_for_each(1, 8, [](size_t) {});
  obs::MetricsSnapshot snap = obs::metrics_snapshot();
  const obs::MetricSample* jobs = sample(snap, "pool.jobs");
  ASSERT_NE(jobs, nullptr);
  EXPECT_DOUBLE_EQ(jobs->value, 5.0);
}

TEST_F(MetricsTest, KsrRunReportsInterpreterSpanAndCounters) {
  // One KSR2 timing run: the interpreter opens one interp/run span
  // carrying its work, and adds the same totals to the registry counters.
  obs::set_enabled(true);
  Compiled c = compile_source(kProgram, CompileOptions{});
  obs::reset();
  obs::metrics_reset();
  TimingResult t = run_ksr(c);
  obs::TraceData data = obs::collect();
  obs::MetricsSnapshot snap = obs::metrics_snapshot();
  obs::set_enabled(false);

  const obs::SpanEvent* run = nullptr;
  int runs = 0;
  for (const obs::ThreadLog& th : data.threads)
    for (const obs::SpanEvent& s : th.spans)
      if (std::string_view(s.category) == "interp" && s.name == "run") {
        run = &s;
        ++runs;
      }
  ASSERT_EQ(runs, 1);
  auto arg = [run](std::string_view key) -> const obs::Arg* {
    for (const obs::Arg& a : run->args)
      if (a.key == key) return &a;
    return nullptr;
  };
  for (const char* key : {"mode", "procs", "instructions", "refs", "steps"})
    ASSERT_NE(arg(key), nullptr) << key;
  EXPECT_EQ(arg("mode")->str, "timing");
  EXPECT_DOUBLE_EQ(arg("procs")->num, static_cast<double>(c.nprocs()));
  EXPECT_DOUBLE_EQ(arg("instructions")->num,
                   static_cast<double>(t.instructions));
  EXPECT_DOUBLE_EQ(arg("refs")->num, static_cast<double>(t.refs));

  const obs::MetricSample* instructions =
      sample(snap, "interp.instructions");
  const obs::MetricSample* refs = sample(snap, "interp.refs");
  const obs::MetricSample* steps = sample(snap, "interp.steps");
  ASSERT_NE(instructions, nullptr);
  ASSERT_NE(refs, nullptr);
  ASSERT_NE(steps, nullptr);
  EXPECT_DOUBLE_EQ(instructions->value, static_cast<double>(t.instructions));
  EXPECT_DOUBLE_EQ(refs->value, static_cast<double>(t.refs));
  EXPECT_DOUBLE_EQ(steps->value, arg("steps")->num);
  // Every step runs at least one instruction.
  EXPECT_GT(steps->value, 0.0);
  EXPECT_LE(steps->value, instructions->value);
}

TEST_F(MetricsTest, ShardedStudyCountsDecodeAndPlaneWork) {
  // Work counts do not depend on timing or the thread schedule, so they
  // repeat exactly: an extra decode or a lost plane shows on every run.
  Compiled c = compile_source(kProgram, CompileOptions{});
  const EncodedTrace trace = record_encoded_trace(c);
  const double refs = static_cast<double>(trace.size());
  ASSERT_GT(refs, 0.0);
  ASSERT_EQ(multi_shard_plan(paper_params(c), 2).shards, 2);
  auto counter = [this](std::string_view name) {
    const obs::MetricsSnapshot snap = obs::metrics_snapshot();
    const obs::MetricSample* s = sample(snap, name);
    return s != nullptr ? s->value : 0.0;
  };

  // Two shards each decode the whole trace; every reference is
  // simulated once per plane.
  obs::metrics_reset();
  replay_trace_study(trace, c, paper_block_sizes(), 32 * 1024, nullptr,
                     /*threads=*/2);
  EXPECT_DOUBLE_EQ(counter("trace.decoded_refs"), 2 * refs);
  EXPECT_DOUBLE_EQ(counter("sim.replay.plane_refs"), 7 * refs);

  // One walk decodes the trace once.
  obs::metrics_reset();
  replay_multi(trace, paper_params(c), nullptr, /*threads=*/1);
  EXPECT_DOUBLE_EQ(counter("trace.decoded_refs"), refs);
  EXPECT_DOUBLE_EQ(counter("sim.replay.plane_refs"), 7 * refs);
}

TEST_F(MetricsTest, StatsBitIdenticalWithMetricsOnAndOff) {
  // Same guarantee as the tracing variant above: metric accumulation
  // reads outcomes, never writes simulator state.
  obs::set_enabled(false);
  obs::set_metrics_enabled(false);
  Compiled off_c = compile_source(kProgram, CompileOptions{});
  TraceStudyResult off = run_trace_study(off_c, {16, 128}, 32 * 1024,
                                         nullptr, /*threads=*/2);

  obs::set_metrics_enabled(true);
  Compiled on_c = compile_source(kProgram, CompileOptions{});
  TraceStudyResult on = run_trace_study(on_c, {16, 128}, 32 * 1024, nullptr,
                                        /*threads=*/2);

  EXPECT_EQ(compile_fingerprint(off_c), compile_fingerprint(on_c));
  EXPECT_EQ(off.refs, on.refs);
  for (const auto& [block, stats] : off.by_block)
    EXPECT_EQ(stats, on.by_block.at(block)) << "block " << block;
}

}  // namespace
}  // namespace fsopt
