// Differential suite for the sharded replay_multi: region shards, each
// filtering its own decode of the trace and simulating every plane, must
// be bit-identical — aggregate stats, per-datum attribution and conflict
// graphs — to one whole walk, for every thread count (hence every shard
// count) and across the full 29-cell workload matrix.  Also covers
// replay_trace_study on a sweep the region cannot nest.
#include "sim/multi.h"

#include <gtest/gtest.h>

#include "driver/experiment.h"
#include "reference_sim.h"
#include "workloads/workloads.h"

namespace fsopt {
namespace {

std::vector<CacheParams> sweep_params(i64 nprocs, i64 total,
                                      const std::vector<i64>& blocks,
                                      i64 l1 = 32 * 1024) {
  std::vector<CacheParams> out;
  for (i64 b : blocks) out.push_back({nprocs, l1, b, total});
  return out;
}

TEST(MultiShardPlan, RegionIsLargestBlockAndShardsDivideEveryPlane) {
  // Blocks {4..256}, 2 KB caches: region 256, region count 2048/256 = 8
  // — so 8 shards compose exactly, and a request of 5 falls to 4.
  std::vector<CacheParams> params = sweep_params(4, 1 << 16, {4, 32, 256},
                                                 /*l1=*/2048);
  MultiShardPlan plan = multi_shard_plan(params, 8);
  EXPECT_EQ(plan.region_bytes, 256);
  EXPECT_EQ(plan.shards, 8);
  EXPECT_EQ(multi_shard_plan(params, 5).shards, 4);
  EXPECT_EQ(multi_shard_plan(params, 1).shards, 1);
  // A 2-way plane halves its region count (2048/256/2 = 4), so the
  // exact shard bound for the whole set drops from 8 to 4.
  params.push_back({4, 2048, 4, 1 << 16});
  params.back().associativity = 2;
  EXPECT_EQ(multi_shard_plan(params, 8).shards, 4);
}

TEST(MultiShardReplay, SyntheticStreamMatchesSerialForEveryShardCount) {
  // Ping-pong false sharing plus private strides plus 8-byte accesses
  // that straddle region boundaries (addr 252..260 spans two 256-byte
  // regions), exercising the cross-shard split reassembly.
  std::vector<MemRef> refs;
  for (int i = 0; i < 4000; ++i) {
    u8 proc = static_cast<u8>(i % 4);
    refs.push_back({proc * 4, 4, proc,
                    i % 3 == 0 ? RefType::kWrite : RefType::kRead});
    refs.push_back({1024 + proc * 256 + (i % 32) * 8, 8, proc,
                    RefType::kRead});
    if (i % 7 == 0)
      refs.push_back({252 + (i % 5) * 256, 8, proc, RefType::kWrite});
  }
  EncodedTrace enc = encode_trace(refs);
  AddressMap am;
  am.add(0, 64, "hot");
  am.add(64, 1 << 14, "cold");
  std::vector<CacheParams> params =
      sweep_params(4, 1 << 16, {4, 8, 16, 32, 64, 128, 256}, /*l1=*/2048);

  std::vector<ConflictGraph> serial_graphs;
  MultiReplayResult serial = replay_multi(enc, params, &am, 1, &serial_graphs);
  for (int k : {1, 2, 4, 8}) {
    EXPECT_EQ(multi_shard_plan(params, k).shards, k);
    std::vector<ConflictGraph> graphs;
    MultiReplayResult composed = replay_multi(enc, params, &am, k, &graphs);
    EXPECT_EQ(serial.stats, composed.stats) << "shards=" << k;
    EXPECT_EQ(serial.by_datum, composed.by_datum) << "shards=" << k;
    EXPECT_EQ(serial_graphs, graphs) << "shards=" << k;
  }
}

TEST(MultiShardReplay, ChunkBoundariesNeverChangeResults) {
  std::vector<MemRef> refs;
  for (int i = 0; i < 3000; ++i)
    refs.push_back({(i * 52) % 4096, static_cast<u8>(i % 2 ? 8 : 4),
                    static_cast<u8>(i % 3),
                    i % 5 == 0 ? RefType::kWrite : RefType::kRead});
  std::vector<CacheParams> params = sweep_params(3, 1 << 13, {4, 32, 128});
  ASSERT_EQ(multi_shard_plan(params, 4).shards, 4);
  MultiReplayResult a = replay_multi(encode_trace(refs), params, nullptr, 4);
  MultiReplayResult b =
      replay_multi(encode_trace(refs, /*chunk_refs=*/128), params, nullptr, 4);
  EXPECT_EQ(a.stats, b.stats);
}

TEST(MultiShardReplay, ThreadCountNeverChangesResults) {
  std::vector<MemRef> refs;
  for (int i = 0; i < 5000; ++i)
    refs.push_back({(i * 36) % 8192, 4, static_cast<u8>(i % 8),
                    i % 4 == 0 ? RefType::kWrite : RefType::kRead});
  std::vector<CacheParams> params =
      sweep_params(8, 1 << 13, {4, 8, 16, 32, 64, 128, 256});
  const EncodedTrace enc = encode_trace(refs);
  MultiReplayResult one = replay_multi(enc, params, nullptr, 1);
  for (int threads : {2, 3, 8}) {
    MultiReplayResult many = replay_multi(enc, params, nullptr, threads);
    EXPECT_EQ(one.stats, many.stats) << "threads=" << threads;
  }
}

/// fmm's natural version on four processors, a recording of at least
/// one full 64 Ki-reference chunk.  replay_multi shards it, like any
/// sweep the region nests, whenever it has more than one thread.
struct FmmStudy {
  Compiled c;
  EncodedTrace trace;
  AddressMap am;
  FmmStudy() {
    const workloads::Workload& w = workloads::get("fmm");
    CompileOptions o;
    o.overrides = w.sim_overrides;
    o.overrides["NPROCS"] = 4;
    c = compile_source(w.natural, o);
    trace = record_encoded_trace(c);
    am = build_address_map(c);
  }
};

TEST(MultiShardReplay, StudyShardsLargeTracesExactly) {
  // One thread walks the trace once; two and four shard it.  Every shard
  // count must produce the same numbers.
  FmmStudy f;
  ASSERT_GE(f.trace.size(), u64{1} << 16);
  const std::vector<i64> blocks = {4, 16, 64, 256};
  TraceStudyResult serial =
      replay_trace_study(f.trace, f.c, blocks, 32 * 1024, &f.am, 1);
  for (int threads : {2, 4}) {
    TraceStudyResult sharded =
        replay_trace_study(f.trace, f.c, blocks, 32 * 1024, &f.am, threads);
    for (i64 b : blocks) {
      EXPECT_EQ(serial.by_block.at(b), sharded.by_block.at(b))
          << "block=" << b << " threads=" << threads;
      EXPECT_EQ(serial.by_datum.at(b), sharded.by_datum.at(b))
          << "block=" << b << " threads=" << threads;
    }
  }
}

TEST(MultiShardReplay, StudyOfNonNestingSweepMatchesPerPlaneReference) {
  // {48, 64} B: 48 does not divide the 64 B region, so this sweep
  // cannot shard (`fsoptc --miss 48,64`).  Four threads walk it once,
  // and every plane — the non-power-of-two one simulated by a private
  // CoherentCache — must equal a dedicated reference model, attribution
  // included.
  FmmStudy f;
  ASSERT_GE(f.trace.size(), u64{1} << 16);
  const std::vector<i64> blocks = {48, 64};
  TraceStudyResult st =
      replay_trace_study(f.trace, f.c, blocks, 32 * 1024, &f.am, 4);
  for (i64 b : blocks) {
    const CacheParams p{f.c.nprocs(), 32 * 1024, b, f.c.code.total_bytes};
    benchx::ReferenceSim solo(p, &f.am);
    f.trace.replay(solo);
    EXPECT_EQ(st.at(b), solo.stats()) << "block=" << b;
    EXPECT_EQ(st.by_datum.at(b), solo.by_datum()) << "block=" << b;
  }
}

TEST(MultiShardReplay, FallbackPlanesShardExactly) {
  // Associative and word-invalidate planes leave the bitmask engine for a
  // private CoherentCache inside each shard's walk (the §6 hardware
  // comparison replays them so).  At every thread count, each plane must
  // equal a dedicated reference model, attribution included.
  FmmStudy f;
  const i64 total = f.c.code.total_bytes;
  std::vector<CacheParams> params;
  for (i64 ways : {1, 2, 4, 8})
    params.push_back({f.c.nprocs(), 32 * 1024, 128, total, ways});
  params.push_back({f.c.nprocs(), 32 * 1024, 128, total, 1, true});
  params.push_back({f.c.nprocs(), 32 * 1024, 16, total, 4, true});
  ASSERT_EQ(multi_shard_plan(params, 8).shards, 8);
  std::vector<benchx::ReferenceSim> solo;
  for (const CacheParams& p : params) {
    solo.emplace_back(p, &f.am);
    f.trace.replay(solo.back());
  }
  for (int threads : {1, 2, 4, 8}) {
    const MultiReplayResult r = replay_multi(f.trace, params, &f.am, threads);
    for (size_t p = 0; p < params.size(); ++p) {
      EXPECT_EQ(r.stats[p], solo[p].stats())
          << "plane=" << p << " threads=" << threads;
      EXPECT_EQ(r.by_datum[p], solo[p].by_datum())
          << "plane=" << p << " threads=" << threads;
    }
  }
}

// --- the workload-matrix differential --------------------------------
//
// Every cell of the paper's experiment matrix (ten workloads x {N,C}
// plus the programmer-optimized versions): the sharded replay must equal
// one whole walk at every block size and shard count, on aggregate
// stats and per-datum attribution (test_multi_replay.cpp pins the whole
// walk to a dedicated reference model per plane on the same matrix), and
// on the ten C cells a conflict-collecting study must give the same
// stats, attribution and conflict graphs at every thread count.

TEST(MultiShardReplayMatrix, BitIdenticalAcrossAllCellsAndShardCounts) {
  std::vector<CompileJob> jobs = workload_matrix_jobs();
  ASSERT_EQ(jobs.size(), 29u);  // 10 N + 10 C + 9 P
  std::vector<Compiled> cells;
  for (const CompileJob& job : jobs)
    cells.push_back(compile_source(job.source, job.options));
  ASSERT_EQ(cells.size(), jobs.size());

  const std::vector<i64> blocks = {4, 16, 64, 256};
  for (size_t i = 0; i < cells.size(); ++i) {
    const Compiled& c = cells[i];
    const std::string& label = jobs[i].label;
    AddressMap am = build_address_map(c);
    EncodedTrace trace = record_encoded_trace(c);
    ASSERT_GT(trace.size(), 0u) << label;

    std::vector<CacheParams> params =
        sweep_params(c.nprocs(), c.code.total_bytes, blocks);
    MultiReplayResult serial = replay_multi(trace, params, &am);

    for (int k : {2, 8}) {
      MultiShardPlan plan = multi_shard_plan(params, k);
      MultiReplayResult composed = replay_multi(trace, params, &am, k);
      for (size_t p = 0; p < params.size(); ++p) {
        EXPECT_EQ(serial.stats[p], composed.stats[p])
            << label << " block=" << params[p].block_size
            << " shards=" << plan.shards;
        EXPECT_EQ(serial.by_datum[p], composed.by_datum[p])
            << label << " block=" << params[p].block_size
            << " shards=" << plan.shards;
      }
    }
  }
}

TEST(MultiShardReplayMatrix, ConflictStudiesIdenticalAcrossThreadCounts) {
  // The graph repair loop that seeds every search and `--diagnose` run
  // conflict-collecting studies; each shard collects the lines of its
  // own regions, and their union must be the one-walk graph.
  const std::vector<i64> blocks = {32, 64, 128, 256};
  size_t c_cells = 0, graphs = 0;
  for (const CompileJob& job : workload_matrix_jobs()) {
    if (!job.label.ends_with("/C")) continue;
    ++c_cells;
    const Compiled c = compile_source(job.source, job.options);
    const AddressMap am = build_address_map(c);
    const EncodedTrace trace = record_encoded_trace(c);
    const TraceStudyResult one =
        replay_trace_study(trace, c, blocks, 32 * 1024, &am, 1, true);
    // Every false-sharing miss records at least one edge, and nothing
    // else records any.
    for (i64 b : blocks) {
      EXPECT_EQ(one.conflicts.at(b).empty(), one.at(b).false_sharing == 0)
          << job.label << " block=" << b;
      graphs += one.conflicts.at(b).empty() ? 0 : 1;
    }
    for (int threads : {2, 4, 8}) {
      const TraceStudyResult many =
          replay_trace_study(trace, c, blocks, 32 * 1024, &am, threads, true);
      EXPECT_EQ(one.by_block, many.by_block)
          << job.label << " threads=" << threads;
      EXPECT_EQ(one.by_datum, many.by_datum)
          << job.label << " threads=" << threads;
      EXPECT_TRUE(one.conflicts == many.conflicts)
          << job.label << " threads=" << threads;
    }
  }
  EXPECT_EQ(c_cells, 10u);
  EXPECT_GT(graphs, 0u);
}

}  // namespace
}  // namespace fsopt
