// Differential suite for single-pass multi-configuration replay
// (sim/multi.h): replay_multi must be bit-identical — aggregate stats
// and per-datum attribution — to independent per-configuration replays
// of the reference model (bench/reference_sim.h, one CoherentCache each),
// for every cell of the full workload matrix, across block sizes, and for
// any thread count / plane grouping.
#include "sim/multi.h"

#include <gtest/gtest.h>

#include "driver/experiment.h"
#include "reference_sim.h"

namespace fsopt {
namespace {

std::vector<CacheParams> sweep_params(i64 nprocs, i64 total,
                                      const std::vector<i64>& blocks,
                                      i64 l1 = 32 * 1024) {
  std::vector<CacheParams> out;
  for (i64 b : blocks) out.push_back({nprocs, l1, b, total});
  return out;
}

TEST(MultiReplay, MatchesIndependentSimsOnSyntheticStream) {
  // A little false-sharing ping-pong plus private strides; every plane
  // must agree with a dedicated reference model fed the same stream.
  std::vector<MemRef> refs;
  for (int i = 0; i < 2000; ++i) {
    u8 proc = static_cast<u8>(i % 4);
    refs.push_back({proc * 4, 4, proc, i % 3 == 0 ? RefType::kWrite
                                                  : RefType::kRead});
    refs.push_back({1024 + proc * 256 + (i % 32) * 8, 8, proc,
                    RefType::kRead});
  }
  std::vector<CacheParams> params =
      sweep_params(4, 1 << 16, {4, 16, 64, 256}, /*l1=*/2048);

  MultiReplayResult multi = replay_multi(encode_trace(refs), params);
  ASSERT_EQ(multi.stats.size(), params.size());
  for (size_t p = 0; p < params.size(); ++p) {
    benchx::ReferenceSim solo(params[p]);
    solo.on_batch(refs.data(), refs.size());
    EXPECT_EQ(multi.stats[p], solo.stats())
        << "block=" << params[p].block_size;
  }
}

TEST(MultiReplay, ChunkBoundariesNeverChangeResults) {
  std::vector<MemRef> refs;
  for (int i = 0; i < 3000; ++i)
    refs.push_back({(i * 52) % 4096, static_cast<u8>(i % 2 ? 8 : 4),
                    static_cast<u8>(i % 3),
                    i % 5 == 0 ? RefType::kWrite : RefType::kRead});
  std::vector<CacheParams> params = sweep_params(3, 1 << 13, {4, 32, 128});
  MultiReplayResult a = replay_multi(encode_trace(refs), params);
  MultiReplayResult b =
      replay_multi(encode_trace(refs, /*chunk_refs=*/128), params);
  EXPECT_EQ(a.stats, b.stats);
}

TEST(MultiReplay, ThreadCountNeverChangesResults) {
  // Planes are grouped across workers; grouping must be invisible.
  std::vector<MemRef> refs;
  for (int i = 0; i < 5000; ++i)
    refs.push_back({(i * 36) % 8192, 4, static_cast<u8>(i % 8),
                    i % 4 == 0 ? RefType::kWrite : RefType::kRead});
  EncodedTrace enc = encode_trace(refs);
  std::vector<CacheParams> params =
      sweep_params(8, 1 << 13, {4, 8, 16, 32, 64, 128, 256});
  MultiReplayResult serial = replay_multi(enc, params, nullptr, 1);
  for (int threads : {2, 3, 7, 16}) {
    MultiReplayResult par = replay_multi(enc, params, nullptr, threads);
    EXPECT_EQ(par.stats, serial.stats) << "threads=" << threads;
  }
}

TEST(MultiReplay, SplitRefClassesDivergePerPlaneCorrectly) {
  // Regression for the combine_split_outcomes severity fix observed
  // through the multi-plane walk: one misaligned 8B re-read whose parts
  // miss as (false sharing, true sharing) on 8B blocks, while the same
  // reference is a plain single-block miss at 64B and a pure-true-word
  // split at 4B.  Each plane must classify independently and agree with
  // a dedicated simulator.
  std::vector<MemRef> refs = {
      {4, 8, 1, RefType::kRead},   // P1 loads words 4 and 8
      {0, 4, 0, RefType::kWrite},  // P0 writes word 0
      {8, 4, 0, RefType::kWrite},  // P0 writes word 8
      {4, 8, 1, RefType::kRead},   // mixed re-read
  };
  std::vector<CacheParams> params = sweep_params(2, 1 << 10, {4, 8, 64});
  MultiReplayResult multi = replay_multi(encode_trace(refs), params);

  for (size_t p = 0; p < params.size(); ++p) {
    benchx::ReferenceSim solo(params[p]);
    solo.on_batch(refs.data(), refs.size());
    EXPECT_EQ(multi.stats[p], solo.stats())
        << "block=" << params[p].block_size;
  }
  // At 8B blocks the (false, true) mix must merge to TRUE sharing (the
  // word at addr 8 was remotely written and re-read).
  EXPECT_EQ(multi.stats[1].true_sharing, 1u);
  EXPECT_EQ(multi.stats[1].false_sharing, 0u);
  // At 64B blocks everything sits in one block: the re-read is a single
  // true-sharing miss as well, but via the unsplit path.
  EXPECT_EQ(multi.stats[2].true_sharing, 1u);
}

TEST(MultiReplay, PerDatumAttributionMatchesSoloSim) {
  AddressMap am;
  am.add(0, 64, "hot");
  am.add(64, 4096, "cold");
  std::vector<MemRef> refs;
  for (int i = 0; i < 2000; ++i) {
    u8 proc = static_cast<u8>(i % 4);
    refs.push_back({proc * 8, 4, proc,
                    i % 2 ? RefType::kWrite : RefType::kRead});
    refs.push_back({64 + (i * 24) % 4000, 4, proc, RefType::kRead});
  }
  std::vector<CacheParams> params = sweep_params(4, 1 << 13, {16, 64});
  MultiReplayResult multi = replay_multi(encode_trace(refs), params, &am);
  ASSERT_EQ(multi.by_datum.size(), params.size());
  for (size_t p = 0; p < params.size(); ++p) {
    benchx::ReferenceSim solo(params[p], &am);
    solo.on_batch(refs.data(), refs.size());
    EXPECT_EQ(multi.by_datum[p], solo.by_datum())
        << "block=" << params[p].block_size;
  }
}

TEST(MultiReplay, UnmappedAddressesAttributeToOther) {
  // Every workload's AddressMap covers all it references, so only a
  // hand-built stream reaches the trailing "<other>" slot.
  AddressMap am;
  am.add(0, 64, "mapped");
  std::vector<MemRef> refs;
  for (int i = 0; i < 400; ++i) {
    u8 proc = static_cast<u8>(i % 2);
    refs.push_back({(i % 16) * 4, 4, proc,
                    i % 3 == 0 ? RefType::kWrite : RefType::kRead});
    refs.push_back({128 + (i % 64) * 4, 4, proc,
                    i % 5 == 0 ? RefType::kWrite : RefType::kRead});
  }
  std::vector<CacheParams> params =
      sweep_params(2, 1 << 10, {16, 64}, /*l1=*/512);
  MultiReplayResult multi = replay_multi(encode_trace(refs), params, &am);
  for (size_t p = 0; p < params.size(); ++p) {
    benchx::ReferenceSim solo(params[p], &am);
    solo.on_batch(refs.data(), refs.size());
    EXPECT_EQ(multi.by_datum[p].count("<other>"), 1u);
    EXPECT_EQ(multi.by_datum[p], solo.by_datum())
        << "block=" << params[p].block_size;
  }
}

// --- the workload-matrix differential --------------------------------
//
// Every cell of the paper's experiment matrix (ten workloads x {N,C}
// plus the programmer-optimized versions): single-pass multi-plane
// replay of the cell's recorded trace must equal a dedicated reference
// model per plane at every block size, on aggregate stats AND per-datum
// attribution.

TEST(MultiReplayMatrix, BitIdenticalToPerPlaneReferenceAcrossAllCells) {
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
    MultiReplayResult multi = replay_multi(trace, params, &am);

    for (size_t p = 0; p < params.size(); ++p) {
      benchx::ReferenceSim solo(params[p], &am);
      trace.replay(solo);
      EXPECT_EQ(multi.stats[p], solo.stats())
          << label << " block=" << params[p].block_size;
      EXPECT_EQ(multi.by_datum[p], solo.by_datum())
          << label << " block=" << params[p].block_size;
    }
  }
}

}  // namespace
}  // namespace fsopt
