// Unit tests for the region filter of the sharded replay_multi
// (sim/multi.h): pieces of region-spanning references, geometries whose
// region or region count is not a power of two, and the single-shard
// case.  Each replay, at the shard count its thread count admits, is
// compared with one whole walk (one thread) on stats and per-datum
// attribution; routing by region and per-shard order are covered by the
// bit-identity suites in test_multi_shard_replay.cpp and
// test_trace_codec.cpp.
#include <gtest/gtest.h>

#include "reference_sim.h"
#include "sim/multi.h"

namespace fsopt {
namespace {

AddressMap two_data() {
  AddressMap am;
  am.add(0, 16, "low");
  am.add(16, 1024, "high");
  return am;
}

void expect_matches_serial(const EncodedTrace& t,
                           const std::vector<CacheParams>& params,
                           int threads) {
  const AddressMap am = two_data();
  const MultiReplayResult serial = replay_multi(t, params, &am);
  const MultiReplayResult sharded = replay_multi(t, params, &am, threads);
  EXPECT_EQ(serial.stats, sharded.stats) << "threads=" << threads;
  EXPECT_EQ(serial.by_datum, sharded.by_datum) << "threads=" << threads;
}

TEST(ShardedReplay, SplitsRegionSpanningRefs) {
  // 4 B regions, 2 shards: an 8-byte ref at 4 spans regions 1 (shard 1)
  // and 2 (shard 0), one at 10 spans regions 2, 3 and 4.  Each shard
  // simulates its own pieces between its surrounding plain refs; the
  // pieces' outcomes recombine into one counted reference, attributed
  // to the datum of its first byte.
  const std::vector<MemRef> refs = {
      {0, 4, 0, RefType::kRead},   {4, 8, 1, RefType::kWrite},
      {8, 4, 2, RefType::kRead},   {4, 8, 0, RefType::kRead},
      {12, 8, 3, RefType::kWrite}, {10, 8, 1, RefType::kWrite},
      {16, 4, 2, RefType::kWrite}, {4, 8, 2, RefType::kRead},
      {8, 4, 1, RefType::kWrite},  {12, 8, 0, RefType::kRead},
  };
  const std::vector<CacheParams> params = {{4, 1024, 4, 1024}};
  ASSERT_EQ(multi_shard_plan(params, 2).region_bytes, 4);
  expect_matches_serial(encode_trace(refs), params, 2);
}

TEST(ShardedReplay, NonPowerOfTwoGeometryStaysAtOneShard) {
  // Shards route by shift and mask, so the plan admits only power-of-two
  // regions and shard counts.  Four processors write and read 4- and
  // 8-byte data; every 8-byte ref (at 20 + 24 i) straddles a 24-byte
  // region boundary, and the one at 764 a 256-byte one.
  std::vector<MemRef> refs;
  for (int i = 0; i < 600; ++i) {
    const u8 proc = static_cast<u8>(i % 4);
    const RefType type = i % 3 == 0 ? RefType::kWrite : RefType::kRead;
    refs.push_back({(i * 28) % 960, 4, proc, type});
    refs.push_back({20 + 24 * (i % 40), 8, proc, type});
  }
  const EncodedTrace t = encode_trace(refs);
  // A 24-byte region (blocks {8, 24}) is not a power of two: one shard,
  // though 1536 / 24 regions per cache would divide by two.
  const std::vector<CacheParams> region24 = {{4, 1536, 8, 1024},
                                             {4, 1536, 24, 1024}};
  EXPECT_EQ(multi_shard_plan(region24, 2).shards, 1);
  expect_matches_serial(t, region24, 2);
  // Three 256-byte regions per cache: no power of two above 1 divides 3.
  const std::vector<CacheParams> three = {{4, 768, 64, 1024},
                                          {4, 768, 256, 1024}};
  EXPECT_EQ(multi_shard_plan(three, 3).shards, 1);
  EXPECT_EQ(multi_shard_plan(three, 8).shards, 1);
  expect_matches_serial(t, three, 8);
  // Six regions per cache: a request of 8 falls to 2, not 6 or 3.
  const std::vector<CacheParams> six = {{4, 1536, 64, 1024},
                                        {4, 1536, 256, 1024}};
  EXPECT_EQ(multi_shard_plan(six, 8).shards, 2);
  expect_matches_serial(t, six, 8);
}

TEST(ShardedReplay, SingleShardTakesEverything) {
  // One shard keeps every reference, spanning ones whole, and equals a
  // dedicated reference model per plane.
  const EncodedTrace t = encode_trace({{0, 4, 0, RefType::kRead},
                                  {4, 8, 1, RefType::kWrite},
                                  {500, 4, 2, RefType::kRead},
                                  {4, 8, 0, RefType::kRead}});
  const AddressMap am = two_data();
  const auto expect_matches_reference =
      [&](const std::vector<CacheParams>& params, int threads) {
        const MultiReplayResult multi = replay_multi(t, params, &am, threads);
        for (size_t p = 0; p < params.size(); ++p) {
          benchx::ReferenceSim solo(params[p], &am);
          t.replay(solo);
          EXPECT_EQ(multi.stats[p], solo.stats())
              << "block=" << params[p].block_size;
          EXPECT_EQ(multi.by_datum[p], solo.by_datum())
              << "block=" << params[p].block_size;
        }
      };
  expect_matches_reference({{4, 1024, 4, 1024}}, 1);
  // A geometry the region cannot nest ({48, 64} B) stays at one shard
  // whatever the thread count.
  const std::vector<CacheParams> odd = {{4, 48 * 16, 48, 1024},
                                        {4, 1024, 64, 1024}};
  EXPECT_EQ(multi_shard_plan(odd, 4).shards, 1);
  expect_matches_reference(odd, 4);
}

}  // namespace
}  // namespace fsopt
