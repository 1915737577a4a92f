// Unit tests for region partitioning (trace/shard.h): routing by region
// modulo shard count, per-shard order, split pieces of region-spanning
// references, the single-shard case, and the composed replay's refusal
// of a partition that does not match its planes.  Bit-identity of the
// composed replay itself lives in test_multi_shard_replay.cpp.
#include "trace/shard.h"

#include <gtest/gtest.h>

#include "sim/multi.h"

namespace fsopt {
namespace {

EncodedTrace encoded(const std::vector<MemRef>& refs) {
  TraceBuffer t;
  t.on_batch(refs.data(), refs.size());
  return encode_trace(t);
}

TEST(Partition, RoutesByRegionModuloShards) {
  // 64B regions, 4 shards: addr 0 -> region 0 -> shard 0; addr 320 ->
  // region 5 -> shard 1; addr 448 -> region 7 -> shard 3.
  TracePartition p = partition_trace(encoded({{0, 4, 0, RefType::kRead},
                                              {320, 4, 1, RefType::kWrite},
                                              {448, 4, 2, RefType::kRead}}),
                                     64, 4);
  EXPECT_EQ(p.refs, 3u);
  EXPECT_EQ(p.region_bytes, 64);
  ASSERT_EQ(p.shard.size(), 4u);
  ASSERT_EQ(p.shard[0].refs.size(), 1u);
  EXPECT_EQ(p.shard[0].refs[0].addr, 0);
  ASSERT_EQ(p.shard[1].refs.size(), 1u);
  EXPECT_EQ(p.shard[1].refs[0].addr, 320);
  EXPECT_TRUE(p.shard[2].refs.empty());
  ASSERT_EQ(p.shard[3].refs.size(), 1u);
  EXPECT_EQ(p.shard[3].refs[0].addr, 448);
}

TEST(Partition, PreservesPerShardOrder) {
  // All refs hit shard 0 (regions 0 and 2 with 2 shards); their relative
  // order must survive.
  TracePartition p = partition_trace(encoded({{0, 4, 0, RefType::kRead},
                                              {128, 4, 1, RefType::kWrite},
                                              {4, 4, 2, RefType::kRead},
                                              {132, 8, 3, RefType::kRead}}),
                                     64, 2);
  ASSERT_EQ(p.shard[0].refs.size(), 4u);
  EXPECT_EQ(p.shard[0].refs[0].addr, 0);
  EXPECT_EQ(p.shard[0].refs[1].addr, 128);
  EXPECT_EQ(p.shard[0].refs[2].addr, 4);
  EXPECT_EQ(p.shard[0].refs[3].addr, 132);
  EXPECT_TRUE(p.shard[1].refs.empty());
}

TEST(Partition, SplitsRegionSpanningRefs) {
  // 4B regions, 2 shards: an 8-byte ref at 4 spans regions 1 (shard 1)
  // and 2 (shard 0).  Each piece lands in its owning shard as a split
  // entry tagged with the same ordinal and increasing part, positioned
  // between the shard's surrounding plain refs.
  TracePartition p =
      partition_trace(encoded({{0, 4, 0, RefType::kRead},    // shard 0
                               {4, 8, 1, RefType::kWrite},   // spans 1, 2
                               {8, 4, 2, RefType::kRead}}),  // shard 0
                      4, 2);
  EXPECT_EQ(p.refs, 3u);
  ASSERT_EQ(p.split_origin.size(), 1u);
  EXPECT_EQ(p.split_origin[0].addr, 4);
  EXPECT_EQ(p.split_origin[0].size, 8);

  ASSERT_EQ(p.shard[1].splits.size(), 1u);  // region 1 piece
  EXPECT_EQ(p.shard[1].splits[0].ordinal, 0u);
  EXPECT_EQ(p.shard[1].splits[0].part, 0);
  EXPECT_EQ(p.shard[1].splits[0].sub.addr, 4);
  EXPECT_EQ(p.shard[1].splits[0].sub.size, 4);
  EXPECT_EQ(p.shard[1].splits[0].pos, 0u);  // shard 1 has no plain refs

  ASSERT_EQ(p.shard[0].splits.size(), 1u);  // region 2 piece
  EXPECT_EQ(p.shard[0].splits[0].ordinal, 0u);
  EXPECT_EQ(p.shard[0].splits[0].part, 1);
  EXPECT_EQ(p.shard[0].splits[0].sub.addr, 8);
  EXPECT_EQ(p.shard[0].splits[0].sub.size, 4);
  // Between the plain refs at addr 0 (pos 0) and addr 8 (pos 1).
  EXPECT_EQ(p.shard[0].splits[0].pos, 1u);
  ASSERT_EQ(p.shard[0].refs.size(), 2u);
}

TEST(Partition, SingleShardTakesEverything) {
  TracePartition p = partition_trace(encoded({{0, 4, 0, RefType::kRead},
                                              {4, 8, 1, RefType::kWrite},
                                              {500, 4, 2, RefType::kRead}}),
                                     4, 1);
  EXPECT_EQ(p.shard[0].refs.size(), 2u);
  EXPECT_EQ(p.shard[0].splits.size(), 2u);  // the 8B ref still splits
  EXPECT_EQ(p.split_origin.size(), 1u);
}

TEST(Partition, MismatchedPartitionIsRejected) {
  // Planes {16, 64} B in 32 KiB caches: region 64, and every shard count
  // up to 512 divides 32768 / 64.
  EncodedTrace t = encoded({{0, 4, 0, RefType::kRead}});
  std::vector<CacheParams> params = {{4, 32 * 1024, 16, 1 << 16},
                                     {4, 32 * 1024, 64, 1 << 16}};
  EXPECT_NO_THROW(replay_multi_partitioned(partition_trace(t, 64, 2), params));
  // Wrong region: the partition must nest the largest plane block.
  EXPECT_THROW(replay_multi_partitioned(partition_trace(t, 32, 2), params),
               InternalError);
  // 3 does not divide the 512 regions per cache, so LRU sets would span
  // shards.
  EXPECT_THROW(replay_multi_partitioned(partition_trace(t, 64, 3), params),
               InternalError);
  // A geometry the region cannot nest ({48, 64} B) composes at no shard
  // count above 1.
  std::vector<CacheParams> odd = {{4, 48 * 1024, 48, 1 << 16},
                                  {4, 32 * 1024, 64, 1 << 16}};
  EXPECT_EQ(multi_shard_plan(odd, 4).shards, 1);
  EXPECT_THROW(replay_multi_partitioned(partition_trace(t, 64, 2), odd),
               InternalError);
}

}  // namespace
}  // namespace fsopt
