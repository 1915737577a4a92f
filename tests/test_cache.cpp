#include "sim/cache.h"

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "baseline_cache.h"
#include "reference_sim.h"

namespace fsopt {
namespace {

CacheParams params(i64 nprocs = 4, i64 block = 64, i64 cache = 4096,
                   i64 total = 1 << 16) {
  return {nprocs, cache, block, total};
}

TEST(Cache, FirstAccessIsColdMiss) {
  CoherentCache c(params());
  AccessOutcome o = c.access(0, 0, 4, false);
  EXPECT_EQ(o.kind, MissKind::kCold);
}

TEST(Cache, SecondAccessHits) {
  CoherentCache c(params());
  c.access(0, 0, 4, false);
  EXPECT_EQ(c.access(0, 4, 4, false).kind, MissKind::kHit);
  EXPECT_EQ(c.access(0, 60, 4, false).kind, MissKind::kHit);  // same block
}

TEST(Cache, ColdPerProcessor) {
  CoherentCache c(params());
  c.access(0, 0, 4, false);
  EXPECT_EQ(c.access(1, 0, 4, false).kind, MissKind::kCold);
}

TEST(Cache, WriteInvalidatesSharers) {
  CoherentCache c(params());
  c.access(0, 0, 4, false);
  c.access(1, 0, 4, false);
  AccessOutcome w = c.access(2, 0, 4, true);
  EXPECT_EQ(w.invalidated, 2);
}

TEST(Cache, WriteHitOnSharedLineIsUpgrade) {
  CoherentCache c(params());
  c.access(0, 0, 4, false);
  c.access(1, 0, 4, false);
  AccessOutcome w = c.access(0, 0, 4, true);
  EXPECT_EQ(w.kind, MissKind::kHit);
  EXPECT_TRUE(w.upgrade);
  EXPECT_EQ(w.invalidated, 1);
}

TEST(Cache, WriteHitOnModifiedLineIsSilent) {
  CoherentCache c(params());
  c.access(0, 0, 4, true);
  AccessOutcome w = c.access(0, 0, 4, true);
  EXPECT_EQ(w.kind, MissKind::kHit);
  EXPECT_FALSE(w.upgrade);
  EXPECT_EQ(w.invalidated, 0);
}

TEST(Cache, TrueSharingMiss) {
  CoherentCache c(params());
  c.access(0, 0, 4, false);   // P0 reads word 0
  c.access(1, 0, 4, true);    // P1 writes word 0 -> invalidates P0
  AccessOutcome o = c.access(0, 0, 4, false);  // P0 rereads word 0
  EXPECT_EQ(o.kind, MissKind::kTrueSharing);
  EXPECT_EQ(o.source_proc, 1);
}

TEST(Cache, FalseSharingMiss) {
  CoherentCache c(params());
  c.access(0, 0, 4, false);   // P0 reads word 0
  c.access(1, 32, 4, true);   // P1 writes word 8 (same 64B block)
  AccessOutcome o = c.access(0, 0, 4, false);  // P0 rereads word 0
  EXPECT_EQ(o.kind, MissKind::kFalseSharing);
}

TEST(Cache, FalseThenTrueDependsOnWord) {
  CoherentCache c(params());
  c.access(0, 0, 4, false);
  c.access(0, 32, 4, false);
  c.access(1, 32, 4, true);
  // Re-read of the written word: true sharing.
  EXPECT_EQ(c.access(0, 32, 4, false).kind, MissKind::kTrueSharing);
  // Invalidate again, re-read a different word: false sharing.
  c.access(1, 32, 4, true);
  EXPECT_EQ(c.access(0, 0, 4, false).kind, MissKind::kFalseSharing);
}

TEST(Cache, ReplacementMiss) {
  // Direct-mapped 4096B cache with 64B blocks = 64 sets; block 0 and
  // block 64 conflict.
  CoherentCache c(params(1));
  c.access(0, 0, 4, false);
  c.access(0, 64 * 64, 4, false);  // evicts block 0
  AccessOutcome o = c.access(0, 0, 4, false);
  EXPECT_EQ(o.kind, MissKind::kReplacement);
}

TEST(Cache, ReadMissAfterRemoteWriteServedByOwner) {
  CoherentCache c(params());
  c.access(1, 0, 4, true);
  AccessOutcome o = c.access(0, 0, 4, false);
  EXPECT_EQ(o.source_proc, 1);
  // The owner is downgraded: its next read hits, next write upgrades.
  EXPECT_EQ(c.access(1, 0, 4, false).kind, MissKind::kHit);
  AccessOutcome w = c.access(1, 0, 4, true);
  EXPECT_TRUE(w.upgrade);
}

TEST(Cache, EightByteAccessOnTinyBlocksSplits) {
  CacheParams p = params(2, /*block=*/4);
  CoherentCache c(p);
  AccessOutcome o = c.access(0, 0, 8, false);  // spans blocks 0 and 1
  EXPECT_EQ(o.kind, MissKind::kCold);
  EXPECT_EQ(c.access(0, 4, 4, false).kind, MissKind::kHit);
}

TEST(Cache, SplitWriteSumsInvalidationsAcrossBlocks) {
  // 4B blocks: an 8B write touches two blocks, each cached by two remote
  // processors — the merged outcome reports all four invalidations.
  CoherentCache c(params(3, /*block=*/4));
  c.access(1, 0, 8, false);
  c.access(2, 0, 8, false);
  AccessOutcome o = c.access(0, 0, 8, true);
  EXPECT_EQ(o.invalidated, 4);
  EXPECT_EQ(o.kind, MissKind::kCold);
}

TEST(Cache, SplitRefMergesWorstKind) {
  // One half hits, the other is a true-sharing miss: the merged kind is
  // the worse of the two.
  CoherentCache c(params(2, /*block=*/4));
  c.access(0, 0, 8, false);
  c.access(1, 4, 4, true);  // invalidates only the second block
  AccessOutcome o = c.access(0, 0, 8, false);
  EXPECT_EQ(o.kind, MissKind::kTrueSharing);
  EXPECT_EQ(o.source_proc, 1);
}

TEST(Cache, SplitWriteMergesUpgrade) {
  CoherentCache c(params(2, /*block=*/4));
  c.access(0, 0, 8, false);
  c.access(1, 0, 4, false);  // first block now shared by both
  AccessOutcome o = c.access(0, 0, 8, true);
  EXPECT_EQ(o.kind, MissKind::kHit);  // both halves upgrade in place
  EXPECT_TRUE(o.upgrade);
  EXPECT_EQ(o.invalidated, 1);
}

TEST(Cache, CombineSplitSeverityFollowsWordUnion) {
  // Severity must follow the classifier's word-union semantics — any
  // remotely-written referenced word makes the whole reference a
  // true-sharing miss — not the raw enum order (which lists false
  // sharing last and used to win the merge).
  AccessOutcome t{MissKind::kTrueSharing, false, 1, 0};
  AccessOutcome f{MissKind::kFalseSharing, false, 2, 0};
  AccessOutcome parts_tf[2] = {t, f};
  AccessOutcome parts_ft[2] = {f, t};
  EXPECT_EQ(combine_split_outcomes(parts_tf, 2).kind,
            MissKind::kTrueSharing);
  EXPECT_EQ(combine_split_outcomes(parts_ft, 2).kind,
            MissKind::kTrueSharing);
  // Everything else still loses to false sharing.
  for (MissKind k : {MissKind::kHit, MissKind::kCold,
                     MissKind::kReplacement}) {
    AccessOutcome other{k, false, -1, 0};
    AccessOutcome parts[2] = {other, f};
    EXPECT_EQ(combine_split_outcomes(parts, 2).kind,
              MissKind::kFalseSharing);
  }
  // And the rank is a strict refinement of hit < cold < replacement.
  EXPECT_LT(split_kind_severity(MissKind::kHit),
            split_kind_severity(MissKind::kCold));
  EXPECT_LT(split_kind_severity(MissKind::kCold),
            split_kind_severity(MissKind::kReplacement));
  EXPECT_LT(split_kind_severity(MissKind::kReplacement),
            split_kind_severity(MissKind::kFalseSharing));
  EXPECT_LT(split_kind_severity(MissKind::kFalseSharing),
            split_kind_severity(MissKind::kTrueSharing));
}

TEST(Cache, SplitRefMixedTrueAndFalsePartsIsTrueSharing) {
  // Regression: a misaligned 8B read on 8B blocks whose two halves miss
  // as (false sharing, true sharing).  Real communication happened — the
  // word at addr 8 was remotely written and is being re-read — so the
  // merged reference must count as TRUE sharing.  The old enum-max merge
  // reported false sharing for exactly this mix.
  CoherentCache c(params(2, /*block=*/8));
  c.access(1, 4, 8, false);  // P1 loads blocks 0 and 1
  c.access(0, 0, 4, true);   // P0 writes word 0: block 0 invalidated,
                             // but P1's referenced word 4 is untouched
  c.access(0, 8, 4, true);   // P0 writes word 8: block 1 invalidated,
                             // and word 8 IS referenced below
  AccessOutcome o = c.access(1, 4, 8, false);
  EXPECT_EQ(o.kind, MissKind::kTrueSharing);
  EXPECT_EQ(o.source_proc, 0);
}

TEST(Cache, SplitRefSpanningThreeBlocks) {
  // A misaligned 8B reference on 4B blocks touches bytes [2, 10): three
  // blocks, three split parts.  The access must not trip the part-count
  // check and the merged outcome must cover all three blocks.
  CoherentCache c(params(2, /*block=*/4));
  AccessOutcome o = c.access(0, 2, 8, false);
  EXPECT_EQ(o.kind, MissKind::kCold);
  // All three blocks are now resident.
  EXPECT_EQ(c.access(0, 0, 4, false).kind, MissKind::kHit);
  EXPECT_EQ(c.access(0, 4, 4, false).kind, MissKind::kHit);
  EXPECT_EQ(c.access(0, 8, 4, false).kind, MissKind::kHit);
  // A remote write to the middle block only: the re-read of [2, 10)
  // mixes (hit, true-sharing, hit) into a true-sharing miss.
  c.access(1, 4, 4, true);
  EXPECT_EQ(c.access(0, 2, 8, false).kind, MissKind::kTrueSharing);
}

TEST(Cache, OutOfRangeAccessThrows) {
  // total_bytes bounds the simulated address space; silently dropping
  // out-of-range words would skew every counter, so it must throw.
  CoherentCache c(params());  // total = 1 << 16
  EXPECT_THROW(c.access(0, i64{1} << 16, 4, false), InternalError);
  EXPECT_THROW(c.access(0, (i64{1} << 16) - 4, 8, false), InternalError);
  EXPECT_THROW(c.access(0, -4, 4, false), InternalError);
}

TEST(Cache, GeometryWithoutASetIsRejectedBeforeSizing) {
  // Rejected with a message naming the sizes, before anything divides by
  // the block size or the set count.
  EXPECT_THROW(CoherentCache(params(4, 0)), InternalError);
  EXPECT_THROW(CoherentCache(params(4, 2)), InternalError);
  EXPECT_THROW(CoherentCache(params(4, -64)), InternalError);
  EXPECT_THROW(CoherentCache(params(4, 8192, 4096)), InternalError);
  CacheParams two_way = params(4, 64, 64);
  two_way.associativity = 2;
  EXPECT_THROW(CoherentCache{two_way}, InternalError);
  try {
    CoherentCache c(params(4, 1 << 20, 32 * 1024));
    FAIL() << "expected InternalError";
  } catch (const InternalError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("32768"), std::string::npos) << msg;
    EXPECT_NE(msg.find("1048576"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("shard"), std::string::npos) << msg;
  }
  EXPECT_NO_THROW(CoherentCache(params(4, 4, 4)));  // one word, one set
}

TEST(ReferenceSim, SplitRefCountsOnce) {
  // An 8B ref on 4B blocks is two block transactions but ONE reference
  // in the stats — same contract as the sharded replay path.
  benchx::ReferenceSim sim(params(2, /*block=*/4));
  const MemRef ref{0, 8, 0, RefType::kRead};
  sim.on_batch(&ref, 1);
  EXPECT_EQ(sim.stats().refs, 1u);
  EXPECT_EQ(sim.stats().cold, 1u);
  sim.on_batch(&ref, 1);
  EXPECT_EQ(sim.stats().refs, 2u);
  EXPECT_EQ(sim.stats().hits, 1u);
  EXPECT_EQ(sim.stats().misses() + sim.stats().hits, 2u);
}

TEST(ReferenceSim, StatsAccumulate) {
  benchx::ReferenceSim sim(params(2));
  const std::vector<MemRef> refs = {{0, 4, 0, RefType::kRead},
                                    {0, 4, 0, RefType::kRead},
                                    {0, 4, 1, RefType::kWrite},
                                    {0, 4, 0, RefType::kRead}};
  sim.on_batch(refs.data(), refs.size());
  const MissStats& s = sim.stats();
  EXPECT_EQ(s.refs, 4u);
  EXPECT_EQ(s.cold, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.true_sharing, 1u);
  EXPECT_EQ(s.misses(), s.cold + s.true_sharing);
  EXPECT_DOUBLE_EQ(s.miss_rate(), 0.75);
}

TEST(ReferenceSim, PerDatumAttribution) {
  AddressMap am;
  am.add(0, 64, "a");
  am.add(64, 128, "b");
  benchx::ReferenceSim sim(params(2), &am);
  const std::vector<MemRef> refs = {{0, 4, 0, RefType::kRead},
                                    {80, 4, 0, RefType::kRead},
                                    {80, 4, 1, RefType::kWrite}};
  sim.on_batch(refs.data(), refs.size());
  ASSERT_EQ(sim.by_datum().count("a"), 1u);
  ASSERT_EQ(sim.by_datum().count("b"), 1u);
  EXPECT_EQ(sim.by_datum().at("a").refs, 1u);
  EXPECT_EQ(sim.by_datum().at("b").refs, 2u);
}

TEST(AddressMapTest, SmallestContainingRangeWins) {
  AddressMap am;
  am.add(0, 1000, "region");
  am.add(100, 200, "member");
  EXPECT_EQ(am.name_of(am.index_of(150)), "member");
  EXPECT_EQ(am.name_of(am.index_of(50)), "region");
  EXPECT_EQ(am.index_of(5000), -1);
}

TEST(Cache, AssociativityAvoidsConflicts) {
  // 4096B, 64B blocks: direct-mapped has 64 sets; blocks 0 and 64
  // conflict.  2-way keeps both.
  CacheParams p = params(1);
  p.associativity = 2;
  CoherentCache c(p);
  c.access(0, 0, 4, false);
  c.access(0, 64 * 64, 4, false);
  EXPECT_EQ(c.access(0, 0, 4, false).kind, MissKind::kHit);
  EXPECT_EQ(c.access(0, 64 * 64, 4, false).kind, MissKind::kHit);
}

TEST(Cache, LruEvictsLeastRecentlyUsed) {
  CacheParams p = params(1);
  p.associativity = 2;
  CoherentCache c(p);
  // Three conflicting blocks in a 2-way set.
  c.access(0, 0, 4, false);          // block A
  c.access(0, 64 * 64, 4, false);    // block B
  c.access(0, 0, 4, false);          // touch A (B becomes LRU)
  c.access(0, 2 * 64 * 64, 4, false);  // block C evicts B
  EXPECT_EQ(c.access(0, 0, 4, false).kind, MissKind::kHit);          // A
  EXPECT_EQ(c.access(0, 64 * 64, 4, false).kind, MissKind::kReplacement);
}

TEST(Cache, WordInvalidateEliminatesFalseSharing) {
  CacheParams p = params(2);
  p.word_invalidate = true;
  CoherentCache c(p);
  c.access(0, 0, 4, false);
  c.access(1, 32, 4, true);  // remote write to a different word
  // Block-invalidate hardware would make this a false-sharing miss;
  // word-invalidate keeps the unwritten words valid.
  EXPECT_EQ(c.access(0, 0, 4, false).kind, MissKind::kHit);
  // The written word itself is invalid: true-sharing refetch.
  EXPECT_EQ(c.access(0, 32, 4, false).kind, MissKind::kTrueSharing);
}

TEST(Cache, WordInvalidateStillCountsColdAndReplacement) {
  CacheParams p = params(2);
  p.word_invalidate = true;
  CoherentCache c(p);
  EXPECT_EQ(c.access(0, 0, 4, false).kind, MissKind::kCold);
  EXPECT_EQ(c.access(0, 0, 4, false).kind, MissKind::kHit);
}

// Invariant sweep across block sizes: classified misses partition total
// misses; hits + misses == refs.
class CacheInvariants : public ::testing::TestWithParam<i64> {};

TEST_P(CacheInvariants, CountsArePartition) {
  i64 block = GetParam();
  benchx::ReferenceSim sim(params(4, block, 2048, 1 << 14));
  std::vector<MemRef> refs;
  u64 s = 12345;
  auto next = [&s]() {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return s >> 33;
  };
  for (int i = 0; i < 20000; ++i) {
    MemRef r;
    r.proc = static_cast<u8>(next() % 4);
    r.addr = static_cast<i64>(next() % ((1 << 14) - 8));
    r.addr &= ~i64{3};
    r.size = next() % 2 == 0 ? 4 : 8;
    if (r.size == 8) r.addr &= ~i64{7};
    r.type = next() % 3 == 0 ? RefType::kWrite : RefType::kRead;
    refs.push_back(r);
  }
  sim.on_batch(refs.data(), refs.size());
  const MissStats& st = sim.stats();
  EXPECT_EQ(st.refs, 20000u);
  EXPECT_EQ(st.hits + st.misses(), st.refs);
  EXPECT_EQ(st.misses(),
            st.cold + st.replacement + st.true_sharing + st.false_sharing);
}

INSTANTIATE_TEST_SUITE_P(Blocks, CacheInvariants,
                         ::testing::Values(4, 8, 16, 32, 64, 128, 256));

// CoherentCache against an independent implementation: the hash-map
// simulator in bench/baseline_cache.h, fed the same seeded random stream,
// must produce the same outcome for every reference (kind, upgrade,
// servicing cache, invalidation count).  Half the references go to a few
// hot blocks that every processor reads and writes (upgrades, sharing
// misses, invalidations), the rest spread over 16 cache sizes of address
// space (replacements).  Aligned 4- and 8-byte references only: the
// baseline merges a block-spanning reference's parts by raw enum order,
// which misreports a (true, false sharing) pair (see
// combine_split_outcomes).  With associativity above 1, a way that was
// invalidated keeps its block number while other ways refill, which is
// where a residency bug would show.
TEST(CacheDifferential, MatchesHashBaselineOutcomeByOutcome) {
  constexpr int kRefs = 30000;
  for (i64 nprocs : {1, 12, 48, 64}) {
    for (i64 assoc : {1, 2, 4}) {
      for (i64 block : {8, 16, 128}) {
        CacheParams p;
        p.nprocs = nprocs;
        p.block_size = block;
        p.associativity = assoc;
        p.cache_bytes = 4 * assoc * block;  // four sets
        p.total_bytes = 16 * p.cache_bytes;
        CoherentCache cache(p);
        benchx::baseline::HashCoherentCache reference(p);
        std::mt19937_64 rng(static_cast<u64>(nprocs * 1000 + assoc * 100 +
                                             block));
        const std::string what = std::to_string(nprocs) + " procs, " +
                                 std::to_string(assoc) + "-way, " +
                                 std::to_string(block) + " B blocks";
        for (int i = 0; i < kRefs; ++i) {
          const int proc = static_cast<int>(rng() % static_cast<u64>(nprocs));
          const i64 size = rng() % 2 == 0 ? 4 : 8;
          const i64 span = rng() % 2 == 0 ? 3 * block : p.total_bytes;
          const i64 addr = static_cast<i64>(rng() % static_cast<u64>(span)) &
                           ~(size - 1);
          const bool is_write = rng() % 3 == 0;
          const AccessOutcome got = cache.access(proc, addr, size, is_write);
          const AccessOutcome want =
              reference.access(proc, addr, size, is_write);
          const bool same = got.kind == want.kind &&
                            got.upgrade == want.upgrade &&
                            got.source_proc == want.source_proc &&
                            got.invalidated == want.invalidated;
          ASSERT_TRUE(same)
              << what << ", reference " << i << ": proc " << proc << " "
              << (is_write ? "writes " : "reads ") << size << " B at "
              << addr << "; kind " << static_cast<int>(got.kind) << " vs "
              << static_cast<int>(want.kind) << ", upgrade " << got.upgrade
              << " vs " << want.upgrade << ", source " << got.source_proc
              << " vs " << want.source_proc << ", invalidated "
              << got.invalidated << " vs " << want.invalidated;
        }
      }
    }
  }
}

}  // namespace
}  // namespace fsopt
