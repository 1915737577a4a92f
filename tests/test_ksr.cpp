#include "sim/ksr.h"

#include <gtest/gtest.h>

#include <string>

namespace fsopt {
namespace {

KsrParams params(i64 nprocs = 4) {
  KsrParams p;
  p.nprocs = nprocs;
  p.total_bytes = 1 << 16;
  return p;
}

TEST(Calendar, NoContentionNoDelay) {
  BandwidthCalendar cal(256);
  EXPECT_EQ(cal.acquire(1000, 24), 0);
  EXPECT_EQ(cal.acquire(5000, 24), 0);
}

TEST(Calendar, SaturatedWindowPushesToNext) {
  BandwidthCalendar cal(100);
  // Fill window [0,100) with 4 x 25-cycle transactions.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(cal.acquire(0, 25), 0);
  // Fifth lands at the start of the next window.
  EXPECT_EQ(cal.acquire(0, 25), 100);
  EXPECT_EQ(cal.booked_cycles(), 125);
}

TEST(Calendar, PastRequestsUsePastWindows) {
  BandwidthCalendar cal(100);
  // A request far in the future books window 100.
  EXPECT_EQ(cal.acquire(10000, 50), 0);
  // An earlier request is NOT delayed by the future booking.
  EXPECT_EQ(cal.acquire(0, 50), 0);
}

TEST(Calendar, OversizedOccupancySpills) {
  BandwidthCalendar cal(100);
  cal.acquire(0, 90);
  i64 d = cal.acquire(0, 90);  // does not fit in window 0
  EXPECT_EQ(d, 100);
}

TEST(Calendar, OccupancyAboveTheWindowIsRejected) {
  BandwidthCalendar cal(100);
  EXPECT_EQ(cal.acquire(0, 100), 0);  // exactly one window fits
  EXPECT_THROW(cal.acquire(0, 101), InternalError);
  EXPECT_THROW(BandwidthCalendar(0), InternalError);
}

// Each impossible field ends in an InternalError naming it, before any
// calendar or cache is sized: unchecked, an occupancy above the 256-cycle
// window would make acquire() search forever, and ring_size = 0 would
// divide by zero.
TEST(Ksr, ImpossibleParamsAreRejected) {
  struct Case {
    const char* field;
    void (*set)(KsrParams&);
  };
  static const Case kCases[] = {
      {"ring_size", [](KsrParams& p) { p.ring_size = 0; }},
      {"ring_size", [](KsrParams& p) { p.ring_size = -4; }},
      {"ring_occupancy", [](KsrParams& p) { p.ring_occupancy = 257; }},
      {"ring_occupancy", [](KsrParams& p) { p.ring_occupancy = -1; }},
      {"hit_cycles", [](KsrParams& p) { p.hit_cycles = -2; }},
      {"local_miss_cycles", [](KsrParams& p) { p.local_miss_cycles = -1; }},
      {"remote_miss_cycles", [](KsrParams& p) { p.remote_miss_cycles = -1; }},
      {"upgrade_cycles", [](KsrParams& p) { p.upgrade_cycles = -90; }},
  };
  for (const Case& c : kCases) {
    KsrParams p = params();
    c.set(p);
    try {
      KsrMemorySystem m(p);
      ADD_FAILURE() << c.field << " accepted";
    } catch (const InternalError& e) {
      EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
          << e.what();
    }
  }
  // The limits themselves are machines.
  KsrParams edge = params();
  edge.ring_size = 1;
  edge.ring_occupancy = KsrMemorySystem::kRingWindow;
  edge.hit_cycles = 0;
  edge.upgrade_cycles = 0;
  KsrMemorySystem m(edge);
  // Two cold misses homed on processor 0's ring at cycle 0: the first
  // fills ring window 0, the second waits for window 1.
  EXPECT_EQ(m.access(0, 0, 4, false, 0), edge.local_miss_cycles);
  EXPECT_EQ(m.access(0, 4 * edge.block_size, 4, false, 0),
            edge.local_miss_cycles + KsrMemorySystem::kRingWindow);
}

TEST(Ksr, HitCostsHitCycles) {
  KsrMemorySystem m(params());
  m.access(0, 0, 4, false, 0);  // cold miss
  EXPECT_EQ(m.access(0, 0, 4, false, 1000), m.params().hit_cycles);
  EXPECT_EQ(m.stats().hits, 1u);
}

TEST(Ksr, ColdMissCostsLocalLatency) {
  KsrMemorySystem m(params());
  i64 lat = m.access(0, 0, 4, false, 0);
  EXPECT_GE(lat, m.params().local_miss_cycles);
  EXPECT_EQ(m.stats().misses, 1u);
}

TEST(Ksr, CrossRingMissCostsRemoteLatency) {
  // 40 processors = two rings; force a transfer from ring 1 to ring 0.
  KsrParams p = params(40);
  KsrMemorySystem m(p);
  // Block 35's ALLCACHE home is processor 35 (ring 1): its own cold miss
  // is ring-local, the later fetch by processor 0 crosses rings.
  i64 addr = 35 * p.block_size;
  m.access(35, addr, 4, true, 0);
  EXPECT_EQ(m.stats().remote_misses, 0u);
  i64 lat = m.access(0, addr, 4, false, 10000);
  EXPECT_GE(lat, p.remote_miss_cycles);
  EXPECT_EQ(m.stats().remote_misses, 1u);
}

TEST(Ksr, SameRingTransferIsLocal) {
  KsrParams p = params(40);
  KsrMemorySystem m(p);
  m.access(3, 0, 4, true, 0);
  i64 lat = m.access(5, 0, 4, false, 10000);
  EXPECT_GE(lat, p.local_miss_cycles);
  EXPECT_LT(lat, p.remote_miss_cycles);
}

TEST(Ksr, UpgradePaysInvalidationCost) {
  KsrMemorySystem m(params());
  m.access(0, 0, 4, false, 0);
  m.access(1, 0, 4, false, 100);
  i64 lat = m.access(0, 0, 4, true, 2000);  // write to Shared line
  EXPECT_GE(lat, m.params().upgrade_cycles);
  EXPECT_EQ(m.stats().upgrades, 1u);
}

TEST(Ksr, ContentionGrowsWithMissRate) {
  // Many processors missing at the same instant queue on the ring.
  KsrParams p = params(16);
  KsrMemorySystem m(p);
  i64 total = 0;
  for (int proc = 0; proc < 16; ++proc)
    total += m.access(proc, proc * 4096, 4, false, 0);
  EXPECT_GT(m.stats().queue_cycles, 0);
  EXPECT_GT(total, 16 * p.local_miss_cycles);
}

TEST(Ksr, StallAccountingConsistent) {
  KsrMemorySystem m(params());
  m.access(0, 0, 4, false, 0);
  m.access(0, 0, 4, false, 500);
  const KsrStats& s = m.stats();
  EXPECT_EQ(s.refs, 2u);
  EXPECT_EQ(s.hits + s.misses, 2u);
  EXPECT_GE(s.stall_cycles, s.queue_cycles);
}

TEST(Ksr, ClassifiedStatsMatchMissKinds) {
  KsrMemorySystem m(params());
  m.access(0, 0, 4, false, 0);
  m.access(1, 32, 4, true, 10);
  m.access(0, 0, 4, false, 400);  // false sharing
  EXPECT_EQ(m.stats().classified.false_sharing, 1u);
  EXPECT_EQ(m.stats().classified.cold, 2u);
}

}  // namespace
}  // namespace fsopt
