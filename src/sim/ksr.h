// Execution-driven timing model of a KSR2-like machine (§4).
//
// Each processor has a 256 KB first-level data cache with 128-byte
// coherence units.  A miss is serviced by another processor's cache:
// 175 cycles when the servicing processor is on the same 32-processor
// ring, 600 cycles across rings.  The ring is a pipelined resource with
// finite bandwidth: each coherence transaction consumes `ring_occupancy`
// cycles of ring capacity, modeled with a bucketed calendar so that
// requests arriving out of (simulated-time) order are handled sanely.
// Memory contention therefore grows with the aggregate miss rate — the
// mechanism that makes falsely-shared programs stop scaling (§5).
//
// The interpreter (interp/machine.h) calls KsrMemorySystem::access for
// every shared reference in timing mode; in trace mode it runs without
// one and every reference costs the same.
#pragma once

#include <vector>

#include "sim/cache.h"

namespace fsopt {

/// Finite-bandwidth resource: time is divided into fixed windows; each
/// window can host `window` cycles worth of transactions.  acquire()
/// books `occupancy` cycles in the first window at or after `now` with
/// room, returning the queueing delay.  Requests in the past of already
/// booked windows use those earlier windows — no future-penalty, which
/// keeps the event-driven simulation stable when processor clocks skew.
/// The bookings are one flat array indexed by window, grown as later
/// windows are reached; a power-of-two window is found by shift.
class BandwidthCalendar {
 public:
  explicit BandwidthCalendar(i64 window = 256);

  /// Book `occupancy` cycles at or after cycle `now` (>= 0); an
  /// occupancy above the window fits no window and throws InternalError.
  i64 acquire(i64 now, i64 occupancy);
  i64 booked_cycles() const { return booked_; }

 private:
  i64 window_;
  int shift_;  // log2(window_) when a power of two, else -1
  i64 booked_ = 0;
  std::vector<i64> used_;  // window index -> cycles booked in it
};

struct KsrParams {
  i64 nprocs = 8;
  i64 cache_bytes = 256 * 1024;  // data half of the 512 KB L1
  i64 block_size = 128;
  i64 total_bytes = 0;
  i64 hit_cycles = 2;
  i64 local_miss_cycles = 175;
  i64 remote_miss_cycles = 600;
  i64 upgrade_cycles = 90;  // invalidation round trip for write-to-shared
  i64 ring_occupancy = 24;  // ring slot cycles consumed per transaction
  i64 ring_size = 32;       // processors per ring
};

struct KsrStats {
  u64 refs = 0;
  u64 hits = 0;
  u64 misses = 0;
  u64 upgrades = 0;
  u64 remote_misses = 0;  // cross-ring
  i64 stall_cycles = 0;   // total latency beyond hit time
  i64 queue_cycles = 0;   // portion of stalls spent waiting for the ring
  MissStats classified;   // word-level classification of the misses
};

class KsrMemorySystem {
 public:
  /// Cycles per ring and inter-ring link calendar window.
  static constexpr i64 kRingWindow = 256;

  /// Throws InternalError naming the field when `p` describes no machine:
  /// `ring_size` below 1, a `ring_occupancy` outside [0, kRingWindow] (a
  /// larger one fits no window) or a negative latency (processor clocks
  /// must never run backwards), and whatever CoherentCache rejects.
  explicit KsrMemorySystem(const KsrParams& p);

  /// Perform one reference by `proc` at local time `now`; returns its
  /// latency in cycles.
  i64 access(int proc, i64 addr, i64 size, bool is_write, i64 now);

  const KsrStats& stats() const { return stats_; }
  const KsrParams& params() const { return params_; }

 private:
  KsrParams params_;  // first member: validated before anything is sized
  CoherentCache cache_;
  int block_shift_;  // log2(block_size) when a power of two, else -1
  // The ring of each processor and of each block's ALLCACHE home
  // (block mod nprocs), looked up so that no miss divides.
  std::vector<u8> ring_;       // [proc]
  std::vector<u8> home_ring_;  // [block]
  std::vector<BandwidthCalendar> rings_;
  BandwidthCalendar link_;  // inter-ring link
  KsrStats stats_;
};

}  // namespace fsopt
