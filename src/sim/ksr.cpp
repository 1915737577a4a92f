#include "sim/ksr.h"

namespace fsopt {

i64 BandwidthCalendar::acquire(i64 now, i64 occupancy) {
  if (occupancy <= 0) return 0;
  i64 b = now / window_;
  while (used_[b] + occupancy > window_) ++b;
  used_[b] += occupancy;
  booked_ += occupancy;
  i64 start = b * window_;
  return start > now ? start - now : 0;
}

KsrMemorySystem::KsrMemorySystem(const KsrParams& p)
    : params_(p),
      cache_({p.nprocs, p.cache_bytes, p.block_size, p.total_bytes}),
      rings_(static_cast<size_t>((p.nprocs + p.ring_size - 1) /
                                 p.ring_size)) {}

i64 KsrMemorySystem::access(int proc, i64 addr, i64 size, bool is_write,
                            i64 now) {
  AccessOutcome o = cache_.access(proc, addr, size, is_write);
  ++stats_.refs;
  stats_.classified.add(o);

  if (o.kind == MissKind::kHit && !o.upgrade) {
    ++stats_.hits;
    return params_.hit_cycles;
  }

  int my_ring = ring_of(proc);
  i64 latency = 0;

  if (o.kind == MissKind::kHit && o.upgrade) {
    // Write to a Shared line: the invalidation traverses the ring.
    ++stats_.upgrades;
    i64 queue = rings_[static_cast<size_t>(my_ring)].acquire(
        now, params_.ring_occupancy);
    latency = params_.upgrade_cycles + queue;
    stats_.queue_cycles += queue;
  } else {
    ++stats_.misses;
    // The servicing cache: the previous owner when one exists, else the
    // block's ALLCACHE home (deterministically spread over processors).
    int source = o.source_proc >= 0
                     ? o.source_proc
                     : static_cast<int>((addr / params_.block_size) %
                                        params_.nprocs);
    int src_ring = ring_of(source);
    bool cross = src_ring != my_ring;
    i64 base =
        cross ? params_.remote_miss_cycles : params_.local_miss_cycles;
    i64 queue = rings_[static_cast<size_t>(my_ring)].acquire(
        now, params_.ring_occupancy);
    if (cross) {
      ++stats_.remote_misses;
      queue += link_.acquire(now + queue, params_.ring_occupancy);
      queue += rings_[static_cast<size_t>(src_ring)].acquire(
          now + queue, params_.ring_occupancy);
    }
    latency = base + queue;
    stats_.queue_cycles += queue;
  }
  stats_.stall_cycles += latency - params_.hit_cycles;
  return latency;
}

}  // namespace fsopt
