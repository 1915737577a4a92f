#include "sim/ksr.h"

#include <algorithm>
#include <string>

namespace fsopt {

BandwidthCalendar::BandwidthCalendar(i64 window)
    : window_(window), shift_(pow2_shift(window)) {
  FSOPT_CHECK(window >= 1, "calendar window must be at least one cycle");
}

i64 BandwidthCalendar::acquire(i64 now, i64 occupancy) {
  if (occupancy <= 0) return 0;
  FSOPT_CHECK(now >= 0 && occupancy <= window_,
              "calendar booking of " + std::to_string(occupancy) +
                  " cycles at cycle " + std::to_string(now) +
                  " fits no window of " + std::to_string(window_));
  size_t b = static_cast<size_t>(shift_ >= 0 ? now >> shift_ : now / window_);
  for (;; ++b) {
    if (b >= used_.size()) used_.resize(std::max(b + 1, 2 * used_.size()));
    if (used_[b] + occupancy <= window_) break;
  }
  used_[b] += occupancy;
  booked_ += occupancy;
  i64 start = static_cast<i64>(b) * window_;
  return start > now ? start - now : 0;
}

namespace {

/// `p`, once it describes a machine: checked before the ring count
/// divides by the ring size.
const KsrParams& validated(const KsrParams& p) {
  auto require = [](bool ok, const char* field, i64 v,
                    const std::string& want) {
    FSOPT_CHECK(ok, std::string("KsrParams::") + field + " = " +
                        std::to_string(v) + ": " + want);
  };
  const i64 window = KsrMemorySystem::kRingWindow;
  require(p.ring_size >= 1, "ring_size", p.ring_size, "must be at least 1");
  require(p.ring_occupancy >= 0 && p.ring_occupancy <= window,
          "ring_occupancy", p.ring_occupancy,
          "must lie in [0, " + std::to_string(window) +
              "], the ring calendar's window");
  for (auto [field, v] : {std::pair{"hit_cycles", p.hit_cycles},
                          std::pair{"local_miss_cycles", p.local_miss_cycles},
                          std::pair{"remote_miss_cycles", p.remote_miss_cycles},
                          std::pair{"upgrade_cycles", p.upgrade_cycles}})
    require(v >= 0, field, v, "latencies must not be negative");
  return p;
}

}  // namespace

KsrMemorySystem::KsrMemorySystem(const KsrParams& p)
    : params_(validated(p)),
      cache_({p.nprocs, p.cache_bytes, p.block_size, p.total_bytes}),
      block_shift_(pow2_shift(p.block_size)),
      rings_(static_cast<size_t>((p.nprocs + p.ring_size - 1) / p.ring_size),
             BandwidthCalendar(kRingWindow)),
      link_(kRingWindow) {
  for (i64 q = 0; q < p.nprocs; ++q)
    ring_.push_back(static_cast<u8>(q / p.ring_size));
  const i64 blocks =
      (std::max(p.total_bytes, p.block_size) + p.block_size - 1) /
      p.block_size;
  home_ring_.resize(static_cast<size_t>(blocks));
  for (i64 b = 0; b < blocks; ++b)
    home_ring_[static_cast<size_t>(b)] =
        ring_[static_cast<size_t>(b % p.nprocs)];
}

#if defined(__GNUC__)
// Inline the coherent cache and the calendars into the one call the
// interpreter makes per timing reference.
__attribute__((flatten))
#endif
i64 KsrMemorySystem::access(int proc, i64 addr, i64 size, bool is_write,
                            i64 now) {
  AccessOutcome o = cache_.access(proc, addr, size, is_write);
  ++stats_.refs;
  stats_.classified.add(o);

  if (o.kind == MissKind::kHit && !o.upgrade) {
    ++stats_.hits;
    return params_.hit_cycles;
  }

  const int my_ring = ring_[static_cast<size_t>(proc)];
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
    const i64 block =
        block_shift_ >= 0 ? addr >> block_shift_ : addr / params_.block_size;
    const int src_ring = o.source_proc >= 0
                             ? ring_[static_cast<size_t>(o.source_proc)]
                             : home_ring_[static_cast<size_t>(block)];
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
