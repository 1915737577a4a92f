// The reference model every replay is held to: one CoherentCache per
// configuration, each outcome counted through MissStats::add and, with an
// AddressMap, into a dense per-datum slot.  It has no batch fast path, so
// the differential tests and bench_replay_throughput compare replay_multi
// against exactly the per-reference model.
#pragma once

#include "sim/cache.h"
#include "trace/trace.h"

namespace fsopt::benchx {

class ReferenceSim final : public TraceSink {
 public:
  explicit ReferenceSim(const CacheParams& p, const AddressMap* map = nullptr)
      : cache_(p), map_(map), dense_(map ? map->ranges().size() + 1 : 0) {}

#if defined(__GNUC__)
  // Inline the whole access chain, as KsrMemorySystem::access does: left
  // to its heuristics GCC keeps CoherentCache's block path out of line.
  __attribute__((flatten))
#endif
  void on_batch(const MemRef* refs, size_t n) override {
    for (const MemRef* r = refs; r != refs + n; ++r) {
      const AccessOutcome o =
          cache_.access(r->proc, r->addr, r->size, r->type == RefType::kWrite);
      stats_.add(o);
      if (map_ == nullptr) continue;
      const int d = map_->index_of(r->addr);
      dense_[d >= 0 ? static_cast<size_t>(d) : dense_.size() - 1].add(o);
    }
  }

  const MissStats& stats() const { return stats_; }
  /// Per-datum stats keyed by name; empty without an AddressMap.
  std::map<std::string, MissStats> by_datum() const {
    if (map_ == nullptr) return {};
    return materialize_by_datum(*map_, dense_);
  }

 private:
  CoherentCache cache_;
  const AddressMap* map_;
  MissStats stats_;
  std::vector<MissStats> dense_;  // AddressMap order, then "<other>"
};

}  // namespace fsopt::benchx
