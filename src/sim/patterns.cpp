#include "sim/patterns.h"

#include <algorithm>
#include <bit>

namespace fsopt {

const char* pattern_name(AccessPattern p) {
  switch (p) {
    case AccessPattern::kNone: return "none";
    case AccessPattern::kStrided: return "strided";
    case AccessPattern::kPingPong: return "ping-pong";
    case AccessPattern::kMigratory: return "migratory";
    case AccessPattern::kProducerConsumer: return "producer-consumer";
    case AccessPattern::kReadShared: return "read-shared";
    case AccessPattern::kThrashingCapacity: return "thrashing(capacity)";
    case AccessPattern::kConflict: return "conflict";
  }
  return "?";
}

AccessPattern pattern_from_name(std::string_view name) {
  for (AccessPattern p :
       {AccessPattern::kNone, AccessPattern::kStrided, AccessPattern::kPingPong,
        AccessPattern::kMigratory, AccessPattern::kProducerConsumer,
        AccessPattern::kReadShared, AccessPattern::kThrashingCapacity,
        AccessPattern::kConflict}) {
    if (name == pattern_name(p)) return p;
  }
  throw InternalError("unknown access-pattern name '" + std::string(name) +
                      "'");
}

PatternCollector::PatternCollector(const AddressMap* map,
                                   const CacheParams& params)
    : map_(map), params_(params) {
  FSOPT_CHECK(params.nprocs >= 1 && params.nprocs <= 64,
              "PatternCollector: nprocs must be 1..64 (processor masks)");
  size_t nd = (map != nullptr ? map->ranges().size() : 0) + 1;
  datums_.resize(nd);
  procs_.resize(nd * static_cast<size_t>(params.nprocs));
}

void PatternCollector::record(const MemRef& ref) {
  ++tick_;
  int idx = map_ != nullptr ? map_->index_of(ref.addr) : -1;
  size_t d = idx >= 0 ? static_cast<size_t>(idx) : datums_.size() - 1;
  DatumState& ds = datums_[d];
  const bool is_write = ref.type == RefType::kWrite;
  const int proc = ref.proc;

  if (is_write) {
    ++ds.writes;
    ds.writers_mask |= u64{1} << proc;
  } else {
    ++ds.reads;
  }
  ds.readers_mask |= u64{1} << proc;

  if (ds.lo < 0 || ref.addr < ds.lo) ds.lo = ref.addr;
  i64 end = ref.addr + ref.size;
  if (end > ds.hi) ds.hi = end;

  // Reuse-distance sketch: log2 of the whole-trace gap since this datum
  // was last touched (a cheap proxy for stack distance — gaps larger
  // than the trace's working set imply eviction between touches).
  if (ds.seen) {
    u64 gap = tick_ - ds.last_tick;
    size_t b = gap <= 1 ? 0
                        : static_cast<size_t>(std::bit_width(gap - 1));
    if (b >= kReuseBuckets) b = kReuseBuckets - 1;
    ++ds.reuse[b];
  }
  ds.last_tick = tick_;
  ds.seen = true;

  // Writer-handoff chain: consecutive-write runs per owner and the
  // (from, to) transition matrix ping-pong detection reads.
  if (is_write) {
    if (ds.last_writer >= 0 && ds.last_writer != proc) {
      ++ds.handoffs;
      ++ds.transitions[{ds.last_writer, proc}];
      ds.run_sum += ds.run_len;
      ++ds.runs;
      ds.run_len = 0;
    }
    ds.last_writer = proc;
    ++ds.run_len;
  }

  // Per-processor stride histogram (bounded: top-8 distinct strides by
  // first appearance; the tail folds into `other` so a scan over an
  // irregular datum cannot grow memory without bound).
  ProcState& ps = procs_[d * static_cast<size_t>(params_.nprocs) +
                         static_cast<size_t>(proc)];
  if (ps.valid) {
    i64 stride = ref.addr - ps.last_addr;
    bool found = false;
    for (StrideEntry& e : ps.strides) {
      if (e.stride == stride) {
        ++e.count;
        found = true;
        break;
      }
    }
    if (!found) {
      if (ps.strides.size() < 8)
        ps.strides.push_back({stride, 1});
      else
        ++ps.stride_other;
    }
  }
  ps.last_addr = ref.addr;
  ps.valid = true;
}

std::vector<DatumPattern> PatternCollector::patterns(
    const std::map<std::string, MissStats>& by_datum,
    const PatternThresholds& t) const {
  std::vector<DatumPattern> out;
  for (size_t d = 0; d < datums_.size(); ++d) {
    const DatumState& ds = datums_[d];
    if (!ds.seen) continue;

    DatumPattern p;
    p.name = d < datums_.size() - 1 && map_ != nullptr
                 ? map_->ranges()[d].name
                 : "<other>";
    // The replay attributed the same references through the same map, so
    // the datum's entry counts exactly what was summarized here (range
    // names are unique: globals, "g.f" field heaps and "<barrier>").
    auto it = by_datum.find(p.name);
    FSOPT_CHECK(it != by_datum.end() &&
                    it->second.refs == ds.reads + ds.writes,
                "pattern summary of '" + p.name +
                    "' does not match the replay's attribution");
    p.reads = ds.reads;
    p.writes = ds.writes;
    p.readers = std::popcount(ds.readers_mask);
    p.writers = std::popcount(ds.writers_mask);
    p.handoffs = ds.handoffs;
    p.footprint = ds.lo >= 0 ? ds.hi - ds.lo : 0;
    p.reuse.assign(ds.reuse, ds.reuse + kReuseBuckets);
    p.stats = it->second;

    // Close the trailing ownership run so mean_run covers every write.
    u64 run_sum = ds.run_sum + ds.run_len;
    u64 runs = ds.runs + (ds.last_writer >= 0 ? 1 : 0);
    p.mean_run = runs > 0 ? static_cast<double>(run_sum) /
                                static_cast<double>(runs)
                          : 0.0;

    // Dominant writer pair: handoff weight between the heaviest unordered
    // pair over all handoffs.
    if (ds.handoffs > 0) {
      std::map<std::pair<int, int>, u64> undirected;
      for (const auto& [ft, n] : ds.transitions) {
        auto key = ft.first < ft.second
                       ? ft
                       : std::make_pair(ft.second, ft.first);
        undirected[key] += n;
      }
      u64 best = 0;
      for (const auto& [pair, n] : undirected) best = std::max(best, n);
      p.pingpong_share =
          static_cast<double>(best) / static_cast<double>(ds.handoffs);
    }

    // Dominant nonzero stride across processors.
    {
      std::map<i64, u64> merged;
      u64 total = 0;
      for (i64 q = 0; q < params_.nprocs; ++q) {
        const ProcState& ps =
            procs_[d * static_cast<size_t>(params_.nprocs) +
                   static_cast<size_t>(q)];
        for (const StrideEntry& e : ps.strides) {
          if (e.stride == 0) continue;  // re-touches are not a walk
          merged[e.stride] += e.count;
          total += e.count;
        }
        total += ps.stride_other;
      }
      u64 best = 0;
      for (const auto& [s, n] : merged) {
        if (n > best || (n == best && best > 0 &&
                         std::abs(s) < std::abs(p.dominant_stride))) {
          best = n;
          p.dominant_stride = s;
        }
      }
      p.stride_share = total > 0 ? static_cast<double>(best) /
                                       static_cast<double>(total)
                                 : 0.0;
    }

    // --- the decision ladder -------------------------------------------
    // Coherence shapes first (they explain sharing misses no other label
    // can), then the capacity/conflict pair, then streaming, then the
    // read-only fan-out, else nothing.
    const u64 misses = p.stats.misses();
    const u64 sharing = p.sharing_misses();
    const bool enough = p.stats.refs >= t.min_refs;
    const bool sharing_dominated =
        misses > 0 && static_cast<double>(sharing) >=
                          t.sharing_fraction * static_cast<double>(misses);
    const bool replacement_dominated =
        misses > 0 &&
        static_cast<double>(p.stats.replacement) >=
            t.replacement_fraction * static_cast<double>(misses);

    if (!enough) {
      p.label = AccessPattern::kNone;
    } else if (sharing_dominated && p.writers >= 2) {
      p.label = (p.pingpong_share >= t.pingpong_share &&
                 p.mean_run < t.run_cutoff)
                    ? AccessPattern::kPingPong
                    : AccessPattern::kMigratory;
    } else if (sharing_dominated && p.writers == 1 && p.readers >= 2) {
      p.label = AccessPattern::kProducerConsumer;
    } else if (replacement_dominated) {
      p.label = p.footprint > params_.cache_bytes
                    ? AccessPattern::kThrashingCapacity
                    : AccessPattern::kConflict;
    } else if (p.writes == 0 && p.readers >= 2) {
      // Read-only fan-out beats strided: read-shared data cannot falsely
      // share, which is the more useful headline even when the readers
      // walk it in a regular stride.
      p.label = AccessPattern::kReadShared;
    } else if (p.dominant_stride != 0 && p.stride_share >= t.strided_share) {
      p.label = AccessPattern::kStrided;
    } else {
      p.label = AccessPattern::kNone;
    }
    out.push_back(std::move(p));
  }
  std::sort(out.begin(), out.end(),
            [](const DatumPattern& a, const DatumPattern& b) {
              if (a.stats.false_sharing != b.stats.false_sharing)
                return a.stats.false_sharing > b.stats.false_sharing;
              return a.name < b.name;
            });
  return out;
}

}  // namespace fsopt
