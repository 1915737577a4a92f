// The pre-flattening, hash-map-backed cache simulator, kept verbatim as
// the perf baseline for bench_replay_throughput.
//
// This is the simulator the library shipped before the flat-state
// overhaul: the directory is an unordered_map keyed by block, the
// classifier keeps one unordered_map of block snapshots per processor,
// and per-datum attribution goes through a string-keyed std::map on every
// reference.  It is *not* used by the library or the studies — it exists
// so the throughput microbench can measure (and CI can track) how much
// the dense-array simulator buys over it, and so the bench can
// cross-check that both implementations still classify identically.
#pragma once

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/cache.h"
#include "trace/trace.h"

namespace fsopt::benchx::baseline {

class HashMissClassifier {
 public:
  HashMissClassifier(i64 nprocs, i64 block_size, i64 total_bytes)
      : block_size_(block_size),
        words_((total_bytes + 3) / 4),
        word_version_(static_cast<size_t>(words_), 0),
        word_writer_(static_cast<size_t>(words_), 255),
        snapshot_(static_cast<size_t>(nprocs)) {}

  MissKind classify_miss(int proc, i64 addr, i64 size) const {
    i64 block = addr / block_size_;
    const auto& snap = snapshot_[static_cast<size_t>(proc)];
    auto it = snap.find(block);
    if (it == snap.end()) return MissKind::kCold;
    u64 s = it->second;

    i64 w0 = block * block_size_ / 4;
    i64 w1 = std::min(words_, w0 + block_size_ / 4);
    bool any_remote = false;
    for (i64 w = w0; w < w1; ++w) {
      if (word_version_[static_cast<size_t>(w)] > s &&
          word_writer_[static_cast<size_t>(w)] != proc) {
        any_remote = true;
        break;
      }
    }
    if (!any_remote) return MissKind::kReplacement;

    i64 r0 = addr / 4;
    i64 r1 = (addr + size - 1) / 4;
    for (i64 w = r0; w <= r1; ++w) {
      if (w < 0 || w >= words_) continue;
      if (word_version_[static_cast<size_t>(w)] > s &&
          word_writer_[static_cast<size_t>(w)] != proc)
        return MissKind::kTrueSharing;
    }
    return MissKind::kFalseSharing;
  }

  void note_access(int proc, i64 addr, i64 size, bool is_write) {
    ++counter_;
    snapshot_[static_cast<size_t>(proc)][addr / block_size_] = counter_;
    if (!is_write) return;
    i64 r0 = addr / 4;
    i64 r1 = (addr + size - 1) / 4;
    for (i64 w = r0; w <= r1; ++w) {
      if (w < 0 || w >= words_) continue;
      word_version_[static_cast<size_t>(w)] = counter_;
      word_writer_[static_cast<size_t>(w)] = static_cast<u8>(proc);
    }
  }

 private:
  i64 block_size_;
  i64 words_;
  u64 counter_ = 0;
  std::vector<u64> word_version_;
  std::vector<u8> word_writer_;
  std::vector<std::unordered_map<i64, u64>> snapshot_;
};

class HashCoherentCache {
 public:
  explicit HashCoherentCache(const CacheParams& p)
      : params_(p),
        sets_(p.cache_bytes / p.block_size /
              std::max<i64>(p.associativity, 1)),
        classifier_(p.nprocs, p.block_size,
                    std::max<i64>(p.total_bytes, p.block_size)) {
    caches_.assign(
        static_cast<size_t>(p.nprocs),
        std::vector<Line>(static_cast<size_t>(sets_ * p.associativity)));
  }

  AccessOutcome access(int proc, i64 addr, i64 size, bool is_write) {
    i64 first_block = addr / params_.block_size;
    i64 last_block = (addr + size - 1) / params_.block_size;
    if (first_block == last_block)
      return access_block(proc, addr, size, is_write);
    AccessOutcome worst;
    for (i64 b = first_block; b <= last_block; ++b) {
      i64 lo = std::max(addr, b * params_.block_size);
      i64 hi = std::min(addr + size, (b + 1) * params_.block_size);
      AccessOutcome o = access_block(proc, lo, hi - lo, is_write);
      worst.invalidated += o.invalidated;
      worst.upgrade = worst.upgrade || o.upgrade;
      if (static_cast<int>(o.kind) > static_cast<int>(worst.kind))
        worst.kind = o.kind;
      if (o.source_proc >= 0) worst.source_proc = o.source_proc;
    }
    return worst;
  }

 private:
  enum class LineState : u8 { kInvalid, kShared, kModified };
  struct Line {
    i64 block = -1;
    LineState state = LineState::kInvalid;
    u64 lru = 0;
  };
  struct DirEntry {
    u64 sharers = 0;
    int owner = -1;
  };

  Line* find_line(int proc, i64 block) {
    i64 set = block % sets_;
    auto& ways = caches_[static_cast<size_t>(proc)];
    for (i64 w = 0; w < params_.associativity; ++w) {
      Line& l = ways[static_cast<size_t>(set * params_.associativity + w)];
      if (l.block == block && l.state != LineState::kInvalid) return &l;
    }
    return nullptr;
  }

  Line& victim_line(int proc, i64 block) {
    i64 set = block % sets_;
    auto& ways = caches_[static_cast<size_t>(proc)];
    Line* victim = nullptr;
    for (i64 w = 0; w < params_.associativity; ++w) {
      Line& l = ways[static_cast<size_t>(set * params_.associativity + w)];
      if (l.state == LineState::kInvalid) return l;
      if (victim == nullptr || l.lru < victim->lru) victim = &l;
    }
    return *victim;
  }

  void drop_from_dir(i64 block, int proc) {
    auto it = dir_.find(block);
    if (it == dir_.end()) return;
    it->second.sharers &= ~(1ULL << proc);
    if (it->second.owner == proc) it->second.owner = -1;
    if (it->second.sharers == 0) dir_.erase(it);
  }

  int invalidate_remote(int proc, i64 block) {
    int invalidated = 0;
    DirEntry& d = dir_[block];
    for (i64 q = 0; q < params_.nprocs; ++q) {
      if (q == proc || (d.sharers >> q & 1) == 0) continue;
      Line* rl = find_line(static_cast<int>(q), block);
      if (rl != nullptr) {
        rl->state = LineState::kInvalid;
        ++invalidated;
      }
    }
    d.sharers = 1ULL << proc;
    d.owner = proc;
    return invalidated;
  }

  AccessOutcome access_block(int proc, i64 addr, i64 size, bool is_write) {
    i64 block = addr / params_.block_size;
    Line* resident = find_line(proc, block);
    ++tick_;

    AccessOutcome out;

    if (resident != nullptr &&
        (!is_write || resident->state == LineState::kModified)) {
      resident->lru = tick_;
      out.kind = MissKind::kHit;
      classifier_.note_access(proc, addr, size, is_write);
      return out;
    }

    if (resident != nullptr && is_write &&
        resident->state == LineState::kShared) {
      out.kind = MissKind::kHit;
      out.upgrade = true;
      out.invalidated = invalidate_remote(proc, block);
      resident->state = LineState::kModified;
      resident->lru = tick_;
      classifier_.note_access(proc, addr, size, is_write);
      return out;
    }

    out.kind = classifier_.classify_miss(proc, addr, size);

    Line& line = victim_line(proc, block);
    if (line.block >= 0 && line.state != LineState::kInvalid)
      drop_from_dir(line.block, proc);

    DirEntry& d = dir_[block];
    if (d.owner >= 0 && d.owner != proc) out.source_proc = d.owner;

    if (is_write) {
      out.invalidated = invalidate_remote(proc, block);
      DirEntry& d2 = dir_[block];
      d2.sharers = 1ULL << proc;
      d2.owner = proc;
      line.block = block;
      line.state = LineState::kModified;
    } else {
      if (d.owner >= 0 && d.owner != proc) {
        Line* rl = find_line(d.owner, block);
        if (rl != nullptr && rl->state == LineState::kModified)
          rl->state = LineState::kShared;
        d.owner = -1;
      }
      d.sharers |= 1ULL << proc;
      line.block = block;
      line.state = LineState::kShared;
    }
    line.lru = tick_;
    classifier_.note_access(proc, addr, size, is_write);
    return out;
  }

  CacheParams params_;
  i64 sets_;
  std::vector<std::vector<Line>> caches_;
  std::unordered_map<i64, DirEntry> dir_;
  HashMissClassifier classifier_;
  u64 tick_ = 0;
};

/// TraceSink over HashCoherentCache with the old string-keyed
/// per-reference attribution path.
class HashCacheSim : public TraceSink {
 public:
  explicit HashCacheSim(const CacheParams& p,
                        const AddressMap* attribution = nullptr)
      : cache_(p), attribution_(attribution) {}
  void on_batch(const MemRef* refs, size_t n) override {
    for (size_t i = 0; i < n; ++i) process(refs[i]);
  }
  const MissStats& stats() const { return stats_; }
  const std::map<std::string, MissStats>& by_datum() const {
    return by_datum_;
  }

 private:
  void process(const MemRef& ref) {
    AccessOutcome o = cache_.access(ref.proc, ref.addr, ref.size,
                                    ref.type == RefType::kWrite);
    stats_.add(o);
    if (attribution_ != nullptr) {
      int i = attribution_->index_of(ref.addr);
      by_datum_[i >= 0 ? attribution_->name_of(i) : "<other>"].add(o);
    }
  }

  HashCoherentCache cache_;
  const AddressMap* attribution_;
  MissStats stats_;
  std::map<std::string, MissStats> by_datum_;
};

}  // namespace fsopt::benchx::baseline
