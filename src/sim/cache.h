// Multiprocessor cache simulation (§4): one first-level cache per
// processor, write-invalidate (MSI) coherence, infinite second level.
// Misses are classified at word granularity by MissClassifier.
//
// All coherence state (directory entries, cache lines, classifier
// snapshots) is held in dense arrays indexed by block number — sized once
// from total_bytes, never rehashed or grown during replay — and every
// piece of it is strictly per-block (the directory, the classifier) or
// per-set (LRU stamps).  That makes the simulation region-shardable:
// the composed sharded replay (sim/multi.h) hands each shard whole
// regions, and a cache fed only those regions replays them
// independently of the other shards.
#pragma once

#include <algorithm>
#include <bit>
#include <map>
#include <vector>

#include "sim/attribution.h"
#include "sim/classify.h"

namespace fsopt {

struct CacheParams {
  i64 nprocs = 8;
  i64 cache_bytes = 32 * 1024;  // per-processor L1 (the simulation study)
  i64 block_size = 128;
  i64 total_bytes = 0;  // simulated address-space size (bounds all refs)
  i64 associativity = 1;  // ways per set (LRU replacement)
  /// Dubois-style hardware ablation (§6 related work): invalidate at word
  /// rather than block granularity.  A remote write only invalidates the
  /// written words, so pure false-sharing misses disappear entirely — at
  /// the cost of per-word valid bits in hardware.
  bool word_invalidate = false;
};

struct AccessOutcome {
  MissKind kind = MissKind::kHit;
  bool upgrade = false;    // write hit on a Shared line (invalidation sent)
  int source_proc = -1;    // cache that services the miss (-1: memory/L2)
  int invalidated = 0;     // remote copies invalidated by this access
};

/// Merge the per-block outcomes of one split reference (in block order)
/// into the outcome reported for the whole reference: invalidations sum,
/// upgrades OR, the most severe kind wins, the last servicing cache is
/// reported.  CoherentCache::access applies this internally; the
/// composed sharded replay applies it when a split reference's regions
/// land in different shards.
///
/// Severity follows the classifier's word-union semantics, not the raw
/// enum order: a reference misses with *true* sharing when ANY word it
/// touches was remotely written, so a (true-sharing, false-sharing) part
/// pair merges to true sharing — real communication happened, even
/// though one block's words were untouched.  (The enum orders false
/// sharing last; merging by enum value misclassified exactly this mixed
/// case.)
inline int split_kind_severity(MissKind k) {
  // kHit < kCold < kReplacement < kFalseSharing < kTrueSharing
  static constexpr int kRank[5] = {0, 1, 2, 4, 3};
  return kRank[static_cast<size_t>(k)];
}

inline AccessOutcome combine_split_outcomes(const AccessOutcome* parts,
                                            size_t n) {
  AccessOutcome worst;
  for (size_t i = 0; i < n; ++i) {
    const AccessOutcome& o = parts[i];
    worst.invalidated += o.invalidated;
    worst.upgrade = worst.upgrade || o.upgrade;
    if (split_kind_severity(o.kind) > split_kind_severity(worst.kind))
      worst.kind = o.kind;
    if (o.source_proc >= 0) worst.source_proc = o.source_proc;
  }
  return worst;
}

/// Per-processor caches + directory + classifier.  Used by the
/// multi-plane replay's fallback planes and the KSR timing model, and
/// the reference model the differential tests hold replay_multi to.
///
/// Residency lives in the directory alone: processor p holds block b iff
/// b's sharer bit p is set, and holds it Modified iff p is b's owner.  A
/// cache line is just the block number its way was last filled with, so
/// an invalidation clears sharer bits without touching any line, and a
/// hit in a direct-mapped cache reads nothing but the block's directory
/// entry.
class CoherentCache {
 public:
  /// Throws InternalError naming the sizes when `p` describes no cache:
  /// blocks under one 4-byte word, or fewer bytes than one set of blocks.
  explicit CoherentCache(const CacheParams& p);

  /// Simulate one reference; returns the outcome.  References spanning
  /// multiple blocks (8-byte data with 4-byte blocks) are split internally
  /// and the most severe outcome is reported.  References must lie inside
  /// the simulated address space (params.total_bytes).
  AccessOutcome access(int proc, i64 addr, i64 size, bool is_write);

  const CacheParams& params() const { return params_; }

  /// Attach (or detach with nullptr) a word-granularity conflict
  /// collector: every miss classified as false sharing additionally
  /// records its (writer-word, victim-word) edges.  Collection never
  /// changes any outcome or counter — with no collector the access path
  /// is untouched.
  void set_conflict_collector(ConflictCollector* c) { collector_ = c; }

 private:
  struct DirEntry {
    u64 sharers = 0;  // bit per processor holding the block
    int owner = -1;   // processor holding it Modified, or -1
  };

  AccessOutcome access_block(int proc, i64 addr, i64 size, bool is_write);
  i64 block_of(i64 addr) const {
    return block_shift_ >= 0 ? addr >> block_shift_ : addr / params_.block_size;
  }
  i64 set_of(i64 block) const {
    return set_mask_ >= 0 ? (block & set_mask_) : block % sets_;
  }
  // Set-major layout: all processors' ways for one set sit adjacent.
  size_t set_base(int proc, i64 block) const {
    return static_cast<size_t>((set_of(block) * params_.nprocs + proc) *
                               params_.associativity);
  }
  bool holds(int proc, i64 block) const {
    return (dir_[static_cast<size_t>(block)].sharers >> proc & 1) != 0;
  }
  /// Stamp the way of `proc`'s set that holds `block` as most recently
  /// used (associative caches only: a direct-mapped set has no order).
  void touch(int proc, i64 block);
  /// Put `block` into `proc`'s set: into the first way whose block
  /// `proc` no longer holds, else over the least-recently-used way, whose
  /// block leaves the directory.
  void fill(int proc, i64 block);
  void drop_from_dir(i64 block, int proc);
  /// Invalidate remote copies on a write by `proc`, which becomes the
  /// block's only holder and its owner; returns the count.
  static int invalidate_remote(int proc, DirEntry& d);

  CacheParams params_;  // first member: validated before anything is sized
  i64 sets_;
  int block_shift_;   // log2(block_size) when a power of two, else -1
  i64 set_mask_;      // sets_ - 1 when a power of two, else -1
  i64 blocks_total_;  // blocks in the whole address space
  i64 total_span_;    // blocks_total_ * block_size (bounds check)
  /// Record the conflict edges behind a false-sharing classification:
  /// one edge per foreign-newer word, from that word (and its writer) to
  /// the first word the victim referenced.
  void note_conflicts(int proc, i64 block, i64 base, i64 w0, i64 w1) {
    classifier_.collect_conflicts_at(proc, block, w0, w1,
                                     [&](i64 w, int writer) {
                                       collector_->record(base + w * 4, writer,
                                                          base + w0 * 4, proc);
                                     });
  }

  /// The block each way was last filled with (-1: never filled); the
  /// way is valid iff its processor still holds that block.  i32 block
  /// numbers (checked against blocks_total_ in the constructor).
  std::vector<i32> lines_;  // [(set * nprocs + proc) * assoc + way]
  std::vector<u64> lru_;    // last-use stamp per way; empty if direct-mapped
  std::vector<DirEntry> dir_;  // [block]
  MissClassifier classifier_;
  ConflictCollector* collector_ = nullptr;
  u64 tick_ = 0;
};

// The per-reference path is defined inline here (not in cache.cpp) so the
// replay loop — the multi-plane fallback planes, the KSR model — inlines
// the whole chain down to the flat-array loads within one translation
// unit.

inline void CoherentCache::touch(int proc, i64 block) {
  if (params_.associativity == 1) return;
  const size_t base = set_base(proc, block);
  for (i64 w = 0; w < params_.associativity; ++w) {
    if (lines_[base + static_cast<size_t>(w)] == block) {
      lru_[base + static_cast<size_t>(w)] = tick_;
      return;
    }
  }
}

inline void CoherentCache::fill(int proc, i64 block) {
  const size_t base = set_base(proc, block);
  i32* way = lines_.data() + base;
  if (params_.associativity == 1) {
    if (way[0] >= 0 && holds(proc, way[0])) drop_from_dir(way[0], proc);
    way[0] = static_cast<i32>(block);
    return;
  }
  const u64* lru = lru_.data() + base;
  i64 v = -1;
  bool free = false;
  for (i64 w = 0; w < params_.associativity; ++w) {
    if (way[w] < 0 || !holds(proc, way[w])) {
      v = w;
      free = true;
      break;
    }
    if (v < 0 || lru[w] < lru[v]) v = w;
  }
  if (!free) drop_from_dir(way[v], proc);
  // A way whose copy was invalidated still names its block; if that is
  // `block`, the refill must not leave two ways claiming it.
  for (i64 w = 0; w < params_.associativity; ++w)
    if (w != v && way[w] == block) way[w] = -1;
  way[v] = static_cast<i32>(block);
  lru_[base + static_cast<size_t>(v)] = tick_;
}

inline void CoherentCache::drop_from_dir(i64 block, int proc) {
  DirEntry& d = dir_[static_cast<size_t>(block)];
  d.sharers &= ~(1ULL << proc);
  if (d.owner == proc) d.owner = -1;
}

inline int CoherentCache::invalidate_remote(int proc, DirEntry& d) {
  const u64 me = 1ULL << proc;
  const int invalidated = std::popcount(d.sharers & ~me);
  d.sharers = me;
  d.owner = proc;
  return invalidated;
}

inline AccessOutcome CoherentCache::access_block(int proc, i64 addr,
                                                 i64 size, bool is_write) {
  // Derive the block geometry once and hand the block index and
  // word-offset range to the classifier's pre-validated entry points —
  // access() has already bounds-checked the reference.
  i64 block = block_of(addr);
  i64 base = block_shift_ >= 0 ? block << block_shift_
                               : block * params_.block_size;
  i64 w0 = (addr - base) >> 2;
  i64 w1 = (addr + size - 1 - base) >> 2;
  DirEntry& d = dir_[static_cast<size_t>(block)];
  const u64 me = 1ULL << proc;
  const bool resident = (d.sharers & me) != 0;
  ++tick_;

  // Every return site builds the outcome as one aggregate so the compiler
  // materialises it in the return registers instead of staging the fields
  // through the stack (byte stores followed by a wide reload stall).

  if (params_.word_invalidate) {
    // Sub-block invalidation ablation (§6, Dubois): no block is ever
    // invalidated, but a resident block still misses when the specific
    // words referenced were remotely written (their valid bits are off);
    // nothing else in the block is disturbed.
    if (resident) {
      touch(proc, block);
      MissKind kind = classifier_.words_valid_at(proc, block, w0, w1)
                          ? MissKind::kHit
                          : MissKind::kTrueSharing;  // word refetch
      classifier_.note_access_at(proc, block, w0, w1, is_write);
      return {kind, false, -1, 0};
    }
    MissKind kind = classifier_.classify_miss_at(proc, block, w0, w1);
    if (kind == MissKind::kFalseSharing && collector_ != nullptr)
      note_conflicts(proc, block, base, w0, w1);
    fill(proc, block);
    d.sharers |= me;
    classifier_.note_access_at(proc, block, w0, w1, is_write);
    return {kind, false, -1, 0};
  }

  if (resident && (!is_write || d.owner == proc)) {
    // Plain hit.
    touch(proc, block);
    classifier_.note_access_at(proc, block, w0, w1, is_write);
    return {MissKind::kHit, false, -1, 0};
  }

  if (resident) {
    // Write to a Shared copy, an upgrade: invalidate all other copies; no
    // data transfer.
    int inv = invalidate_remote(proc, d);
    touch(proc, block);
    classifier_.note_access_at(proc, block, w0, w1, is_write);
    return {MissKind::kHit, true, -1, inv};
  }

  // Miss.
  MissKind kind = classifier_.classify_miss_at(proc, block, w0, w1);
  if (kind == MissKind::kFalseSharing && collector_ != nullptr)
    note_conflicts(proc, block, base, w0, w1);

  fill(proc, block);  // the evicted block is never `block` itself
  int src = d.owner >= 0 && d.owner != proc ? d.owner : -1;
  int inv = 0;
  if (is_write) {
    inv = invalidate_remote(proc, d);
  } else {
    d.owner = -1;  // a remote Modified copy drops to Shared
    d.sharers |= me;
  }
  classifier_.note_access_at(proc, block, w0, w1, is_write);
  return {kind, false, src, inv};
}

inline AccessOutcome CoherentCache::access(int proc, i64 addr, i64 size,
                                           bool is_write) {
  FSOPT_CHECK(addr >= 0 && size > 0 && addr + size <= total_span_,
              "reference outside the simulated address space — "
              "total_bytes does not cover the workload");
  i64 first_block = block_of(addr);
  i64 last_block = block_of(addr + size - 1);
  if (first_block == last_block)
    return access_block(proc, addr, size, is_write);
  // Split across blocks (only possible for 8-byte data with tiny blocks).
  AccessOutcome parts[4];
  size_t n = 0;
  for (i64 b = first_block; b <= last_block; ++b) {
    i64 lo = std::max(addr, b * params_.block_size);
    i64 hi = std::min(addr + size, (b + 1) * params_.block_size);
    FSOPT_CHECK(n < 4, "reference spans too many blocks");
    parts[n++] = access_block(proc, lo, hi - lo, is_write);
  }
  return combine_split_outcomes(parts, n);
}

/// Aggregate statistics for one simulated cache configuration.
struct MissStats {
  u64 refs = 0;
  u64 hits = 0;
  u64 cold = 0;
  u64 replacement = 0;
  u64 true_sharing = 0;
  u64 false_sharing = 0;
  u64 upgrades = 0;
  u64 invalidations = 0;

  u64 misses() const { return cold + replacement + true_sharing + false_sharing; }
  u64 other_misses() const { return cold + replacement + true_sharing; }
  double miss_rate() const {
    return refs > 0 ? static_cast<double>(misses()) / static_cast<double>(refs)
                    : 0.0;
  }
  double false_sharing_rate() const {
    return refs > 0 ? static_cast<double>(false_sharing) /
                          static_cast<double>(refs)
                    : 0.0;
  }
  void add(const AccessOutcome& o) {
    // The kind selects its counter by table, not by a switch: a stream
    // whose hits and misses interleave would mispredict the jump.
    static constexpr u64 MissStats::*kByKind[5] = {
        &MissStats::hits, &MissStats::cold, &MissStats::replacement,
        &MissStats::true_sharing, &MissStats::false_sharing};
    ++refs;
    invalidations += static_cast<u64>(o.invalidated);
    upgrades += o.upgrade ? 1 : 0;
    ++(this->*kByKind[static_cast<size_t>(o.kind)]);
  }
  /// Accumulate another configuration's counters (all fields are additive),
  /// so stats from independent replays / trace shards can be combined.
  void merge(const MissStats& other);
  bool operator==(const MissStats& other) const = default;
};

/// Convert dense per-datum stats (AddressMap range order plus a trailing
/// slot for addresses outside every range) into the string-keyed map the
/// reports consume.  Zero-ref slots are skipped; duplicate names merge.
std::map<std::string, MissStats> materialize_by_datum(
    const AddressMap& map, const std::vector<MissStats>& dense);

}  // namespace fsopt
