#include "sim/multi.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "support/thread_pool.h"

namespace fsopt {

namespace {

constexpr int kWBits = 7;     // writer bits in a packed word version
constexpr u64 kWMask = 127;

/// Can the shared bitmask engine express this configuration?  It models
/// exactly CoherentCache with one way per set (no LRU order to track),
/// block-granularity invalidation, and power-of-two geometry (so block
/// and set arithmetic are shifts and masks).
bool plane_shareable(const CacheParams& p) {
  if (p.word_invalidate || p.associativity != 1) return false;
  if (p.nprocs < 1 || p.nprocs > 64) return false;
  if (!is_pow2(p.block_size) || p.block_size < 4) return false;
  if (p.cache_bytes < p.block_size || p.cache_bytes % p.block_size != 0)
    return false;
  if (!is_pow2(p.cache_bytes / p.block_size)) return false;
  return p.total_bytes > 0;
}

/// One stream replayed into any number of configuration planes at once
/// (replay_multi runs one per shard).  Feed it references in trace
/// order, then read the per-plane stats.
class MultiCacheSim {
 public:
  /// One plane per entry of `params`.  The params may differ in any
  /// field (the planes are fully independent simulations); a block-size
  /// sweep passes params identical up to block_size.
  MultiCacheSim(const std::vector<CacheParams>& params,
                const AddressMap* attribution);

  void on_batch(const MemRef* refs, size_t n);

  /// Process one reference through every plane and report each plane's
  /// outcome in `out` (planes() entries) WITHOUT counting it into
  /// stats()/datum_stats().  State advances, and conflict edges are
  /// recorded, exactly as for a counted reference.  A sharded
  /// replay_multi uses this for the pieces of region-spanning
  /// references, whose per-plane outcomes must be merged across shards
  /// before the reference is counted once.
  void access_reported(const MemRef& ref, AccessOutcome* out);

  size_t planes() const { return stats_.size(); }
  const MissStats& stats(size_t plane) const { return stats_[plane]; }
  /// Dense per-datum counters of one plane (AddressMap order plus the
  /// trailing "<other>" slot); empty unless attribution was supplied.
  const std::vector<MissStats>& datum_stats(size_t plane) const {
    return datum_stats_[plane];
  }

  /// Attach per-plane conflict collectors (planes() entries, nullptr to
  /// leave a plane uncollected): every false-sharing miss on a collected
  /// plane also records its word-granularity conflict edges.  Never
  /// changes outcomes or counters; no collectors (the default) leaves
  /// the replay paths untouched.
  void set_conflict_collectors(const std::vector<ConflictCollector*>& colls);

  /// Interface of the shared bitmask engine (implemented, and selected
  /// by machine width, below).
  struct SharedPlanes;

 private:
  std::unique_ptr<SharedPlanes> shared_;
  /// Planes the shared engine cannot express, as (plane index, sim).
  std::vector<std::pair<size_t, CoherentCache>> fallback_;
  const AddressMap* attribution_;
  std::vector<MissStats> stats_;                     // [plane]
  std::vector<std::vector<MissStats>> datum_stats_;  // [plane][slot]
};

}  // namespace

/// The shared-state engine.  One instance simulates every shareable
/// plane of a MultiCacheSim; see the header comment of sim/multi.h for
/// the representation argument.  Per-word state is shared by all planes
/// and written once per reference:
///
///   last_[q * W + w]   shared counter value of q's last access to w.
///                      max over a block's words == CoherentCache's
///                      per-(block, proc) snapshot; all-zero == cold.
///   vers_[w]           (counter << 7) | writer of the last write, the
///                      classifier's word version.
///
/// Two shared 16-word *granule* aggregates keep the per-miss scans from
/// growing with block size (the sweep's large-block planes would
/// otherwise pay a full-extent sweep per miss):
///
///   lastg_[q * G + g]  counter of q's last access anywhere in granule
///                      g — so a plane snapshot over an aligned span of
///                      granules is bw/16 loads instead of bw;
///   versgw_[g]         (counter << 7) | writer of the newest write
///                      anywhere in granule g;
///   versg2_[g]         max counter among the granule's writes whose
///                      writer differs from the current top writer.
///
/// The write aggregates make the remote-write test ("is any word of the
/// block written after the snapshot by another processor", the false-
/// sharing discriminator) O(granules) in the common cases, exactly:
///
///   * the newest write is the granule's latest event, so its word
///     state is never overwritten — top counter > snapshot with a
///     foreign top writer is a live remote witness (exact positive);
///   * versg2_ only ever over-approximates the surviving foreign word
///     states (a foreign write may itself be overwritten), so top and
///     second counter both <= snapshot proves no remote witness (exact
///     negative), subsuming MissClassifier's block_ver_ early-out;
///   * only the narrow remainder — own writes newest AND an older
///     foreign event past the snapshot — falls back to scanning the
///     granule's 16 word versions.
///
/// Per plane, residency collapses to the directory itself (plus the
/// victim table), so every coherence transition is O(1):
///
///   sharers_[off_[p] + b]  processor bitmask of plane-p block b
///   owner_[off_[p] + b]    processor holding it Modified, -1 if none
///   lines_[p]              [q * sets + set] -> cached block, -1 free
///
/// The per-plane results accumulate into dense event counters (one
/// MissKind-indexed row per plane) folded into the MissStats rows once
/// per batch; outcomes never materialize as AccessOutcome objects on
/// the aggregate path (MissStats does not consume source_proc, so the
/// engine does not compute it).
///
/// The concrete engine is templated on the sharer-bitmask word: a
/// machine of up to 16 processors packs its directory into u16 masks
/// (a quarter of the u64 footprint, keeping the per-ref residency
/// loads L1-resident); larger machines use u64.  The owning
/// MultiCacheSim sees only this interface.
struct MultiCacheSim::SharedPlanes {
  virtual ~SharedPlanes() = default;
  /// Process one batch and fold the tallies into the stats rows.
  virtual void run_batch(const MemRef* refs, size_t n,
                         const AddressMap* amap) = 0;
  /// Attach per-plane conflict collectors, indexed by the owning
  /// MultiCacheSim's plane order (nullptr entries skip a plane).
  virtual void set_collectors(
      const std::vector<ConflictCollector*>& colls) = 0;
};

namespace {

template <typename MaskT>
struct Engine final : MultiCacheSim::SharedPlanes {
  struct Geom {
    size_t off = 0;       // this plane's slice of sharers_/owner_
    int bshift = 0;       // log2(block_size)
    i64 bw = 0;           // words per block
    i64 sets = 0;
    i64 smask = 0;        // sets - 1
    i32* lines = nullptr; // [q * sets + set] -> cached block, -1 free
    ConflictCollector* coll = nullptr;  // set only while collecting
  };

  /// Per-plane event tallies for one batch: outcome kinds indexed by
  /// MissKind (kHit .. kFalseSharing), plus upgrade and invalidation
  /// counts.  Dense and branch-free to update; folded into the
  /// MissStats rows by flush_counts().
  struct PlaneCnt {
    u64 kind[5] = {0, 0, 0, 0, 0};
    u64 upgrades = 0;
    u64 invalidations = 0;
  };

  int P = 0;          // engine planes
  i64 W = 0;          // words per processor row, padded to the largest
                      // engine block so extent scans never run past the
                      // address space
  i64 G = 0;          // 16-word granules per row (W / 16)
  i64 nprocs = 0;
  i64 total_span = 0;
  u64 n_ = 0;         // shared access counter (first access observes 1)
  std::vector<Geom> geom_;
  std::vector<std::vector<i32>> lines_;
  std::vector<MaskT> sharers_;
  std::vector<std::int8_t> owner_;
  // Counters are stored 32-bit: a trace shorter than 2^32 references
  // (checked per reference) keeps every comparison exact while halving
  // the cache footprint of the per-processor rows.
  std::vector<u32> last_;
  std::vector<u64> vers_;
  std::vector<u32> lastg_;
  std::vector<u64> versgw_;
  std::vector<u32> versg2_;
  std::vector<PlaneCnt> cnt_;
  // Result rows inside the owning MultiCacheSim, in engine-plane order.
  std::vector<MissStats*> stats_row_;
  std::vector<MissStats*> datum_row_;  // nullptr without attribution
  // Owning MultiCacheSim's plane index per engine plane, so collectors
  // handed over in owner order land on the right Geom.
  std::vector<size_t> plane_index_;

  void set_collectors(const std::vector<ConflictCollector*>& colls) override {
    for (int p = 0; p < P; ++p) {
      const size_t gi = plane_index_[static_cast<size_t>(p)];
      geom_[static_cast<size_t>(p)].coll =
          gi < colls.size() ? colls[gi] : nullptr;
    }
  }

  /// Pre-reference state of the referenced words, shared by every
  /// plane's classification of the current reference (the referenced
  /// words do not depend on the block size).  l[k]: the accessing
  /// processor's last-access counter of word w0 + k — the smallest
  /// plane's snapshot; r[k]: the counter of the word's last write when
  /// that write is foreign, else 0 — so a part's true-sharing test is
  /// "max r over its words > snapshot", register arithmetic instead of
  /// a per-plane rescan.  Filled lazily on the first plane miss of the
  /// reference; all-planes-hit references never touch the word arrays.
  struct RefCtx {
    i64 w0 = 0;
    u32 l[4] = {0, 0, 0, 0};
    u64 r[4] = {0, 0, 0, 0};
  };
  RefCtx rc_;
  bool rc_ready_ = false;
  i64 cur_w0_ = 0, cur_w1_ = 0;

  void fill_refctx(int proc) {
    rc_ready_ = true;
    rc_.w0 = cur_w0_;
    const u32* lrow = last_.data() + static_cast<size_t>(proc) * W;
    const u64 me = static_cast<u64>(proc);
    const int nw = static_cast<int>(cur_w1_ - cur_w0_) + 1;
    for (int k = 0; k < nw; ++k) {
      rc_.l[k] = lrow[cur_w0_ + k];
      const u64 v = vers_[static_cast<size_t>(cur_w0_ + k)];
      rc_.r[k] = (v & kWMask) != me ? (v >> kWBits) : 0;
    }
  }

  void run_batch(const MemRef* refs, size_t n,
                 const AddressMap* amap) override {
    if (amap != nullptr)
      process_batch<true>(refs, n, amap);
    else
      process_batch<false>(refs, n, nullptr);
    flush_counts();
  }

  template <bool kAttr>
  void process_batch(const MemRef* refs, size_t n, const AddressMap* amap);
  MissKind miss_part(const Geom& g, int proc, MaskT bit, i64 block, i64 addr,
                     i64 size, bool is_write, int* inv_out);

  /// Fold the dense batch tallies into the MissStats rows and reset.
  void flush_counts() {
    for (int p = 0; p < P; ++p) {
      MissStats* s = stats_row_[p];
      PlaneCnt& c = cnt_[static_cast<size_t>(p)];
      s->refs += c.kind[0] + c.kind[1] + c.kind[2] + c.kind[3] + c.kind[4];
      s->hits += c.kind[0];
      s->cold += c.kind[1];
      s->replacement += c.kind[2];
      s->true_sharing += c.kind[3];
      s->false_sharing += c.kind[4];
      s->upgrades += c.upgrades;
      s->invalidations += c.invalidations;
      c = PlaneCnt{};
    }
  }
};

template <typename MaskT>
template <bool kAttr>
void Engine<MaskT>::process_batch(const MemRef* refs, size_t n,
                                  const AddressMap* amap) {
  const Geom* geom = geom_.data();
  MaskT* sharers = sharers_.data();
  PlaneCnt* cnt = cnt_.data();
  for (size_t i = 0; i < n; ++i) {
    const MemRef& r = refs[i];
    const i64 addr = r.addr;
    const i64 size = r.size;
    const int proc = r.proc;
    FSOPT_CHECK(addr >= 0 && size > 0 && addr + size <= total_span,
                "reference outside the simulated address space — "
                "total_bytes does not cover the workload");
    FSOPT_CHECK(proc >= 0 && proc < nprocs,
                "reference processor outside the simulated machine");
    const bool is_write = r.type == RefType::kWrite;
    const MaskT bit = static_cast<MaskT>(MaskT{1} << proc);
    const i64 end = addr + size - 1;
    const i64 w0 = addr >> 2;
    const i64 w1 = end >> 2;
    ++n_;
    FSOPT_CHECK(n_ <= 0xffffffffULL, "trace too long for 32-bit counters");
    FSOPT_CHECK(w1 - w0 < 4, "reference spans too many words");
    cur_w0_ = w0;
    cur_w1_ = w1;
    rc_ready_ = false;
    size_t slot = 0;
    if constexpr (kAttr) {
      int d = amap->index_of(addr);
      slot = d >= 0 ? static_cast<size_t>(d) : amap->ranges().size();
    }
    // The shared rows for this reference's words are touched by every
    // plane that misses and by the end-of-reference stores below; start
    // their (L2-latency) fetches before the per-plane work.
    __builtin_prefetch(&last_[static_cast<size_t>(proc) * W +
                              static_cast<size_t>(w0)], 1);
    __builtin_prefetch(&vers_[static_cast<size_t>(w0)], 1);
    __builtin_prefetch(&lastg_[static_cast<size_t>(proc) * G +
                               static_cast<size_t>(w0 >> 4)], 1);

    if (!is_write) {
      // Read: resident (sharer bit set) is a hit with no state change;
      // anything else — including a block-spanning reference — goes
      // through the per-part slow path.
      for (int p = 0; p < P; ++p) {
        const Geom& g = geom[p];
        const i64 b0 = addr >> g.bshift;
        const i64 b1 = end >> g.bshift;
        if (b0 == b1) [[likely]] {
          if ((sharers[g.off + static_cast<size_t>(b0)] & bit) != 0) {
            ++cnt[p].kind[0];
            if constexpr (kAttr) {
              MissStats& dm = datum_row_[p][slot];
              ++dm.refs;
              ++dm.hits;
            }
          } else {
            int inv = 0;
            MissKind k = miss_part(g, proc, bit, b0, addr, size, false, &inv);
            ++cnt[p].kind[static_cast<size_t>(k)];
            if constexpr (kAttr) datum_row_[p][slot].add({k, false, -1, 0});
          }
        } else {
          FSOPT_CHECK(b1 - b0 < 4, "reference spans too many blocks");
          int sev = 0;
          MissKind kind = MissKind::kHit;
          for (i64 b = b0; b <= b1; ++b) {
            const i64 lo = std::max(addr, b << g.bshift);
            const i64 hi = std::min(addr + size, (b + 1) << g.bshift);
            MissKind k = MissKind::kHit;
            if ((sharers[g.off + static_cast<size_t>(b)] & bit) == 0) {
              int inv = 0;
              k = miss_part(g, proc, bit, b, lo, hi - lo, false, &inv);
            }
            const int s2 = split_kind_severity(k);
            if (s2 > sev) {
              sev = s2;
              kind = k;
            }
          }
          ++cnt[p].kind[static_cast<size_t>(kind)];
          if constexpr (kAttr) datum_row_[p][slot].add({kind, false, -1, 0});
        }
      }
    } else {
      // Write: a resident block needs no classification — it is a
      // silent hit when this processor owns it Modified and an upgrade
      // otherwise, and because Modified implies sole sharership the
      // same three stores and popcount cover both (the popcount is 0
      // for the silent hit).  Branch-free on the resident path.
      std::int8_t* owner = owner_.data();
      for (int p = 0; p < P; ++p) {
        const Geom& g = geom[p];
        const i64 b0 = addr >> g.bshift;
        const i64 b1 = end >> g.bshift;
        if (b0 == b1) [[likely]] {
          const size_t bi = g.off + static_cast<size_t>(b0);
          const MaskT sh = sharers[bi];
          if ((sh & bit) != 0) {
            const u64 up = owner[bi] != proc ? 1 : 0;
            const u64 inv = static_cast<u64>(
                std::popcount(static_cast<MaskT>(sh & ~bit)));
            sharers[bi] = bit;
            owner[bi] = static_cast<std::int8_t>(proc);
            ++cnt[p].kind[0];
            cnt[p].upgrades += up;
            cnt[p].invalidations += inv;
            if constexpr (kAttr)
              datum_row_[p][slot].add(
                  {MissKind::kHit, up != 0, -1, static_cast<int>(inv)});
          } else {
            int inv = 0;
            MissKind k = miss_part(g, proc, bit, b0, addr, size, true, &inv);
            ++cnt[p].kind[static_cast<size_t>(k)];
            cnt[p].invalidations += static_cast<u64>(inv);
            if constexpr (kAttr) datum_row_[p][slot].add({k, false, -1, inv});
          }
        } else {
          // Parts in block order, state updated between parts, exactly
          // as CoherentCache::access; kinds merge by severity, the
          // upgrade flags OR, the invalidation counts sum.
          FSOPT_CHECK(b1 - b0 < 4, "reference spans too many blocks");
          int sev = 0;
          MissKind kind = MissKind::kHit;
          u64 upg = 0;
          u64 invt = 0;
          for (i64 b = b0; b <= b1; ++b) {
            const i64 lo = std::max(addr, b << g.bshift);
            const i64 hi = std::min(addr + size, (b + 1) << g.bshift);
            const size_t bi = g.off + static_cast<size_t>(b);
            const MaskT sh = sharers[bi];
            MissKind k = MissKind::kHit;
            if ((sh & bit) != 0) {
              upg |= owner[bi] != proc ? 1 : 0;
              invt += static_cast<u64>(
                  std::popcount(static_cast<MaskT>(sh & ~bit)));
              sharers[bi] = bit;
              owner[bi] = static_cast<std::int8_t>(proc);
            } else {
              int inv = 0;
              k = miss_part(g, proc, bit, b, lo, hi - lo, true, &inv);
              invt += static_cast<u64>(inv);
            }
            const int s2 = split_kind_severity(k);
            if (s2 > sev) {
              sev = s2;
              kind = k;
            }
          }
          ++cnt[p].kind[static_cast<size_t>(kind)];
          cnt[p].upgrades += upg;
          cnt[p].invalidations += invt;
          if constexpr (kAttr)
            datum_row_[p][slot].add(
                {kind, upg != 0, -1, static_cast<int>(invt)});
        }
      }
    }
    // Shared updates are deferred until every plane has observed the
    // pre-reference state (the per-plane outcomes must not see this
    // reference's own stores).  The granule aggregates are maxes of
    // monotonically increasing counters, so a plain store maintains
    // them.
    u32* lrow = last_.data() + static_cast<size_t>(proc) * W;
    u32* lgrow = lastg_.data() + static_cast<size_t>(proc) * G;
    const u32 n32 = static_cast<u32>(n_);
    for (i64 w = w0; w <= w1; ++w) lrow[w] = n32;
    lgrow[w0 >> 4] = n32;
    lgrow[w1 >> 4] = n32;
    if (is_write) {
      const u64 v = (n_ << kWBits) | static_cast<u64>(proc);
      for (i64 w = w0; w <= w1; ++w) vers_[static_cast<size_t>(w)] = v;
      // This write becomes the granule's top event (the counter is
      // monotone); the displaced top feeds the second-writer max when
      // its writer differs from ours.
      const i64 g0 = w0 >> 4;
      const i64 g1 = w1 >> 4;
      for (i64 g = g0;; g = g1) {
        const u64 old = versgw_[static_cast<size_t>(g)];
        if ((old & kWMask) != static_cast<u64>(proc))
          versg2_[static_cast<size_t>(g)] = static_cast<u32>(old >> kWBits);
        versgw_[static_cast<size_t>(g)] = v;
        if (g == g1) break;
      }
    }
  }
}

template <typename MaskT>
MissKind Engine<MaskT>::miss_part(const Geom& g, int proc, MaskT bit,
                                  i64 block, i64 addr, i64 size, bool is_write,
                                  int* inv_out) {
  // Classify from the shared word state.  The per-(block, proc)
  // snapshot is the max of the processor's last-access counters over the
  // block's extent (zero: never touched — cold), read from the granule
  // aggregate when the block spans whole granules.
  const i64 wb0 = block << (g.bshift - 2);  // block extent [wb0, wb0+bw)
  if (!rc_ready_) fill_refctx(proc);
  u64 s = 0;
  if (g.bw >= 16) {
    const u32* lg = lastg_.data() + static_cast<size_t>(proc) * G +
                    static_cast<size_t>(wb0 >> 4);
    for (i64 i = 0; i < (g.bw >> 4); ++i) s = std::max<u64>(s, lg[i]);
  } else if (g.bw == 1) {
    s = rc_.l[wb0 - rc_.w0];  // single-word block: a referenced word
  } else {
    const u32* lrow = last_.data() + static_cast<size_t>(proc) * W +
                      static_cast<size_t>(wb0);
    for (i64 w = 0; w < g.bw; ++w) s = std::max<u64>(s, lrow[w]);
  }
  MissKind kind;
  if (s == 0) {
    kind = MissKind::kCold;
  } else if ([&] {
               // True sharing first, from the cached referenced-word
               // state: the part's words are rc_.w0-relative indices
               // [addr >> 2, (addr + size - 1) >> 2].
               u64 rrem = 0;
               for (i64 k = (addr >> 2) - rc_.w0;
                    k <= ((addr + size - 1) >> 2) - rc_.w0; ++k)
                 rrem = std::max(rrem, rc_.r[k]);
               return rrem > s;
             }()) {
    // A referenced word remotely written after the snapshot settles
    // true sharing without any block scan (word-union semantics).
    kind = MissKind::kTrueSharing;
  } else {
    const u64 newer = (s + 1) << kWBits;
    const u64 me = static_cast<u64>(proc);
    const u64* ws = vers_.data() + static_cast<size_t>(wb0);
    // No referenced word is a witness; false sharing vs replacement
    // hinges on the rest of the block, tested from the granule write
    // aggregates.
    bool any_remote = false;
    if (g.bw >= 16) {
      // Branchless accumulation over the extent's granules: a foreign
      // top event newer than the snapshot is a live remote witness
      // (exact positive); an own top with a filtered-through older
      // foreign event (rare) marks its granule for word resolution.
      const u64* vw = versgw_.data() + static_cast<size_t>(wb0 >> 4);
      const u32* v2 = versg2_.data() + static_cast<size_t>(wb0 >> 4);
      u64 witness = 0, resolve = 0;
      for (i64 i = 0; i < (g.bw >> 4); ++i) {
        const u64 top = vw[i];
        const u64 newer_top = (top >> kWBits) > s;
        const u64 foreign = (top & kWMask) != me;
        witness |= newer_top & foreign;
        resolve |= (newer_top & ~foreign & (v2[i] > s ? 1u : 0u)) << i;
      }
      any_remote = witness != 0;
      while (!any_remote && resolve != 0) {
        // Own writes are newest but an older foreign event passed the
        // filter; it may have been overwritten, so resolve from the
        // granule's 16 live word states.
        const int i = std::countr_zero(resolve);
        resolve &= resolve - 1;
        const u64* gw = ws + (static_cast<i64>(i) << 4);
        u64 acc = 0;
        for (int w = 0; w < 16; ++w)
          acc |= static_cast<u64>(gw[w] >= newer && (gw[w] & kWMask) != me);
        any_remote = acc != 0;
      }
    } else {
      // The covering granule's aggregate is a sound negative filter for
      // the sub-granule block; a positive resolves from the block's
      // (one or two) word versions.
      const u64 top = versgw_[static_cast<size_t>(wb0 >> 4)];
      if ((top >> kWBits) > s &&
          ((top & kWMask) != me ||
           versg2_[static_cast<size_t>(wb0 >> 4)] > s)) {
        for (i64 w = 0; w < g.bw && !any_remote; ++w) {
          u64 v = ws[w];
          any_remote = v >= newer && (v & kWMask) != me;
        }
      }
    }
    kind = any_remote ? MissKind::kFalseSharing : MissKind::kReplacement;
    if (kind == MissKind::kFalseSharing && g.coll != nullptr) {
      // The granule aggregates may have settled any_remote without ever
      // scanning the word array, so the collector enumerates the foreign-
      // newer witnesses itself from the live word versions.  Runs only on
      // false-sharing misses of a collected plane.  The victim is the
      // part's first word, as in CoherentCache: for a block-spanning
      // reference that word lies in this block, not the previous one.
      for (i64 w = 0; w < g.bw; ++w) {
        const i64 aw = wb0 + w;
        if (aw >= cur_w0_ && aw <= cur_w1_) continue;
        const u64 v = ws[w];
        if (v >= newer && (v & kWMask) != me)
          g.coll->record(aw * 4, static_cast<int>(v & kWMask), addr & ~i64{3},
                         proc);
      }
    }
  }

  // Evict the direct-mapped way of this set.  line == block happens when
  // our copy was invalidated (the line table keeps the block number);
  // its sharer bit is already clear, so the refill below is all that is
  // needed.
  i32& line =
      g.lines[static_cast<size_t>(proc) * g.sets + (block & g.smask)];
  if (line >= 0 && line != block) {
    MaskT& old_sharers = sharers_[g.off + static_cast<size_t>(line)];
    std::int8_t& old_owner = owner_[g.off + static_cast<size_t>(line)];
    old_sharers = static_cast<MaskT>(old_sharers & ~bit);
    if (old_owner == proc) old_owner = -1;
  }
  line = static_cast<i32>(block);

  MaskT& sharers = sharers_[g.off + static_cast<size_t>(block)];
  std::int8_t& owner = owner_[g.off + static_cast<size_t>(block)];
  if (is_write) {
    *inv_out = std::popcount(static_cast<MaskT>(sharers & ~bit));
    sharers = bit;
    owner = static_cast<std::int8_t>(proc);
  } else {
    // Downgrade a remote Modified copy to Shared.
    *inv_out = 0;
    if (owner >= 0 && owner != proc) owner = -1;
    sharers = static_cast<MaskT>(sharers | bit);
  }
  return kind;
}

/// Build and populate an Engine for the given plane subset.
template <typename MaskT>
std::unique_ptr<MultiCacheSim::SharedPlanes> build_engine(
    const std::vector<CacheParams>& params, const std::vector<size_t>& planes,
    const CacheParams& first, std::vector<MissStats>& stats,
    std::vector<std::vector<MissStats>>& datum_stats, bool attributed) {
  auto eng = std::make_unique<Engine<MaskT>>();
  Engine<MaskT>& e = *eng;
  e.P = static_cast<int>(planes.size());
  e.total_span = first.total_bytes;
  e.nprocs = first.nprocs;
  // Pad each word row to the largest engine block (and a whole number
  // of granules) so the last block's extent scans stay in bounds when
  // total_bytes is not a block multiple; padded words keep counter 0,
  // which no comparison ever reads as newer.
  i64 max_bw = 4;  // at least one granule
  for (size_t i : planes)
    max_bw = std::max(max_bw, params[i].block_size / 4);
  const i64 words = (first.total_bytes + 3) / 4;
  e.W = (words + max_bw - 1) / max_bw * max_bw;
  e.G = e.W / 16 + ((e.W % 16) != 0 ? 1 : 0);
  e.last_.assign(static_cast<size_t>(e.nprocs) * e.W, 0);
  e.vers_.assign(static_cast<size_t>(e.W), 0);
  e.lastg_.assign(static_cast<size_t>(e.nprocs) * e.G, 0);
  e.versgw_.assign(static_cast<size_t>(e.G), 0);
  e.versg2_.assign(static_cast<size_t>(e.G), 0);
  e.cnt_.assign(planes.size(), typename Engine<MaskT>::PlaneCnt{});
  e.geom_.resize(planes.size());
  e.lines_.resize(planes.size());
  e.stats_row_.resize(planes.size());
  e.datum_row_.resize(planes.size());
  size_t blocks_total = 0;
  for (size_t p = 0; p < planes.size(); ++p) {
    const CacheParams& c = params[planes[p]];
    typename Engine<MaskT>::Geom& g = e.geom_[p];
    g.off = blocks_total;
    g.bshift = std::countr_zero(static_cast<u64>(c.block_size));
    g.bw = c.block_size / 4;
    g.sets = c.cache_bytes / c.block_size;
    g.smask = g.sets - 1;
    blocks_total +=
        static_cast<size_t>((c.total_bytes + c.block_size - 1) / c.block_size);
    e.lines_[p].assign(static_cast<size_t>(c.nprocs) * g.sets, -1);
    g.lines = e.lines_[p].data();
    e.stats_row_[p] = &stats[planes[p]];
    e.datum_row_[p] = attributed ? datum_stats[planes[p]].data() : nullptr;
  }
  e.plane_index_ = planes;
  e.sharers_.assign(blocks_total, 0);
  e.owner_.assign(blocks_total, -1);
  return eng;
}

}  // namespace

MultiCacheSim::MultiCacheSim(const std::vector<CacheParams>& params,
                             const AddressMap* attribution)
    : attribution_(attribution) {
  FSOPT_CHECK(!params.empty(), "multi-replay needs at least one plane");
  stats_.assign(params.size(), MissStats{});
  datum_stats_.resize(params.size());
  if (attribution_ != nullptr)
    for (auto& d : datum_stats_)
      d.assign(attribution_->ranges().size() + 1, MissStats{});

  // Planes join the shared engine when it can express them and they
  // agree on the shared dimensions (address space, machine size);
  // everything else gets a private CoherentCache.
  std::vector<size_t> engine;
  const CacheParams* first = nullptr;
  for (size_t i = 0; i < params.size(); ++i) {
    const CacheParams& p = params[i];
    if (plane_shareable(p) &&
        (first == nullptr || (p.total_bytes == first->total_bytes &&
                              p.nprocs == first->nprocs))) {
      if (first == nullptr) first = &params[i];
      engine.push_back(i);
    } else {
      fallback_.emplace_back(i, CoherentCache(p));
    }
  }
  if (engine.empty()) return;

  shared_ = first->nprocs <= 16
                ? build_engine<std::uint16_t>(params, engine, *first, stats_,
                                    datum_stats_, attribution_ != nullptr)
                : build_engine<u64>(params, engine, *first, stats_,
                                    datum_stats_, attribution_ != nullptr);
}

void MultiCacheSim::on_batch(const MemRef* refs, size_t n) {
  if (shared_ != nullptr) shared_->run_batch(refs, n, attribution_);
  for (auto& [idx, cache] : fallback_) {
    for (size_t i = 0; i < n; ++i) {
      const MemRef& r = refs[i];
      AccessOutcome o =
          cache.access(r.proc, r.addr, r.size, r.type == RefType::kWrite);
      stats_[idx].add(o);
      if (attribution_ != nullptr) {
        int d = attribution_->index_of(r.addr);
        size_t slot = d >= 0 ? static_cast<size_t>(d)
                             : attribution_->ranges().size();
        datum_stats_[idx][slot].add(o);
      }
    }
  }
}

void MultiCacheSim::access_reported(const MemRef& ref, AccessOutcome* out) {
  // Engine planes: run the reference through the shared engine
  // unattributed — exactly the per-batch code, so it leaves the same
  // directory/word state behind as a counted reference — then read each
  // plane's outcome back off its stats delta (one reference moves
  // exactly one kind bucket plus the additive upgrade/invalidation
  // counts) and undo the tally.  This path only serves the rare
  // region-spanning pieces of a sharded replay_multi, so the snapshot
  // copy is not a hot-loop cost.
  if (shared_ != nullptr) {
    const std::vector<MissStats> before = stats_;
    shared_->run_batch(&ref, 1, nullptr);
    for (size_t i = 0; i < stats_.size(); ++i) {
      const MissStats& a = before[i];
      MissStats& b = stats_[i];
      if (b.refs == a.refs) continue;  // fallback plane, handled below
      AccessOutcome o;
      if (b.hits > a.hits) o.kind = MissKind::kHit;
      else if (b.cold > a.cold) o.kind = MissKind::kCold;
      else if (b.replacement > a.replacement) o.kind = MissKind::kReplacement;
      else if (b.true_sharing > a.true_sharing) o.kind = MissKind::kTrueSharing;
      else o.kind = MissKind::kFalseSharing;
      o.upgrade = b.upgrades != a.upgrades;
      o.invalidated = static_cast<int>(b.invalidations - a.invalidations);
      out[i] = o;
      b = a;
    }
  }
  for (auto& [idx, cache] : fallback_)
    out[idx] = cache.access(ref.proc, ref.addr, ref.size,
                            ref.type == RefType::kWrite);
}

void MultiCacheSim::set_conflict_collectors(
    const std::vector<ConflictCollector*>& colls) {
  FSOPT_CHECK(colls.size() == stats_.size(),
              "one collector slot per plane (nullptr to skip a plane)");
  if (shared_ != nullptr) shared_->set_collectors(colls);
  for (auto& [idx, cache] : fallback_)
    cache.set_conflict_collector(colls[idx]);
}

MultiShardPlan multi_shard_plan(const std::vector<CacheParams>& params,
                                int requested) {
  MultiShardPlan plan;
  FSOPT_CHECK(!params.empty(), "multi-replay needs at least one plane");
  for (const CacheParams& p : params)
    plan.region_bytes = std::max(plan.region_bytes, p.block_size);
  // Shards route by shift and mask (ShardFilter), so the region and K
  // are powers of two; any other geometry replays unsharded.
  if (!is_pow2(plan.region_bytes)) return plan;
  // Exactness needs (a) every block to divide the region, so no plane's
  // block straddles two shards, and (b) K to divide every plane's
  // region count per cache, cache_bytes / region / assoc, so no plane's
  // LRU set receives blocks from two shards (set index = block mod a
  // power-of-two set count, and regions nest blocks).
  i64 bound = std::numeric_limits<i64>::max();
  for (const CacheParams& p : params) {
    const i64 assoc = std::max<i64>(p.associativity, 1);
    // Not composable (shards stays 1) unless the region nests this
    // plane's blocks AND its per-cache region count is whole, so the
    // set-purity divisibility below is exact arithmetic.
    if (p.block_size < 4 || plan.region_bytes % p.block_size != 0 ||
        (p.cache_bytes / assoc) % plan.region_bytes != 0)
      return plan;
    bound = std::min(bound, p.cache_bytes / plan.region_bytes / assoc);
  }
  if (bound < 1) return plan;
  i64 k = std::min<i64>(requested < 1 ? 1 : requested, bound);
  const auto divides_all = [&](i64 cand) {
    for (const CacheParams& p : params) {
      const i64 assoc = std::max<i64>(p.associativity, 1);
      if ((p.cache_bytes / plan.region_bytes / assoc) % cand != 0)
        return false;
    }
    return true;
  };
  while (k > 1 && !(is_pow2(k) && divides_all(k))) --k;
  plan.shards = static_cast<int>(k);
  return plan;
}

namespace {

/// A replay never splits a trace further than this: each shard decodes
/// the whole trace, and the K decodes should run side by side.
constexpr int kAutoShardMax = 8;

/// The most region pieces one reference can split into: a reference
/// spans at most 8 bytes, and regions are at least 4 bytes wide.
constexpr size_t kMaxPieces = 4;

/// The pieces of region-spanning references one shard simulated.
struct ShardSplits {
  struct Piece {
    u64 ordinal = 0;  // index among the trace's region-spanning refs
    i64 origin = 0;   // the spanning reference's address (attribution)
    u8 part = 0;      // the piece's index in address order
  };
  std::vector<Piece> pieces;            // in ordinal order
  std::vector<AccessOutcome> outcomes;  // [piece * planes + plane]
  u64 spanning = 0;  // region-spanning refs seen (every shard sees all)
};

/// Shard `k` of `shards`: takes the whole decoded stream and feeds its
/// MultiCacheSim the references whose region r has r % shards == k, in
/// trace order.  Every shard sees every region-spanning reference, so
/// all shards number them alike; each runs only its own pieces through
/// access_reported, at that point of its stream, and logs their
/// per-plane outcomes for the combine step.  One shard keeps every
/// reference whole, whatever the region.
class ShardFilter final : public TraceSink {
 public:
  /// `shards` is a power of two, and so is `region_bytes` when shards > 1
  /// (multi_shard_plan).
  ShardFilter(MultiCacheSim& sim, i64 region_bytes, size_t shards, size_t k,
              ShardSplits& splits)
      : sim_(sim),
        splits_(splits),
        shift_(pow2_shift(region_bytes)),
        shards_(shards),
        k_(k) {}

  void on_batch(const MemRef* refs, size_t n) override {
    if (shards_ == 1) {
      sim_.on_batch(refs, n);
      return;
    }
    if (buf_.size() < n) buf_.resize(n);
    MemRef* buf = buf_.data();
    size_t m = 0;
    for (size_t i = 0; i < n; ++i) {
      const MemRef& r = refs[i];
      const u64 addr = static_cast<u64>(r.addr);
      const u64 first = region_of(addr);
      const u64 last = region_of(addr + r.size - 1);
      if (first != last) [[unlikely]] {
        flush(m);
        m = 0;
        split(r, first, last);
        continue;
      }
      // Branch-free compaction: always copy, advance only when kept.
      buf[m] = r;
      m += mine(first) ? 1 : 0;
    }
    flush(m);
  }

 private:
  u64 region_of(u64 addr) const { return addr >> shift_; }
  bool mine(u64 region) const { return (region & (shards_ - 1)) == k_; }

  void flush(size_t m) {
    if (m != 0) sim_.on_batch(buf_.data(), m);
  }

  void split(const MemRef& r, u64 first, u64 last) {
    const u64 ordinal = splits_.spanning++;
    const u64 lo_addr = static_cast<u64>(r.addr);
    const u64 hi_addr = lo_addr + r.size;
    const size_t planes = sim_.planes();
    u8 part = 0;
    for (u64 g = first; g <= last; ++g, ++part) {
      if (!mine(g)) continue;
      const u64 lo = std::max(lo_addr, g << shift_);
      const u64 hi = std::min(hi_addr, (g + 1) << shift_);
      splits_.pieces.push_back({ordinal, r.addr, part});
      std::vector<AccessOutcome>& out = splits_.outcomes;
      out.resize(out.size() + planes);
      sim_.access_reported(MemRef{static_cast<i64>(lo),
                                  static_cast<u8>(hi - lo), r.proc, r.type},
                           out.data() + out.size() - planes);
    }
  }

  MultiCacheSim& sim_;
  ShardSplits& splits_;
  const int shift_;  // log2 of the region size
  const u64 shards_;
  const u64 k_;
  std::vector<MemRef> buf_;
};

}  // namespace

MultiReplayResult replay_multi(const EncodedTrace& trace,
                               const std::vector<CacheParams>& params,
                               const AddressMap* attribution, int threads,
                               std::vector<ConflictGraph>* conflicts) {
  const size_t nplanes = params.size();
  FSOPT_CHECK(nplanes > 0, "multi-replay needs at least one plane");
  if (threads <= 0) threads = experiment_threads();
  const MultiShardPlan plan =
      multi_shard_plan(params, std::min(kAutoShardMax, threads));

  // Per-shard job: one MultiCacheSim over ALL planes, fed by a filter
  // over the shard's own decode of the trace.  Normal references count
  // directly (their block, set, and word state is wholly shard-owned);
  // split pieces only record per-plane outcomes for reassembly.  Each
  // plane of each shard has its own collector: every block lies in one
  // shard's regions, so every conflict edge is recorded by that shard.
  struct Job {
    std::vector<MissStats> stats;               // [plane]
    std::vector<std::vector<MissStats>> datum;  // [plane][slot]
    std::vector<ConflictGraph> graphs;          // [plane], when collecting
    ShardSplits splits;
  };
  const size_t K = static_cast<size_t>(plan.shards);
  std::vector<Job> jobs(K);
  parallel_for_each(threads, K, [&](size_t k) {
    obs::Span span("replay", "multi_shard");
    Job& job = jobs[k];
    MultiCacheSim sim(params, attribution);
    std::vector<ConflictCollector> colls(conflicts != nullptr ? nplanes : 0);
    if (conflicts != nullptr) {
      std::vector<ConflictCollector*> ptrs;
      for (ConflictCollector& coll : colls) ptrs.push_back(&coll);
      sim.set_conflict_collectors(ptrs);
    }
    ShardFilter filter(sim, plan.region_bytes, K, k, job.splits);
    trace.replay(filter);
    job.stats.resize(nplanes);
    job.datum.resize(nplanes);
    for (size_t p = 0; p < nplanes; ++p) {
      job.stats[p] = sim.stats(p);
      if (attribution != nullptr) job.datum[p] = sim.datum_stats(p);
    }
    for (size_t p = 0; p < colls.size(); ++p)
      job.graphs.push_back(colls[p].graph(params[p].block_size));
    if (span.active()) {
      // Simulated: the counted references plus the uncounted pieces.
      // Scanned: every shard decodes the whole trace.
      const double refs = static_cast<double>(job.stats[0].refs +
                                              job.splits.pieces.size());
      span.arg("shard", static_cast<double>(k));
      span.arg("planes", static_cast<double>(nplanes));
      span.arg("refs", refs);
      span.arg("scanned", static_cast<double>(trace.size()));
      const double sec = span.elapsed_seconds();
      if (sec > 0.0) span.arg("refs_per_sec", refs / sec);
    }
  });
  if (obs::metrics_enabled()) {
    static obs::Counter& plane_refs =
        obs::metric_counter("sim.replay.plane_refs");
    plane_refs.inc(trace.size() * nplanes);
  }

  // Combine: the per-plane counters are additive across shards, and
  // split pieces reassemble per plane with the same severity/OR/sum
  // merge the unsharded simulator applies inline, counted once against
  // the origin reference's datum.
  MultiReplayResult out;
  out.stats.assign(nplanes, MissStats{});
  out.by_datum.resize(nplanes);
  const size_t slots =
      attribution != nullptr ? attribution->ranges().size() + 1 : 0;
  std::vector<std::vector<MissStats>> dense(
      nplanes, std::vector<MissStats>(slots));
  for (const Job& job : jobs) {
    FSOPT_CHECK(job.splits.spanning == jobs[0].splits.spanning,
                "shards disagree on the region-spanning references");
    for (size_t p = 0; p < nplanes; ++p) {
      out.stats[p].merge(job.stats[p]);
      for (size_t s = 0; s < slots; ++s) dense[p][s].merge(job.datum[p][s]);
    }
  }
  // Each shard logs its pieces in ordinal order, so one cursor per shard
  // gathers every spanning reference's pieces: parts[plane][part].
  std::vector<size_t> cursor(K, 0);
  std::vector<AccessOutcome> parts(nplanes * kMaxPieces);
  for (u64 ordinal = 0; ordinal < jobs[0].splits.spanning; ++ordinal) {
    size_t count = 0;
    i64 origin = 0;
    for (size_t k = 0; k < K; ++k) {
      const ShardSplits& sp = jobs[k].splits;
      for (size_t& i = cursor[k];
           i < sp.pieces.size() && sp.pieces[i].ordinal == ordinal; ++i) {
        const ShardSplits::Piece& pc = sp.pieces[i];
        FSOPT_CHECK(pc.part < kMaxPieces,
                    "split reference with too many pieces");
        for (size_t p = 0; p < nplanes; ++p)
          parts[p * kMaxPieces + pc.part] = sp.outcomes[i * nplanes + p];
        origin = pc.origin;
        ++count;
      }
    }
    int slot = -1;
    if (attribution != nullptr) {
      const int d = attribution->index_of(origin);
      slot = d >= 0 ? d : static_cast<int>(slots) - 1;
    }
    for (size_t p = 0; p < nplanes; ++p) {
      const AccessOutcome o =
          combine_split_outcomes(parts.data() + p * kMaxPieces, count);
      out.stats[p].add(o);
      if (slot >= 0) dense[p][static_cast<size_t>(slot)].add(o);
    }
  }
  if (attribution != nullptr)
    for (size_t p = 0; p < nplanes; ++p)
      out.by_datum[p] = materialize_by_datum(*attribution, dense[p]);
  // A plane's shard graphs cover disjoint lines (each line is a block
  // of one shard's regions), so concatenating their per-line lists in
  // line order is the graph one collector over the whole trace builds.
  if (conflicts != nullptr) {
    conflicts->assign(nplanes, ConflictGraph{});
    for (size_t p = 0; p < nplanes; ++p) {
      ConflictGraph& g = (*conflicts)[p];
      g.block_size = params[p].block_size;
      for (Job& job : jobs)
        for (LineConflicts& lc : job.graphs[p].lines)
          g.lines.push_back(std::move(lc));
      std::sort(g.lines.begin(), g.lines.end(),
                [](const LineConflicts& a, const LineConflicts& b) {
                  return a.line < b.line;
                });
      for (size_t i = 1; i < g.lines.size(); ++i)
        FSOPT_CHECK(g.lines[i - 1].line < g.lines[i].line,
                    "two shards recorded conflicts on one line");
    }
  }
  // One span per plane carrying its block size and miss mix, so a
  // sweep's per-configuration behaviour reads straight off the trace
  // even though the planes were simulated in one walk per shard.
  for (size_t p = 0; p < nplanes; ++p) {
    obs::Span plane("replay", "plane");
    if (!plane.active()) break;
    plane.arg("block", static_cast<double>(params[p].block_size));
    plane.arg("refs", static_cast<double>(out.stats[p].refs));
    plane.arg("cold", static_cast<double>(out.stats[p].cold));
    plane.arg("replacement", static_cast<double>(out.stats[p].replacement));
    plane.arg("true_sharing", static_cast<double>(out.stats[p].true_sharing));
    plane.arg("false_sharing",
              static_cast<double>(out.stats[p].false_sharing));
  }
  return out;
}

}  // namespace fsopt
