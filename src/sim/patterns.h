// Access-pattern taxonomy: per-datum, per-processor online summarizers.
//
// The miss classes (sim/classify.h) say *that* a datum misses; this
// module says *why*, in the vocabulary of the cacheSight-style taxonomy
// the ROADMAP names: per-processor stride histograms, a reuse-distance
// sketch, and the writer-handoff chain are summarized online during
// replay and distilled into one label per datum —
//
//   strided            one stride dominates the per-processor address
//                      deltas (streaming/array walks);
//   ping-pong          ownership bounces between two (or a few) writers
//                      in short runs — the classic false-sharing shape;
//   migratory          ownership moves between writers in long runs
//                      (each processor works a while, then hands off);
//   producer-consumer  one writer, several readers, sharing misses on
//                      the read side;
//   read-shared        many readers, no writers: misses are cold only;
//   thrashing(capacity) replacement-dominated and the touched footprint
//                      exceeds the per-processor cache;
//   conflict           replacement-dominated but the footprint fits —
//                      set-associativity conflict, not capacity;
//   none               nothing diagnostic (or too few references).
//
// The summarizer is a plain TraceSink over the reference stream: it never
// sees a simulator, so no replay engine carries a hook for it.  The miss
// classes it weighs come from the per-datum attribution of a replay of
// the same stream through the same AddressMap (TraceStudyResult::
// by_datum), handed to patterns() at the end.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "sim/cache.h"
#include "trace/trace.h"

namespace fsopt {

enum class AccessPattern : u8 {
  kNone,
  kStrided,
  kPingPong,
  kMigratory,
  kProducerConsumer,
  kReadShared,
  kThrashingCapacity,
  kConflict,
};

/// Taxonomy spelling ("strided", "ping-pong", ... "thrashing(capacity)").
const char* pattern_name(AccessPattern p);

/// Reuse-distance sketch resolution: log2 buckets of the gap (in
/// references to the whole trace) between consecutive touches of one
/// datum.  Bucket i counts gaps in (2^(i-1), 2^i]; bucket 0 counts
/// back-to-back touches.
inline constexpr size_t kReuseBuckets = 40;

/// One datum's summarized behavior plus the label distilled from it.
struct DatumPattern {
  std::string name;
  AccessPattern label = AccessPattern::kNone;

  // Evidence the label was derived from (serialized into the diagnosis
  // report so a reader can check the classifier's work).
  u64 reads = 0;
  u64 writes = 0;
  int readers = 0;              // distinct referencing processors
  int writers = 0;              // distinct writing processors
  i64 dominant_stride = 0;      // most common nonzero per-proc delta
  double stride_share = 0.0;    // its share of all nonzero deltas
  u64 handoffs = 0;             // writer-to-different-writer transitions
  double mean_run = 0.0;        // mean consecutive writes per owner
  double pingpong_share = 0.0;  // handoffs within the dominant writer pair
  i64 footprint = 0;            // touched span in bytes
  std::vector<u64> reuse;       // log2 reuse-gap sketch (kReuseBuckets)
  MissStats stats;              // the replay's outcomes for this datum

  u64 sharing_misses() const {
    return stats.true_sharing + stats.false_sharing;
  }
};

/// Classification knobs.  Defaults are deliberately coarse — the point
/// of the taxonomy is a stable headline per datum, not a precise
/// percentage — and every threshold is exercised by test_patterns.cpp.
struct PatternThresholds {
  /// Sharing misses must be at least this share of all misses before a
  /// coherence label (ping-pong/migratory/producer-consumer) applies.
  double sharing_fraction = 0.25;
  /// Replacement misses must be at least this share of all misses before
  /// thrashing(capacity)/conflict applies.
  double replacement_fraction = 0.5;
  /// A nonzero stride must explain at least this share of the per-proc
  /// address deltas to call the datum strided.
  double strided_share = 0.6;
  /// The dominant writer pair must carry at least this share of all
  /// handoffs (and runs must be short) to call it ping-pong.
  double pingpong_share = 0.5;
  /// Ownership runs shorter than this mean are ping-pong, longer are
  /// migratory.
  double run_cutoff = 4.0;
  /// Data with fewer references than this stay unlabeled.
  u64 min_refs = 16;
};

/// Online summarizer fed the reference stream in trace order.  State is
/// dense per (datum, processor) — sized once from the AddressMap and the
/// processor count, never grown on the hot path except for the bounded
/// stride tables and the handoff matrix.
class PatternCollector : public TraceSink {
 public:
  /// `map` attributes addresses to datums (the same map the replay's
  /// attribution uses; the last slot is "<other>").  `params` supplies
  /// nprocs and cache_bytes for the capacity judgement.
  PatternCollector(const AddressMap* map, const CacheParams& params);

  void on_batch(const MemRef* refs, size_t n) override {
    for (size_t i = 0; i < n; ++i) record(refs[i]);
  }

  /// Distill every touched datum into its labeled summary, sorted by
  /// descending false-sharing misses (ties by name).  `by_datum` is the
  /// per-datum attribution of a replay of the same stream through the
  /// same map at the geometry of `params`; every touched datum must
  /// appear in it with exactly the references summarized here.
  std::vector<DatumPattern> patterns(
      const std::map<std::string, MissStats>& by_datum,
      const PatternThresholds& t = {}) const;

 private:
  void record(const MemRef& ref);

  struct StrideEntry {
    i64 stride = 0;
    u64 count = 0;
  };
  /// Per (datum, processor): last address plus a bounded stride table
  /// (top-8 by first touch; the long tail folds into `other`).
  struct ProcState {
    i64 last_addr = 0;
    bool valid = false;
    std::vector<StrideEntry> strides;
    u64 stride_other = 0;
  };
  struct DatumState {
    u64 reads = 0;
    u64 writes = 0;
    u64 readers_mask = 0;
    u64 writers_mask = 0;
    int last_writer = -1;
    u64 handoffs = 0;
    u64 run_len = 0;   // current owner's consecutive-write run
    u64 run_sum = 0;   // closed runs, summed
    u64 runs = 0;      // closed runs, counted
    std::map<std::pair<int, int>, u64> transitions;  // (from, to) -> count
    i64 lo = -1, hi = -1;  // touched address span
    u64 last_tick = 0;
    bool seen = false;
    u64 reuse[kReuseBuckets] = {};
  };

  const AddressMap* map_;
  CacheParams params_;
  u64 tick_ = 0;
  std::vector<DatumState> datums_;  // ranges + 1 ("<other>")
  std::vector<ProcState> procs_;    // (ranges + 1) * nprocs
};

}  // namespace fsopt
