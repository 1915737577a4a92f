// Single-pass multi-configuration replay.
//
// A block-size sweep replays the same reference stream once per cache
// configuration.  replay_multi walks the stream exactly once and
// simulates every requested configuration (*plane*) simultaneously —
// and, unlike N independent replays, it can *share* every piece of
// simulator state that does not depend on the block size:
//
//   * word write-versions and last-writer (the classifier's input) are
//     per 4-byte word, not per block — one shared array serves all
//     planes, written once per reference instead of once per plane;
//   * each processor's last-access time per *word* is likewise shared;
//     a plane's per-block snapshot (CoherentCache's `snapshot_`) is
//     recoverable as the max over the words of that plane's block, so
//     the per-plane snapshot arrays disappear entirely;
//   * what remains per plane is the directory itself — a sharer bitmask
//     and modified-owner byte per plane-block — plus a direct-mapped
//     victim table consulted only on misses.
//
// The payoff: the all-planes hit test (the overwhelmingly common case)
// is one directory-mask load per plane plus two shared-array stores
// total, and every coherence transition is O(1) — upgrades and write
// fills replace the mask, evictions clear one bit, downgrades clear the
// owner byte.  Planes where the reference does not plainly hit take a
// miss path that reproduces CoherentCache's transitions (upgrade,
// invalidation counts, downgrades, eviction, word-union miss
// classification) exactly.  Even the classification scans are mostly
// O(1): a 16-word *granule* layer keeps, per granule, each processor's
// last access plus the top write event and the second-writer's maximum
// version, which decides "written by another processor since q's last
// access" for whole granules at once — a word-granular scan remains
// only for the one ambiguous case (the top writer is q itself and the
// runner-up bound cannot rule a foreign write out).
//
// The sharer bitmask is templated on machine width (16-bit masks when
// the trace has at most 16 processors, 64-bit otherwise), and per-plane
// counters accumulate in dense per-batch tallies folded into MissStats
// at batch end, keeping the hot loop free of scattered read-modify-
// write traffic.
//
// Exactness: the shared arrays are a change of representation, not of
// model.  Versions and snapshots only ever enter strict order
// comparisons ("was this word written after processor q last touched
// this block"), and the shared per-reference counter preserves the
// trace order of every such pair of events, so each plane's outcome
// stream is identical to a dedicated CoherentCache replay — the
// differential suite (tests/test_multi_replay.cpp) enforces this across
// the full workload matrix, and bench_replay_throughput hard-fails on
// any counter drift.  Planes the bitmask engine cannot express
// (associativity > 1, the word-invalidate ablation, non-power-of-two
// geometry) fall back to a private CoherentCache per plane within the
// same walk, so replay_multi accepts any CacheParams mix.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "sim/cache.h"
#include "trace/encode.h"

namespace fsopt {

/// One configuration's results out of a multi-plane replay.
struct MultiReplayResult {
  /// Per-plane aggregate stats, in the order the params were given.
  std::vector<MissStats> stats;
  /// Per-plane per-datum attribution (empty unless an AddressMap was
  /// supplied to the replay).
  std::vector<std::map<std::string, MissStats>> by_datum;
};

// ---------------------------------------------------------------------------
// The replay entry point: region shards × the multi-plane walk.
//
// Region sharding and the single-pass multi-plane walk compose.  Shard k
// of K keeps the references whose *region* r = addr / region_bytes (the
// largest plane block, a power of two that every other block divides)
// has r % K == k, a shift and a mask for a power-of-two K, and walks
// ALL planes at once over just that sub-stream.  Each shard decodes the
// whole compressed trace and filters it as it goes, so no partition is
// ever built and the K decodes run side by side.  The
// result is bit-identical to one whole walk (K = 1): regions nest every
// plane's blocks, so per-block directory and classifier state never
// straddles shards, and a shard count dividing every plane's
// cache_bytes / region keeps LRU sets shard-pure too.  Region-spanning
// references are replayed piecewise, each shard its own pieces, and
// merged across shards with the same severity/OR/sum rules the unsharded
// simulator applies inline.  Conflict graphs shard as well: a false-
// sharing edge lies inside one block, so the shards' graphs cover
// disjoint lines and their union is the whole graph.
// ---------------------------------------------------------------------------

/// Shard geometry valid for a whole plane set at once.
struct MultiShardPlan {
  i64 region_bytes = 4;  // shard granularity: the largest plane block
  int shards = 1;  // largest exact power of two <= requested (1: unsharded)
};

/// The largest power-of-two shard count <= `requested` for which the
/// composed replay is exact across every plane in `params`, together
/// with the region size.  Returns shards == 1 when the planes cannot be
/// composed (a block size that does not divide the region, a region
/// that is not a power of two) or requested <= 1.  Shards route
/// references by shift and mask, so a sweep with any other geometry
/// replays as one whole walk, which is exact for it.
MultiShardPlan multi_shard_plan(const std::vector<CacheParams>& params,
                                int requested);

/// Simulate every configuration in `params` on `trace`, in
/// multi_shard_plan(params, min(8, threads)).shards region shards, each
/// decoding the whole trace and walking it once for all planes; the
/// shards run on up to `threads` workers (0 = experiment_threads(),
/// support/thread_pool.h).  One thread, or a geometry the region cannot
/// nest (such as {48, 64} B), is one whole walk on the calling thread,
/// exact for any CacheParams mix.  Results are bit-identical for every
/// thread count.  Adds trace refs × planes to the sim.replay.plane_refs
/// metric.
///
/// With a non-null `conflicts`, each plane additionally accumulates its
/// word-granularity false-sharing conflict graph; on return *conflicts
/// holds one ConflictGraph per plane (in params order, bucketed at that
/// plane's block size), the same for every thread count.
MultiReplayResult replay_multi(const EncodedTrace& trace,
                               const std::vector<CacheParams>& params,
                               const AddressMap* attribution = nullptr,
                               int threads = 1,
                               std::vector<ConflictGraph>* conflicts = nullptr);

}  // namespace fsopt
