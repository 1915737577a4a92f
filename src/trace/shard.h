// Region partitioning of recorded traces for the composed sharded ×
// multi-configuration replay (replay_multi_partitioned, sim/multi.h).
//
// The MSI model's coherence state is strictly per-block (directory entry,
// classifier snapshots, word versions) and LRU state is per-set.  A
// *region* is a common multiple of every simulated block size (in
// practice the largest block of the sweep), so splitting a recorded
// stream by region number into K shards — shard k receives exactly the
// references whose region r = addr / region_bytes satisfies r % K == k,
// in their original relative order — hands every block of every plane to
// exactly one shard.  A shard count that also divides every plane's
// cache_bytes / region_bytes keeps each plane's LRU sets shard-pure, so
// the shards replay concurrently and their summed counters reproduce the
// unsharded replay bit for bit (multi_shard_plan in sim/multi.h computes
// the largest such count; DESIGN.md "Shard-parallel replay").
//
// References that span two regions (8-byte data straddling a region
// boundary) touch two shards.  The partitioner splits them into
// per-region pieces, routes each piece to its owning shard at the correct
// position in that shard's stream, and records an (ordinal, part) tag so
// the replay can reassemble the per-reference outcome — exactly what the
// unsharded simulator computes inline — after the shards finish.  Region
// boundaries are block boundaries for every plane, so a piece never
// splits a plane's block across shards.
#pragma once

#include <vector>

#include "trace/encode.h"

namespace fsopt {

/// One shard's slice of a partitioned trace.
struct TraceShard {
  /// Single-region references owned by this shard, in trace order.
  std::vector<MemRef> refs;

  /// One region-sized piece of a spanning reference: replay it after
  /// `pos` entries of `refs` have been delivered.  `ordinal` identifies
  /// the original reference across shards; `part` is the piece's index
  /// in address order.
  struct SplitPart {
    u64 pos = 0;
    u32 ordinal = 0;
    u8 part = 0;
    MemRef sub;
  };
  std::vector<SplitPart> splits;  // ordered by (pos, trace order)
};

/// A recorded trace partitioned by region across shards.
struct TracePartition {
  i64 region_bytes = 0;
  int shards = 1;
  std::vector<TraceShard> shard;  // size == shards
  /// The original spanning references, indexed by ordinal (their combined
  /// outcome is attributed to split_origin[ordinal].addr).
  std::vector<MemRef> split_origin;
  u64 refs = 0;  // references in the source trace
};

/// Partition `trace` at `region_bytes` granularity across `shards` (>= 1)
/// shards, streaming straight from the compressed chunks: they are
/// decoded one sub-batch at a time, so the raw 16-byte-per-ref stream
/// never materializes in full.  Callers derive both values with
/// multi_shard_plan (sim/multi.h) so the composed replay is exact for
/// every plane.
TracePartition partition_trace(const EncodedTrace& trace, i64 region_bytes,
                               int shards);

}  // namespace fsopt
