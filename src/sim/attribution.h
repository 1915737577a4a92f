// Attribution of cache events to program data structures.
//
// The paper validates its static analysis against per-data-structure
// false-sharing profiles from simulation (§3.3, §5).  An AddressMap maps
// simulated addresses back to the datum that owns them so the simulators
// can report per-structure miss breakdowns.
#pragma once

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "support/common.h"

namespace fsopt {

struct AddrRange {
  i64 lo = 0;
  i64 hi = 0;  // exclusive
  std::string name;
  i64 size() const { return hi - lo; }
};

/// Ranges may overlap (e.g. group&transpose members within the group
/// region); a lookup resolves to the *smallest* containing range, ties to
/// the earliest-added.  add() flattens the ranges into disjoint sorted
/// segments with precomputed owners, so index_of is one binary search —
/// it runs once per attributed cache event, which replay makes a hot
/// path (see the address-map section of bench_replay_throughput).  The
/// index is rebuilt eagerly on every add() precisely so that a finished
/// map is immutable and safely shared by concurrent replay shards.
class AddressMap {
 public:
  void add(i64 lo, i64 hi, std::string name);

  /// Index of the smallest range containing addr, or -1.
  int index_of(i64 addr) const {
    if (bounds_.empty() || addr < bounds_.front() || addr >= bounds_.back())
      return -1;
    size_t seg = static_cast<size_t>(
        std::upper_bound(bounds_.begin(), bounds_.end(), addr) -
        bounds_.begin());
    return owner_[seg - 1];
  }
  const std::string& name_of(int index) const {
    return ranges_[static_cast<size_t>(index)].name;
  }
  const std::vector<AddrRange>& ranges() const { return ranges_; }

 private:
  void rebuild_index();

  std::vector<AddrRange> ranges_;
  // Flattened segment table: segment k spans [bounds_[k], bounds_[k+1])
  // and is owned by range owner_[k] (-1 for gaps).  owner_ has
  // bounds_.size() - 1 entries.
  std::vector<i64> bounds_;
  std::vector<int> owner_;
};

/// One directed word-granularity false-sharing conflict: a remote
/// processor's write to `writer_word` invalidated the block and cost
/// `victim_proc` a miss on `victim_word`, `weight` times.  Word addresses
/// are absolute simulated byte addresses (4-byte aligned); keeping the
/// processor pair on the edge lets a planner partition words by
/// processor affinity rather than only by co-miss counts.
struct ConflictEdge {
  i64 writer_word = 0;
  i64 victim_word = 0;
  int writer_proc = 0;
  int victim_proc = 0;
  u64 weight = 0;

  bool operator==(const ConflictEdge&) const = default;
};

/// All conflict edges whose endpoints fall in one cache line.  By
/// construction both endpoints of every edge lie in the same block
/// (false sharing is an intra-block phenomenon), so bucketing by
/// `victim_word / block_size` partitions the whole graph into disjoint
/// per-line subgraphs.
struct LineConflicts {
  i64 line = 0;  // block index: word byte address >> log2(block size)
  std::vector<ConflictEdge> edges;

  u64 weight() const {
    u64 w = 0;
    for (const ConflictEdge& e : edges) w += e.weight;
    return w;
  }
  bool operator==(const LineConflicts&) const = default;
};

/// Word-granularity false-sharing conflict graph for one block-size
/// plane: words are vertices, (writer-word, victim-word) pairs weighted
/// by miss count are edges, grouped into per-line subgraphs sorted by
/// line index.
struct ConflictGraph {
  i64 block_size = 0;
  std::vector<LineConflicts> lines;

  bool empty() const { return lines.empty(); }
  u64 total_weight() const {
    u64 w = 0;
    for (const LineConflicts& l : lines) w += l.weight();
    return w;
  }
  bool operator==(const ConflictGraph&) const = default;
};

/// Accumulates conflict edges during replay.  record() is called only
/// when a miss has already been classified as false sharing, so the
/// enabled cost is proportional to the false-sharing miss count (times
/// the words per block scanned by the caller), not the reference count.
/// Collectors are attached explicitly and default to absent everywhere,
/// which keeps the disabled replay paths untouched.
class ConflictCollector {
 public:
  void record(i64 writer_word, int writer_proc, i64 victim_word,
              int victim_proc, u64 weight = 1) {
    edges_[Key{writer_word, victim_word, writer_proc, victim_proc}] += weight;
  }

  bool empty() const { return edges_.empty(); }
  void clear() { edges_.clear(); }

  /// Snapshot the accumulated edges as a per-line-bucketed graph for
  /// `block_size` (power of two).  Deterministic: edges sort by the
  /// (writer_word, victim_word, writer_proc, victim_proc) key.
  ConflictGraph graph(i64 block_size) const;

 private:
  struct Key {
    i64 writer_word;
    i64 victim_word;
    int writer_proc;
    int victim_proc;
    bool operator<(const Key& o) const {
      if (writer_word != o.writer_word) return writer_word < o.writer_word;
      if (victim_word != o.victim_word) return victim_word < o.victim_word;
      if (writer_proc != o.writer_proc) return writer_proc < o.writer_proc;
      return victim_proc < o.victim_proc;
    }
  };
  std::map<Key, u64> edges_;
};

/// JSON dump of a conflict graph.  With a non-null AddressMap each word
/// endpoint also carries the owning datum's name and the offset within
/// it, which is what the transform layer keys on.
std::string conflict_graph_to_json(const ConflictGraph& graph,
                                   const AddressMap* map);

}  // namespace fsopt
