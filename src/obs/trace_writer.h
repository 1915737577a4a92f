// Exporters for the runtime trace (obs/obs.h): Chrome trace-event JSON
// and a human-readable summary.
//
// The JSON form is the Trace Event Format's "X" (complete span) and "M"
// (thread-name metadata) events, one process, one event per recorded
// span — load the file in Perfetto or chrome://tracing.  The summary
// aggregates the same data for a terminal: per-(category, name)
// count/total/max, pool utilization (busy ÷ peak concurrent jobs ×
// wall), the slowest pass and the slowest replay shard.  Serialization
// rides on support/json.h.
#pragma once

#include <string>

#include "obs/obs.h"

namespace fsopt::obs {

/// The whole trace as one Chrome trace-event JSON document.
std::string chrome_trace_json(const TraceData& data);

/// Aggregated per-(category, name) statistics of one span category.
struct CategoryLine {
  std::string category;
  std::string name;
  u64 count = 0;
  double total_seconds = 0.0;
  double max_seconds = 0.0;
};

/// Digest of a trace, the data behind render_summary().
struct TraceSummary {
  double wall_seconds = 0.0;      // max end - min start over all events
  size_t thread_count = 0;        // threads that recorded anything
  std::vector<CategoryLine> lines;  // category-major, insertion order

  // Pool utilization: busy = total "pool" span time, workers = the peak
  // number of "pool"/"job" spans running at once, wall = span of the
  // "pool" category.
  double pool_busy_seconds = 0.0;
  int pool_workers = 0;
  double pool_wall_seconds = 0.0;
  /// busy / (workers * wall); 0 when no pool activity was recorded.
  double pool_utilization() const;

  /// Largest "pass" span and largest "replay"/"multi_shard" span (empty
  /// name when none was recorded).
  std::string slowest_pass;
  double slowest_pass_seconds = 0.0;
  double slowest_shard_seconds = 0.0;
  int slowest_shard = -1;  // the span's "shard" arg, -1 if absent
};

TraceSummary summarize(const TraceData& data);

/// The summary as an aligned text block (for --trace-summary).
std::string render_summary(const TraceData& data);

/// Write chrome_trace_json(data) to `path`.  Returns false (and writes
/// nothing useful) when the file cannot be created.
bool write_trace_file(const std::string& path, const TraceData& data);

}  // namespace fsopt::obs
