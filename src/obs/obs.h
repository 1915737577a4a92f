// Runtime tracing: spans and thread attribution.
//
// The one per-event instrumentation surface of the tree: compile passes
// (each stage of driver/pipeline.h runs in a `pass` span carrying its
// domain counters), parallel_for_each workers, trace
// recording, replays, the search and the sweeps.  Every instrumented site
// creates an RAII Span; spans land in per-thread buffers and are
// exported as Chrome trace-event JSON (obs/trace_writer.h) loadable in
// Perfetto / chrome://tracing, or aggregated into a human-readable
// summary.  Process-wide totals live in the metrics
// registry (obs/metrics.h).
//
// Design constraints, in priority order:
//   1. Must not perturb results.  Instrumentation only ever reads clocks
//      and appends to observation buffers; no simulated state is touched,
//      so all stats are bit-identical with tracing on or off (enforced by
//      tests/test_obs.cpp and bench_replay_throughput).
//   2. Cheap when disabled.  Tracing is always compiled in; the disabled
//      path of a Span is one relaxed atomic load and trivially-
//      constructed members — no clock read, no allocation, no lock.
//      bench_replay_throughput hard-fails if the disabled instrumentation
//      cost on a replay exceeds 2% of the replay itself.
//   3. Cheap enough when enabled.  Instrumentation sits at job/shard/pass
//      granularity, never per memory reference.  Each thread appends to
//      its own buffer under its own (uncontended) mutex, so enabling
//      tracing adds no cross-thread cache traffic inside timed regions.
//
// Activation: FSOPT_TRACE=out.json in the environment, or --trace-out
// PATH on fsoptc and every bench binary; --trace-summary (or
// FSOPT_TRACE_SUMMARY=1) prints the aggregation at exit.  Both write via
// a process-exit hook so every exit path of an instrumented binary dumps
// what it saw.
#pragma once

#include <atomic>
#include <string>
#include <string_view>
#include <vector>

#include "support/common.h"

namespace fsopt::obs {

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// Is tracing currently recording?  The one check on every hot path.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Flip recording on/off.  Spans already open keep recording their close.
void set_enabled(bool on);

/// Write a Chrome trace to `path` at process exit (registers the exit
/// hook once) and start recording now.  An empty path cancels the write.
void set_trace_path(std::string path);

/// Print the human-readable summary (render_summary) to stderr at process
/// exit, and start recording now.
void set_summary(bool on);

/// Mark this process's observability data as incomplete: the run is
/// exiting early (e.g. fsoptc on a CompileError) and the exit dumps —
/// trace, summary, metrics — describe a partial run.  The first reason
/// sticks; both the trace summary and the metrics exposition carry it,
/// so a scraped report from a failed run is never mistaken for a
/// complete one.
void mark_partial(std::string_view reason);
/// The partial marker, or empty when the run is (so far) complete.
std::string partial_reason();

/// Name the calling thread in the exported trace ("main", "pool-worker-3",
/// ...).  Threads that never call this show up as "thread-N".
void set_thread_name(std::string_view name);

/// Nanoseconds since the process's trace epoch (first obs use).
u64 now_ns();

/// One span argument: numeric or string, exported into the Chrome event's
/// "args" object.
struct Arg {
  std::string key;
  double num = 0.0;
  std::string str;
  bool is_str = false;
};

/// A closed span: [start_ns, start_ns + dur_ns) on one thread.
struct SpanEvent {
  u64 start_ns = 0;
  u64 dur_ns = 0;
  const char* category = "";  // static string at every call site
  std::string name;
  std::vector<Arg> args;
};

/// Everything one thread recorded.
struct ThreadLog {
  u32 tid = 0;
  std::string name;
  std::vector<SpanEvent> spans;
};

/// Snapshot of every thread's log (copies; safe to inspect while other
/// threads keep recording).
struct TraceData {
  std::vector<ThreadLog> threads;

  size_t span_count() const;
};

TraceData collect();

/// Drop every recorded event (thread registrations and names persist)
/// and clear the partial-data marker.  Tests use this to isolate what
/// one operation recorded.
void reset();

/// RAII span.  Construction stamps the start, destruction records the
/// event into the calling thread's buffer.  When tracing is disabled the
/// whole object is inert: no clock read, no allocation.
///
///   obs::Span span("replay", "multi_shard");
///   ... work ...
///   if (span.active()) span.arg("refs", n);
class Span {
 public:
  /// `category` must be a static string; `name` is copied (only when
  /// enabled — pass a cheap static name and put dynamic detail in args).
  Span(const char* category, std::string_view name) {
    if (!enabled()) return;
    init(category, name);
  }
  ~Span() {
    if (active_) finish();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// True when this span is recording (tracing was enabled at
  /// construction).  Gate arg() computation on this.
  bool active() const { return active_; }

  /// Seconds since construction (0 when inactive).
  double elapsed_seconds() const {
    return active_ ? static_cast<double>(now_ns() - start_ns_) * 1e-9 : 0.0;
  }

  void arg(std::string_view key, double value) {
    if (!active_) return;
    args_.push_back({std::string(key), value, {}, false});
  }
  void arg(std::string_view key, std::string_view value) {
    if (!active_) return;
    args_.push_back({std::string(key), 0.0, std::string(value), true});
  }

 private:
  void init(const char* category, std::string_view name);  // obs.cpp
  void finish();  // records the SpanEvent (obs.cpp)

  bool active_ = false;
  u64 start_ns_ = 0;
  const char* category_ = "";
  std::string name_;
  std::vector<Arg> args_;
};

}  // namespace fsopt::obs
