// Metrics registry: typed counters and gauges.
//
// The spans of obs.h answer "what happened when" — they are
// events on a timeline, exported as a Chrome trace.  This module answers
// "how much, in aggregate": named instruments that accumulate across the
// whole process and are snapshotted on demand or at exit, the surface a
// long-running service (the planned fsoptd) scrapes.  The ad-hoc numbers
// that used to ride on span args — codec bytes/ref, repair-loop
// iterations — register here so one exporter sees all of them.
//
// The same design constraints as obs.h, in the same priority order:
//   1. Must not perturb results.  Instruments only accumulate numbers;
//      no simulated state is touched, so all stats stay bit-identical
//      with metrics on or off (tests/test_obs.cpp).
//   2. Cheap when disabled.  Always compiled in; the disabled path of
//      every update is one relaxed atomic load.  Call sites hold a
//      static reference (registration runs once), so there is no name
//      lookup on any hot path.
//   3. Cheap enough when enabled.  Updates are relaxed atomic ops on
//      per-instrument cells; instruments sit at job/shard/loop
//      granularity, never per memory reference.
//
// Export: metrics_to_json (support/json.h writer) and a Prometheus-style
// text exposition (metrics_to_prometheus).  Activation: FSOPT_METRICS=PATH
// in the environment or --metrics-out PATH on fsoptc and the bench
// binaries; a path ending in ".json" selects the JSON form, anything else
// the Prometheus text form.  The dump runs via a process-exit hook, and
// carries the obs partial-data marker (obs::mark_partial) so a dump from
// an error exit is distinguishable from a complete run's.
#pragma once

#include <atomic>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/common.h"

namespace fsopt::obs {

namespace detail {
extern std::atomic<bool> g_metrics_enabled;
}  // namespace detail

/// Are metric updates currently accumulating?  The one check on every
/// update path.
inline bool metrics_enabled() {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}

/// Flip accumulation on/off (registrations persist either way).
void set_metrics_enabled(bool on);

/// Write the metrics dump to `path` at process exit (registers the exit
/// hook once) and start accumulating now.  ".json" suffix selects JSON,
/// anything else the Prometheus text exposition.  Empty cancels.
void set_metrics_path(std::string path);
std::string metrics_path();

/// Label set attached to an instrument ({"workload","fmm"}, ...).  Order
/// is preserved as registered; (name, labels) identifies an instrument.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind : u8 { kCounter, kGauge };
const char* metric_kind_name(MetricKind k);

/// Monotonically increasing count.
class Counter {
 public:
  void inc(u64 delta = 1) {
    if (!metrics_enabled()) return;
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  u64 value() const { return v_.load(std::memory_order_relaxed); }
  void reset_value() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<u64> v_{0};
};

/// Last-written value (bytes/ref, ...).
class Gauge {
 public:
  void set(double v) {
    if (!metrics_enabled()) return;
    v_.store(v, std::memory_order_relaxed);
  }
  void add(double delta) {
    if (!metrics_enabled()) return;
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset_value() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Register (or look up) an instrument.  The returned reference is valid
/// for the life of the process — call sites keep it in a static local so
/// the registry lock is taken once per site, not per update.  Re-
/// registering the same (name, labels) returns the same instrument;
/// registering it as a different kind throws InternalError.
Counter& metric_counter(std::string_view name, MetricLabels labels = {});
Gauge& metric_gauge(std::string_view name, MetricLabels labels = {});

/// One instrument's state at snapshot time.
struct MetricSample {
  std::string name;
  MetricLabels labels;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;  // counter (exact integral) / gauge
};

/// Every registered instrument, sorted by (name, labels); safe to take
/// while other threads keep updating (values are racy-consistent relaxed
/// reads, which is what a scrape wants).
struct MetricsSnapshot {
  std::vector<MetricSample> samples;
  /// Mirrors obs::partial_reason(): non-empty when the process marked its
  /// observability data incomplete (e.g. fsoptc exiting on CompileError).
  std::string partial_reason;
  bool partial() const { return !partial_reason.empty(); }
};

MetricsSnapshot metrics_snapshot();

/// Zero every instrument's accumulated value (registrations persist).
/// Tests use this to isolate what one operation recorded.
void metrics_reset();

/// {"metrics_version":1,"partial":...,"samples":[...]} via json::Writer.
std::string metrics_to_json(const MetricsSnapshot& snap, int indent = 2);

/// Prometheus text exposition: names are prefixed "fsopt_" and sanitized
/// ('.' -> '_'), counters get the "_total" suffix.  A partial dump
/// additionally carries the fsopt_partial gauge set to 1.
std::string metrics_to_prometheus(const MetricsSnapshot& snap);

}  // namespace fsopt::obs
