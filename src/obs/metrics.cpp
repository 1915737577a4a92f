#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "obs/obs.h"
#include "support/json.h"

namespace fsopt::obs {

namespace detail {
std::atomic<bool> g_metrics_enabled{false};
}  // namespace detail

const char* metric_kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
  }
  return "?";
}

namespace {

/// One registered instrument.  Exactly one of c/g is set, per `kind`.
struct Instrument {
  std::string name;
  MetricLabels labels;
  MetricKind kind = MetricKind::kCounter;
  std::unique_ptr<Counter> c;
  std::unique_ptr<Gauge> g;
};

/// Owns every instrument (references handed out must outlive all callers,
/// so the registry is leaked like obs.cpp's) plus the export config.
struct MetricsRegistry {
  std::mutex mu;
  std::vector<std::unique_ptr<Instrument>> instruments;
  std::string path;
  bool exit_hook_registered = false;
};

MetricsRegistry& registry() {
  static MetricsRegistry* r = new MetricsRegistry;  // exit hook reads it
  return *r;
}

Instrument& find_or_register(std::string_view name, MetricLabels&& labels,
                             MetricKind kind) {
  MetricsRegistry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  for (auto& in : r.instruments) {
    if (in->name == name && in->labels == labels) {
      FSOPT_CHECK(in->kind == kind,
                  "metric '" + std::string(name) +
                      "' re-registered as a different kind (" +
                      metric_kind_name(in->kind) + " vs " +
                      metric_kind_name(kind) + ")");
      return *in;
    }
  }
  auto in = std::make_unique<Instrument>();
  in->name.assign(name.data(), name.size());
  in->labels = std::move(labels);
  in->kind = kind;
  switch (kind) {
    case MetricKind::kCounter: in->c = std::make_unique<Counter>(); break;
    case MetricKind::kGauge: in->g = std::make_unique<Gauge>(); break;
  }
  r.instruments.push_back(std::move(in));
  return *r.instruments.back();
}

void at_exit_dump() {
  std::string path;
  {
    MetricsRegistry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    path = r.path;
  }
  if (path.empty()) return;
  MetricsSnapshot snap = metrics_snapshot();
  bool is_json = path.size() >= 5 && path.rfind(".json") == path.size() - 5;
  std::string doc =
      is_json ? metrics_to_json(snap) : metrics_to_prometheus(snap);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr ||
      std::fwrite(doc.data(), 1, doc.size(), f) != doc.size()) {
    std::fprintf(stderr, "obs: cannot write metrics to %s\n", path.c_str());
    if (f != nullptr) std::fclose(f);
    return;
  }
  std::fclose(f);
  std::fprintf(stderr, "(obs: %s metrics written to %s — %zu instruments%s)\n",
               is_json ? "json" : "prometheus", path.c_str(),
               snap.samples.size(),
               snap.partial() ? ", PARTIAL DATA" : "");
}

void register_exit_hook() {
  MetricsRegistry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  if (r.exit_hook_registered) return;
  r.exit_hook_registered = true;
  std::atexit(at_exit_dump);
}

/// FSOPT_METRICS=PATH at static-init time, mirroring obs.cpp's EnvInit,
/// so every binary honours the variable without per-main wiring.
struct EnvInit {
  EnvInit() {
    if (const char* p = std::getenv("FSOPT_METRICS"); p != nullptr && *p != 0)
      set_metrics_path(p);
  }
} g_env_init;

bool labels_less(const MetricLabels& a, const MetricLabels& b) {
  return a < b;
}

}  // namespace

void set_metrics_enabled(bool on) {
  detail::g_metrics_enabled.store(on, std::memory_order_relaxed);
}

void set_metrics_path(std::string path) {
  {
    MetricsRegistry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    r.path = std::move(path);
    if (r.path.empty()) return;
  }
  register_exit_hook();
  set_metrics_enabled(true);
}

Counter& metric_counter(std::string_view name, MetricLabels labels) {
  Instrument& in =
      find_or_register(name, std::move(labels), MetricKind::kCounter);
  return *in.c;
}

Gauge& metric_gauge(std::string_view name, MetricLabels labels) {
  Instrument& in =
      find_or_register(name, std::move(labels), MetricKind::kGauge);
  return *in.g;
}

MetricsSnapshot metrics_snapshot() {
  MetricsSnapshot snap;
  MetricsRegistry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  snap.samples.reserve(r.instruments.size());
  for (const auto& in : r.instruments) {
    MetricSample s;
    s.name = in->name;
    s.labels = in->labels;
    s.kind = in->kind;
    switch (in->kind) {
      case MetricKind::kCounter:
        s.value = static_cast<double>(in->c->value());
        break;
      case MetricKind::kGauge:
        s.value = in->g->value();
        break;
    }
    snap.samples.push_back(std::move(s));
  }
  std::sort(snap.samples.begin(), snap.samples.end(),
            [](const MetricSample& a, const MetricSample& b) {
              if (a.name != b.name) return a.name < b.name;
              return labels_less(a.labels, b.labels);
            });
  snap.partial_reason = partial_reason();
  return snap;
}

void metrics_reset() {
  MetricsRegistry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  for (auto& in : r.instruments) {
    switch (in->kind) {
      case MetricKind::kCounter: in->c->reset_value(); break;
      case MetricKind::kGauge: in->g->reset_value(); break;
    }
  }
}

std::string metrics_to_json(const MetricsSnapshot& snap, int indent) {
  std::string out;
  json::Writer w(&out, indent);
  w.begin_object();
  w.key("metrics_version").value(1);
  w.key("partial").value(snap.partial());
  if (snap.partial()) w.key("partial_reason").value(snap.partial_reason);
  w.key("samples").begin_array();
  for (const MetricSample& s : snap.samples) {
    w.begin_object();
    w.key("name").value(s.name);
    w.key("kind").value(metric_kind_name(s.kind));
    if (!s.labels.empty()) {
      w.key("labels").begin_object();
      for (const auto& [k, v] : s.labels) w.key(k).value(v);
      w.end_object();
    }
    w.key("value").value(s.value, "%.17g");
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return out;
}

namespace {

/// Prometheus metric-name charset: [a-zA-Z0-9_:]; everything else ('.',
/// '-') becomes '_'.
std::string prom_name(const std::string& name) {
  std::string out = "fsopt_";
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

std::string prom_labels(const MetricLabels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"" + json::escape(v) + "\"";
  }
  out += "}";
  return out;
}

void append_number(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace

std::string metrics_to_prometheus(const MetricsSnapshot& snap) {
  std::string out;
  std::string last_name;
  for (const MetricSample& s : snap.samples) {
    std::string base = prom_name(s.name);
    if (s.kind == MetricKind::kCounter) base += "_total";
    if (base != last_name) {
      out += "# TYPE " + base + " " + metric_kind_name(s.kind) + "\n";
      last_name = base;
    }
    out += base + prom_labels(s.labels) + " ";
    append_number(out, s.value);
    out += "\n";
  }
  out += "# TYPE fsopt_partial gauge\n";
  out += std::string("fsopt_partial ") + (snap.partial() ? "1" : "0") + "\n";
  return out;
}

}  // namespace fsopt::obs
