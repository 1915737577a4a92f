#include "obs/trace_writer.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "support/json.h"
#include "support/stats.h"

namespace fsopt::obs {

namespace {

constexpr double kNsToUs = 1e-3;
constexpr double kNsToSec = 1e-9;

void write_args(json::Writer& w, const std::vector<Arg>& args) {
  w.key("args").begin_object();
  for (const Arg& a : args) {
    w.key(a.key);
    if (a.is_str)
      w.value(a.str);
    else
      w.value(a.num);
  }
  w.end_object();
}

}  // namespace

std::string chrome_trace_json(const TraceData& data) {
  std::string out;
  json::Writer w(&out, 1);
  w.begin_object().key("traceEvents").begin_array();
  for (const ThreadLog& t : data.threads) {
    // Thread-name metadata first, so viewers label the row.
    w.begin_object()
        .key("ph").value("M")
        .key("pid").value(1)
        .key("tid").value(t.tid)
        .key("name").value("thread_name")
        .key("args").begin_object().key("name").value(t.name).end_object()
        .end_object();
    for (const SpanEvent& s : t.spans) {
      w.begin_object()
          .key("ph").value("X")
          .key("pid").value(1)
          .key("tid").value(t.tid)
          .key("cat").value(s.category)
          .key("name").value(s.name)
          .key("ts").value(static_cast<double>(s.start_ns) * kNsToUs,
                           "%.3f")
          .key("dur").value(static_cast<double>(s.dur_ns) * kNsToUs,
                            "%.3f");
      write_args(w, s.args);
      w.end_object();
    }
  }
  w.end_array().key("displayTimeUnit").value("ms").end_object();
  return out;
}

double TraceSummary::pool_utilization() const {
  if (pool_workers <= 0 || pool_wall_seconds <= 0.0) return 0.0;
  return pool_busy_seconds / (pool_workers * pool_wall_seconds);
}

TraceSummary summarize(const TraceData& data) {
  TraceSummary out;
  u64 min_start = ~u64{0};
  u64 max_end = 0;
  // category -> name -> line index; ordered maps keep the rendering
  // deterministic for a given trace.
  std::map<std::string, std::map<std::string, size_t>> index;
  // Pool jobs as (time, +1 start / -1 end) edges, for the peak number
  // running at once.
  std::vector<std::pair<u64, int>> job_edges;
  u64 pool_min = ~u64{0}, pool_max = 0;

  for (const ThreadLog& t : data.threads) {
    if (!t.spans.empty()) ++out.thread_count;
    for (const SpanEvent& s : t.spans) {
      min_start = std::min(min_start, s.start_ns);
      max_end = std::max(max_end, s.start_ns + s.dur_ns);
      double sec = static_cast<double>(s.dur_ns) * kNsToSec;

      auto [it, inserted] =
          index[s.category].try_emplace(s.name, out.lines.size());
      if (inserted) out.lines.push_back({s.category, s.name, 0, 0.0, 0.0});
      CategoryLine& line = out.lines[it->second];
      ++line.count;
      line.total_seconds += sec;
      line.max_seconds = std::max(line.max_seconds, sec);

      if (std::string_view(s.category) == "pool") {
        out.pool_busy_seconds += sec;
        pool_min = std::min(pool_min, s.start_ns);
        pool_max = std::max(pool_max, s.start_ns + s.dur_ns);
        if (s.name == "job") {
          job_edges.push_back({s.start_ns, +1});
          job_edges.push_back({s.start_ns + s.dur_ns, -1});
        }
      }
      if (std::string_view(s.category) == "pass" &&
          sec > out.slowest_pass_seconds) {
        out.slowest_pass_seconds = sec;
        out.slowest_pass = s.name;
      }
      if (std::string_view(s.category) == "replay" && s.name == "multi_shard" &&
          sec > out.slowest_shard_seconds) {
        out.slowest_shard_seconds = sec;
        out.slowest_shard = -1;
        for (const Arg& a : s.args)
          if (!a.is_str && a.key == "shard")
            out.slowest_shard = static_cast<int>(a.num);
      }
    }
  }
  if (max_end >= min_start && max_end != 0)
    out.wall_seconds = static_cast<double>(max_end - min_start) * kNsToSec;
  // Every parallel call starts fresh workers, so counting each pool
  // thread ever seen would charge a long run for hundreds of workers it
  // never had at once.  An end sorts before a start at the same instant:
  // back-to-back jobs do not overlap.
  std::sort(job_edges.begin(), job_edges.end());
  int running = 0;
  for (const auto& [ts, delta] : job_edges) {
    running += delta;
    out.pool_workers = std::max(out.pool_workers, running);
  }
  if (pool_max >= pool_min && pool_max != 0)
    out.pool_wall_seconds =
        static_cast<double>(pool_max - pool_min) * kNsToSec;
  // Category-major ordering, stable within a category.
  std::stable_sort(out.lines.begin(), out.lines.end(),
                   [](const CategoryLine& a, const CategoryLine& b) {
                     return a.category < b.category;
                   });
  return out;
}

std::string render_summary(const TraceData& data) {
  TraceSummary s = summarize(data);
  std::string out = "=== obs trace summary ===\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "wall %.3fs, %zu thread%s, %zu spans\n", s.wall_seconds,
                s.thread_count, s.thread_count == 1 ? "" : "s",
                data.span_count());
  out += buf;

  TextTable table({"category", "name", "count", "total", "max"});
  for (const CategoryLine& line : s.lines) {
    table.add_row({line.category, line.name, std::to_string(line.count),
                   fixed(line.total_seconds * 1e3, 3) + "ms",
                   fixed(line.max_seconds * 1e3, 3) + "ms"});
  }
  if (!s.lines.empty()) out += table.render();

  if (s.pool_workers > 0) {
    std::snprintf(buf, sizeof(buf),
                  "pool utilization: %.3fs busy / (%d peak workers x "
                  "%.3fs wall) = %.1f%%\n",
                  s.pool_busy_seconds, s.pool_workers, s.pool_wall_seconds,
                  100.0 * s.pool_utilization());
    out += buf;
  }
  if (!s.slowest_pass.empty()) {
    std::snprintf(buf, sizeof(buf), "slowest pass: %s (%.3fms)\n",
                  s.slowest_pass.c_str(), s.slowest_pass_seconds * 1e3);
    out += buf;
  }
  if (s.slowest_shard_seconds > 0.0) {
    std::snprintf(buf, sizeof(buf), "slowest replay shard: #%d (%.3fms)\n",
                  s.slowest_shard, s.slowest_shard_seconds * 1e3);
    out += buf;
  }
  return out;
}

bool write_trace_file(const std::string& path, const TraceData& data) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::string doc = chrome_trace_json(data);
  size_t written = std::fwrite(doc.data(), 1, doc.size(), f);
  return std::fclose(f) == 0 && written == doc.size();
}

}  // namespace fsopt::obs
