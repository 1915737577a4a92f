// fsopt_diff — compare two machine-readable fsopt reports and gate on
// regressions.
//
//   fsopt_diff BASELINE.json CURRENT.json [options]
//
//   --threshold X        regression factor (default 2.0): a metric must
//                        degrade by more than X times before it counts
//   --metric-filter STR  only compare metrics whose name contains STR
//   --direction higher|lower
//                        whether larger values are better (default:
//                        higher — throughput-style metrics) or worse
//                        (lower — miss counts, latencies)
//   --min-count N        ignore entries whose values are both below N
//                        (guards tiny absolute counts from ratio noise)
//
// The report kind is autodetected from the document shape:
//   * bench reports ({"results": [...]}, bench/bench_util.h JsonReport) —
//     rows are compared per (workload, metric) pair.  Both the current
//     shape (run facts in a top-level "meta" object) and the legacy shape
//     (fake "workload": "host" rows) are accepted; host/meta entries and
//     string-valued metrics never participate in the comparison.  Every
//     gated baseline metric (one passing --metric-filter) must appear in
//     the current report: an absent one prints a MISSING row and fails
//     the gate, and so does a gate that compared nothing at all.
//   * diagnosis reports ({"datums": [...]}, analysis/diagnose.h) —
//     per-datum false-sharing miss counts are compared (direction is
//     forced to lower), and a datum newly exceeding --min-count misses
//     is reported even with no baseline entry.
//
// Exit status: 0 = within threshold, 1 = regression(s) (or, for bench
// reports, a missing gated metric or nothing compared), 2 = usage or
// parse error.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "support/json.h"

using namespace fsopt;

namespace {

struct Options {
  std::string baseline_path;
  std::string current_path;
  double threshold = 2.0;
  std::string metric_filter;
  bool higher_is_better = true;
  double min_count = 0.0;
};

[[noreturn]] void usage(const char* msg) {
  if (msg != nullptr) std::fprintf(stderr, "fsopt_diff: %s\n", msg);
  std::fprintf(stderr,
               "usage: fsopt_diff BASELINE.json CURRENT.json\n"
               "                  [--threshold X] [--metric-filter STR]\n"
               "                  [--direction higher|lower] "
               "[--min-count N]\n");
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value after " + a).c_str());
      return argv[++i];
    };
    if (a == "--threshold") {
      o.threshold = std::atof(next().c_str());
      if (o.threshold <= 0) usage("--threshold must be positive");
    } else if (a == "--metric-filter") {
      o.metric_filter = next();
    } else if (a == "--direction") {
      std::string d = next();
      if (d == "higher") o.higher_is_better = true;
      else if (d == "lower") o.higher_is_better = false;
      else usage("--direction expects higher or lower");
    } else if (a == "--min-count") {
      o.min_count = std::atof(next().c_str());
    } else if (a.rfind("--", 0) == 0) {
      usage(("unknown option " + a).c_str());
    } else if (o.baseline_path.empty()) {
      o.baseline_path = a;
    } else if (o.current_path.empty()) {
      o.current_path = a;
    } else {
      usage("more than two input files");
    }
  }
  if (o.current_path.empty()) usage(nullptr);
  return o;
}

json::Value load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "fsopt_diff: cannot open %s\n", path.c_str());
    std::exit(2);
  }
  std::stringstream buf;
  buf << in.rdbuf();
  std::optional<json::Value> v = json::parse(buf.str());
  if (!v.has_value() || !v->is_object()) {
    std::fprintf(stderr, "fsopt_diff: %s is not a JSON object\n",
                 path.c_str());
    std::exit(2);
  }
  return *v;
}

// --- bench reports ---------------------------------------------------------

/// (workload, metric) -> value.  Tolerates the legacy schema: rows whose
/// workload is "host" are run metadata, not measurements, and are skipped
/// just like the top-level "meta" object.
std::map<std::pair<std::string, std::string>, double> bench_rows(
    const json::Value& doc, const std::string& path) {
  std::map<std::pair<std::string, std::string>, double> out;
  const json::Value* results = doc.get("results");
  if (results == nullptr || !results->is_array()) {
    std::fprintf(stderr, "fsopt_diff: %s has no 'results' array\n",
                 path.c_str());
    std::exit(2);
  }
  for (const json::Value& row : results->items()) {
    const json::Value* workload = row.get("workload");
    const json::Value* metric = row.get("metric");
    const json::Value* value = row.get("value");
    if (workload == nullptr || metric == nullptr || value == nullptr ||
        !workload->is_string() || !metric->is_string())
      continue;
    if (workload->as_string() == "host") continue;  // legacy meta rows
    if (!value->is_number()) {
      std::fprintf(stderr,
                   "fsopt_diff: note: skipping string metric %s/%s\n",
                   workload->as_string().c_str(),
                   metric->as_string().c_str());
      continue;
    }
    out[{workload->as_string(), metric->as_string()}] = value->as_number();
  }
  return out;
}

int diff_bench(const json::Value& base, const json::Value& cur,
               const Options& o) {
  auto b = bench_rows(base, o.baseline_path);
  auto c = bench_rows(cur, o.current_path);
  int regressions = 0;
  size_t compared = 0;
  size_t missing = 0;
  for (const auto& [key, bv] : b) {
    if (!o.metric_filter.empty() &&
        key.second.find(o.metric_filter) == std::string::npos)
      continue;
    auto it = c.find(key);
    if (it == c.end()) {
      ++missing;
      std::printf("MISSING    %s/%s: %.6g -> absent from %s\n",
                  key.first.c_str(), key.second.c_str(), bv,
                  o.current_path.c_str());
      continue;
    }
    double cv = it->second;
    if (bv < o.min_count && cv < o.min_count) continue;
    ++compared;
    // Degradation factor > 1 means current is worse.
    double factor;
    if (o.higher_is_better)
      factor = cv > 0 ? bv / cv : (bv > 0 ? o.threshold * 2 : 1.0);
    else
      factor = bv > 0 ? cv / bv : (cv > 0 ? o.threshold * 2 : 1.0);
    bool bad = factor > o.threshold;
    if (bad) ++regressions;
    std::printf("%s %s/%s: %.6g -> %.6g (%.2fx %s)\n",
                bad ? "REGRESSION" : "ok        ", key.first.c_str(),
                key.second.c_str(), bv, cv, factor,
                o.higher_is_better ? "slower" : "larger");
  }
  std::printf("%zu metric(s) compared, %zu missing, %d regression(s) past"
              " %.2fx\n",
              compared, missing, regressions, o.threshold);
  if (compared == 0)
    std::printf("FAIL: the gate compared no metric\n");
  return regressions > 0 || missing > 0 || compared == 0 ? 1 : 0;
}

// --- diagnosis reports -----------------------------------------------------

std::map<std::string, double> diagnosis_fs(const json::Value& doc,
                                           const std::string& path) {
  std::map<std::string, double> out;
  const json::Value* datums = doc.get("datums");
  if (datums == nullptr || !datums->is_array()) {
    std::fprintf(stderr, "fsopt_diff: %s has no 'datums' array\n",
                 path.c_str());
    std::exit(2);
  }
  for (const json::Value& d : datums->items()) {
    const json::Value* name = d.get("name");
    const json::Value* stats = d.get("stats");
    if (name == nullptr || !name->is_string() || stats == nullptr) continue;
    const json::Value* fs = stats->get("false_sharing");
    if (fs == nullptr || !fs->is_number()) continue;
    out[name->as_string()] = fs->as_number();
  }
  return out;
}

int diff_diagnosis(const json::Value& base, const json::Value& cur,
                   const Options& o) {
  auto b = diagnosis_fs(base, o.baseline_path);
  auto c = diagnosis_fs(cur, o.current_path);
  int regressions = 0;
  for (const auto& [name, cv] : c) {
    auto it = b.find(name);
    double bv = it != b.end() ? it->second : 0.0;
    if (bv < o.min_count && cv < o.min_count) continue;
    bool bad = cv > (bv > 0 ? o.threshold * bv : o.min_count);
    if (bad) ++regressions;
    std::printf("%s %s: false-sharing %.0f -> %.0f%s\n",
                bad ? "REGRESSION" : "ok        ", name.c_str(), bv, cv,
                it == b.end() ? " (new datum)" : "");
  }
  std::printf("%zu datum(s) compared, %d regression(s) past %.2fx\n",
              c.size(), regressions, o.threshold);
  return regressions > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o = parse_args(argc, argv);
  json::Value base = load(o.baseline_path);
  json::Value cur = load(o.current_path);

  bool base_diag = base.get("datums") != nullptr;
  bool cur_diag = cur.get("datums") != nullptr;
  if (base_diag != cur_diag) {
    std::fprintf(stderr,
                 "fsopt_diff: cannot compare a bench report against a "
                 "diagnosis report\n");
    return 2;
  }
  return base_diag ? diff_diagnosis(base, cur, o) : diff_bench(base, cur, o);
}
