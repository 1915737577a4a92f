#include "analysis/diagnose.h"

#include <algorithm>
#include <cstdio>

#include "driver/experiment.h"
#include "support/json.h"

namespace fsopt {

namespace {

/// L1 capacity of the diagnostic replay.
constexpr i64 kL1Bytes = 32 * 1024;

/// "g.f" -> "g" (symbol-level planner decisions cover every field).
std::string base_symbol(const std::string& name) {
  size_t dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

std::string format_count(u64 n) { return std::to_string(n); }

}  // namespace

const char* transform_action(TransformKind k) {
  switch (k) {
    case TransformKind::kNone: return "none";
    case TransformKind::kPadAlign:
    case TransformKind::kLockPad: return "pad";
    case TransformKind::kFieldReorder:
    case TransformKind::kGroupTranspose: return "reorder";
    case TransformKind::kHotColdSplit:
    case TransformKind::kIndirection: return "split";
    case TransformKind::kIntraPad: return "stride";
  }
  return "none";
}

const DatumDiagnosis* DiagnosisReport::find(const std::string& name) const {
  for (const DatumDiagnosis& d : datums)
    if (d.name == name) return &d;
  return nullptr;
}

DiagnosisReport diagnose(const Compiled& c, std::string workload,
                         const DiagnoseOptions& opt) {
  DiagnosisReport rep;
  rep.workload = std::move(workload);
  rep.nprocs = c.nprocs();
  rep.block_size = opt.block_size;
  rep.l1_bytes = kL1Bytes;
  rep.planner = "graph";

  // One recording, walked twice: the trace study the repair loop and the
  // search run (per-datum attribution plus the word-granularity conflict
  // graph), then the pattern summarizer over the same reference stream.
  AddressMap map = build_address_map(c);
  EncodedTrace trace = opt.traces != nullptr ? opt.traces->trace(c)
                                             : record_encoded_trace(c);
  rep.refs = trace.size();

  TraceStudyResult study =
      replay_trace_study(trace, c, {opt.block_size}, kL1Bytes, &map, 0,
                         /*collect_conflicts=*/true);
  rep.totals = study.at(opt.block_size);
  PatternCollector patterns(&map, CacheParams{c.nprocs(), kL1Bytes,
                                              opt.block_size,
                                              c.code.total_bytes});
  trace.replay(patterns);

  FalseSharingProfile fs_profile = build_fs_profile(study, opt.block_size);
  ConflictProfile conflict_profile =
      build_conflict_profile(study, opt.block_size, map);

  // What would the graph planner do?  Base the plan on the compile's own
  // transforms so already-applied repairs are visible (and not
  // re-recommended as heuristics against data they already fixed).
  TransformPlan plan = graph_plan({c.report, c.summary, c.options.decision,
                                   opt.block_size, &fs_profile,
                                   &c.transforms, &conflict_profile});

  // Decision lookup by address-map spelling: field-specific names first
  // ("g.f"), symbol-level decisions under the bare symbol ("g").
  std::map<std::string, const TransformDecision*> by_name;
  for (const TransformDecision& d : plan.decisions) {
    std::string name = d.datum.sym == kBarrierSym
                           ? std::string(kBarrierName)
                           : c.summary.datum_name(d.datum);
    by_name.emplace(name, &d);
  }
  auto decision_for = [&](const std::string& name) -> const TransformDecision* {
    auto it = by_name.find(name);
    if (it != by_name.end()) return it->second;
    it = by_name.find(base_symbol(name));
    return it != by_name.end() ? it->second : nullptr;
  };

  for (DatumPattern& p :
       patterns.patterns(study.by_datum.at(opt.block_size))) {
    DatumDiagnosis d;
    d.name = p.name;
    d.pattern = p.label;
    d.stats = p.stats;
    if (const ConflictProfile::Entry* e = conflict_profile.find(p.name))
      d.conflict_weight = e->weight;

    const u64 fs_misses = d.stats.false_sharing;
    const u64 misses = d.stats.misses();
    const double fs_frac =
        misses > 0 ? static_cast<double>(fs_misses) /
                         static_cast<double>(misses)
                   : 0.0;

    std::vector<Recommendation> recs;

    // Planner-backed recommendation first: the score offset guarantees a
    // real decision outranks every heuristic, so the report's headline
    // agrees with what the planner actually does.
    if (const TransformDecision* dec = decision_for(d.name);
        dec != nullptr && dec->kind != TransformKind::kNone) {
      Recommendation r;
      r.action = transform_action(dec->kind);
      r.kind = dec->kind;
      r.from_planner = true;
      r.score = 10.0 + fs_frac;
      r.why = std::string("planner '") + plan.planner + "' chose " +
              transform_name(dec->kind);
      if (dec->reason.code != ReasonCode::kNone)
        r.why += ": " + dec->reason.render();
      recs.push_back(std::move(r));
    }

    // Heuristic entries from the taxonomy label + attributed misses.
    switch (d.pattern) {
      case AccessPattern::kPingPong:
      case AccessPattern::kMigratory:
      case AccessPattern::kProducerConsumer:
        if (fs_misses > 0) {
          recs.push_back({"pad", TransformKind::kPadAlign, 1.0 + fs_frac,
                          false,
                          format_count(fs_misses) +
                              " false-sharing misses under a " +
                              pattern_name(d.pattern) +
                              " pattern: separate the contended data into "
                              "its own coherence unit"});
        }
        break;
      case AccessPattern::kStrided:
        if (fs_misses > 0) {
          recs.push_back({"stride", TransformKind::kIntraPad, 1.0 + fs_frac,
                          false,
                          "strided walk (dominant stride " +
                              std::to_string(p.dominant_stride) +
                              ") still takes " + format_count(fs_misses) +
                              " false-sharing misses: pad the element "
                              "stride up to the block size"});
        }
        break;
      default: break;
    }

    // Conflict-graph evidence: intra-datum edges name the exact words,
    // so the repair is within the datum — split fields apart, or pad the
    // stride for flat arrays.
    if (d.conflict_weight > 0) {
      bool is_field = d.name.find('.') != std::string::npos;
      double share =
          conflict_profile.total_weight > 0
              ? static_cast<double>(d.conflict_weight) /
                    static_cast<double>(conflict_profile.total_weight)
              : 0.0;
      recs.push_back({is_field ? "split" : "stride",
                      is_field ? TransformKind::kHotColdSplit
                               : TransformKind::kIntraPad,
                      0.5 + share, false,
                      "intra-datum conflict edges of weight " +
                          format_count(d.conflict_weight) +
                          " pinpoint words falsely shared within this "
                          "datum"});
    }

    if (recs.empty()) {
      recs.push_back({"none", TransformKind::kNone, 0.0, false,
                      fs_misses == 0
                          ? std::string("no false-sharing misses attributed")
                          : "no actionable pattern identified"});
    }

    // Rank, then keep the strongest entry per action (stable sort keeps
    // insertion order — planner first — on score ties).
    std::stable_sort(recs.begin(), recs.end(),
                     [](const Recommendation& a, const Recommendation& b) {
                       return a.score > b.score;
                     });
    std::vector<Recommendation> deduped;
    for (Recommendation& r : recs) {
      bool dup = false;
      for (const Recommendation& kept : deduped)
        if (kept.action == r.action) dup = true;
      if (!dup) deduped.push_back(std::move(r));
    }
    d.recommendations = std::move(deduped);
    d.evidence = std::move(p);
    rep.datums.push_back(std::move(d));
  }
  return rep;
}

// ---------------------------------------------------------------------------
// Serialization.
// ---------------------------------------------------------------------------

namespace {

void write_stats(json::Writer& w, const MissStats& s) {
  w.begin_object();
  w.key("refs").value(s.refs);
  w.key("hits").value(s.hits);
  w.key("cold").value(s.cold);
  w.key("replacement").value(s.replacement);
  w.key("true_sharing").value(s.true_sharing);
  w.key("false_sharing").value(s.false_sharing);
  w.key("upgrades").value(s.upgrades);
  w.key("invalidations").value(s.invalidations);
  w.end_object();
}

}  // namespace

std::string diagnosis_to_json(const DiagnosisReport& report, int indent) {
  std::string out;
  json::Writer w(&out, indent);
  w.begin_object();
  w.key("diagnosis_version").value(1);
  w.key("workload").value(report.workload);
  w.key("nprocs").value(report.nprocs);
  w.key("block_size").value(report.block_size);
  w.key("l1_bytes").value(report.l1_bytes);
  w.key("refs").value(report.refs);
  w.key("planner").value(report.planner);
  w.key("totals");
  write_stats(w, report.totals);
  w.key("datums").begin_array();
  for (const DatumDiagnosis& d : report.datums) {
    w.begin_object();
    w.key("name").value(d.name);
    w.key("pattern").value(pattern_name(d.pattern));
    w.key("conflict_weight").value(d.conflict_weight);
    w.key("stats");
    write_stats(w, d.stats);
    const DatumPattern& e = d.evidence;
    w.key("evidence").begin_object();
    w.key("reads").value(e.reads);
    w.key("writes").value(e.writes);
    w.key("readers").value(e.readers);
    w.key("writers").value(e.writers);
    w.key("dominant_stride").value(e.dominant_stride);
    w.key("stride_share").value(e.stride_share);
    w.key("handoffs").value(e.handoffs);
    w.key("mean_run").value(e.mean_run);
    w.key("pingpong_share").value(e.pingpong_share);
    w.key("footprint").value(e.footprint);
    // Reuse sketch trimmed to the last occupied bucket.
    size_t last = 0;
    for (size_t i = 0; i < e.reuse.size(); ++i)
      if (e.reuse[i] != 0) last = i + 1;
    w.key("reuse").begin_array();
    for (size_t i = 0; i < last; ++i) w.value(e.reuse[i]);
    w.end_array();
    w.end_object();
    w.key("recommendations").begin_array();
    for (const Recommendation& r : d.recommendations) {
      w.begin_object();
      w.key("action").value(r.action);
      w.key("transform").value(transform_name(r.kind));
      w.key("score").value(r.score);
      w.key("from_planner").value(r.from_planner);
      w.key("why").value(r.why);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return out;
}

std::string render_diagnosis(const DiagnosisReport& report) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "Diagnosis: %s  (%lld procs, block %lld, L1 %lld bytes, "
                "planner %s)\n",
                report.workload.c_str(),
                static_cast<long long>(report.nprocs),
                static_cast<long long>(report.block_size),
                static_cast<long long>(report.l1_bytes),
                report.planner.c_str());
  out += buf;
  const MissStats& t = report.totals;
  std::snprintf(buf, sizeof(buf),
                "  %llu refs, %llu misses (fs %llu, ts %llu, cold %llu, "
                "repl %llu)\n",
                static_cast<unsigned long long>(t.refs),
                static_cast<unsigned long long>(t.misses()),
                static_cast<unsigned long long>(t.false_sharing),
                static_cast<unsigned long long>(t.true_sharing),
                static_cast<unsigned long long>(t.cold),
                static_cast<unsigned long long>(t.replacement));
  out += buf;
  for (const DatumDiagnosis& d : report.datums) {
    std::snprintf(buf, sizeof(buf),
                  "\n  %-20s [%s]  fs=%llu/%llu misses  conflict-weight=%llu\n",
                  d.name.c_str(), pattern_name(d.pattern),
                  static_cast<unsigned long long>(d.stats.false_sharing),
                  static_cast<unsigned long long>(d.stats.misses()),
                  static_cast<unsigned long long>(d.conflict_weight));
    out += buf;
    for (const Recommendation& r : d.recommendations) {
      std::snprintf(buf, sizeof(buf), "    -> %-7s %s%s\n      %s\n",
                    r.action.c_str(), transform_name(r.kind),
                    r.from_planner ? "  (planner-backed)" : "",
                    r.why.c_str());
      out += buf;
    }
  }
  return out;
}

}  // namespace fsopt
