#include "transform/planner.h"

#include <algorithm>
#include <memory>
#include <set>

namespace fsopt {

const FalseSharingProfile::Entry* FalseSharingProfile::find(
    const std::string& name) const {
  for (const Entry& e : entries)
    if (e.name == name) return &e;
  return nullptr;
}

const ConflictProfile::Entry* ConflictProfile::find(
    const std::string& name) const {
  for (const Entry& e : entries)
    if (e.name == name) return &e;
  return nullptr;
}

TransformPlan StaticPlanner::plan(const PlannerInputs& in) const {
  return decide_transforms(in.report, in.summary, in.block_size, in.options);
}

namespace {

/// True when `plan` already has a decision that would collide with a new
/// decision for `key` in the layout engine: the exact datum, the whole
/// symbol when adding field-level, or any field when adding symbol-level
/// (a symbol-level pad/group decision overrides the rebuilt-struct path,
/// silently dropping field decisions — never stack them).
bool plan_covers(const TransformPlan& plan, const DatumKey& key) {
  for (const TransformDecision& d : plan.decisions) {
    if (d.datum.sym != key.sym) continue;
    if (d.datum.field < 0 || key.field < 0 || d.datum.field == key.field)
      return true;
  }
  return false;
}

/// Greedy processor-affinity partition of a datum's conflicting words:
/// each word goes to the processor with the most incident edge weight
/// (ties to the lowest processor id, deterministically).  cross_weight is
/// the weight of pairs whose endpoints got different owners — the
/// conflict weight the partition removes once the owner groups live in
/// separate coherence units.
struct AffinityCut {
  std::map<i64, int> owner;  // word byte offset -> owning processor
  u64 cross_weight = 0;
};

AffinityCut affinity_cut(const ConflictProfile::Entry& e) {
  std::map<i64, std::map<int, u64>> weight;  // word -> proc -> weight
  for (const ConflictProfile::Pair& p : e.pairs) {
    weight[p.writer_off][p.writer_proc] += p.weight;
    weight[p.victim_off][p.victim_proc] += p.weight;
  }
  AffinityCut cut;
  for (const auto& [off, procs] : weight) {
    int best = -1;
    u64 best_w = 0;
    for (const auto& [proc, w] : procs)
      if (best < 0 || w > best_w) {
        best = proc;
        best_w = w;
      }
    cut.owner[off] = best;
  }
  for (const ConflictProfile::Pair& p : e.pairs)
    if (cut.owner[p.writer_off] != cut.owner[p.victim_off])
      cut.cross_weight += p.weight;
  return cut;
}

}  // namespace

TransformPlan ProfilePlanner::plan(const PlannerInputs& in) const {
  TransformPlan out =
      in.base != nullptr ? *in.base : StaticPlanner().plan(in);
  out.planner = name();
  out.block_size = in.block_size;
  if (in.profile == nullptr || in.profile->total_fs == 0) return out;

  std::map<DatumKey, std::vector<const AccessRecord*>> writes_by_datum =
      dominant_phase_writes(in.report, in.summary);

  // Entries arrive sorted by descending miss count, so the plan grows in
  // order of measured damage — deterministically.
  for (const FalseSharingProfile::Entry& e : in.profile->entries) {
    if (e.fs_misses < opt_.min_fs_misses) continue;
    if (e.fs_share < opt_.min_fs_fraction) continue;
    // Profile names that are not program data ("<barrier>") have no
    // DatumClass and are skipped.
    const DatumClass* dc = nullptr;
    for (const DatumClass& d : in.report.data)
      if (d.name == e.name) dc = &d;
    if (dc == nullptr) continue;
    if (plan_covers(out, dc->datum)) continue;

    DecisionReason reason;
    reason.code = ReasonCode::kProfileFalseSharing;
    reason.fs_misses = e.fs_misses;
    reason.fs_share = e.fs_share;

    if (dc->is_lock) {
      out.decisions.push_back({dc->datum, TransformKind::kLockPad, -1,
                               PartitionShape::kBlocked, 1, reason, {}});
      continue;
    }
    // Per-process writes with a detectable linear partition axis: the
    // locality-restoring transforms, same admissibility as §3.3 minus the
    // weight threshold the profile has already disproven.
    if (dc->writes == Pattern::kPerProcess && dc->writer_count >= 2 &&
        dc->pid_dim >= 0) {
      auto shape = detect_partition_shape(writes_by_datum[dc->datum],
                                          in.summary, dc->datum, dc->pid_dim);
      if (shape.has_value()) {
        if (dc->pid_dim_is_field_dim && dc->datum.field >= 0) {
          out.decisions.push_back({dc->datum, TransformKind::kIndirection,
                                   dc->pid_dim, shape->first, shape->second,
                                   reason, {}});
          continue;
        }
        if (dc->datum.field < 0) {
          out.decisions.push_back(
              {dc->datum, TransformKind::kGroupTranspose, dc->pid_dim,
               shape->first, shape->second, reason, {}});
          continue;
        }
        // Field-level group&transpose needs whole-struct consensus the
        // profile cannot grant; fall through to padding.
      }
    }
    // Everything else: isolate the datum's elements in their own blocks.
    i64 elem_count = 1;
    for (i64 ext : dc->extents) elem_count *= ext;
    if (elem_count * in.block_size > opt_.pad_footprint_limit) continue;
    out.decisions.push_back({dc->datum, TransformKind::kPadAlign, -1,
                             PartitionShape::kBlocked, 1, reason, {}});
  }
  return out;
}

TransformPlan GraphPlanner::plan(const PlannerInputs& in) const {
  TransformPlan out = ProfilePlanner(opt_.profile).plan(in);
  out.planner = name();
  if (in.conflicts == nullptr || in.conflicts->total_weight == 0) return out;

  // Entries arrive sorted by descending conflict weight, so the plan
  // grows in order of measured damage — deterministically.
  for (const ConflictProfile::Entry& e : in.conflicts->entries) {
    if (e.weight < opt_.min_weight) continue;
    double share = static_cast<double>(e.weight) /
                   static_cast<double>(in.conflicts->total_weight);
    if (share < opt_.min_weight_fraction) continue;

    DecisionReason reason;
    reason.code = ReasonCode::kConflictGraph;
    reason.fs_misses = e.weight;
    reason.fs_share = share;

    // The interpreter's central barrier: not a program datum, so it is
    // invisible to the §3.3 heuristics and the profile pass alike.  Its
    // three packed words ping-pong between every process each episode;
    // stride them into separate coherence units.
    if (e.name == kBarrierName) {
      DatumKey key{kBarrierSym, -1};
      if (!plan_covers(out, key))
        out.decisions.push_back({key, TransformKind::kIntraPad, -1,
                                 PartitionShape::kBlocked, opt_.pad_stride,
                                 reason, {}});
      continue;
    }

    // Conflict entries are keyed by address-map range name.  Struct
    // symbols map as one symbol-level range while the sharing report
    // classifies their accesses per *field*, so a symbol-level entry may
    // have no DatumClass at all — resolve the global by name in that
    // case (datum {sym, -1}).
    const DatumClass* dc = nullptr;
    for (const DatumClass& d : in.report.data)
      if (d.name == e.name) dc = &d;
    const GlobalSym* gs;
    DatumKey key;
    if (dc != nullptr) {
      gs = in.summary.datum_sym(dc->datum);
      key = dc->datum;
    } else {
      gs = in.summary.prog->find_global(e.name);
      key = gs != nullptr ? DatumKey{gs->id, -1} : DatumKey{};
    }
    if (gs == nullptr) continue;
    if (plan_covers(out, key)) continue;

    AffinityCut cut = affinity_cut(e);
    if (static_cast<double>(cut.cross_weight) <
        opt_.min_cut_fraction * static_cast<double>(e.weight))
      continue;

    // Symbol-level struct datum: map the conflicting words to fields and
    // split every conflict-carrying field into its own block-aligned
    // region (the cold remainder keeps the compact base layout).
    if (gs->elem.is_struct && key.field < 0) {
      const StructType& st = *gs->elem.strct;
      std::set<int> hot;
      bool mapped = true;
      for (const auto& [off, proc] : cut.owner) {
        (void)proc;
        i64 rel = off % gs->elem.byte_size();
        int fi = -1;
        for (size_t f = 0; f < st.fields.size(); ++f)
          if (rel >= st.fields[f].offset &&
              rel < st.fields[f].offset + st.fields[f].byte_size())
            fi = static_cast<int>(f);
        if (fi < 0) {
          mapped = false;
          break;
        }
        hot.insert(fi);
      }
      if (!mapped || hot.empty()) continue;

      // A permutation is free: when re-packing the fields so each
      // affinity class occupies its own contiguous run provably puts
      // every cross-class field pair into distinct coherence units at
      // the target block size, prefer kFieldReorder over splitting — no
      // footprint growth, and the cold fields keep riding along.
      if (opt_.try_field_reorder && st.fields.size() >= 2) {
        // Field -> owning processor class, by max incident edge weight
        // (ties to the lowest processor, deterministically).
        std::map<int, std::map<int, u64>> field_weight;
        auto field_of = [&](i64 off) {
          i64 rel = off % gs->elem.byte_size();
          for (size_t f = 0; f < st.fields.size(); ++f)
            if (rel >= st.fields[f].offset &&
                rel < st.fields[f].offset + st.fields[f].byte_size())
              return static_cast<int>(f);
          return -1;
        };
        for (const ConflictProfile::Pair& p : e.pairs) {
          if (int fi = field_of(p.writer_off); fi >= 0)
            field_weight[fi][p.writer_proc] += p.weight;
          if (int fi = field_of(p.victim_off); fi >= 0)
            field_weight[fi][p.victim_proc] += p.weight;
        }
        auto owner_of = [&](int fi) {
          auto it = field_weight.find(fi);
          if (it == field_weight.end()) return -1;  // cold field
          int best = -1;
          u64 best_w = 0;
          for (const auto& [proc, w] : it->second)
            if (best < 0 || w > best_w) {
              best = proc;
              best_w = w;
            }
          return best;
        };
        std::set<int> classes;
        for (const auto& [fi, procs] : field_weight) {
          (void)procs;
          classes.insert(owner_of(fi));
        }
        if (classes.size() >= 2) {
          // Group conflicting fields by owner class (cold fields last),
          // stable within a class so the permutation is deterministic.
          std::vector<int> perm(st.fields.size());
          for (size_t f = 0; f < perm.size(); ++f)
            perm[f] = static_cast<int>(f);
          std::stable_sort(perm.begin(), perm.end(), [&](int a, int b) {
            int oa = owner_of(a);
            int ob = owner_of(b);
            u64 ka = oa < 0 ? ~u64{0} : static_cast<u64>(oa);
            u64 kb = ob < 0 ? ~u64{0} : static_cast<u64>(ob);
            return ka < kb;
          });
          // Repack exactly as build_layout will (natural alignment in
          // permutation order, element base block-aligned) and require
          // every cross-class pair to occupy disjoint block ranges in
          // every element.
          std::vector<i64> offs(st.fields.size(), 0);
          i64 off = 0;
          i64 align = 1;
          for (int fi : perm) {
            const StructField& f = st.fields[static_cast<size_t>(fi)];
            i64 a = scalar_size(f.kind);
            off = round_up(off, a);
            offs[static_cast<size_t>(fi)] = off;
            off += f.byte_size();
            align = std::max(align, a);
          }
          i64 elem = round_up(std::max<i64>(off, 1), align);
          i64 B = in.block_size;
          bool separated = gs->elem_count() == 1 || elem % B == 0;
          for (size_t i = 0; i < st.fields.size() && separated; ++i)
            for (size_t j = i + 1; j < st.fields.size() && separated;
                 ++j) {
              int oi = owner_of(static_cast<int>(i));
              int oj = owner_of(static_cast<int>(j));
              if (oi < 0 || oj < 0 || oi == oj) continue;
              i64 hi_i = (offs[i] + st.fields[i].byte_size() - 1) / B;
              i64 hi_j = (offs[j] + st.fields[j].byte_size() - 1) / B;
              if (hi_i >= offs[j] / B && hi_j >= offs[i] / B)
                separated = false;
            }
          if (separated) {
            TransformDecision d{key, TransformKind::kFieldReorder, -1,
                                PartitionShape::kBlocked, 1, reason, {}};
            d.fields = std::move(perm);
            out.decisions.push_back(std::move(d));
            continue;
          }
        }
      }

      i64 footprint =
          static_cast<i64>(hot.size()) * gs->elem_count() * in.block_size;
      if (footprint > opt_.profile.pad_footprint_limit) continue;
      TransformDecision d{key, TransformKind::kHotColdSplit, -1,
                          PartitionShape::kBlocked, 1, reason, {}};
      d.fields.assign(hot.begin(), hot.end());
      out.decisions.push_back(std::move(d));
      continue;
    }

    // Scalar arrays and field-level datums: the conflicting words are
    // distinct elements; stride them apart.  The stride (not the plan's
    // block size) sets the spacing, so the separation holds at every
    // swept block size up to the stride.
    i64 elems = 1;
    if (dc != nullptr) {
      for (i64 ext : dc->extents) elems *= ext;
    } else {
      elems = gs->elem_count();
    }
    if (elems * opt_.pad_stride > opt_.profile.pad_footprint_limit) continue;
    out.decisions.push_back({key, TransformKind::kIntraPad, -1,
                             PartitionShape::kBlocked, opt_.pad_stride,
                             reason, {}});
  }
  return out;
}

std::unique_ptr<Planner> make_planner(const std::string& name) {
  if (name == "static") return std::make_unique<StaticPlanner>();
  if (name == "profile") return std::make_unique<ProfilePlanner>();
  if (name == "graph") return std::make_unique<GraphPlanner>();
  throw InternalError("unknown planner '" + name +
                      "' (expected static, profile or graph; the search "
                      "planner needs a replay evaluator — construct "
                      "SearchPlanner directly or use driver search_plan)");
}

}  // namespace fsopt
