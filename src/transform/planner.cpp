#include "transform/planner.h"

#include <algorithm>
#include <climits>
#include <numeric>
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

// ---------------------------------------------------------------------------
// The per-datum move rules.
// ---------------------------------------------------------------------------

bool datums_collide(const DatumKey& a, const DatumKey& b) {
  return a.sym == b.sym &&
         (a.field < 0 || b.field < 0 || a.field == b.field);
}

bool plan_covers(const TransformPlan& plan, const DatumKey& key) {
  return std::any_of(plan.decisions.begin(), plan.decisions.end(),
                     [&](const TransformDecision& d) {
                       return datums_collide(d.datum, key);
                     });
}

i64 PlanDatum::elements() const {
  if (dc == nullptr) return gs->elem_count();
  i64 n = 1;
  for (i64 ext : dc->extents) n *= ext;
  return n;
}

std::optional<PlanDatum> resolve_datum(const PlannerInputs& in,
                                       const std::string& name) {
  PlanDatum d;
  if (name == kBarrierName) {
    d.key = {kBarrierSym, -1};
    return d;
  }
  for (const DatumClass& c : in.report.data)
    if (c.name == name) d.dc = &c;
  if (d.dc != nullptr) {
    d.gs = in.summary.datum_sym(d.dc->datum);
    d.key = d.dc->datum;
  } else {
    d.gs = in.summary.prog->find_global(name);
    if (d.gs == nullptr) return std::nullopt;
    d.key = {d.gs->id, -1};
  }
  return d;
}

namespace {

/// The processor with the most weight, ties to the lowest id.
int heaviest(const std::map<int, u64>& weight_by_proc) {
  int best = -1;
  u64 best_w = 0;
  for (const auto& [proc, w] : weight_by_proc)
    if (best < 0 || w > best_w) {
      best = proc;
      best_w = w;
    }
  return best;
}

/// Greedy processor affinity of a conflict entry's words: each word
/// (byte offset) goes to the heaviest processor on it.
std::map<i64, int> word_owners(const ConflictProfile::Entry& e) {
  std::map<i64, std::map<int, u64>> weight;  // word -> proc -> weight
  for (const ConflictProfile::Pair& p : e.pairs) {
    weight[p.writer_off][p.writer_proc] += p.weight;
    weight[p.victim_off][p.victim_proc] += p.weight;
  }
  std::map<i64, int> owner;
  for (const auto& [off, procs] : weight) owner[off] = heaviest(procs);
  return owner;
}

/// The field of struct global `gs` that byte offset `off` (relative to
/// the datum's base, in any element) falls in, or -1 for padding.
int field_at(const GlobalSym& gs, i64 off) {
  const StructType& st = *gs.elem.strct;
  i64 rel = off % gs.elem.byte_size();
  for (size_t f = 0; f < st.fields.size(); ++f)
    if (rel >= st.fields[f].offset &&
        rel < st.fields[f].offset + st.fields[f].byte_size())
      return static_cast<int>(f);
  return -1;
}

}  // namespace

std::optional<StructMoves> struct_moves(const PlanDatum& d,
                                        const ConflictProfile::Entry& e,
                                        const DecisionReason& reason) {
  const GlobalSym& gs = *d.gs;
  std::set<int> hot;
  std::set<int> procs;
  for (const auto& [off, proc] : word_owners(e)) {
    int fi = field_at(gs, off);
    if (fi < 0) return std::nullopt;
    hot.insert(fi);
    procs.insert(proc);
  }
  if (hot.empty()) return std::nullopt;

  StructMoves m{{d.key, TransformKind::kHotColdSplit, -1,
                 PartitionShape::kBlocked, 1, reason, {}},
                {d.key, TransformKind::kFieldReorder, -1,
                 PartitionShape::kBlocked, 1, reason, {}},
                std::vector<int>(gs.elem.strct->fields.size(), -1),
                procs.size()};
  m.split.fields.assign(hot.begin(), hot.end());

  // Every conflicting word lies in a field, so every pair endpoint does.
  std::map<int, std::map<int, u64>> field_weight;  // field -> proc -> w
  for (const ConflictProfile::Pair& p : e.pairs) {
    field_weight[field_at(gs, p.writer_off)][p.writer_proc] += p.weight;
    field_weight[field_at(gs, p.victim_off)][p.victim_proc] += p.weight;
  }
  for (const auto& [fi, weight] : field_weight)
    m.field_owner[static_cast<size_t>(fi)] = heaviest(weight);

  std::vector<int>& perm = m.reorder.fields;
  perm.resize(m.field_owner.size());
  std::iota(perm.begin(), perm.end(), 0);
  auto cold_last = [&](int fi) {
    int o = m.field_owner[static_cast<size_t>(fi)];
    return o < 0 ? INT_MAX : o;
  };
  std::stable_sort(perm.begin(), perm.end(),
                   [&](int a, int b) { return cold_last(a) < cold_last(b); });
  return m;
}

std::optional<TransformDecision> partition_move(
    const DatumClass& dc, const std::vector<const AccessRecord*>& writes,
    const ProgramSummary& summary, const DecisionReason& reason) {
  if (dc.writes != Pattern::kPerProcess || dc.writer_count < 2 ||
      dc.pid_dim < 0)
    return std::nullopt;
  auto shape = detect_partition_shape(writes, summary, dc.datum, dc.pid_dim);
  if (!shape.has_value()) return std::nullopt;
  TransformKind kind;
  if (dc.pid_dim_is_field_dim && dc.datum.field >= 0)
    kind = TransformKind::kIndirection;
  else if (dc.datum.field < 0)
    kind = TransformKind::kGroupTranspose;
  else
    return std::nullopt;
  return TransformDecision{dc.datum,     kind,          dc.pid_dim,
                           shape->first, shape->second, reason,
                           {}};
}

// ---------------------------------------------------------------------------
// The planners.
// ---------------------------------------------------------------------------

TransformPlan profile_plan(const PlannerInputs& in,
                           const ProfilePlannerOptions& opt) {
  TransformPlan out = in.base != nullptr
                          ? *in.base
                          : decide_transforms(in.report, in.summary,
                                              in.block_size, in.options);
  out.planner = "profile";
  out.block_size = in.block_size;
  if (in.profile == nullptr || in.profile->total_fs == 0) return out;

  std::map<DatumKey, std::vector<const AccessRecord*>> writes_by_datum =
      dominant_phase_writes(in.report, in.summary);

  // Entries arrive sorted by descending miss count, so the plan grows in
  // order of measured damage — deterministically.
  for (const FalseSharingProfile::Entry& e : in.profile->entries) {
    if (e.fs_misses < opt.min_fs_misses) continue;
    if (e.fs_share < opt.min_fs_fraction) continue;
    // Profile names that are not program data ("<barrier>") have no
    // DatumClass and are skipped.
    std::optional<PlanDatum> d = resolve_datum(in, e.name);
    if (!d.has_value() || d->dc == nullptr) continue;
    const DatumClass& dc = *d->dc;
    if (plan_covers(out, dc.datum)) continue;

    DecisionReason reason;
    reason.code = ReasonCode::kProfileFalseSharing;
    reason.fs_misses = e.fs_misses;
    reason.fs_share = e.fs_share;

    if (dc.is_lock) {
      out.decisions.push_back({dc.datum, TransformKind::kLockPad, -1,
                               PartitionShape::kBlocked, 1, reason, {}});
      continue;
    }
    if (std::optional<TransformDecision> m = partition_move(
            dc, writes_by_datum[dc.datum], in.summary, reason)) {
      out.decisions.push_back(std::move(*m));
      continue;
    }
    // Everything else: isolate the datum's elements in their own blocks.
    if (d->elements() * in.block_size > opt.pad_footprint_limit) continue;
    out.decisions.push_back({dc.datum, TransformKind::kPadAlign, -1,
                             PartitionShape::kBlocked, 1, reason, {}});
  }
  return out;
}

namespace {

/// A datum must carry at least this share of the whole graph's edge
/// weight to receive an intra-datum decision...
constexpr double kMinWeightFraction = 0.02;
/// ... and at least this much absolute edge weight.
constexpr u64 kMinWeight = 16;
/// An affinity partition must explain at least this share of the datum's
/// conflict weight (cross-owner edges) to be worth acting on.
constexpr double kMinCutFraction = 0.5;
/// Byte stride for intra-datum padding.  Separated words must land in
/// distinct coherence units at *every* swept block size, so this is the
/// largest block of the standard sweep, not the plan's own block size.
constexpr i64 kPadStride = 256;

/// True when the field permutation is free: re-packing the fields in
/// `m.reorder` order puts every pair of fields with different owners into
/// distinct coherence units of `block` bytes in every element, so it
/// separates at least two owner classes at no footprint cost.
bool reorder_separates(const GlobalSym& gs, const StructMoves& m,
                       i64 block) {
  const StructType& st = *gs.elem.strct;
  std::set<int> classes;
  for (int o : m.field_owner)
    if (o >= 0) classes.insert(o);
  if (st.fields.size() < 2 || classes.size() < 2) return false;

  // Repack exactly as build_layout will: natural alignment in
  // permutation order, element base block-aligned.
  std::vector<i64> offs(st.fields.size(), 0);
  i64 off = 0;
  i64 align = 1;
  for (int fi : m.reorder.fields) {
    const StructField& f = st.fields[static_cast<size_t>(fi)];
    i64 a = scalar_size(f.kind);
    off = round_up(off, a);
    offs[static_cast<size_t>(fi)] = off;
    off += f.byte_size();
    align = std::max(align, a);
  }
  i64 elem = round_up(std::max<i64>(off, 1), align);
  if (gs.elem_count() != 1 && elem % block != 0) return false;
  for (size_t i = 0; i < st.fields.size(); ++i)
    for (size_t j = i + 1; j < st.fields.size(); ++j) {
      int oi = m.field_owner[i];
      int oj = m.field_owner[j];
      if (oi < 0 || oj < 0 || oi == oj) continue;
      i64 hi_i = (offs[i] + st.fields[i].byte_size() - 1) / block;
      i64 hi_j = (offs[j] + st.fields[j].byte_size() - 1) / block;
      if (hi_i >= offs[j] / block && hi_j >= offs[i] / block) return false;
    }
  return true;
}

}  // namespace

TransformPlan graph_plan(const PlannerInputs& in,
                         const ProfilePlannerOptions& opt) {
  TransformPlan out = profile_plan(in, opt);
  out.planner = "graph";
  if (in.conflicts == nullptr || in.conflicts->total_weight == 0) return out;

  // Entries arrive sorted by descending conflict weight, so the plan
  // grows in order of measured damage — deterministically.
  for (const ConflictProfile::Entry& e : in.conflicts->entries) {
    if (e.weight < kMinWeight) continue;
    double share = static_cast<double>(e.weight) /
                   static_cast<double>(in.conflicts->total_weight);
    if (share < kMinWeightFraction) continue;

    DecisionReason reason;
    reason.code = ReasonCode::kConflictGraph;
    reason.fs_misses = e.weight;
    reason.fs_share = share;

    std::optional<PlanDatum> d = resolve_datum(in, e.name);
    if (!d.has_value() || plan_covers(out, d->key)) continue;

    // The interpreter's central barrier: not a program datum, so it is
    // invisible to the §3.3 heuristics and the profile pass alike.  Its
    // three packed words ping-pong between every process each episode;
    // stride them into separate coherence units.
    if (d->key.sym == kBarrierSym) {
      out.decisions.push_back({d->key, TransformKind::kIntraPad, -1,
                               PartitionShape::kBlocked, kPadStride, reason,
                               {}});
      continue;
    }

    std::map<i64, int> owner = word_owners(e);
    u64 cross_weight = 0;  // the conflict weight separating owners removes
    for (const ConflictProfile::Pair& p : e.pairs)
      if (owner[p.writer_off] != owner[p.victim_off])
        cross_weight += p.weight;
    if (static_cast<double>(cross_weight) <
        kMinCutFraction * static_cast<double>(e.weight))
      continue;

    // Symbol-level struct datum: prefer a free field permutation, else
    // split every conflict-carrying field into its own block-aligned
    // region (the cold remainder keeps the compact base layout).
    const GlobalSym& gs = *d->gs;
    if (gs.elem.is_struct && d->key.field < 0) {
      std::optional<StructMoves> m = struct_moves(*d, e, reason);
      if (!m.has_value()) continue;
      if (reorder_separates(gs, *m, in.block_size)) {
        out.decisions.push_back(std::move(m->reorder));
        continue;
      }
      i64 footprint = static_cast<i64>(m->split.fields.size()) *
                      gs.elem_count() * in.block_size;
      if (footprint > opt.pad_footprint_limit) continue;
      out.decisions.push_back(std::move(m->split));
      continue;
    }

    // Scalar arrays and field-level datums: the conflicting words are
    // distinct elements; stride them apart.  The stride (not the plan's
    // block size) sets the spacing, so the separation holds at every
    // swept block size up to the stride.
    if (d->elements() * kPadStride > opt.pad_footprint_limit) continue;
    out.decisions.push_back({d->key, TransformKind::kIntraPad, -1,
                             PartitionShape::kBlocked, kPadStride, reason,
                             {}});
  }
  return out;
}

}  // namespace fsopt
