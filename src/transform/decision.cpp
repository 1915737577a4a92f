#include "transform/decision.h"

namespace fsopt {

namespace {

std::vector<i64> sample_pids(i64 nprocs) {
  std::vector<i64> out;
  if (nprocs <= 16) {
    for (i64 p = 0; p < nprocs; ++p) out.push_back(p);
    return out;
  }
  for (i64 p : {i64{0}, i64{1}, i64{2}, i64{3}, i64{5}, i64{8},
                nprocs / 2, nprocs - 2, nprocs - 1})
    if (p >= 0 && p < nprocs) out.push_back(p);
  return out;
}

}  // namespace

std::optional<std::pair<PartitionShape, i64>> detect_partition_shape(
    const std::vector<const AccessRecord*>& writes, const ProgramSummary& sum,
    const DatumKey& key, int dim) {
  std::vector<i64> extents = sum.datum_extents(key);
  i64 ext = extents[static_cast<size_t>(dim)];
  i64 P = sum.nprocs;
  i64 C = (ext + P - 1) / P;
  std::vector<i64> pids = sample_pids(P);

  bool blocked_ok = true;
  bool interleaved_ok = true;
  for (const AccessRecord* r : writes) {
    for (i64 p : pids) {
      if (!r->pids.test(p)) continue;
      auto box = r->rsd.concretize(sum.pdvs.pid, p, extents);
      const ConcreteRange& cr = box[static_cast<size_t>(dim)];
      if (cr.empty()) continue;
      if (!(cr.lo >= p * C && cr.hi < (p + 1) * C)) blocked_ok = false;
      if (!(cr.lo % P == p && (cr.stride % P == 0 || cr.lo == cr.hi)))
        interleaved_ok = false;
      if (!blocked_ok && !interleaved_ok) return std::nullopt;
    }
  }
  if (blocked_ok) return std::make_pair(PartitionShape::kBlocked, C);
  if (interleaved_ok) return std::make_pair(PartitionShape::kInterleaved, C);
  return std::nullopt;
}

std::map<DatumKey, std::vector<const AccessRecord*>> dominant_phase_writes(
    const SharingReport& report, const ProgramSummary& sum) {
  std::map<DatumKey, std::vector<const AccessRecord*>> writes_by_datum;
  for (const AccessRecord& r : sum.records) {
    if (!r.is_write || r.is_lock_op) continue;
    const DatumClass* dc = report.find(r.datum);
    if (dc != nullptr && r.phase != dc->dominant_phase) continue;
    writes_by_datum[r.datum].push_back(&r);
  }
  return writes_by_datum;
}

TransformPlan decide_transforms(const SharingReport& report,
                                const ProgramSummary& sum, i64 block_size,
                                const DecisionOptions& opt) {
  // Gather write records per datum for partition-shape detection.
  std::map<DatumKey, std::vector<const AccessRecord*>> writes_by_datum =
      dominant_phase_writes(report, sum);

  TransformPlan out;
  out.planner = "static";
  out.block_size = block_size;

  // Static-profile significance threshold: only the datums most
  // responsible for shared traffic are considered (locks exempt).
  double total_weight = 0.0;
  for (const auto& d : report.data)
    total_weight += d.read_weight + d.write_weight;
  double min_weight = opt.min_weight_fraction * total_weight;

  // §3.3 read-side admissibility for group&transpose / indirection.
  auto reads_admit = [&](const DatumClass& d) -> bool {
    switch (d.reads) {
      case Pattern::kNone:
      case Pattern::kPerProcess:
      case Pattern::kSharedNonLocal:
        return true;
      case Pattern::kSharedLocal:
        return d.write_weight >= opt.write_dominance * d.read_weight;
    }
    return false;
  };

  // Pass 1: per-datum candidate kinds.
  struct Candidate {
    const DatumClass* dc;
    TransformKind kind;
    PartitionShape shape;
    i64 chunk;
    DecisionReason reason;
  };
  std::vector<Candidate> cands;

  for (const auto& d : report.data) {
    if (d.is_lock) {
      if (opt.enable_lock_pad)
        out.decisions.push_back({d.datum, TransformKind::kLockPad, -1,
                                 PartitionShape::kBlocked, 1,
                                 {ReasonCode::kLockAlwaysPadded}, {}});
      continue;
    }
    if (d.read_weight + d.write_weight < min_weight) continue;
    if (d.writes == Pattern::kPerProcess && d.writer_count >= 2 &&
        d.pid_dim >= 0 && reads_admit(d)) {
      auto shape = detect_partition_shape(writes_by_datum[d.datum], sum,
                                          d.datum, d.pid_dim);
      if (shape.has_value()) {
        TransformKind kind = d.pid_dim_is_field_dim
                                 ? TransformKind::kIndirection
                                 : TransformKind::kGroupTranspose;
        DecisionReason reason;
        reason.code = ReasonCode::kPerProcessWrites;
        reason.read_pattern = d.reads;
        cands.push_back({&d, kind, shape->first, shape->second, reason});
      }
      continue;
    }
    if (d.writes == Pattern::kSharedNonLocal && d.writer_count >= 2 &&
        (d.reads == Pattern::kSharedNonLocal ||
         d.reads == Pattern::kNone) &&
        opt.enable_pad_align) {
      i64 elem_count = 1;
      for (i64 e : d.extents) elem_count *= e;
      if (elem_count * block_size > opt.pad_footprint_limit)
        continue;  // judicious padding: blowing up the data set would cost
                   // more in capacity/conflict misses than it saves
      out.decisions.push_back(
          {d.datum, TransformKind::kPadAlign, -1, PartitionShape::kBlocked,
           1, {ReasonCode::kSharedNonLocal}, {}});
      continue;
    }
  }

  // Pass 2: resolve struct-level consensus for group&transpose of struct
  // arrays (a field-level candidate whose pid dim is an *array* dim needs
  // every accessed field of the symbol to agree before the whole element
  // can be moved).
  std::map<int, std::vector<const Candidate*>> by_sym;
  for (const auto& c : cands) by_sym[c.dc->datum.sym].push_back(&c);

  for (const auto& c : cands) {
    if (c.kind == TransformKind::kIndirection) {
      if (!opt.enable_indirection) continue;
      out.decisions.push_back({c.dc->datum, TransformKind::kIndirection,
                               c.dc->pid_dim, c.shape, c.chunk, c.reason,
                               {}});
      continue;
    }
    if (!opt.enable_group_transpose) continue;
    if (c.dc->datum.field < 0) {
      // Scalar-element array: symbol-level decision directly.
      out.decisions.push_back({c.dc->datum, TransformKind::kGroupTranspose,
                               c.dc->pid_dim, c.shape, c.chunk, c.reason,
                               {}});
      continue;
    }
    // Field-level candidate with an array pid dim: consensus across all
    // accessed fields of the symbol.
    int sym = c.dc->datum.sym;
    if (out.find({sym, -1}) != nullptr) continue;  // already decided
    bool consensus = true;
    int accessed_fields = 0;
    for (const auto& d : report.data) {
      if (d.datum.sym != sym || d.is_lock) continue;
      ++accessed_fields;
      const Candidate* fc = nullptr;
      for (const Candidate* x : by_sym[sym])
        if (x->dc->datum == d.datum) fc = x;
      if (fc == nullptr || fc->kind != TransformKind::kGroupTranspose ||
          fc->dc->pid_dim != c.dc->pid_dim || fc->shape != c.shape) {
        // Read-only fields whose sections are per-process or unshared do
        // not block moving the element.
        bool benign = d.write_weight == 0 &&
                      (d.reads == Pattern::kPerProcess ||
                       d.reads == Pattern::kNone);
        if (!benign) {
          consensus = false;
          break;
        }
      }
    }
    if (consensus && accessed_fields > 0) {
      DecisionReason reason;
      reason.code = ReasonCode::kStructConsensus;
      reason.dim = c.dc->pid_dim;
      out.decisions.push_back({{sym, -1}, TransformKind::kGroupTranspose,
                               c.dc->pid_dim, c.shape, c.chunk, reason, {}});
    }
  }
  return out;
}

}  // namespace fsopt
