#include "transform/plan.h"

namespace fsopt {

namespace {

constexpr i64 kPtrSize = 8;

struct GroupMember {
  const GlobalSym* sym;
  const TransformDecision* decision;
  std::vector<i64> region_extents;  // extents with pid dim replaced by C
  i64 chunk_bytes = 0;
  i64 region_off = 0;  // offset of this member inside each region
};

struct PendingIndirection {
  const GlobalSym* sym;
  int field;
  const TransformDecision* decision;
  i64 ptr_off = 0;  // pointer-slot offset inside the rebuilt element
};

struct PendingSplit {
  const GlobalSym* sym;
  const TransformDecision* decision;
};

}  // namespace

LayoutPlan build_layout(const Program& prog, const TransformPlan& transforms,
                        i64 block_size) {
  const i64 B = block_size;
  // Every compile path (--block, --plan-in, the planners) lays out here,
  // so this is where an impossible coherence unit is turned away.
  FSOPT_CHECK(B >= 4, "block size " + std::to_string(B) +
                          " B is below the 4-byte word");
  FSOPT_CHECK(B % 4 == 0, "block size " + std::to_string(B) +
                              " B is not a multiple of the 4-byte word");
  LayoutPlan plan;
  i64 cursor = 0;

  std::vector<GroupMember> group;
  std::vector<PendingIndirection> indirections;
  std::vector<PendingSplit> splits;

  // The interpreter's central barrier is not a program global; its only
  // layout knob is the stride between its three words, carried on the
  // plan and consumed by interp/compile.cpp when placing the barrier
  // region.
  if (const TransformDecision* bd = transforms.find({kBarrierSym, -1}))
    if (bd->kind == TransformKind::kIntraPad && bd->chunk > 4)
      plan.set_barrier_stride(bd->chunk);

  for (const auto& g : prog.globals) {
    const TransformDecision* sd = transforms.find({g->id, -1});

    if (sd != nullptr && sd->kind == TransformKind::kGroupTranspose) {
      // Deferred: allocated in the per-process group region below.
      GroupMember m;
      m.sym = g.get();
      m.decision = sd;
      m.region_extents.assign(g->dims.begin(), g->dims.end());
      i64 P = prog.nprocs;
      i64 ext = m.region_extents[static_cast<size_t>(sd->pid_dim)];
      i64 slots = sd->shape == PartitionShape::kBlocked
                      ? sd->chunk
                      : (ext + P - 1) / P;
      m.region_extents[static_cast<size_t>(sd->pid_dim)] = slots;
      i64 n = 1;
      for (i64 e : m.region_extents) n *= e;
      m.chunk_bytes = n * g->elem.byte_size();
      group.push_back(m);
      continue;
    }

    if (sd != nullptr && sd->kind == TransformKind::kIntraPad) {
      // Stride consecutive elements apart by the decision's stride (not
      // this compile's B): the separation then holds at every block size
      // up to the stride, which is what the multi-size repair loop
      // scores against.
      i64 stride = std::max(sd->chunk, g->elem.byte_size());
      stride = round_up(stride, g->elem.alignment());
      cursor = round_up(cursor, std::max<i64>(sd->chunk, 1));
      DatumLayout l;
      l.base = cursor;
      std::vector<i64> strides = row_major_strides(g->dims, stride);
      for (i64 s : strides) l.dims.push_back({1, 0, s});
      l.elem_size_override = stride;
      plan.set(g->id, -1, std::move(l));
      cursor += stride * g->elem_count();
      continue;
    }

    if (sd != nullptr && sd->kind == TransformKind::kFieldReorder &&
        g->elem.is_struct) {
      // Re-pack the struct with fields in the decision's permutation
      // order, natural alignment within the new order.
      const StructType& st = *g->elem.strct;
      FSOPT_CHECK(sd->fields.size() == st.fields.size(),
                  "field-reorder permutation size mismatch for " + g->name);
      std::vector<i64> offs(st.fields.size(), 0);
      i64 off = 0;
      i64 align = 1;
      for (int fi : sd->fields) {
        FSOPT_CHECK(fi >= 0 && fi < static_cast<int>(st.fields.size()),
                    "field-reorder index out of range for " + g->name);
        const StructField& f = st.fields[static_cast<size_t>(fi)];
        i64 a = scalar_size(f.kind);
        off = round_up(off, a);
        offs[static_cast<size_t>(fi)] = off;
        off += f.byte_size();
        align = std::max(align, a);
      }
      i64 elem = round_up(std::max<i64>(off, 1), align);
      // Block-align the base: the planner's separation check reasons
      // about which block each repacked field lands in, which is only
      // sound when offset arithmetic starts at a block boundary.
      cursor = round_up(cursor, std::max(align, B));
      DatumLayout l;
      l.base = cursor;
      l.field_offsets = offs;
      l.elem_size_override = elem;
      std::vector<i64> strides = row_major_strides(g->dims, elem);
      for (i64 s : strides) l.dims.push_back({1, 0, s});
      plan.set(g->id, -1, std::move(l));
      cursor += elem * g->elem_count();
      continue;
    }

    if (sd != nullptr && sd->kind == TransformKind::kHotColdSplit &&
        g->elem.is_struct) {
      // Cold fields keep a compact base element here; the hot fields are
      // hoisted into their own block-aligned regions below (field-level
      // layouts take precedence in LayoutPlan::resolve, so the base
      // element's slots for hot fields are simply never addressed).
      const StructType& st = *g->elem.strct;
      std::vector<char> hot(st.fields.size(), 0);
      for (int fi : sd->fields) {
        FSOPT_CHECK(fi >= 0 && fi < static_cast<int>(st.fields.size()),
                    "hot-cold-split field index out of range for " + g->name);
        hot[static_cast<size_t>(fi)] = 1;
      }
      std::vector<i64> offs(st.fields.size(), 0);
      i64 off = 0;
      i64 align = 1;
      for (size_t fi = 0; fi < st.fields.size(); ++fi) {
        if (hot[fi]) continue;
        const StructField& f = st.fields[fi];
        i64 a = scalar_size(f.kind);
        off = round_up(off, a);
        offs[fi] = off;
        off += f.byte_size();
        align = std::max(align, a);
      }
      i64 elem = round_up(std::max<i64>(off, 1), align);
      cursor = round_up(cursor, align);
      DatumLayout l;
      l.base = cursor;
      l.field_offsets = offs;
      l.elem_size_override = elem;
      std::vector<i64> strides = row_major_strides(g->dims, elem);
      for (i64 s : strides) l.dims.push_back({1, 0, s});
      plan.set(g->id, -1, std::move(l));
      cursor += elem * g->elem_count();
      splits.push_back({g.get(), sd});
      continue;
    }

    if (sd != nullptr && (sd->kind == TransformKind::kPadAlign ||
                          sd->kind == TransformKind::kLockPad)) {
      // Each element (or the scalar) gets its own coherence block.
      cursor = round_up(cursor, B);
      i64 padded_elem = round_up(g->elem.byte_size(), B);
      DatumLayout l;
      l.base = cursor;
      std::vector<i64> strides = row_major_strides(g->dims, padded_elem);
      for (i64 s : strides) l.dims.push_back({1, 0, s});
      l.elem_size_override = padded_elem;
      plan.set(g->id, -1, std::move(l));
      cursor += padded_elem * g->elem_count();
      continue;
    }

    // Default allocation — possibly with a rebuilt struct layout when
    // field-level decisions (indirection, pad, lock-pad) apply.
    i64 elem = g->elem.byte_size();
    DatumLayout l;
    bool rebuilt = false;
    if (g->elem.is_struct) {
      const StructType& st = *g->elem.strct;
      std::vector<i64> offs(st.fields.size(), 0);
      std::vector<const TransformDecision*> fdec(st.fields.size(), nullptr);
      for (size_t fi = 0; fi < st.fields.size(); ++fi)
        fdec[fi] = transforms.find({g->id, static_cast<int>(fi)});
      bool any = false;
      for (const auto* d : fdec) any = any || d != nullptr;
      if (any) {
        rebuilt = true;
        i64 off = 0;
        i64 align = 1;
        for (size_t fi = 0; fi < st.fields.size(); ++fi) {
          const StructField& f = st.fields[fi];
          const TransformDecision* d = fdec[fi];
          if (d != nullptr && d->kind == TransformKind::kIndirection) {
            off = round_up(off, kPtrSize);
            offs[fi] = off;
            off += kPtrSize;
            align = std::max(align, kPtrSize);
          } else if (d != nullptr &&
                     (d->kind == TransformKind::kPadAlign ||
                      d->kind == TransformKind::kLockPad)) {
            off = round_up(off, B);
            offs[fi] = off;
            off += round_up(f.byte_size(), B);
            align = std::max(align, B);
          } else {
            i64 a = scalar_size(f.kind);
            off = round_up(off, a);
            offs[fi] = off;
            off += f.byte_size();
            align = std::max(align, a);
          }
        }
        elem = round_up(std::max<i64>(off, 1), align);
        l.field_offsets = offs;
        l.elem_size_override = elem;
        for (size_t fi = 0; fi < st.fields.size(); ++fi) {
          const TransformDecision* d = fdec[fi];
          if (d != nullptr && d->kind == TransformKind::kIndirection)
            indirections.push_back(
                {g.get(), static_cast<int>(fi), d, offs[fi]});
        }
      }
    }
    i64 align = rebuilt ? std::max<i64>(g->elem.alignment(), kPtrSize)
                        : g->elem.alignment();
    cursor = round_up(cursor, align);
    l.base = cursor;
    std::vector<i64> strides = row_major_strides(g->dims, elem);
    for (i64 s : strides) l.dims.push_back({1, 0, s});
    plan.set(g->id, -1, std::move(l));
    cursor += elem * g->elem_count();
  }

  // --- Group & transpose region -------------------------------------------
  if (!group.empty()) {
    i64 region_cursor = 0;
    for (GroupMember& m : group) {
      region_cursor = round_up(region_cursor, m.sym->elem.alignment());
      m.region_off = region_cursor;
      region_cursor += m.chunk_bytes;
    }
    i64 R = round_up(region_cursor, B);  // per-process region stride
    i64 group_base = round_up(cursor, B);
    i64 P = prog.nprocs;

    for (const GroupMember& m : group) {
      const TransformDecision& d = *m.decision;
      i64 elem = m.sym->elem.byte_size();
      std::vector<i64> rm = row_major_strides(m.region_extents, elem);
      DatumLayout l;
      l.base = group_base + m.region_off;
      for (size_t dim = 0; dim < m.region_extents.size(); ++dim) {
        if (static_cast<int>(dim) == d.pid_dim) {
          i64 rmd = rm[dim];
          if (d.shape == PartitionShape::kBlocked) {
            // (x % C) indexes within the chunk, (x / C) selects the region.
            l.dims.push_back({d.chunk, rmd, R});
          } else {
            // (x % P) selects the region, (x / P) indexes within the chunk.
            l.dims.push_back({P, R, rmd});
          }
        } else {
          l.dims.push_back({1, 0, rm[dim]});
        }
      }
      plan.set(m.sym->id, -1, std::move(l));
    }
    cursor = group_base + R * P;
  }

  // --- Hot-field regions (hot/cold split) -----------------------------------
  // One block-aligned, block-padded region per hot field: two hot fields
  // (or a hot field and any cold data) can never share a coherence unit.
  for (const PendingSplit& ps : splits) {
    const GlobalSym& g = *ps.sym;
    const StructType& st = *g.elem.strct;
    for (int fi : ps.decision->fields) {
      const StructField& f = st.fields[static_cast<size_t>(fi)];
      i64 hot_base = round_up(cursor, B);
      DatumLayout fl;
      fl.base = hot_base;
      std::vector<i64> rm = row_major_strides(g.dims, f.byte_size());
      for (i64 s : rm) fl.dims.push_back({1, 0, s});
      if (f.array_len > 0) fl.dims.push_back({1, 0, scalar_size(f.kind)});
      plan.set(g.id, fi, std::move(fl));
      cursor = hot_base + round_up(g.elem_count() * f.byte_size(), B);
    }
  }

  // --- Indirection heaps ----------------------------------------------------
  for (const PendingIndirection& pi : indirections) {
    const GlobalSym& g = *pi.sym;
    const StructField& f =
        g.elem.strct->fields[static_cast<size_t>(pi.field)];
    i64 scalar = scalar_size(f.kind);
    i64 n = g.elem_count();
    i64 region = round_up(n * scalar, B);
    i64 heap_base = round_up(cursor, B);
    i64 regions = f.array_len;  // one per possible field-dim index
    cursor = heap_base + region * regions;

    // Datum address: heap_base + idx[field_dim]*region + linear(array dims).
    DatumLayout fl;
    fl.base = heap_base;
    std::vector<i64> rm = row_major_strides(g.dims, scalar);
    for (i64 s : rm) fl.dims.push_back({1, 0, s});
    fl.dims.push_back({1, 0, region});  // field-array dim selects region

    // Pointer slot: in the rebuilt element, at pi.ptr_off.
    const DatumLayout* sl = plan.get(g.id, -1);
    FSOPT_CHECK(sl != nullptr, "indirection target symbol not laid out");
    IndirectionInfo info;
    info.ptr_base = sl->base;
    info.ptr_dims = sl->dims;
    info.ptr_off = pi.ptr_off;
    fl.indirection = info;
    plan.set(g.id, pi.field, std::move(fl));
  }

  plan.set_total_bytes(cursor);
  return plan;
}

}  // namespace fsopt
