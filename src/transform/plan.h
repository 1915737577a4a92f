// Builds the transformed memory layout from a set of transformation
// decisions: the concrete implementation of group & transpose,
// indirection, pad & align and lock padding (§3.2).
#pragma once

#include "layout/layout.h"
#include "transform/plan_ir.h"

namespace fsopt {

/// Produce the transformed layout for `prog` under `transforms`.
/// `block_size` is the coherence-unit size the transformations pad/align
/// to (the KSR2's is 128 bytes; the simulation study sweeps 4-256) — the
/// driver threads CompileOptions::block_size through, deliberately with
/// no default so a forgotten call site cannot desynchronize the knob.
/// With an empty TransformPlan this degenerates to identity_layout().
/// Throws InternalError naming the size when `block_size` is not a
/// positive multiple of the 4-byte word.
LayoutPlan build_layout(const Program& prog, const TransformPlan& transforms,
                        i64 block_size);

}  // namespace fsopt
