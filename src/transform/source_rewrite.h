// Executable source-to-source restructuring.
//
// The paper's system is a source-to-source restructurer built into
// Parafrase-2: it emits a transformed C program.  rewrite_to_source does
// the same for PPL — it produces a *runnable* PPL program whose ordinary
// declaration-order layout realizes the chosen transformations:
//
//   * group & transpose:  a[N] interleaved        -> a__gt[P][slots⊕pad]
//                         a[N] blocked by C       -> a__gt[N/C][C⊕pad]
//                         a[R][P] / a[P][R]       -> a__gt[P][R⊕pad]
//   * indirection:        g[N].v[P] extracted     -> g__v[P][N⊕pad]
//     (PPL has no pointers; for statically allocated arrays the
//      per-process heap areas of Figure 2b reduce to this extraction,
//      minus the pointer-load overhead)
//   * pad & align:        x -> x__pad[words];  a[N] -> a__pad[N][words]
//   * lock padding:       l -> l__pad[words];  ls[N] -> ls__pad[N][words]
//
// plus alignment filler so every padded object starts on a coherence-unit
// boundary.  Every access in every function body is rewritten
// accordingly.  Decisions that have no PPL expression (blocked 2-D
// chunks, the intra-datum moves, the barrier stride) are skipped and
// reported in `skipped`.
//
// An empty plan prints the program as written, so this is also the one
// PPL pretty-printer: compiling its output and printing again gives the
// same text.
#pragma once

#include <string>
#include <vector>

#include "transform/decision.h"

namespace fsopt {

struct SourceRewriteResult {
  std::string source;
  /// Decisions that could not be expressed in PPL (left untransformed).
  std::vector<std::string> skipped;
  /// Renamed datums: original name -> (new name, "2d"/"pad" mapping note).
  std::vector<std::pair<std::string, std::string>> renames;
};

SourceRewriteResult rewrite_to_source(const Program& prog,
                                      const TransformPlan& transforms,
                                      i64 block_size);

}  // namespace fsopt
