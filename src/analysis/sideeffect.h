// Stage 3: interprocedural, flow-insensitive summary side-effect analysis
// with static profiling (§3.1).
//
// For every function we compute a summary: the set of shared data accesses
// it (transitively) performs, each described by a bounded regular section
// descriptor over the datum's dimensions, a static execution-frequency
// weight, and (once translated to main) the set of processes performing
// the access and the barrier phase it occurs in.  Summaries are computed
// bottom-up over the acyclic call graph; at each call site the callee's
// descriptors are rewritten by substituting actual-parameter affine forms
// for formals — the classic Callahan/Kennedy translation, carrying PDVs
// through so implicit array partitioning remains visible at main.
#pragma once

#include <compare>

#include "analysis/pdv.h"
#include "analysis/phases.h"
#include "analysis/pidset.h"
#include "rsd/rsd.h"

namespace fsopt {

/// Identifies a transformable datum: a global symbol, or one field of a
/// global struct array (field >= 0).
struct DatumKey {
  int sym = -1;
  int field = -1;
  auto operator<=>(const DatumKey&) const = default;
};

/// Reserved pseudo-symbol id for the interpreter's central barrier — not
/// a program global, but an addressable (and falsely shared) datum the
/// address map spells "<barrier>".  Plans may carry decisions against
/// {kBarrierSym, -1} (currently kIntraPad, spreading the barrier's three
/// words across separate coherence units).
inline constexpr int kBarrierSym = -2;
inline constexpr const char* kBarrierName = "<barrier>";

/// One summarized access to shared data.
struct AccessRecord {
  DatumKey datum;
  bool is_write = false;
  bool is_lock_op = false;  // generated by lock()/unlock()
  Rsd rsd;                  // rank = array dims (+ field-array dim, last)
  double weight = 1.0;      // static execution-frequency estimate
  PidSet pids;              // which processes perform it (main level)
  int phase = 0;            // barrier phase (main level)
  SourceLoc loc;
};

/// Per-function summary (records are in terms of the function's formals).
struct FuncSummary {
  std::vector<AccessRecord> records;
};

/// Whole-program result of the three analysis stages.
struct ProgramSummary {
  const Program* prog = nullptr;
  i64 nprocs = 1;
  PdvResult pdvs;
  PhaseInfo phases;
  /// Fully translated records at main level.
  std::vector<AccessRecord> records;
  /// Raw per-function summaries (by function id), useful for reporting.
  std::vector<FuncSummary> func_summaries;

  /// Dimension extents of a datum (array dims, plus the field-array dim).
  std::vector<i64> datum_extents(const DatumKey& k) const;
  const GlobalSym* datum_sym(const DatumKey& k) const;
  std::string datum_name(const DatumKey& k) const;
};

/// Default static-profile trip estimates for loops whose bounds cannot be
/// evaluated at compile time.
inline constexpr double kUnknownForTrips = 10.0;
inline constexpr double kUnknownWhileTrips = 16.0;
inline constexpr double kUnknownBranchProb = 0.5;

/// Run the analysis stages on a sema-checked program, in their one order:
/// callgraph, pdv, phases, sideeffects.  Each runs inside a `pass` obs span
/// named after it that carries its domain counters (driver/pipeline.h).
ProgramSummary analyze_program(const Program& prog);

}  // namespace fsopt
