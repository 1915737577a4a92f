// Stage 1b: per-process control flow.
//
// Decides branch conditions that are functions of the PDV (e.g.
// `if (pid == 0)`, `if (pid % 2 == 1)`) for every process.  The side-effect
// walk (analysis/sideeffect.h) calls pids_satisfying at each `if` of main
// and narrows the pids of the records each side produces, so the set of
// processes that execute a statement of main lives in its records' pids.
// Conditions that depend on shared data or unknown locals are undecidable:
// both branches are assumed executable by all incoming processes.
#pragma once

#include "analysis/pdv.h"
#include "analysis/pidset.h"

namespace fsopt {

/// Evaluate an int expression for a concrete pid value.  Locals are
/// resolved through `env` when provided (their affine form in terms of the
/// pid parameter), else only the pid parameter itself is known.  Returns
/// nullopt when the expression depends on globals, calls, or unknown
/// locals.
std::optional<i64> eval_for_pid(const Expr& e, const PdvResult& pdvs,
                                i64 pid_value,
                                const AffineEnv* env = nullptr);

/// The set of pids (out of `nprocs`) for which `cond` evaluates nonzero,
/// or nullopt when the condition is not pid-decidable.
std::optional<PidSet> pids_satisfying(const Expr& cond, const PdvResult& pdvs,
                                      i64 nprocs,
                                      const AffineEnv* env = nullptr);

}  // namespace fsopt
