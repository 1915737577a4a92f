#include "analysis/perprocess.h"

namespace fsopt {

std::optional<i64> eval_for_pid(const Expr& e, const PdvResult& pdvs,
                                i64 pid_value, const AffineEnv* env) {
  switch (e.kind) {
    case ExprKind::kIntLit:
      return e.int_value;
    case ExprKind::kVar: {
      if (e.local == nullptr) return std::nullopt;  // global
      if (e.local == pdvs.pid) return pid_value;
      if (env != nullptr) {
        Affine a = env->value_of(e.local);
        if (a.valid()) return a.eval_with(pdvs.pid, pid_value);
      }
      return std::nullopt;
    }
    case ExprKind::kUnary: {
      auto v = eval_for_pid(*e.children[0], pdvs, pid_value, env);
      if (!v) return std::nullopt;
      return e.un_op == UnOp::kNeg ? -*v : static_cast<i64>(*v == 0);
    }
    case ExprKind::kBinary: {
      auto l = eval_for_pid(*e.children[0], pdvs, pid_value, env);
      if (!l) return std::nullopt;
      // Short-circuit forms still need both sides decidable to be safe
      // unless the left side already decides the result.
      if (e.bin_op == BinOp::kAnd && *l == 0) return 0;
      if (e.bin_op == BinOp::kOr && *l != 0) return 1;
      auto r = eval_for_pid(*e.children[1], pdvs, pid_value, env);
      if (!r) return std::nullopt;
      switch (e.bin_op) {
        case BinOp::kAdd: return *l + *r;
        case BinOp::kSub: return *l - *r;
        case BinOp::kMul: return *l * *r;
        case BinOp::kDiv:
          if (*r == 0) return std::nullopt;
          return *l / *r;
        case BinOp::kRem:
          if (*r == 0) return std::nullopt;
          return *l % *r;
        case BinOp::kEq: return static_cast<i64>(*l == *r);
        case BinOp::kNe: return static_cast<i64>(*l != *r);
        case BinOp::kLt: return static_cast<i64>(*l < *r);
        case BinOp::kLe: return static_cast<i64>(*l <= *r);
        case BinOp::kGt: return static_cast<i64>(*l > *r);
        case BinOp::kGe: return static_cast<i64>(*l >= *r);
        case BinOp::kAnd: return static_cast<i64>(*l != 0 && *r != 0);
        case BinOp::kOr: return static_cast<i64>(*l != 0 || *r != 0);
      }
      return std::nullopt;
    }
    default:
      return std::nullopt;
  }
}

std::optional<PidSet> pids_satisfying(const Expr& cond, const PdvResult& pdvs,
                                      i64 nprocs, const AffineEnv* env) {
  PidSet out;
  for (i64 p = 0; p < nprocs; ++p) {
    auto v = eval_for_pid(cond, pdvs, p, env);
    if (!v.has_value()) return std::nullopt;
    if (*v != 0) out.set(p);
  }
  return out;
}

}  // namespace fsopt
