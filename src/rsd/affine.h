// Affine symbolic expressions: c0 + Σ ci·vi over program variables.
//
// These are the index expressions the side-effect analysis manipulates.
// Variables are function locals (formals, induction variables, PDVs); by
// the time summaries reach main, the only variable left standing is the
// process differentiating variable `pid` (plus "unknown" poison).
#pragma once

#include <map>
#include <optional>
#include <string>

#include "lang/ast.h"

namespace fsopt {

class Affine {
 public:
  /// The invalid ("not affine") value.
  Affine() : valid_(false) {}

  static Affine constant(i64 c);
  static Affine variable(const LocalSym* v, i64 coeff = 1, i64 c = 0);
  static Affine invalid() { return Affine(); }

  bool valid() const { return valid_; }
  bool is_constant() const { return valid_ && terms_.empty(); }
  i64 constant_value() const;  // requires is_constant()
  i64 const_term() const { return c0_; }

  /// Coefficient of `v` (0 if absent).
  i64 coeff(const LocalSym* v) const;
  bool depends_on(const LocalSym* v) const { return coeff(v) != 0; }
  /// Number of distinct variables with nonzero coefficient.
  int num_vars() const { return static_cast<int>(terms_.size()); }
  /// The single variable, if exactly one (else nullptr).
  const LocalSym* sole_var() const;
  const std::map<const LocalSym*, i64>& terms() const { return terms_; }

  Affine operator+(const Affine& o) const;
  Affine operator-(const Affine& o) const;
  Affine operator*(const Affine& o) const;  // valid only if one side const
  Affine negate() const;

  bool operator==(const Affine& o) const;

  /// Replace `v` with `repl` (distributes the coefficient).
  Affine subst(const LocalSym* v, const Affine& repl) const;

  /// Evaluate with `v` bound to `value`; nullopt if other variables remain.
  std::optional<i64> eval_with(const LocalSym* v, i64 value) const;
  /// Evaluate a constant-only affine; nullopt if variables remain.
  std::optional<i64> eval() const;

  std::string str() const;

 private:
  bool valid_ = true;
  i64 c0_ = 0;
  std::map<const LocalSym*, i64> terms_;  // coeff != 0 invariant
};

/// Build the affine form of an expression, looking local variables up in
/// `env` (a map from local to its current affine value; absent = the local
/// itself is the symbol, which callers use for formals/induction vars).
/// Returns invalid() for anything non-affine (global loads, calls, ...).
class AffineEnv {
 public:
  /// Binding for a local: either a known affine value or "opaque" (the
  /// local stands for itself, e.g. formals and induction variables).
  void bind(const LocalSym* v, const Affine& value) { env_[v] = value; }
  void make_opaque(const LocalSym* v) { env_[v] = Affine::variable(v); }
  void clear(const LocalSym* v) { env_.erase(v); }
  /// Value of `v`: bound value, or invalid() if never bound (uninitialized
  /// locals are treated as unknown).
  Affine value_of(const LocalSym* v) const;
  bool has(const LocalSym* v) const { return env_.count(v) != 0; }

  /// Join with another environment (control-flow merge): bindings that
  /// disagree become invalid.
  void join(const AffineEnv& other);

 private:
  std::map<const LocalSym*, Affine> env_;
};

/// Affine form of expression `e` under `env`.
Affine affine_of(const Expr& e, const AffineEnv& env);

}  // namespace fsopt
