// Abstract syntax tree for PPL.
//
// The tree is owned by a Program.  Nodes carry a kind tag for fast
// switch-based dispatch in the analyses, the bytecode compiler and the
// source rewriter (transform/source_rewrite), which also prints them.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "lang/types.h"

namespace fsopt {

class FuncDecl;
struct GlobalSym;
struct LocalSym;

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind : u8 {
  kIntLit,
  kRealLit,
  kVar,     // local variable or function parameter
  kIndex,   // base[index]
  kField,   // base.field
  kBinary,
  kUnary,
  kCall,    // user function or intrinsic
};

enum class BinOp : u8 {
  kAdd, kSub, kMul, kDiv, kRem,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
};

enum class UnOp : u8 { kNeg, kNot };

/// Intrinsic functions available to PPL programs.
enum class Intrinsic : u8 {
  kNone,
  kLcg,   // lcg(int) -> int : one step of a linear congruential generator
  kAbs,   // abs(x) -> typeof(x)
  kMin,   // min(a, b)
  kMax,   // max(a, b)
  kItor,  // itor(int) -> real
  kRtoi,  // rtoi(real) -> int (truncates)
  kSqrt,  // sqrt(real) -> real
};

class Expr;
using ExprPtr = std::unique_ptr<Expr>;

class Expr {
 public:
  ExprKind kind;
  SourceLoc loc;
  ValueType type = ValueType::kVoid;  // filled by sema

  // kIntLit / kRealLit
  i64 int_value = 0;
  double real_value = 0.0;

  // kVar
  std::string name;
  const LocalSym* local = nullptr;  // resolved by sema

  // kIndex: children[0] = base, children[1] = index
  // kField: children[0] = base; `name` is the field; field_index resolved
  int field_index = -1;

  // kBinary: children[0], children[1]; kUnary: children[0]
  BinOp bin_op = BinOp::kAdd;
  UnOp un_op = UnOp::kNeg;

  // kCall: `name` is callee; children = args
  const FuncDecl* callee = nullptr;
  Intrinsic intrinsic = Intrinsic::kNone;

  // kVar/kIndex/kField chains rooted at a global: resolved by sema.
  const GlobalSym* global = nullptr;  // set on the *root* kVar node

  std::vector<ExprPtr> children;

  explicit Expr(ExprKind k, SourceLoc l) : kind(k), loc(l) {}

  static ExprPtr make_int(i64 v, SourceLoc loc);
  static ExprPtr make_real(double v, SourceLoc loc);

  /// True if this expression denotes a memory location (lvalue chain).
  bool is_lvalue_shape() const {
    return kind == ExprKind::kVar || kind == ExprKind::kIndex ||
           kind == ExprKind::kField;
  }
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StmtKind : u8 {
  kBlock,
  kLocalDecl,
  kAssign,
  kIf,
  kWhile,
  kFor,
  kExpr,
  kReturn,
  kBarrier,
  kLock,
  kUnlock,
};

class Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

class Stmt {
 public:
  StmtKind kind;
  SourceLoc loc;

  // kBlock
  std::vector<StmtPtr> stmts;

  // kLocalDecl
  std::string name;
  ScalarKind decl_kind = ScalarKind::kInt;
  const LocalSym* local = nullptr;  // resolved by sema
  ExprPtr init;                     // optional

  // kAssign: target (lvalue), value
  ExprPtr target;
  ExprPtr value;

  // kIf: cond, then_block, else_block (optional)
  // kWhile: cond, body
  ExprPtr cond;
  StmtPtr then_block;
  StmtPtr else_block;
  StmtPtr body;

  // kFor: `init_stmt` (assign), cond, `step_stmt` (assign), body
  StmtPtr init_stmt;
  StmtPtr step_stmt;

  // kExpr / kReturn: value above; kLock/kUnlock: target is the lock lvalue

  explicit Stmt(StmtKind k, SourceLoc l) : kind(k), loc(l) {}
};

// ---------------------------------------------------------------------------
// Declarations / symbols
// ---------------------------------------------------------------------------

/// A function-local variable or parameter (private to each process).
struct LocalSym {
  std::string name;
  ScalarKind kind = ScalarKind::kInt;
  int slot = -1;         // frame slot index assigned by sema
  bool is_param = false;
  SourceLoc loc;
};

/// A shared global datum: scalar, 1/2-D array of scalars, or 1/2-D array
/// of structs.  All globals are shared among all processes (§2).
struct GlobalSym {
  int id = -1;
  std::string name;
  ElemType elem;
  std::vector<i64> dims;  // outer-to-inner array extents; may be empty
  SourceLoc loc;

  i64 elem_count() const {
    i64 n = 1;
    for (i64 d : dims) n *= d;
    return n;
  }
  i64 byte_size() const { return elem_count() * elem.byte_size(); }
  bool is_lock() const {
    return !elem.is_struct && elem.scalar == ScalarKind::kLock;
  }
};

/// A user function.  `main(int pid)` is the SPMD entry executed by every
/// process; its `pid` parameter is the canonical process differentiating
/// variable (PDV).
class FuncDecl {
 public:
  std::string name;
  ValueType ret = ValueType::kVoid;
  std::vector<LocalSym*> params;  // subset of locals, in order
  std::vector<std::unique_ptr<LocalSym>> locals;
  StmtPtr body;
  SourceLoc loc;
  int id = -1;

  LocalSym* find_local(const std::string& n) const {
    for (const auto& l : locals)
      if (l->name == n) return l.get();
    return nullptr;
  }
};

/// Overrides for `param` declarations, applied when a program is parsed.
/// The driver uses this to set NPROCS and problem sizes per experiment.
using ParamOverrides = std::unordered_map<std::string, i64>;

/// A parsed (and, after sema, resolved) PPL program.
class Program {
 public:
  // Compile-time parameters (`param N = 64;`), after overrides.
  std::unordered_map<std::string, i64> params;
  // Declaration order matters for the *unoptimized* memory layout: globals
  // are laid out in the order they appear, which is how the false sharing
  // between adjacent busy scalars arises in the first place.
  std::vector<std::unique_ptr<StructType>> structs;
  std::vector<std::unique_ptr<GlobalSym>> globals;
  std::vector<std::unique_ptr<FuncDecl>> funcs;
  FuncDecl* main = nullptr;  // resolved by sema
  i64 nprocs = 0;            // value of NPROCS at compile time

  const StructType* find_struct(const std::string& n) const;
  const GlobalSym* find_global(const std::string& n) const;
  FuncDecl* find_func(const std::string& n) const;
};

// ---------------------------------------------------------------------------
// Resolved access paths
// ---------------------------------------------------------------------------

/// One array dimension of a resolved global access.  `index` points into
/// the expression tree (not owned).
struct DimAccess {
  i64 extent = 0;
  const Expr* index = nullptr;
};

/// A global lvalue flattened into (symbol, field, per-dim indices).
///
/// Examples:
///   x            -> {sym=x, field=-1, dims=[]}
///   a[i]         -> {sym=a, field=-1, dims=[i]}
///   g[i][j]      -> {sym=g, field=-1, dims=[i,j]}
///   nodes[i].w   -> {sym=nodes, field=w, dims=[i]}
///   nodes[i].v[p]-> {sym=nodes, field=v, dims=[i,p]}  (field-array dim last)
struct GlobalAccess {
  const GlobalSym* sym = nullptr;
  int field = -1;  // index into sym->elem.strct->fields, or -1
  std::vector<DimAccess> dims;
  ScalarKind scalar = ScalarKind::kInt;

  /// Number of leading dims that are array dims of the symbol itself (the
  /// rest — at most one — is a field-array dim).
  int array_dims = 0;
};

/// Resolve an lvalue expression chain into a GlobalAccess.  Returns
/// std::nullopt if the chain is rooted at a local variable.  Must only be
/// called on sema-checked trees.
std::optional<GlobalAccess> resolve_global_access(const Expr& e);

}  // namespace fsopt
