// Call graph construction and bottom-up (reverse topological) ordering.
//
// The paper's interprocedural stages (PDV detection, summary side
// effects) walk the call sites and process functions bottom-up over an
// acyclic call graph, translating callee summaries into caller context at
// each call site.
#pragma once

#include <functional>
#include <vector>

#include "lang/ast.h"

namespace fsopt {

/// One call site: the call expression and the statement containing it.
struct CallSite {
  const FuncDecl* caller = nullptr;
  const FuncDecl* callee = nullptr;
  const Expr* call = nullptr;
};

class CallGraph {
 public:
  /// Build from a sema-checked program.
  explicit CallGraph(const Program& prog);

  /// All call sites in the program.
  const std::vector<CallSite>& sites() const { return sites_; }

  /// Direct callees of `fn` (deduplicated).
  const std::vector<const FuncDecl*>& callees(const FuncDecl& fn) const;

  /// Functions in bottom-up order: every function appears after all of its
  /// callees.  Requires the (sema-enforced) absence of recursion.
  const std::vector<const FuncDecl*>& bottom_up() const { return order_; }

  /// True if `fn` is reachable from main.
  bool reachable_from_main(const FuncDecl& fn) const;

 private:
  const Program& prog_;
  std::vector<CallSite> sites_;
  std::vector<std::vector<const FuncDecl*>> callees_;  // by function id
  std::vector<const FuncDecl*> order_;
  std::vector<bool> reachable_;
};

/// Visit every expression in a statement tree (pre-order).
void for_each_expr(const Stmt& s, const std::function<void(const Expr&)>& fn);

/// Visit every statement in a tree (pre-order), including `s` itself.
void for_each_stmt(const Stmt& s, const std::function<void(const Stmt&)>& fn);

}  // namespace fsopt
