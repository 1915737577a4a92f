#include "transform/source_rewrite.h"

#include <cstdlib>
#include <map>
#include <set>
#include <sstream>

namespace fsopt {

namespace {

struct Rule {
  enum class Kind {
    kGt1dInterleaved,  // a[N]    -> nn[P][slots]     [E%P][E/P]
    kGt1dBlocked,      // a[N]    -> nn[N/C][C]       [E/C][E%C]
    kGt2d,             // a[..P..]-> nn[P][R]         [Epid][Eother]
    kExtract,          // g[N].v[P] -> nn[P][N]       [E2][E1]
    kPadScalar,        // x       -> nn[words]        [0]
    kPadArray1d,       // a[N]    -> nn[N][words]     [E][0]
  };
  Kind kind;
  std::string new_name;
  i64 p = 1;        // process/region count (outer extent)
  i64 c = 1;        // chunk for blocked 1-D
  i64 inner = 1;    // padded inner extent (elements)
  int pid_dim = 0;  // for kGt2d: which source dim selects the region
};

i64 elem_bytes(const GlobalSym& g) { return g.elem.byte_size(); }

/// Inner extent padded so each region/row occupies whole coherence units.
i64 padded_extent(i64 elems, i64 elem_size, i64 block) {
  return round_up(std::max<i64>(elems, 1) * elem_size, block) / elem_size;
}

class SourceRewriter {
 public:
  SourceRewriter(const Program& prog, const TransformPlan& transforms,
                 i64 block)
      : prog_(prog), transforms_(transforms), block_(block) {}

  SourceRewriteResult run() {
    build_rules();
    emit_params();
    emit_structs();
    emit_globals();
    emit_functions();
    result_.source = os_.str();
    return std::move(result_);
  }

 private:
  // -------------------------------------------------------------- rules --
  void skip(const TransformDecision& d, const std::string& why) {
    const std::string name =
        d.datum.sym == kBarrierSym
            ? std::string(kBarrierName)
            : prog_.globals[static_cast<size_t>(d.datum.sym)]->name;
    result_.skipped.push_back(name + ": " + why);
  }

  void build_rules() {
    for (const TransformDecision& d : transforms_.decisions) {
      // The barrier is not a program global: the interpreter places it,
      // so its stride has no declaration to rewrite.
      if (d.datum.sym == kBarrierSym) {
        skip(d, std::string(transform_name(d.kind)) +
                    " not expressible in PPL");
        continue;
      }
      const GlobalSym& g =
          *prog_.globals[static_cast<size_t>(d.datum.sym)];
      i64 eb = elem_bytes(g);
      Rule r;
      r.new_name = g.name + (d.kind == TransformKind::kGroupTranspose
                                 ? "__gt"
                                 : d.kind == TransformKind::kIndirection
                                       ? "__x"
                                       : "__pad");
      switch (d.kind) {
        case TransformKind::kGroupTranspose: {
          if (d.datum.field >= 0) {
            skip(d, "field-level group&transpose not expressible");
            continue;
          }
          if (g.dims.size() == 1) {
            i64 n = g.dims[0];
            if (d.shape == PartitionShape::kInterleaved) {
              r.kind = Rule::Kind::kGt1dInterleaved;
              r.p = prog_.nprocs;
              r.inner = padded_extent((n + r.p - 1) / r.p, eb, block_);
            } else {
              r.kind = Rule::Kind::kGt1dBlocked;
              r.c = d.chunk;
              r.p = (n + d.chunk - 1) / d.chunk;
              r.inner = padded_extent(d.chunk, eb, block_);
            }
          } else if (g.dims.size() == 2 && d.chunk == 1 &&
                     d.shape == PartitionShape::kBlocked) {
            r.kind = Rule::Kind::kGt2d;
            r.pid_dim = d.pid_dim;
            r.p = g.dims[static_cast<size_t>(d.pid_dim)];
            r.inner = padded_extent(g.dims[static_cast<size_t>(1 - d.pid_dim)],
                                    eb, block_);
          } else {
            skip(d, "group&transpose shape not expressible in PPL");
            continue;
          }
          break;
        }
        case TransformKind::kIndirection: {
          if (d.datum.field < 0 || g.dims.size() != 1) {
            skip(d, "indirection shape not expressible in PPL");
            continue;
          }
          const StructField& f =
              g.elem.strct->fields[static_cast<size_t>(d.datum.field)];
          r.kind = Rule::Kind::kExtract;
          r.new_name = g.name + "__" + f.name;
          r.p = f.array_len;
          r.inner = padded_extent(g.dims[0], scalar_size(f.kind), block_);
          extracted_[g.elem.strct].insert(d.datum.field);
          break;
        }
        case TransformKind::kPadAlign:
        case TransformKind::kLockPad: {
          if (d.datum.field >= 0) {
            skip(d, "field-level padding not expressible");
            continue;
          }
          i64 words = padded_extent(1, eb, block_);
          r.inner = words;
          if (g.dims.empty()) {
            r.kind = Rule::Kind::kPadScalar;
          } else if (g.dims.size() == 1) {
            r.kind = Rule::Kind::kPadArray1d;
            r.p = g.dims[0];
          } else {
            skip(d, "2-D element padding not expressible");
            continue;
          }
          break;
        }
        case TransformKind::kFieldReorder:
        case TransformKind::kHotColdSplit:
        case TransformKind::kIntraPad:
          // Intra-datum moves re-place fields and elements inside one
          // datum; no declaration-order layout of the same names does.
          skip(d, std::string(transform_name(d.kind)) +
                      " not expressible in PPL");
          continue;
        case TransformKind::kNone:
          continue;
      }
      rules_[{d.datum.sym, d.datum.field}] = std::move(r);
      result_.renames.push_back(
          {prog_.globals[static_cast<size_t>(d.datum.sym)]->name,
           rules_[{d.datum.sym, d.datum.field}].new_name});
    }
  }

  const Rule* rule_for(int sym, int field) const {
    auto it = rules_.find({sym, field});
    if (it != rules_.end()) return &it->second;
    auto it2 = rules_.find({sym, -1});
    return it2 != rules_.end() ? &it2->second : nullptr;
  }

  // ------------------------------------------------------- declarations --
  void emit_params() {
    std::map<std::string, i64> sorted(prog_.params.begin(),
                                      prog_.params.end());
    os_ << "// fsopt source-to-source output (coherence unit " << block_
        << " bytes)\n";
    for (const auto& [name, value] : sorted)
      os_ << "param " << name << " = " << value << ";\n";
    os_ << "\n";
  }

  void emit_structs() {
    for (const auto& st : prog_.structs) {
      os_ << "struct " << st->name << " {\n";
      int emitted = 0;
      auto ex = extracted_.find(st.get());
      for (size_t fi = 0; fi < st->fields.size(); ++fi) {
        if (ex != extracted_.end() && ex->second.count(static_cast<int>(fi)))
          continue;  // moved to a per-process area
        const StructField& f = st->fields[fi];
        os_ << "  " << scalar_name(f.kind) << " " << f.name;
        if (f.array_len > 0) os_ << "[" << f.array_len << "]";
        os_ << ";\n";
        ++emitted;
      }
      if (emitted == 0) os_ << "  int __unused;\n";
      os_ << "};\n\n";
    }
  }

  /// Natural-alignment cursor tracking so padded objects can be aligned
  /// by filler arrays, exactly as a programmer would pad by hand.
  void align_cursor_to_block() {
    i64 over = cursor_ % block_;
    if (over == 0) return;
    i64 fill = (block_ - over) / 4;
    os_ << "int __fsopt_align" << align_id_++ << "[" << fill
        << "];  // alignment filler\n";
    cursor_ += fill * 4;
  }

  /// Struct size after field extraction (natural layout of what remains).
  i64 emitted_elem_size(const GlobalSym& g) const {
    if (!g.elem.is_struct) return g.elem.byte_size();
    const StructType& st = *g.elem.strct;
    auto ex = extracted_.find(&st);
    i64 off = 0;
    i64 align = 1;
    int emitted = 0;
    for (size_t fi = 0; fi < st.fields.size(); ++fi) {
      if (ex != extracted_.end() && ex->second.count(static_cast<int>(fi)))
        continue;
      const StructField& f = st.fields[fi];
      i64 a = scalar_size(f.kind);
      align = std::max(align, a);
      off = round_up(off, a) + f.byte_size();
      ++emitted;
    }
    if (emitted == 0) return 4;
    return round_up(off, align);
  }

  void emit_globals() {
    for (const auto& g : prog_.globals) {
      const Rule* r = rule_for(g->id, -1);
      i64 eb = emitted_elem_size(*g);
      if (r == nullptr) {
        // Unchanged declaration (fields may still have been extracted,
        // which only shrinks the element).
        cursor_ = round_up(cursor_, g->elem.alignment());
        os_ << g->elem.str() << " " << g->name;
        i64 n = 1;
        for (i64 d : g->dims) {
          os_ << "[" << d << "]";
          n *= d;
        }
        os_ << ";\n";
        cursor_ += n * eb;
        // Extraction areas are emitted right after their parent.
        emit_extraction_areas(*g);
        continue;
      }
      align_cursor_to_block();
      os_ << g->elem.str() << " " << r->new_name;
      switch (r->kind) {
        case Rule::Kind::kGt1dInterleaved:
        case Rule::Kind::kGt1dBlocked:
        case Rule::Kind::kGt2d:
          os_ << "[" << r->p << "][" << r->inner << "]";
          cursor_ += r->p * r->inner * eb;
          break;
        case Rule::Kind::kPadScalar:
          os_ << "[" << r->inner << "]";
          cursor_ += r->inner * eb;
          break;
        case Rule::Kind::kPadArray1d:
          os_ << "[" << r->p << "][" << r->inner << "]";
          cursor_ += r->p * r->inner * eb;
          break;
        case Rule::Kind::kExtract:
          FSOPT_CHECK(false, "extract is field-level");
      }
      os_ << ";  // was " << g->name << "\n";
      emit_extraction_areas(*g);
    }
    os_ << "\n";
  }

  void emit_extraction_areas(const GlobalSym& g) {
    if (!g.elem.is_struct) return;
    const StructType& st = *g.elem.strct;
    for (size_t fi = 0; fi < st.fields.size(); ++fi) {
      const Rule* r = rule_for(g.id, static_cast<int>(fi));
      if (r == nullptr || r->kind != Rule::Kind::kExtract) continue;
      align_cursor_to_block();
      const StructField& f = st.fields[fi];
      os_ << scalar_name(f.kind) << " " << r->new_name << "[" << r->p
          << "][" << r->inner << "];  // per-process area for " << g.name
          << "." << f.name << "\n";
      cursor_ += r->p * r->inner * scalar_size(f.kind);
    }
  }

  // ---------------------------------------------------------- functions --
  void emit_functions() {
    for (const auto& fn : prog_.funcs) {
      os_ << value_type_name(fn->ret) << " " << fn->name << "(";
      for (size_t i = 0; i < fn->params.size(); ++i) {
        if (i > 0) os_ << ", ";
        os_ << scalar_name(fn->params[i]->kind) << " "
            << fn->params[i]->name;
      }
      os_ << ") {\n";
      if (fn->body != nullptr)
        for (const auto& s : fn->body->stmts) stmt(*s, 1);
      os_ << "}\n\n";
    }
  }

  void indent(int n) {
    for (int i = 0; i < n; ++i) os_ << "  ";
  }

  void stmt(const Stmt& s, int depth) {
    switch (s.kind) {
      case StmtKind::kBlock:
        indent(depth);
        os_ << "{\n";
        for (const auto& c : s.stmts) stmt(*c, depth + 1);
        indent(depth);
        os_ << "}\n";
        return;
      case StmtKind::kLocalDecl:
        indent(depth);
        os_ << scalar_name(s.decl_kind) << " " << s.name;
        if (s.init) {
          os_ << " = ";
          expr(*s.init, 0);
        }
        os_ << ";\n";
        return;
      case StmtKind::kAssign:
        indent(depth);
        expr(*s.target, 0);
        os_ << " = ";
        expr(*s.value, 0);
        os_ << ";\n";
        return;
      case StmtKind::kIf:
        indent(depth);
        os_ << "if (";
        expr(*s.cond, 0);
        os_ << ")\n";
        stmt_as_block(*s.then_block, depth);
        if (s.else_block) {
          indent(depth);
          os_ << "else\n";
          stmt_as_block(*s.else_block, depth);
        }
        return;
      case StmtKind::kWhile:
        indent(depth);
        os_ << "while (";
        expr(*s.cond, 0);
        os_ << ")\n";
        stmt_as_block(*s.body, depth);
        return;
      case StmtKind::kFor:
        indent(depth);
        os_ << "for (";
        expr(*s.init_stmt->target, 0);
        os_ << " = ";
        expr(*s.init_stmt->value, 0);
        os_ << "; ";
        expr(*s.cond, 0);
        os_ << "; ";
        expr(*s.step_stmt->target, 0);
        os_ << " = ";
        expr(*s.step_stmt->value, 0);
        os_ << ")\n";
        stmt_as_block(*s.body, depth);
        return;
      case StmtKind::kExpr:
        indent(depth);
        expr(*s.value, 0);
        os_ << ";\n";
        return;
      case StmtKind::kReturn:
        indent(depth);
        os_ << "return";
        if (s.value) {
          os_ << " ";
          expr(*s.value, 0);
        }
        os_ << ";\n";
        return;
      case StmtKind::kBarrier:
        indent(depth);
        os_ << "barrier();\n";
        return;
      case StmtKind::kLock:
      case StmtKind::kUnlock:
        indent(depth);
        os_ << (s.kind == StmtKind::kLock ? "lock(" : "unlock(");
        expr(*s.target, 0);
        os_ << ");\n";
        return;
    }
  }

  void stmt_as_block(const Stmt& s, int depth) {
    if (s.kind == StmtKind::kBlock) {
      stmt(s, depth);
    } else {
      indent(depth);
      os_ << "{\n";
      stmt(s, depth + 1);
      indent(depth);
      os_ << "}\n";
    }
  }

  static int precedence(BinOp op) {
    switch (op) {
      case BinOp::kOr: return 1;
      case BinOp::kAnd: return 2;
      case BinOp::kEq:
      case BinOp::kNe:
      case BinOp::kLt:
      case BinOp::kLe:
      case BinOp::kGt:
      case BinOp::kGe: return 3;
      case BinOp::kAdd:
      case BinOp::kSub: return 4;
      default: return 5;
    }
  }

  static const char* op_str(BinOp op) {
    switch (op) {
      case BinOp::kAdd: return "+";
      case BinOp::kSub: return "-";
      case BinOp::kMul: return "*";
      case BinOp::kDiv: return "/";
      case BinOp::kRem: return "%";
      case BinOp::kEq: return "==";
      case BinOp::kNe: return "!=";
      case BinOp::kLt: return "<";
      case BinOp::kLe: return "<=";
      case BinOp::kGt: return ">";
      case BinOp::kGe: return ">=";
      case BinOp::kAnd: return "&&";
      case BinOp::kOr: return "||";
    }
    return "?";
  }

  std::string expr_str(const Expr& e) {
    std::ostringstream saved;
    saved.swap(os_);
    expr(e, 0);
    std::string out = os_.str();
    saved.swap(os_);
    return out;
  }

  /// True if this node is a *complete* scalar access to a transformed
  /// datum; fills the rewrite pieces.
  bool try_rewrite(const Expr& e) {
    if (!e.is_lvalue_shape()) return false;
    // Root must be a global, and the chain must be complete (a scalar
    // location): count the indices and fields before resolving.
    size_t n_index = 0;
    bool has_field = false;
    const Expr* root = &e;
    while (root->kind == ExprKind::kIndex || root->kind == ExprKind::kField) {
      if (root->kind == ExprKind::kIndex) ++n_index;
      if (root->kind == ExprKind::kField) has_field = true;
      root = root->children[0].get();
    }
    if (root->kind != ExprKind::kVar || root->global == nullptr)
      return false;
    const GlobalSym& sym = *root->global;
    if (sym.elem.is_struct != has_field) return false;  // partial/invalid
    size_t min_expected = sym.dims.size();
    if (n_index < min_expected) return false;  // partial chain
    auto acc = resolve_global_access(e);
    if (!acc.has_value()) return false;
    size_t expected = acc->sym->dims.size();
    const StructField* fld = nullptr;
    if (acc->field >= 0) {
      fld = &acc->sym->elem.strct->fields[static_cast<size_t>(acc->field)];
      if (fld->array_len > 0) ++expected;
    }
    if (acc->dims.size() != expected) return false;  // partial chain
    const Rule* r = rule_for(acc->sym->id, acc->field);
    if (r == nullptr) return false;

    // Index expressions as rewritten text.
    std::vector<std::string> ix;
    for (const auto& d : acc->dims)
      ix.push_back(expr_str(*d.index));

    switch (r->kind) {
      case Rule::Kind::kGt1dInterleaved:
        os_ << r->new_name << "[(" << ix[0] << ") % " << r->p << "][("
            << ix[0] << ") / " << r->p << "]";
        break;
      case Rule::Kind::kGt1dBlocked:
        if (r->c == 1) {
          os_ << r->new_name << "[" << ix[0] << "][0]";
        } else {
          os_ << r->new_name << "[(" << ix[0] << ") / " << r->c << "][("
              << ix[0] << ") % " << r->c << "]";
        }
        break;
      case Rule::Kind::kGt2d: {
        size_t pd = static_cast<size_t>(r->pid_dim);
        os_ << r->new_name << "[" << ix[pd] << "][" << ix[1 - pd] << "]";
        break;
      }
      case Rule::Kind::kExtract:
        os_ << r->new_name << "[" << ix[1] << "][" << ix[0] << "]";
        return true;  // the field is gone; no suffix
      case Rule::Kind::kPadScalar:
        os_ << r->new_name << "[0]";
        return true;
      case Rule::Kind::kPadArray1d:
        os_ << r->new_name << "[" << ix[0] << "][0]";
        return true;
    }
    // Struct-element group&transpose keeps its field suffix.
    if (acc->field >= 0) {
      os_ << "." << fld->name;
      if (fld->array_len > 0)
        os_ << "[" << ix[acc->dims.size() - 1] << "]";
    }
    return true;
  }

  void expr(const Expr& e, int parent_prec) {
    if (try_rewrite(e)) return;
    switch (e.kind) {
      case ExprKind::kIntLit:
        os_ << e.int_value;
        return;
      case ExprKind::kRealLit: {
        // The fewest significant digits, from the stream's default 6 up
        // to 17, that read back as the same double.
        std::string s;
        for (int digits = 6; digits <= 17; ++digits) {
          std::ostringstream tmp;
          tmp.precision(digits);
          tmp << e.real_value;
          s = tmp.str();
          if (std::strtod(s.c_str(), nullptr) == e.real_value) break;
        }
        if (s.find('.') == std::string::npos &&
            s.find('e') == std::string::npos)
          s += ".0";
        os_ << s;
        return;
      }
      case ExprKind::kVar:
        os_ << e.name;
        return;
      case ExprKind::kIndex:
        expr(*e.children[0], 100);
        os_ << "[";
        expr(*e.children[1], 0);
        os_ << "]";
        return;
      case ExprKind::kField:
        expr(*e.children[0], 100);
        os_ << "." << e.name;
        return;
      case ExprKind::kUnary:
        os_ << (e.un_op == UnOp::kNeg ? "-(" : "!(");
        expr(*e.children[0], 0);
        os_ << ")";
        return;
      case ExprKind::kBinary: {
        int p = precedence(e.bin_op);
        if (p < parent_prec) os_ << "(";
        expr(*e.children[0], p);
        os_ << " " << op_str(e.bin_op) << " ";
        expr(*e.children[1], p + 1);
        if (p < parent_prec) os_ << ")";
        return;
      }
      case ExprKind::kCall: {
        os_ << e.name << "(";
        for (size_t i = 0; i < e.children.size(); ++i) {
          if (i > 0) os_ << ", ";
          expr(*e.children[i], 0);
        }
        os_ << ")";
        return;
      }
    }
  }

  const Program& prog_;
  const TransformPlan& transforms_;
  i64 block_;
  std::map<std::pair<int, int>, Rule> rules_;
  std::map<const StructType*, std::set<int>> extracted_;
  std::ostringstream os_;
  SourceRewriteResult result_;
  i64 cursor_ = 0;
  int align_id_ = 0;
};

}  // namespace

SourceRewriteResult rewrite_to_source(const Program& prog,
                                      const TransformPlan& transforms,
                                      i64 block_size) {
  SourceRewriter rw(prog, transforms, block_size);
  return rw.run();
}

}  // namespace fsopt
