#include "analysis/sideeffect.h"

#include <optional>
#include <set>

#include "analysis/perprocess.h"
#include "cfg/callgraph.h"
#include "obs/obs.h"

namespace fsopt {

std::vector<i64> ProgramSummary::datum_extents(const DatumKey& k) const {
  const GlobalSym* g = datum_sym(k);
  std::vector<i64> ext(g->dims.begin(), g->dims.end());
  if (k.field >= 0) {
    const StructField& f =
        g->elem.strct->fields[static_cast<size_t>(k.field)];
    if (f.array_len > 0) ext.push_back(f.array_len);
  }
  return ext;
}

const GlobalSym* ProgramSummary::datum_sym(const DatumKey& k) const {
  FSOPT_CHECK(k.sym >= 0 &&
                  static_cast<size_t>(k.sym) < prog->globals.size(),
              "bad datum key");
  return prog->globals[static_cast<size_t>(k.sym)].get();
}

std::string ProgramSummary::datum_name(const DatumKey& k) const {
  if (k.sym == kBarrierSym) return kBarrierName;
  const GlobalSym* g = datum_sym(k);
  if (k.field < 0) return g->name;
  return g->name + "." +
         g->elem.strct->fields[static_cast<size_t>(k.field)].name;
}

namespace {

/// Collect all locals assigned anywhere within a statement subtree.
std::set<const LocalSym*> assigned_locals(const Stmt& s) {
  std::set<const LocalSym*> out;
  for_each_stmt(s, [&](const Stmt& st) {
    if (st.kind == StmtKind::kAssign && st.target->kind == ExprKind::kVar &&
        st.target->local != nullptr)
      out.insert(st.target->local);
    if (st.kind == StmtKind::kLocalDecl && st.local != nullptr)
      out.insert(st.local);
  });
  return out;
}

class SummaryWalker {
 public:
  SummaryWalker(const Program& prog, const PdvResult& pdvs,
                const PhaseInfo* phases,
                const std::vector<FuncSummary>& summaries, const FuncDecl& fn)
      : prog_(prog),
        pdvs_(pdvs),
        phases_(phases),
        summaries_(summaries),
        fn_(fn) {
    pids_ = PidSet::all(prog.nprocs);
    for (const LocalSym* p : fn.params) env_.make_opaque(p);
  }

  FuncSummary run() {
    if (fn_.body != nullptr) walk_stmt(*fn_.body);
    return std::move(out_);
  }

 private:
  bool in_main() const { return &fn_ == prog_.main; }

  Rsd rsd_of(const GlobalAccess& acc) {
    std::vector<DimSec> dims;
    dims.reserve(acc.dims.size());
    for (const auto& d : acc.dims)
      dims.push_back(DimSec::invariant(affine_of(*d.index, env_)));
    return Rsd(std::move(dims));
  }

  void record(const GlobalAccess& acc, bool is_write, bool is_lock_op,
              SourceLoc loc) {
    AccessRecord r;
    r.datum = {acc.sym->id, acc.field};
    r.is_write = is_write;
    r.is_lock_op = is_lock_op;
    r.rsd = rsd_of(acc);
    r.weight = weight_;
    r.pids = pids_;
    r.phase = phase_;
    r.loc = loc;
    out_.records.push_back(std::move(r));
  }

  /// Record the reads performed while evaluating `e` (including index
  /// expressions and lvalue loads), and translate any calls.
  void walk_reads(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kIntLit:
      case ExprKind::kRealLit:
        return;
      case ExprKind::kVar:
      case ExprKind::kIndex:
      case ExprKind::kField: {
        auto acc = resolve_global_access(e);
        if (acc.has_value()) {
          // Index expressions are evaluated too.
          for (const auto& d : acc->dims) walk_reads(*d.index);
          record(*acc, /*is_write=*/false, /*is_lock_op=*/false, e.loc);
        }
        return;
      }
      case ExprKind::kUnary:
        walk_reads(*e.children[0]);
        return;
      case ExprKind::kBinary:
        walk_reads(*e.children[0]);
        walk_reads(*e.children[1]);
        return;
      case ExprKind::kCall:
        for (const auto& a : e.children) walk_reads(*a);
        if (e.callee != nullptr) translate_call(e);
        return;
    }
  }

  void translate_call(const Expr& call) {
    const FuncDecl& callee = *call.callee;
    const FuncSummary& cs = summaries_[static_cast<size_t>(callee.id)];
    // Affine forms of the actuals, in caller terms.
    std::vector<Affine> actuals;
    actuals.reserve(callee.params.size());
    for (size_t i = 0; i < callee.params.size(); ++i)
      actuals.push_back(affine_of(*call.children[i], env_));
    for (const AccessRecord& r : cs.records) {
      AccessRecord t = r;
      for (size_t i = 0; i < callee.params.size(); ++i)
        t.rsd = t.rsd.subst(callee.params[i], actuals[i]);
      t.weight *= weight_;
      t.pids = pids_;
      t.phase = phase_;
      out_.records.push_back(std::move(t));
    }
  }

  void walk_assign(const Stmt& s) {
    walk_reads(*s.value);
    auto acc = resolve_global_access(*s.target);
    if (acc.has_value()) {
      for (const auto& d : acc->dims) walk_reads(*d.index);
      record(*acc, /*is_write=*/true, /*is_lock_op=*/false, s.loc);
      return;
    }
    // Local assignment: update the affine environment.
    const LocalSym* local = s.target->local;
    FSOPT_CHECK(local != nullptr, "assign target neither global nor local");
    env_.bind(local, affine_of(*s.value, env_));
  }

  void invalidate(const std::set<const LocalSym*>& vars) {
    for (const LocalSym* v : vars) env_.bind(v, Affine::invalid());
  }

  /// Close all records created since `start` over loop variable `iv`.
  void close_records(size_t start, const LocalSym* iv, const Affine& lo,
                     const Affine& hi, i64 step) {
    for (size_t i = start; i < out_.records.size(); ++i)
      out_.records[i].rsd =
          out_.records[i].rsd.close_loop(iv, lo, hi, step);
  }

  void walk_for(const Stmt& s) {
    // init
    walk_stmt(*s.init_stmt);
    const LocalSym* iv = nullptr;
    if (s.init_stmt->target->kind == ExprKind::kVar)
      iv = s.init_stmt->target->local;

    Affine lo = iv != nullptr ? env_.value_of(iv) : Affine::invalid();

    // Step: expect `iv = iv + c` / `iv = iv - c`.
    i64 step = 0;
    if (iv != nullptr && s.step_stmt->target->kind == ExprKind::kVar &&
        s.step_stmt->target->local == iv) {
      AffineEnv tmp;
      tmp.make_opaque(iv);
      Affine st = affine_of(*s.step_stmt->value, tmp);
      if (st.valid() && st.coeff(iv) == 1 && st.num_vars() == 1)
        step = st.const_term();
    }

    // Bound: expect `iv < hi`, `iv <= hi`, `iv > hi`, `iv >= hi` (or the
    // mirrored forms) with an affine bound.
    Affine hi_eff = Affine::invalid();
    if (iv != nullptr && s.cond->kind == ExprKind::kBinary) {
      const Expr& c = *s.cond;
      const Expr* lhs = c.children[0].get();
      const Expr* rhs = c.children[1].get();
      bool iv_left = lhs->kind == ExprKind::kVar && lhs->local == iv;
      bool iv_right = rhs->kind == ExprKind::kVar && rhs->local == iv;
      if (iv_left || iv_right) {
        Affine bound = affine_of(iv_left ? *rhs : *lhs, env_);
        BinOp op = c.bin_op;
        if (iv_right) {  // mirror: k > iv  ==  iv < k
          switch (op) {
            case BinOp::kLt: op = BinOp::kGt; break;
            case BinOp::kLe: op = BinOp::kGe; break;
            case BinOp::kGt: op = BinOp::kLt; break;
            case BinOp::kGe: op = BinOp::kLe; break;
            default: break;
          }
        }
        if (bound.valid()) {
          if (step > 0 && op == BinOp::kLt)
            hi_eff = bound - Affine::constant(1);
          else if (step > 0 && op == BinOp::kLe)
            hi_eff = bound;
          else if (step < 0 && op == BinOp::kGt)
            hi_eff = bound + Affine::constant(1);
          else if (step < 0 && op == BinOp::kGe)
            hi_eff = bound;
        }
      }
    }

    bool affine_loop =
        iv != nullptr && lo.valid() && hi_eff.valid() && step != 0;
    // Known step but unknown bounds (e.g. `for (i = start; ...)` with a
    // start loaded from shared memory): the section swept is a
    // strided-unknown range — stride information survives (Topopt's
    // revolving partitions, §5).
    bool strided_loop = iv != nullptr && step != 0 && !affine_loop;

    // Trip-count estimate for static profiling.  A span that depends only
    // on the PDV (e.g. `for (i = pid; i < N; i += nprocs)`) is estimated
    // at pid = 0 — the per-process share of the iteration space.
    double trips = kUnknownForTrips;
    if (affine_loop) {
      Affine span = step > 0 ? hi_eff - lo : lo - hi_eff;
      std::optional<i64> n;
      if (span.is_constant()) {
        n = span.constant_value();
      } else if (pdvs_.pid != nullptr) {
        n = span.eval_with(pdvs_.pid, 0);
      }
      if (n.has_value())
        trips = static_cast<double>(
            std::max<i64>(*n / std::abs(step) + 1, 0));
    }

    // Reads performed by the condition and step, once per iteration.
    double saved_weight = weight_;
    weight_ *= std::max(trips, 1.0);
    walk_reads(*s.cond);

    // Widen locals assigned in the body before walking it.
    auto killed = assigned_locals(*s.body);
    killed.erase(iv);
    invalidate(killed);

    size_t start = out_.records.size();
    if (affine_loop || strided_loop) {
      env_.make_opaque(iv);
    } else if (iv != nullptr) {
      env_.bind(iv, Affine::invalid());
    }
    walk_stmt(*s.body);
    walk_reads(*s.step_stmt->value);
    weight_ = saved_weight;

    if (affine_loop) {
      Affine close_lo = step > 0 ? lo : hi_eff;
      Affine close_hi = step > 0 ? hi_eff : lo;
      close_records(start, iv, close_lo, close_hi, std::abs(step));
    } else if (strided_loop) {
      close_records(start, iv, Affine::invalid(), Affine::invalid(),
                    std::abs(step));
    }
    // After the loop the induction variable's value is iteration-dependent.
    if (iv != nullptr) env_.bind(iv, Affine::invalid());
    invalidate(killed);
  }

  void walk_stmt(const Stmt& s) {
    if (in_main() && phases_ != nullptr) {
      auto it = phases_->stmt_phase.find(&s);
      if (it != phases_->stmt_phase.end()) phase_ = it->second;
    }
    switch (s.kind) {
      case StmtKind::kBlock:
        for (const auto& c : s.stmts) walk_stmt(*c);
        return;
      case StmtKind::kLocalDecl:
        if (s.init != nullptr) {
          walk_reads(*s.init);
          env_.bind(s.local, affine_of(*s.init, env_));
        } else {
          env_.bind(s.local, Affine::invalid());
        }
        return;
      case StmtKind::kAssign:
        walk_assign(s);
        return;
      case StmtKind::kIf: {
        walk_reads(*s.cond);
        std::optional<PidSet> sat;
        if (in_main())
          sat = pids_satisfying(*s.cond, pdvs_, prog_.nprocs, &env_);
        AffineEnv env_then = env_;
        AffineEnv env_else = env_;
        PidSet saved_pids = pids_;
        double saved_weight = weight_;
        if (sat.has_value()) {
          // Decidable divergence: each process deterministically takes one
          // side; weights are unchanged, pid guards narrow.
          pids_ = saved_pids & *sat;
          if (!pids_.empty()) {
            std::swap(env_, env_then);
            walk_stmt(*s.then_block);
            std::swap(env_, env_then);
          }
          if (s.else_block != nullptr) {
            pids_ = saved_pids & sat->complement(prog_.nprocs);
            if (!pids_.empty()) {
              std::swap(env_, env_else);
              walk_stmt(*s.else_block);
              std::swap(env_, env_else);
            }
          }
        } else {
          weight_ = saved_weight * kUnknownBranchProb;
          std::swap(env_, env_then);
          walk_stmt(*s.then_block);
          std::swap(env_, env_then);
          if (s.else_block != nullptr) {
            std::swap(env_, env_else);
            walk_stmt(*s.else_block);
            std::swap(env_, env_else);
          }
        }
        pids_ = saved_pids;
        weight_ = saved_weight;
        env_ = env_then;
        env_.join(env_else);
        return;
      }
      case StmtKind::kWhile: {
        auto killed = assigned_locals(*s.body);
        invalidate(killed);
        double saved_weight = weight_;
        weight_ *= kUnknownWhileTrips;
        walk_reads(*s.cond);
        walk_stmt(*s.body);
        weight_ = saved_weight;
        invalidate(killed);
        return;
      }
      case StmtKind::kFor:
        walk_for(s);
        return;
      case StmtKind::kExpr:
        walk_reads(*s.value);
        return;
      case StmtKind::kReturn:
        if (s.value != nullptr) walk_reads(*s.value);
        return;
      case StmtKind::kBarrier:
        if (in_main() && phases_ != nullptr) {
          auto it = phases_->phase_after_barrier.find(&s);
          if (it != phases_->phase_after_barrier.end()) phase_ = it->second;
        }
        return;
      case StmtKind::kLock:
      case StmtKind::kUnlock: {
        auto acc = resolve_global_access(*s.target);
        FSOPT_CHECK(acc.has_value(), "lock operand must be a shared lock");
        for (const auto& d : acc->dims) walk_reads(*d.index);
        // A lock operation both reads and writes the lock word.
        record(*acc, /*is_write=*/false, /*is_lock_op=*/true, s.loc);
        record(*acc, /*is_write=*/true, /*is_lock_op=*/true, s.loc);
        return;
      }
    }
  }

  const Program& prog_;
  const PdvResult& pdvs_;
  const PhaseInfo* phases_;
  const std::vector<FuncSummary>& summaries_;
  const FuncDecl& fn_;
  FuncSummary out_;
  AffineEnv env_;
  double weight_ = 1.0;
  PidSet pids_;
  int phase_ = 0;
};

/// Stage 3: the bottom-up per-function summaries and the translated
/// main-level records, into `out`, which already carries the pdvs and
/// phases.
void summarize_side_effects(const CallGraph& cg, ProgramSummary& out) {
  const Program& prog = *out.prog;
  out.func_summaries.assign(prog.funcs.size(), FuncSummary{});
  for (const FuncDecl* fn : cg.bottom_up()) {
    if (fn == prog.main) continue;
    SummaryWalker w(prog, out.pdvs, nullptr, out.func_summaries, *fn);
    out.func_summaries[static_cast<size_t>(fn->id)] = w.run();
  }
  if (prog.main != nullptr) {
    SummaryWalker w(prog, out.pdvs, &out.phases, out.func_summaries,
                    *prog.main);
    FuncSummary ms = w.run();
    out.func_summaries[static_cast<size_t>(prog.main->id)] = ms;
    out.records = std::move(ms.records);
  }
}

}  // namespace

ProgramSummary analyze_program(const Program& prog) {
  ProgramSummary out;
  out.prog = &prog;
  out.nprocs = prog.nprocs;
  std::optional<CallGraph> cg;
  {
    obs::Span span("pass", "callgraph");
    cg.emplace(prog);
    span.arg("call_sites", static_cast<double>(cg->sites().size()));
  }
  {
    obs::Span span("pass", "pdv");
    out.pdvs = analyze_pdvs(prog, *cg);
    span.arg("pdvs", static_cast<double>(out.pdvs.pdvs.size()));
  }
  {
    obs::Span span("pass", "phases");
    out.phases = analyze_phases(prog);
    span.arg("phases", static_cast<double>(out.phases.phase_count));
    span.arg("suspicious_barriers",
             static_cast<double>(out.phases.suspicious_barriers.size()));
  }
  {
    obs::Span span("pass", "sideeffects");
    summarize_side_effects(*cg, out);
    span.arg("records", static_cast<double>(out.records.size()));
    if (span.active()) {
      size_t merged = 0;
      for (const FuncSummary& fs : out.func_summaries)
        merged += fs.records.size();
      span.arg("rsds_merged", static_cast<double>(merged));
    }
  }
  return out;
}

}  // namespace fsopt
