// Compiles Assign statements and DO-loop nests into flat register
// programs (see bytecode.hpp for the execution model and the exact
// equivalence contract with the tree-walker).
#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "autocfd/interp/bytecode.hpp"

namespace autocfd::interp::bytecode {

using fortran::BinOp;
using fortran::Expr;
using fortran::ExprKind;
using fortran::Stmt;
using fortran::StmtKind;

namespace {

/// Statements the compiler accepts. Everything else (io, calls, goto,
/// parallel extension statements) stays on the tree-walker, which
/// still routes nested compilable loops back through the engine.
bool compilable_expr(const Expr& e) {
  switch (e.kind) {
    case ExprKind::IntLit:
    case ExprKind::RealLit:
    case ExprKind::LogicalLit:
      return true;
    case ExprKind::StrLit:
      return false;  // strings only appear in io statements
    case ExprKind::VarRef:
      return e.slot >= 0;
    case ExprKind::ArrayRef:
      if (e.slot < 0 || e.args.empty()) return false;
      break;
    case ExprKind::Unary:
    case ExprKind::Binary:
      break;
    case ExprKind::Intrinsic:
      if (e.slot < 0) return false;
      break;
  }
  // Subscripts and intrinsic arguments are gathered into 8-slot buffers.
  if (e.args.size() > 8) return false;
  for (const auto& a : e.args) {
    if (!a || !compilable_expr(*a)) return false;
  }
  return true;
}

bool compilable_stmt(const Stmt& s);

bool compilable_body(const fortran::StmtList& body) {
  for (const auto& st : body) {
    if (!st || !compilable_stmt(*st)) return false;
  }
  return true;
}

bool compilable_stmt(const Stmt& s) {
  switch (s.kind) {
    case StmtKind::Assign: {
      if (!s.lhs || !s.rhs || !compilable_expr(*s.rhs)) return false;
      if (s.lhs->kind == ExprKind::VarRef) return s.lhs->slot >= 0;
      return s.lhs->kind == ExprKind::ArrayRef && compilable_expr(*s.lhs);
    }
    case StmtKind::Do:
      return s.slot >= 0 && s.lo && compilable_expr(*s.lo) && s.hi &&
             compilable_expr(*s.hi) && (!s.step || compilable_expr(*s.step)) &&
             compilable_body(s.body);
    case StmtKind::If:
      return s.cond && compilable_expr(*s.cond) && compilable_body(s.body) &&
             compilable_body(s.else_body);
    case StmtKind::Continue:
    case StmtKind::Return:
    case StmtKind::Stop:
      return true;
    default:
      return false;
  }
}

/// True when the subtree can end an iteration early (RETURN/STOP).
/// Such loops get neither strength reduction (a hoisted bounds check
/// could fire for iterations that never execute) nor per-iteration
/// flop accounting (an iteration may stop part-way through its body).
bool has_early_exit(const fortran::StmtList& body) {
  for (const auto& st : body) {
    if (st->kind == StmtKind::Return || st->kind == StmtKind::Stop) {
      return true;
    }
    if (has_early_exit(st->body) || has_early_exit(st->else_body)) {
      return true;
    }
  }
  return false;
}

/// Collects every scalar slot assigned anywhere in `body` (assignment
/// targets and nested DO induction variables) — the set a subscript
/// must avoid to count as loop-invariant.
void collect_assigned(const fortran::StmtList& body, std::set<int>& out) {
  for (const auto& st : body) {
    if (st->kind == StmtKind::Assign &&
        st->lhs->kind == ExprKind::VarRef) {
      out.insert(st->lhs->slot);
    }
    if (st->kind == StmtKind::Do) out.insert(st->slot);
    collect_assigned(st->body, out);
    collect_assigned(st->else_body, out);
  }
}

/// Matches `v`, `v + c`, `c + v`, `v - c` against induction slot `v`.
bool affine_in(const Expr& e, int var_slot, long long* offset) {
  if (e.kind == ExprKind::VarRef && e.slot == var_slot) {
    *offset = 0;
    return true;
  }
  if (e.kind != ExprKind::Binary) return false;
  if (e.bin_op != BinOp::Add && e.bin_op != BinOp::Sub) return false;
  const Expr& l = *e.args[0];
  const Expr& r = *e.args[1];
  if (l.kind == ExprKind::VarRef && l.slot == var_slot &&
      r.kind == ExprKind::IntLit) {
    *offset = e.bin_op == BinOp::Add ? r.int_value : -r.int_value;
    return true;
  }
  if (e.bin_op == BinOp::Add && r.kind == ExprKind::VarRef &&
      r.slot == var_slot && l.kind == ExprKind::IntLit) {
    *offset = l.int_value;
    return true;
  }
  return false;
}

/// Pure w.r.t. the loop: no array reads, no banned scalars.
bool invariant_expr(const Expr& e, const std::set<int>& banned) {
  switch (e.kind) {
    case ExprKind::IntLit:
    case ExprKind::RealLit:
    case ExprKind::LogicalLit:
      return true;
    case ExprKind::StrLit:
    case ExprKind::ArrayRef:
      return false;
    case ExprKind::VarRef:
      return banned.count(e.slot) == 0;
    case ExprKind::Unary:
    case ExprKind::Binary:
    case ExprKind::Intrinsic:
      break;
  }
  for (const auto& a : e.args) {
    if (!invariant_expr(*a, banned)) return false;
  }
  return true;
}

/// Describes array reference `e` as a walk of the loop over `var`: each
/// subscript is affine in `var`, affine in `outer` (the enclosing loop's
/// variable of a nest-level walk; -1 for none) or free of `banned`.
/// Returns false when some subscript is none of these. Invariant dims
/// get their registers from the caller.
bool describe_walk(const Expr& e, int var, int outer,
                   const std::set<int>& banned, WalkDesc* desc) {
  if (e.slot < 0 || e.args.empty() || e.args.size() > 8) return false;
  desc->array_slot = e.slot;
  for (const auto& sub : e.args) {
    WalkDim dim;
    if (affine_in(*sub, var, &dim.offset)) {
      dim.kind = DimKind::Affine;
    } else if (outer >= 0 && affine_in(*sub, outer, &dim.offset)) {
      dim.kind = DimKind::Outer;
    } else if (!invariant_expr(*sub, banned)) {
      return false;  // general per-iteration access
    }
    desc->dims.push_back(dim);
  }
  return true;
}

void for_each_array_ref(const Expr& e,
                        const std::function<void(const Expr&)>& fn) {
  if (e.kind == ExprKind::ArrayRef) fn(e);
  for (const auto& a : e.args) {
    if (a) for_each_array_ref(*a, fn);
  }
}

Op binary_op(BinOp op) {
  switch (op) {
    case BinOp::Sub: return Op::Sub;
    case BinOp::Mul: return Op::Mul;
    case BinOp::Div: return Op::Div;
    case BinOp::Pow: return Op::Pow;
    case BinOp::Lt: return Op::Lt;
    case BinOp::Le: return Op::Le;
    case BinOp::Gt: return Op::Gt;
    case BinOp::Ge: return Op::Ge;
    case BinOp::Eq: return Op::CmpEq;
    case BinOp::Ne: return Op::CmpNe;
    default: return Op::Add;  // Add; And/Or are compiled as branches
  }
}

/// No enclosing loop charges this statement's flops per iteration.
constexpr int kNoLoop = -1;

/// Calls `fn(reg, writes)` on each register operand of `in`: the ones
/// it reads, in order, then the one it writes. Returns false for an
/// instruction a lane-wise body may not contain.
template <class Fn>
bool lane_operands(Instr& in, int* operands, Fn&& fn) {
  switch (in.op) {
    case Op::Move:
    case Op::Neg:
    case Op::Not:
      fn(in.b, false);
      break;
    case Op::LoadWalk:
      break;
    case Op::StoreWalk:
      fn(in.a, false);
      return true;
    case Op::Add: case Op::Sub: case Op::Mul: case Op::Div: case Op::Pow:
    case Op::Lt: case Op::Le: case Op::Gt: case Op::Ge:
    case Op::CmpEq: case Op::CmpNe:
      fn(in.b, false);
      fn(in.c, false);
      break;
    case Op::Intrin:
      for (int k = 0; k < in.d; ++k) fn(operands[in.c + k], false);
      break;
    default:
      return false;
  }
  fn(in.a, true);
  return true;
}

bool same_subscripts(const WalkDesc& a, const WalkDesc& b) {
  if (a.dims.size() != b.dims.size()) return false;
  for (std::size_t d = 0; d < a.dims.size(); ++d) {
    const WalkDim& x = a.dims[d];
    const WalkDim& y = b.dims[d];
    if (x.kind != y.kind || (x.kind == DimKind::Invariant
                                 ? x.reg != y.reg
                                 : x.offset != y.offset)) {
      return false;
    }
  }
  return true;
}

}  // namespace

/// One compilation of one statement (friend of Program).
class Compiler {
 public:
  Compiler(const ProgramImage* image, EngineStats* stats)
      : image_(image), stats_(stats) {}

  std::unique_ptr<Program> compile(const Stmt& s) {
    if (!compilable_stmt(s) ||
        (s.kind != StmtKind::Do && s.kind != StmtKind::Assign)) {
      return nullptr;
    }
    prog_ = std::make_unique<Program>();
    if (s.kind == StmtKind::Do) {
      emit_do(s);
      ++stats_->kernels_compiled;
    } else {
      emit_assign(s, kNoLoop);
      ++stats_->stmts_compiled;
    }
    emit(Op::Halt);

    for (const auto& h : prog_->homes_) {
      if (written_slots_.count(h.slot)) prog_->written_.push_back(h);
    }
    prog_->regs_.assign(static_cast<std::size_t>(nregs_), 0.0);
    for (const auto& [bits, reg] : const_reg_) {
      prog_->regs_[static_cast<std::size_t>(reg)] =
          std::bit_cast<double>(bits);
    }
    prog_->loop_state_.resize(prog_->loops_.size());
    prog_->walk_state_.resize(prog_->walks_.size());
    prog_->cursor_state_.resize(static_cast<std::size_t>(ncursors_));
    stats_->instrs_emitted += static_cast<long long>(prog_->code_.size());
    for (const auto& lane : prog_->lanes_) {
      stats_->instrs_emitted += static_cast<long long>(lane.code.size());
    }
    return std::move(prog_);
  }

 private:
  int alloc() { return nregs_++; }

  int emit(Op op, int a = 0, int b = 0, int c = 0, int d = 0) {
    prog_->code_.push_back(Instr{op, a, b, c, d});
    return static_cast<int>(prog_->code_.size()) - 1;
  }

  int here() const { return static_cast<int>(prog_->code_.size()); }

  Instr& at(int pc) { return prog_->code_[static_cast<std::size_t>(pc)]; }

  LoopDesc& loop(int li) { return prog_->loops_[static_cast<std::size_t>(li)]; }

  // --- registers ----------------------------------------------------

  /// The constant register holding `v` (one per distinct bit pattern).
  int constant(double v) {
    const auto [it, fresh] =
        const_reg_.try_emplace(std::bit_cast<std::uint64_t>(v), nregs_);
    if (fresh) alloc();
    return it->second;
  }

  /// The home register of scalar slot `slot`.
  int home(int slot, bool written) {
    if (written) written_slots_.insert(slot);
    const auto [it, fresh] = home_reg_.try_emplace(slot, nregs_);
    if (fresh) prog_->homes_.push_back(Program::Home{alloc(), slot});
    return it->second;
  }

  /// The register holding the value of `e`: its constant or home
  /// register for a leaf, otherwise a fresh temporary computed here.
  int operand(const Expr& e) {
    switch (e.kind) {
      case ExprKind::IntLit:
        return constant(static_cast<double>(e.int_value));
      case ExprKind::RealLit:
        return constant(e.real_value);
      case ExprKind::LogicalLit:
        return constant(e.bool_value ? 1.0 : 0.0);
      case ExprKind::StrLit:
        return constant(0.0);  // unreachable (rejected)
      case ExprKind::VarRef:
        return home(e.slot, false);
      case ExprKind::Unary:
        if (e.un_op == fortran::UnOp::Plus) return operand(*e.args[0]);
        break;
      default:
        break;
    }
    const int t = alloc();
    emit_expr(e, t);
    return t;
  }

  /// Evaluates `args` left to right and appends their registers to the
  /// program's operand lists; returns the list's first index.
  int operand_list(const std::vector<fortran::ExprPtr>& args) {
    std::vector<int> regs;
    regs.reserve(args.size());
    for (const auto& a : args) regs.push_back(operand(*a));
    const int first = static_cast<int>(prog_->operands_.size());
    prog_->operands_.insert(prog_->operands_.end(), regs.begin(), regs.end());
    return first;
  }

  // --- expressions --------------------------------------------------

  /// Computes `e` into register `dst`. Every instruction writes its
  /// destination only after reading all of its operands, so `dst` may
  /// be the home of a scalar the expression reads.
  void emit_expr(const Expr& e, int dst) {
    const int n = static_cast<int>(e.args.size());
    switch (e.kind) {
      case ExprKind::ArrayRef:
        if (const auto it = walk_of_.find(&e); it != walk_of_.end()) {
          emit(Op::LoadWalk, dst, it->second);
        } else {
          emit(Op::LoadElem, dst, e.slot, operand_list(e.args), n);
        }
        return;
      case ExprKind::Unary:
        if (e.un_op == fortran::UnOp::Plus) {
          emit_expr(*e.args[0], dst);
        } else {
          emit(e.un_op == fortran::UnOp::Neg ? Op::Neg : Op::Not, dst,
               operand(*e.args[0]));
        }
        return;
      case ExprKind::Binary:
        emit_binary(e, dst);
        return;
      case ExprKind::Intrinsic:
        emit(Op::Intrin, dst, e.slot, operand_list(e.args), n);
        return;
      default:
        break;
    }
    emit(Op::Move, dst, operand(e));  // a leaf
  }

  void emit_binary(const Expr& e, int dst) {
    // Short-circuit logicals become branches, exactly mirroring the
    // tree-walker (the right operand of .and. must not be evaluated —
    // it may index an array out of bounds).
    if (e.bin_op == BinOp::And || e.bin_op == BinOp::Or) {
      const Op decided = e.bin_op == BinOp::And ? Op::JumpIfZero
                                                : Op::JumpIfNotZero;
      const double short_value = e.bin_op == BinOp::And ? 0.0 : 1.0;
      const int j0 = emit(decided, operand(*e.args[0]));
      const int j1 = emit(decided, operand(*e.args[1]));
      emit(Op::Move, dst, constant(1.0 - short_value));
      const int j2 = emit(Op::Jump);
      at(j0).b = here();
      at(j1).b = here();
      emit(Op::Move, dst, constant(short_value));
      at(j2).a = here();
      return;
    }
    const int l = operand(*e.args[0]);
    const int r = operand(*e.args[1]);
    emit(binary_op(e.bin_op), dst, l, r);
  }

  // --- statements ---------------------------------------------------

  /// `loop` is the loop that charges this statement's flops once per
  /// iteration, or kNoLoop when the statement charges them itself.
  void emit_stmt(const Stmt& s, int loop) {
    switch (s.kind) {
      case StmtKind::Assign:
        emit_assign(s, loop);
        return;
      case StmtKind::Do:
        emit_do(s);
        return;
      case StmtKind::If: {
        // Branches run conditionally: they charge their own flops.
        const int jz = emit(Op::JumpIfZero, operand(*s.cond));
        for (const auto& st : s.body) emit_stmt(*st, kNoLoop);
        if (s.else_body.empty()) {
          at(jz).b = here();
        } else {
          const int j = emit(Op::Jump);
          at(jz).b = here();
          for (const auto& st : s.else_body) emit_stmt(*st, kNoLoop);
          at(j).a = here();
        }
        return;
      }
      case StmtKind::Continue:
        return;
      case StmtKind::Return:
        emit(Op::Ret);
        return;
      case StmtKind::Stop:
        emit(Op::StopProg);
        return;
      default:
        return;  // unreachable: rejected by compilable_stmt
    }
  }

  void charge_flops(const Stmt& s, int loop) {
    if (s.flops == 0.0) return;
    if (loop == kNoLoop) {
      emit(Op::AddFlops, constant(s.flops));
    } else {
      this->loop(loop).iter_flops += s.flops;
    }
  }

  int stmt_index(const Stmt& s) {
    prog_->stmts_.push_back(&s);
    return static_cast<int>(prog_->stmts_.size()) - 1;
  }

  void emit_assign(const Stmt& s, int loop) {
    const Expr& lhs = *s.lhs;
    if (lhs.kind == ExprKind::VarRef) {
      emit_expr(*s.rhs, home(lhs.slot, true));
      charge_flops(s, loop);
      return;
    }
    const int rv = operand(*s.rhs);
    charge_flops(s, loop);
    if (const auto it = walk_of_.find(&lhs); it != walk_of_.end()) {
      emit(Op::StoreWalk, rv, it->second, stmt_index(s));
      return;
    }
    emit(Op::CheckFinite, rv, stmt_index(s));
    emit(Op::StoreElem, rv, lhs.slot, operand_list(lhs.args),
         static_cast<int>(lhs.args.size()));
  }

  /// Registers `desc` as the walk of reference `e`; returns its index.
  int add_walk(const Expr& e, WalkDesc desc) {
    const int w = static_cast<int>(prog_->walks_.size());
    walk_of_[&e] = w;
    prog_->walks_.push_back(std::move(desc));
    ++stats_->walks_reduced;
    return w;
  }

  /// Calls `fn` on each array reference of the loop's straight-line
  /// assignments (not inside If branches — those may not execute every
  /// iteration, so their bounds checks cannot be hoisted) that is not
  /// a walk yet.
  template <class Fn>
  void for_each_walk_candidate(const Stmt& s, Fn&& fn) {
    const std::function<void(const Expr&)> consider = [&](const Expr& e) {
      if (!walk_of_.count(&e)) fn(e);
    };
    for (const auto& st : s.body) {
      if (st->kind != StmtKind::Assign) continue;
      for_each_array_ref(*st->rhs, consider);
      for_each_array_ref(*st->lhs, consider);
    }
  }

  /// Emits the invariant subscript values of reference `e` into the
  /// registers of its walk `desc`.
  void emit_invariant_dims(const Expr& e, WalkDesc& desc) {
    for (std::size_t d = 0; d < desc.dims.size(); ++d) {
      if (desc.dims[d].kind == DimKind::Invariant) {
        desc.dims[d].reg = operand(*e.args[d]);
      }
    }
  }

  void emit_do(const Stmt& s) {
    // A loop whose parent planned nest-level walks for it (see
    // plan_nest_walks) reuses the bound registers the parent computed.
    const auto planned = nest_plans_.find(&s);
    NestPlan* const plan =
        planned == nest_plans_.end() ? nullptr : &planned->second;
    const int r_lo = plan ? plan->lo : operand(*s.lo);
    const int r_hi = plan ? plan->hi : operand(*s.hi);
    const int r_step =
        plan ? plan->step : (s.step ? operand(*s.step) : constant(1.0));
    const int li = static_cast<int>(prog_->loops_.size());
    prog_->loops_.push_back(LoopDesc{home(s.slot, true)});
    emit(Op::LoopBegin, li, r_lo, r_hi, r_step);

    // Loop preheader: the nest-level walks the parent checked, then
    // invariant subscript values and the hoisted setup of every other
    // walk, then the nest-level walks of the loops nested directly in
    // this one. Skipped entirely on zero-trip loops. The loop's walks
    // are registered before any nested loop's, so they form one
    // contiguous range.
    const bool straight = !has_early_exit(s.body);
    std::set<int> banned;
    collect_assigned(s.body, banned);
    // A body that assigns the DO variable moves it off the affine walk.
    const int var = banned.count(s.slot) ? -1 : s.slot;
    banned.insert(s.slot);
    loop(li).walk_begin = static_cast<int>(prog_->walks_.size());
    if (plan) {
      for (auto& nw : plan->walks) {
        nw.desc.loop = li;
        const int cursor = nw.desc.cursor;
        const int w = add_walk(*nw.ref, std::move(nw.desc));
        at(nw.init_pc).a = w;
        emit(Op::WalkCopy, w, cursor);
      }
    }
    std::vector<const Expr*> refs;
    if (straight) {
      for_each_walk_candidate(s, [&](const Expr& e) {
        WalkDesc desc;
        desc.loop = li;
        if (describe_walk(e, var, -1, banned, &desc)) {
          add_walk(e, std::move(desc));
          refs.push_back(&e);
        }
      });
    }
    loop(li).walk_end = static_cast<int>(prog_->walks_.size());
    for (const Expr* e : refs) {
      const int w = walk_of_.at(e);
      emit_invariant_dims(*e, prog_->walks_[static_cast<std::size_t>(w)]);
      emit(Op::WalkInit, w);
    }
    loop(li).cursor_begin = ncursors_;
    if (straight && var >= 0) plan_nest_walks(s, li, banned);
    loop(li).cursor_end = ncursors_;

    loop(li).body_pc = here();
    for (const auto& st : s.body) emit_stmt(*st, straight ? li : kNoLoop);
    emit(Op::LoopNext, li);
    loop(li).exit_pc = here();
    if (straight) try_lanes(li);
  }

  /// Plans the nest-level walks (bytecode.hpp) of each DO loop directly
  /// in the body of loop `li` (statement `s`, whose DO variable the body
  /// never assigns; `banned` is what the body assigns). Emits, into this
  /// preheader, the inner loop's bounds, each walk's invariant subscripts
  /// and its WalkInit; the inner loop registers the walks and patches
  /// the WalkInits when it compiles.
  void plan_nest_walks(const Stmt& s, int li, const std::set<int>& banned) {
    for (const auto& st : s.body) {
      const Stmt& inner = *st;
      if (inner.kind != StmtKind::Do || inner.slot == s.slot ||
          !invariant_expr(*inner.lo, banned) ||
          !invariant_expr(*inner.hi, banned) ||
          (inner.step && !invariant_expr(*inner.step, banned))) {
        continue;
      }
      std::set<int> inner_assigned;
      collect_assigned(inner.body, inner_assigned);
      if (inner_assigned.count(inner.slot)) continue;
      NestPlan plan;
      for_each_walk_candidate(inner, [&](const Expr& e) {
        WalkDesc desc;
        if (describe_walk(e, inner.slot, s.slot, banned, &desc)) {
          plan.walks.push_back(NestWalk{&e, std::move(desc), -1});
        }
      });
      if (plan.walks.empty()) continue;
      plan.lo = operand(*inner.lo);
      plan.hi = operand(*inner.hi);
      plan.step = inner.step ? operand(*inner.step) : constant(1.0);
      for (auto& nw : plan.walks) {
        emit_invariant_dims(*nw.ref, nw.desc);
        nw.desc.nest = li;
        nw.desc.cursor = ncursors_++;
        nw.init_pc = emit(Op::WalkInit, -1, plan.lo, plan.hi, plan.step);
      }
      nest_plans_.emplace(&inner, std::move(plan));
    }
  }

  /// Moves the body of loop `li` into a LaneDesc and replaces it with
  /// one LaneLoop when the body meets the lane-wise rule (bytecode.hpp).
  void try_lanes(int li) {
    LoopDesc& ld = loop(li);
    const int body_end = ld.exit_pc - 1;  // the LoopNext
    int* const opnd = prog_->operands_.data();

    // Rule 1 (op kinds), rule 5 and the dataflow of rule 4.
    std::unordered_map<int, int> first_read, first_write;
    for (int pc = ld.body_pc; pc < body_end; ++pc) {
      const bool ok = lane_operands(at(pc), opnd, [&](int& r, bool writes) {
        if (writes) {
          first_write.try_emplace(r, pc);
        } else {
          first_read.try_emplace(r, pc);
        }
      });
      if (!ok) return;
    }
    if (first_write.count(ld.var_reg)) return;
    for (const auto& [r, pc] : first_read) {
      const auto w = first_write.find(r);
      if (w != first_write.end() && pc <= w->second) return;
    }
    // Rules 2 and 3: a stored array is one element per iteration.
    const auto& walks = prog_->walks_;
    for (int pc = ld.body_pc; pc < body_end; ++pc) {
      if (at(pc).op != Op::StoreWalk) continue;
      const WalkDesc& stored = walks[static_cast<std::size_t>(at(pc).b)];
      if (std::none_of(stored.dims.begin(), stored.dims.end(),
                       [](const WalkDim& d) {
                         return d.kind == DimKind::Affine;
                       })) {
        return;
      }
      for (int w = ld.walk_begin; w < ld.walk_end; ++w) {
        const WalkDesc& other = walks[static_cast<std::size_t>(w)];
        if (other.array_slot == stored.array_slot &&
            !same_subscripts(other, stored)) {
          return;
        }
      }
    }

    // Rename each register to a lane slot of its own. By rule 4 a
    // register the body reads before writing is never written: it is
    // the DO variable or an invariant input, broadcast once per loop
    // entry. Assigned homes are copied out after the loop.
    std::unordered_set<int> homes;
    for (const auto& h : prog_->homes_) homes.insert(h.reg);
    LaneDesc lane;
    std::unordered_map<int, int> slot_of;
    for (int pc = ld.body_pc; pc < body_end; ++pc) {
      Instr in = at(pc);
      lane_operands(in, opnd, [&](int& r, bool writes) {
        const auto [it, fresh] = slot_of.try_emplace(r, lane.slots);
        if (fresh) {
          ++lane.slots;
          if (writes) {
            if (homes.count(r)) lane.out.emplace_back(r, it->second);
          } else if (r == ld.var_reg) {
            lane.var_slot = it->second;
          } else {
            lane.splat.emplace_back(it->second, r);
          }
        }
        r = it->second;
      });
      lane.code.push_back(in);
    }

    ++stats_->lane_loops;
    prog_->lane_doubles_ =
        std::max(prog_->lane_doubles_,
                 static_cast<std::size_t>(lane.slots) * kLanes);
    ld.lane = static_cast<int>(prog_->lanes_.size());
    prog_->lanes_.push_back(std::move(lane));
    prog_->code_.resize(static_cast<std::size_t>(ld.body_pc));
    emit(Op::LaneLoop, li);
    ld.exit_pc = here();
  }

  /// A nest-level walk planned by the enclosing loop.
  struct NestWalk {
    const Expr* ref = nullptr;
    WalkDesc desc;
    int init_pc = -1;  // its WalkInit, patched with the walk index
  };
  /// The nest-level walks of one inner loop, and the registers holding
  /// its bounds (computed in the enclosing loop's preheader).
  struct NestPlan {
    int lo = -1, hi = -1, step = -1;
    std::vector<NestWalk> walks;
  };

  const ProgramImage* image_;
  EngineStats* stats_;
  std::unique_ptr<Program> prog_;
  int nregs_ = 0;
  int ncursors_ = 0;
  std::unordered_map<const Stmt*, NestPlan> nest_plans_;  // by inner loop
  std::unordered_map<const Expr*, int> walk_of_;
  std::unordered_map<std::uint64_t, int> const_reg_;  // value bits -> reg
  std::unordered_map<int, int> home_reg_;             // scalar slot -> reg
  std::set<int> written_slots_;                       // slots stored back
};

const Program* BytecodeEngine::compiled(const Stmt& s) {
  if (const auto it = cache_.find(&s); it != cache_.end()) {
    if (it->second) ++stats_.cache_hits;
    return it->second.get();
  }
  auto prog = Compiler(image_, &stats_).compile(s);
  if (!prog) {
    ++stats_.compile_rejects;
  } else if (prog->lane_doubles() > lanes_.size()) {
    lanes_.resize(prog->lane_doubles());
  }
  const auto* p = prog.get();
  cache_.emplace(&s, std::move(prog));
  return p;
}

}  // namespace autocfd::interp::bytecode
