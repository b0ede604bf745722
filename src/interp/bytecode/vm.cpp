// Dispatch loop for compiled programs. Every operation here must stay
// bit-identical to the tree-walker (see the header contract); the
// scalar math is shared via eval_ops.hpp, and each op's semantics is
// one eval<op> for the scalar and the lane-wise paths.
#include <algorithm>
#include <cfloat>
#include <climits>
#include <cmath>
#include <string>

#include "autocfd/interp/bytecode.hpp"
#include "autocfd/interp/eval_ops.hpp"

namespace autocfd::interp::bytecode {

namespace {

[[noreturn]] void throw_oob(int dim, long long value, long long lo,
                            long long hi) {
  // Same format as ArrayValue::index so the engines fail identically.
  throw autocfd::CompileError(
      "array subscript out of bounds: dim " + std::to_string(dim + 1) +
      " value " + std::to_string(value) + " not in [" + std::to_string(lo) +
      ", " + std::to_string(hi) + "]");
}

[[noreturn]] void throw_non_finite(double v, const fortran::Stmt& s) {
  // Same message as Interpreter::exec_assign.
  throw autocfd::CompileError(
      "non-finite value (" + std::to_string(v) + ") assigned to array '" +
      s.lhs->name + "' at " + s.loc.str() + ": the computation diverged");
}

/// Iterations of `do v = lo, hi, step` (step != 0).
long long trip_count(long long lo, long long hi, long long step) {
  if (step > 0) return lo <= hi ? (hi - lo) / step + 1 : 0;
  return lo >= hi ? (lo - hi) / (-step) + 1 : 0;
}

/// The scalar semantics of each unary and binary op, defined once for
/// the scalar dispatch and the lane-wise loops. Comparisons and .not.
/// yield 1.0 or 0.0, the tree-walker's logical values.
template <Op op>
double eval(double a, double b = 0.0) {
  if constexpr (op == Op::Move) return a;
  if constexpr (op == Op::Neg) return -a;
  if constexpr (op == Op::Not) return a != 0.0 ? 0.0 : 1.0;
  if constexpr (op == Op::Add) return a + b;
  if constexpr (op == Op::Sub) return a - b;
  if constexpr (op == Op::Mul) return a * b;
  if constexpr (op == Op::Div) return a / b;
  if constexpr (op == Op::Pow) return eval_pow(a, b);
  if constexpr (op == Op::Lt) return a < b ? 1.0 : 0.0;
  if constexpr (op == Op::Le) return a <= b ? 1.0 : 0.0;
  if constexpr (op == Op::Gt) return a > b ? 1.0 : 0.0;
  if constexpr (op == Op::Ge) return a >= b ? 1.0 : 0.0;
  if constexpr (op == Op::CmpEq) return a == b ? 1.0 : 0.0;
  if constexpr (op == Op::CmpNe) return a != b ? 1.0 : 0.0;
}

template <Op op>
void lanewise(double* dst, const double* a, int n) {
  for (int l = 0; l < n; ++l) dst[l] = eval<op>(a[l]);
}

template <Op op>
void lanewise(double* dst, const double* a, const double* b, int n) {
  for (int l = 0; l < n; ++l) dst[l] = eval<op>(a[l], b[l]);
}

/// Number of leading finite values of v[0..n). The first loop has no
/// early exit, so it vectorizes; only a chunk with a bad lane rescans.
int finite_prefix(const double* v, int n) {
  bool bad = false;
  for (int l = 0; l < n; ++l) bad |= !(std::fabs(v[l]) <= DBL_MAX);
  if (!bad) return n;
  int m = 0;
  while (std::isfinite(v[m])) ++m;
  return m;
}

}  // namespace

Program::WalkStart Program::start_walk(const WalkDesc& wd,
                                       const ArrayValue& av,
                                       const LoopState& own,
                                       const LoopState* outer,
                                       const double* regs) {
  if (static_cast<int>(wd.dims.size()) != av.rank()) {
    throw autocfd::CompileError("subscript rank mismatch");
  }
  // The check is hoisted over every iteration. On failure report what
  // the tree-walker's per-access check reports: the earliest access in
  // iteration order (outer loop first) that is out of bounds, at its
  // lowest failing dim. A dim fails from some iteration k of the loop
  // it follows on (its values are monotone), so that access is the
  // smallest (outer k, inner k) over the failing dims.
  long long bad_outer = LLONG_MAX;
  long long bad_inner = LLONG_MAX;
  int bad_dim = -1;
  long long bad_value = 0;
  WalkStart out;
  long long dimstride = 1;
  for (std::size_t d = 0; d < wd.dims.size(); ++d) {
    const WalkDim& dim = wd.dims[d];
    const LoopState* const ls = dim.kind == DimKind::Affine  ? &own
                                : dim.kind == DimKind::Outer ? outer
                                                             : nullptr;
    long long first = 0;
    long long last = 0;
    if (ls) {
      first = ls->v + dim.offset;
      last = ls->last + dim.offset;
    } else {
      first = static_cast<long long>(std::llround(regs[dim.reg]));
      last = first;
    }
    const long long lo = av.lower[d];
    const long long hi = av.upper(static_cast<int>(d));
    long long k = -1;  // first failing iteration of the loop `ls`
    if (first < lo || first > hi) {
      k = 0;
    } else if (last < lo || last > hi) {
      k = ls->step > 0 ? (hi - first) / ls->step + 1
                       : (first - lo) / (-ls->step) + 1;
    }
    if (k >= 0) {
      const long long ko = dim.kind == DimKind::Outer ? k : 0;
      const long long ki = dim.kind == DimKind::Affine ? k : 0;
      if (ko < bad_outer || (ko == bad_outer && ki < bad_inner)) {
        bad_outer = ko;
        bad_inner = ki;
        bad_dim = static_cast<int>(d);
        bad_value = ls ? first + k * ls->step : first;
      }
    }
    out.idx += (first - lo) * dimstride;
    if (dim.kind == DimKind::Affine) out.stride += own.step * dimstride;
    if (dim.kind == DimKind::Outer) out.outer_stride += outer->step * dimstride;
    dimstride *= av.extent[d];
  }
  if (bad_dim >= 0) {
    const auto d = static_cast<std::size_t>(bad_dim);
    throw_oob(bad_dim, bad_value, av.lower[d], av.upper(bad_dim));
  }
  return out;
}

long long Program::run_lanes(const LoopDesc& ld, const LoopState& ls,
                             double* regs, const WalkState* walk,
                             double* lanes) const {
  const LaneDesc& lane = lanes_[static_cast<std::size_t>(ld.lane)];
  const int* const opnd = operands_.data();
  const auto slot = [lanes](int s) {
    return lanes + static_cast<std::ptrdiff_t>(s) * kLanes;
  };
  // An invariant input fills only the lanes the loop's chunks use: a
  // 25-trip loop splats 25 doubles, not kLanes.
  const long long count = (ls.last - ls.v) / ls.step + 1;
  const int width = static_cast<int>(std::min<long long>(kLanes, count));
  for (const auto& [s, reg] : lane.splat) {
    std::fill_n(slot(s), width, regs[reg]);
  }
  int n = 0;
  for (long long first = 0; first < count; first += kLanes) {
    n = static_cast<int>(std::min<long long>(kLanes, count - first));
    if (lane.var_slot >= 0) {
      double* const v = slot(lane.var_slot);
      for (int l = 0; l < n; ++l) {
        v[l] = static_cast<double>(ls.v + (first + l) * ls.step);
      }
    }
    double bad_value = 0.0;
    int bad_stmt = -1;
    for (const Instr& in : lane.code) {
      double* const dst = slot(in.a);
      switch (in.op) {
        case Op::Move:
          lanewise<Op::Move>(dst, slot(in.b), n);
          break;
        case Op::LoadWalk: {
          const WalkState& w = walk[in.b];
          const double* const p = w.p + first * w.stride;
          if (w.stride == 1) {
            std::copy_n(p, n, dst);
          } else {
            for (int l = 0; l < n; ++l) dst[l] = p[l * w.stride];
          }
          break;
        }
        case Op::StoreWalk: {
          // Store the lanes before the first non-finite value; the
          // rest of the chunk runs only the iterations before it.
          const WalkState& w = walk[in.b];
          double* const p = w.p + first * w.stride;
          const int m = finite_prefix(dst, n);
          for (int l = 0; l < m; ++l) p[l * w.stride] = dst[l];
          if (m < n) {
            bad_value = dst[m];
            bad_stmt = in.c;
            n = m;
          }
          break;
        }
        case Op::Neg:
          lanewise<Op::Neg>(dst, slot(in.b), n);
          break;
        case Op::Not:
          lanewise<Op::Not>(dst, slot(in.b), n);
          break;
        case Op::Add:
          lanewise<Op::Add>(dst, slot(in.b), slot(in.c), n);
          break;
        case Op::Sub:
          lanewise<Op::Sub>(dst, slot(in.b), slot(in.c), n);
          break;
        case Op::Mul:
          lanewise<Op::Mul>(dst, slot(in.b), slot(in.c), n);
          break;
        case Op::Div:
          lanewise<Op::Div>(dst, slot(in.b), slot(in.c), n);
          break;
        case Op::Pow:
          lanewise<Op::Pow>(dst, slot(in.b), slot(in.c), n);
          break;
        case Op::Lt:
          lanewise<Op::Lt>(dst, slot(in.b), slot(in.c), n);
          break;
        case Op::Le:
          lanewise<Op::Le>(dst, slot(in.b), slot(in.c), n);
          break;
        case Op::Gt:
          lanewise<Op::Gt>(dst, slot(in.b), slot(in.c), n);
          break;
        case Op::Ge:
          lanewise<Op::Ge>(dst, slot(in.b), slot(in.c), n);
          break;
        case Op::CmpEq:
          lanewise<Op::CmpEq>(dst, slot(in.b), slot(in.c), n);
          break;
        case Op::CmpNe:
          lanewise<Op::CmpNe>(dst, slot(in.b), slot(in.c), n);
          break;
        case Op::Intrin: {
          const double* src[8];
          for (int k = 0; k < in.d; ++k) src[k] = slot(opnd[in.c + k]);
          const auto op = static_cast<Intrinsic>(in.b);
          double args[8]{};
          for (int l = 0; l < n; ++l) {
            for (int k = 0; k < in.d; ++k) args[k] = src[k][l];
            dst[l] = apply_intrinsic(op, args, static_cast<std::size_t>(in.d));
          }
          break;
        }
        default:
          break;  // unreachable: the compiler admits no other op
      }
    }
    if (bad_stmt >= 0) {
      throw_non_finite(bad_value, *stmts_[static_cast<std::size_t>(bad_stmt)]);
    }
  }
  for (const auto& [reg, s] : lane.out) regs[reg] = slot(s)[n - 1];
  regs[ld.var_reg] = static_cast<double>(ls.last);
  return count;
}

ExecSignal Program::execute(Env& env, double& flops, double* lanes) const {
  // Locals, not members: stores through `regs` or a walk pointer
  // cannot alias them, so they stay in machine registers.
  double* const regs = regs_.data();
  double* const scalars = env.scalars.data();
  ArrayValue* const arrays = env.arrays.data();
  const Instr* const code = code_.data();
  const int* const opnd = operands_.data();
  const LoopDesc* const loops = loops_.data();
  LoopState* const loop_state = loop_state_.data();
  WalkState* const walk = walk_state_.data();
  WalkState* const cursor = cursor_state_.data();
  double fl = flops;

  for (const Home& h : homes_) regs[h.reg] = scalars[h.slot];
  const auto finish = [&](ExecSignal sig) {
    for (const Home& h : written_) scalars[h.slot] = regs[h.reg];
    flops = fl;
    return sig;
  };

  std::size_t pc = 0;
  for (;;) {
    const Instr& in = code[pc];
    switch (in.op) {
      case Op::Move:
        regs[in.a] = eval<Op::Move>(regs[in.b]);
        ++pc;
        break;
      case Op::LoadElem: {
        const ArrayValue& av = arrays[in.b];
        long long subs[8];
        for (int k = 0; k < in.d; ++k) {
          subs[k] = static_cast<long long>(std::llround(regs[opnd[in.c + k]]));
        }
        regs[in.a] = av.data[static_cast<std::size_t>(
            av.index({subs, static_cast<std::size_t>(in.d)}))];
        ++pc;
        break;
      }
      case Op::StoreElem: {
        ArrayValue& av = arrays[in.b];
        long long subs[8];
        for (int k = 0; k < in.d; ++k) {
          subs[k] = static_cast<long long>(std::llround(regs[opnd[in.c + k]]));
        }
        av.data[static_cast<std::size_t>(
            av.index({subs, static_cast<std::size_t>(in.d)}))] = regs[in.a];
        ++pc;
        break;
      }
      case Op::LoadWalk:
        regs[in.a] = *walk[in.b].p;
        ++pc;
        break;
      case Op::StoreWalk: {
        const double v = regs[in.a];
        if (!std::isfinite(v)) {
          throw_non_finite(v, *stmts_[static_cast<std::size_t>(in.c)]);
        }
        *walk[in.b].p = v;
        ++pc;
        break;
      }
      case Op::CheckFinite: {
        const double v = regs[in.a];
        if (!std::isfinite(v)) {
          throw_non_finite(v, *stmts_[static_cast<std::size_t>(in.b)]);
        }
        ++pc;
        break;
      }
      case Op::Neg:
        regs[in.a] = eval<Op::Neg>(regs[in.b]);
        ++pc;
        break;
      case Op::Not:
        regs[in.a] = eval<Op::Not>(regs[in.b]);
        ++pc;
        break;
      case Op::Add:
        regs[in.a] = eval<Op::Add>(regs[in.b], regs[in.c]);
        ++pc;
        break;
      case Op::Sub:
        regs[in.a] = eval<Op::Sub>(regs[in.b], regs[in.c]);
        ++pc;
        break;
      case Op::Mul:
        regs[in.a] = eval<Op::Mul>(regs[in.b], regs[in.c]);
        ++pc;
        break;
      case Op::Div:
        regs[in.a] = eval<Op::Div>(regs[in.b], regs[in.c]);
        ++pc;
        break;
      case Op::Pow:
        regs[in.a] = eval<Op::Pow>(regs[in.b], regs[in.c]);
        ++pc;
        break;
      case Op::Lt:
        regs[in.a] = eval<Op::Lt>(regs[in.b], regs[in.c]);
        ++pc;
        break;
      case Op::Le:
        regs[in.a] = eval<Op::Le>(regs[in.b], regs[in.c]);
        ++pc;
        break;
      case Op::Gt:
        regs[in.a] = eval<Op::Gt>(regs[in.b], regs[in.c]);
        ++pc;
        break;
      case Op::Ge:
        regs[in.a] = eval<Op::Ge>(regs[in.b], regs[in.c]);
        ++pc;
        break;
      case Op::CmpEq:
        regs[in.a] = eval<Op::CmpEq>(regs[in.b], regs[in.c]);
        ++pc;
        break;
      case Op::CmpNe:
        regs[in.a] = eval<Op::CmpNe>(regs[in.b], regs[in.c]);
        ++pc;
        break;
      case Op::Intrin: {
        double args[8];
        for (int k = 0; k < in.d; ++k) args[k] = regs[opnd[in.c + k]];
        regs[in.a] = apply_intrinsic(static_cast<Intrinsic>(in.b), args,
                                     static_cast<std::size_t>(in.d));
        ++pc;
        break;
      }
      case Op::AddFlops:
        fl += regs[in.a];
        ++pc;
        break;
      case Op::Jump:
        pc = static_cast<std::size_t>(in.a);
        break;
      case Op::JumpIfZero:
        pc = regs[in.a] == 0.0 ? static_cast<std::size_t>(in.b) : pc + 1;
        break;
      case Op::JumpIfNotZero:
        pc = regs[in.a] != 0.0 ? static_cast<std::size_t>(in.b) : pc + 1;
        break;
      case Op::LoopBegin: {
        const LoopDesc& ld = loops[in.a];
        const auto lo = static_cast<long long>(std::llround(regs[in.b]));
        const auto hi = static_cast<long long>(std::llround(regs[in.c]));
        const auto step = static_cast<long long>(std::llround(regs[in.d]));
        if (step == 0) {
          throw autocfd::CompileError("do loop with zero step");
        }
        const long long count = trip_count(lo, hi, step);
        if (count == 0) {
          pc = static_cast<std::size_t>(ld.exit_pc);
          break;
        }
        loop_state[in.a] = LoopState{lo, lo + (count - 1) * step, step};
        regs[ld.var_reg] = static_cast<double>(lo);
        ++pc;
        break;
      }
      case Op::LoopNext: {
        const LoopDesc& ld = loops[in.a];
        LoopState& ls = loop_state[in.a];
        fl += ld.iter_flops;
        if (ls.v == ls.last) {
          ++pc;  // falls through to exit_pc
          break;
        }
        ls.v += ls.step;
        regs[ld.var_reg] = static_cast<double>(ls.v);
        for (int w = ld.walk_begin; w < ld.walk_end; ++w) {
          walk[w].p += walk[w].stride;
        }
        for (int c = ld.cursor_begin; c < ld.cursor_end; ++c) {
          cursor[c].p += cursor[c].stride;
        }
        pc = static_cast<std::size_t>(ld.body_pc);
        break;
      }
      case Op::WalkInit: {
        const WalkDesc& wd = walks_[static_cast<std::size_t>(in.a)];
        ArrayValue& av = arrays[wd.array_slot];
        double* const base = av.data.data();
        if (wd.nest < 0) {
          const WalkStart ws =
              start_walk(wd, av, loop_state[wd.loop], nullptr, regs);
          walk[in.a] = WalkState{base + ws.idx, ws.stride};
          ++pc;
          break;
        }
        // A nest-level walk, checked before its own loop starts: that
        // loop's bounds are invariant here, and it runs once per
        // iteration of the loop `nest`. No iteration, no access.
        WalkState& cur = cursor[wd.cursor];
        const auto lo = static_cast<long long>(std::llround(regs[in.b]));
        const auto hi = static_cast<long long>(std::llround(regs[in.c]));
        const auto step = static_cast<long long>(std::llround(regs[in.d]));
        const long long count = step == 0 ? 0 : trip_count(lo, hi, step);
        if (count == 0) {
          cur = WalkState{};
          ++pc;
          break;
        }
        const LoopState own{lo, lo + (count - 1) * step, step};
        const WalkStart ws =
            start_walk(wd, av, own, &loop_state[wd.nest], regs);
        cur = WalkState{base + ws.idx, ws.outer_stride};
        walk[in.a].stride = ws.stride;
        ++pc;
        break;
      }
      case Op::WalkCopy:
        walk[in.a].p = cursor[in.b].p;
        ++pc;
        break;
      case Op::LaneLoop: {
        const LoopDesc& ld = loops[in.a];
        const long long trips =
            run_lanes(ld, loop_state[in.a], regs, walk, lanes);
        fl += ld.iter_flops * static_cast<double>(trips);
        pc = static_cast<std::size_t>(ld.exit_pc);
        break;
      }
      case Op::Ret:
        return finish(ExecSignal::Return);
      case Op::StopProg:
        return finish(ExecSignal::Stop);
      case Op::Halt:
        return finish(ExecSignal::Normal);
    }
  }
}

}  // namespace autocfd::interp::bytecode
