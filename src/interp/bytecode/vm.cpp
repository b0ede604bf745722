// Dispatch loop for compiled programs. Every operation here must stay
// bit-identical to the tree-walker (see the header contract); the
// scalar math is shared via eval_ops.hpp.
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

}  // namespace

ExecSignal Program::execute(Env& env, double& flops) const {
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
        regs[in.a] = regs[in.b];
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
        regs[in.a] = -regs[in.b];
        ++pc;
        break;
      case Op::Not:
        regs[in.a] = regs[in.b] != 0.0 ? 0.0 : 1.0;
        ++pc;
        break;
      case Op::Add:
        regs[in.a] = regs[in.b] + regs[in.c];
        ++pc;
        break;
      case Op::Sub:
        regs[in.a] = regs[in.b] - regs[in.c];
        ++pc;
        break;
      case Op::Mul:
        regs[in.a] = regs[in.b] * regs[in.c];
        ++pc;
        break;
      case Op::Div:
        regs[in.a] = regs[in.b] / regs[in.c];
        ++pc;
        break;
      case Op::Pow:
        regs[in.a] = eval_pow(regs[in.b], regs[in.c]);
        ++pc;
        break;
      case Op::Lt:
        regs[in.a] = regs[in.b] < regs[in.c] ? 1.0 : 0.0;
        ++pc;
        break;
      case Op::Le:
        regs[in.a] = regs[in.b] <= regs[in.c] ? 1.0 : 0.0;
        ++pc;
        break;
      case Op::Gt:
        regs[in.a] = regs[in.b] > regs[in.c] ? 1.0 : 0.0;
        ++pc;
        break;
      case Op::Ge:
        regs[in.a] = regs[in.b] >= regs[in.c] ? 1.0 : 0.0;
        ++pc;
        break;
      case Op::CmpEq:
        regs[in.a] = regs[in.b] == regs[in.c] ? 1.0 : 0.0;
        ++pc;
        break;
      case Op::CmpNe:
        regs[in.a] = regs[in.b] != regs[in.c] ? 1.0 : 0.0;
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
        long long count = 0;
        if (step > 0) {
          count = lo <= hi ? (hi - lo) / step + 1 : 0;
        } else {
          count = lo >= hi ? (lo - hi) / (-step) + 1 : 0;
        }
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
        pc = static_cast<std::size_t>(ld.body_pc);
        break;
      }
      case Op::WalkInit: {
        const WalkDesc& wd = walks_[static_cast<std::size_t>(in.a)];
        ArrayValue& av = arrays[wd.array_slot];
        if (static_cast<int>(wd.dims.size()) != av.rank()) {
          throw autocfd::CompileError("subscript rank mismatch");
        }
        const LoopState& ls = loop_state[wd.loop];
        long long idx = 0;
        long long stride = 0;
        long long dimstride = 1;
        for (std::size_t d = 0; d < wd.dims.size(); ++d) {
          const WalkDim& dim = wd.dims[d];
          long long first = 0;
          long long last = 0;
          if (dim.affine) {
            first = ls.v + dim.offset;
            last = ls.last + dim.offset;
          } else {
            first = static_cast<long long>(std::llround(regs[dim.reg]));
            last = first;
          }
          const long long lo = av.lower[d];
          const long long hi = av.upper(static_cast<int>(d));
          // The check is hoisted over the whole iteration range; report
          // the value of the *first failing iteration*, exactly what
          // the per-iteration check of the tree-walker would report.
          if (first < lo || first > hi) throw_oob(static_cast<int>(d), first, lo, hi);
          if (last < lo || last > hi) {
            long long bad = 0;
            if (ls.step > 0) {
              bad = first + ((hi - first) / ls.step + 1) * ls.step;
            } else {
              bad = first - ((first - lo) / (-ls.step) + 1) * (-ls.step);
            }
            throw_oob(static_cast<int>(d), bad, lo, hi);
          }
          idx += (first - lo) * dimstride;
          if (dim.affine) stride += ls.step * dimstride;
          dimstride *= av.extent[d];
        }
        walk[in.a] = WalkState{av.data.data() + idx, stride};
        ++pc;
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
