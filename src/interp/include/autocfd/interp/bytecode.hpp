// Bytecode execution engine for the Fortran-subset interpreter.
//
// The tree-walker re-walks every Expr node, re-rounds every subscript
// and re-checks every array bound on every iteration of every field
// loop — the dominant host-time cost of the whole simulated cluster.
// This engine compiles each DO loop (and each standalone assignment)
// once into a flat, register-based program and caches it by statement
// identity; execution is a branch-light dispatch loop over a flat
// instruction vector.
//
// Register file. A kernel's registers are of three kinds:
//   * constant registers — one per distinct literal (or flop count)
//     value, preset when the kernel is compiled; no instruction writes
//     them, so no instruction materializes a literal at run time;
//   * home registers — one per scalar slot the kernel touches,
//     including DO induction variables. Every home is loaded from the
//     environment at kernel entry, and the homes the kernel writes are
//     stored back at Halt, Ret and StopProg. Inside the kernel scalars
//     live only in their homes, so `acc = acc + 0.5*(u(i+1)-u(i-1))`
//     is LoadWalk, LoadWalk, Sub, Mul, Add with the Add writing the
//     home of `acc` directly. A kernel that throws skips the store
//     back and leaves promoted scalars at their entry values; the run
//     has already failed at that point;
//   * temporaries — fresh per expression node, defined before use on
//     every path.
//
// Strength reduction: inside a compiled loop, array references whose
// subscripts are all either affine in that loop's induction variable
// (v, v+c, v-c) or loop-invariant become "walks": a direct element
// pointer computed once at loop entry (with the per-dimension bounds
// check hoisted to cover the whole iteration range) and advanced by a
// constant stride per iteration, so the inner loop touches contiguous
// doubles with no rounding and no bounds test. Reduction is only
// applied to references in straight-line statements of loops that
// cannot exit early (no RETURN/STOP in the body), so a hoisted check
// can never fire for an access the tree-walker would not perform on a
// *successfully completing* run; a run that would fault inside the
// loop faults at loop entry instead. The message is the tree-walker's
// for the first access it would fault on: the earliest out-of-bounds
// iteration, at the lowest dimension failing there (a subscript's
// values are monotone over the loop, so each dimension fails from one
// iteration on and the check computes that iteration directly).
//
// Nest-level walks. A DO loop I that is a direct statement of loop L's
// body (not under an IF), where neither can exit early, whose bounds
// are invariant in L and neither of whose variables its body assigns,
// runs once per iteration of L with the same iterations every time.
// A reference in I's straight-line assignments whose every subscript
// is affine in I, affine in L (DimKind::Outer) or invariant in L is
// then set up once, in L's preheader, not at every entry to I:
//   * one WalkInit checks L's range x I's range (I's bounds are
//     computed there too, and I's LoopBegin reuses them). It is
//     skipped when I has zero trips, as the tree-walker then touches
//     nothing. On failure it reports the earliest access in (L, I)
//     iteration order, so for one failing dimension the message is the
//     tree-walker's whether that dimension follows I or L;
//   * a cursor holds the element at I's first iteration for the
//     current iteration of L; L's LoopNext advances it by L's stride;
//   * I's preheader copies the cursor into the walk (WalkCopy) with no
//     check, and I's LoopNext advances the walk by I's stride.
// WalkDesc::nest names L for such a walk; it is still owned by I, so
// the lane-wise rules below see it as one of I's walks, and an Outer
// dimension, fixed within I, does not count as affine for rule 3.
//
// Flop accounting. The same legality rule lets a loop charge the flops
// of its body's unconditional assignments once per iteration
// (LoopDesc::iter_flops, added by LoopNext) instead of one AddFlops per
// assignment; assignments under IF, and every assignment of a loop
// that can exit early, keep AddFlops. The totals are bit-identical to
// the tree-walker's: every flop cost is an integer and every total
// stays below 2^53, so each partial sum is exact in any order. The
// virtual clock reads the count only at extension statements and
// profiler unit boundaries, neither of which occurs inside a kernel.
//
// Lane-wise loops. An innermost loop whose body is straight-line
// assignments may instead run one instruction at a time over a chunk
// of up to kLanes iterations: each body instruction becomes one tight
// C++ loop over the chunk's lanes. The compiler decides from its own
// walk descriptors and registers, so the same rule covers the
// sequential source and the restructured rank programs. A loop
// qualifies when
//   1. its body compiles to Move, LoadWalk, StoreWalk, arithmetic,
//      compare, Pow and Intrin only (no LoadElem, StoreElem,
//      CheckFinite, jumps or nested loops);
//   2. every array the body stores to is referenced only through walks
//      with identical subscripts (the same offset in each affine
//      dimension, the same register in each invariant one);
//   3. every stored walk has an affine dimension, so each iteration
//      touches its own element;
//   4. every register the body writes is written before the body first
//      reads it, so assigned scalars (`acc`) are private to an
//      iteration and a reduction like `r = max(r, ...)` is rejected;
//   5. the DO variable is never assigned.
// Distinct array slots never share storage, so then no iteration reads
// a value another iteration writes, and running statement by statement
// over many iterations gives every element the same operations in the
// same order as the scalar path: every value is bitwise the same (the
// scalar and lane-wise paths apply one definition of each op).
// Each register becomes a lane slot of kLanes doubles in one buffer
// owned by the engine; loop-invariant registers are broadcast once per
// loop entry, into only the min(kLanes, trips) lanes its chunks use.
// After the loop, the homes the body assigns and the DO variable hold
// their last-iteration values, and the loop charges
// iter_flops * trip count (exact, by the integer argument below). A
// non-finite store throws the scalar path's message for the earliest
// (iteration, statement) in scalar order: a store that finds a bad
// lane stores the lanes before it and truncates the chunk there, so a
// later statement can still report an earlier iteration. Earlier
// statements may already have stored later lanes; as with any
// throwing kernel, the run has failed at that point.
//
// Everything else about the semantics — evaluation order, llround
// subscript rounding, the pow fast path, short-circuit logicals, the
// non-finite array-store guard, the value a DO variable holds after
// its loop — is shared with or copied exactly from the tree-walker,
// and the differential tests assert bit-identical scalars, arrays,
// flops and trace event streams across both engines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "autocfd/interp/env.hpp"

namespace autocfd::interp::bytecode {

enum class Op : std::uint8_t {
  Move,         // r[a] = r[b]
  LoadElem,     // r[a] = arrays[b][llround(r[opnd[c .. c+d-1]])] (checked)
  StoreElem,    // arrays[b][llround(r[opnd[c .. c+d-1]])] = r[a] (checked)
  LoadWalk,     // r[a] = *walk[b].p
  StoreWalk,    // *walk[b].p = r[a], after the non-finite check (stmt c)
  CheckFinite,  // throw CompileError unless r[a] is finite (stmt b)
  Neg,          // r[a] = -r[b]
  Not,          // r[a] = r[b] != 0 ? 0 : 1
  Add, Sub, Mul, Div, Pow,          // r[a] = r[b] op r[c]
  Lt, Le, Gt, Ge, CmpEq, CmpNe,     // r[a] = r[b] op r[c] ? 1 : 0
  Intrin,       // r[a] = intrinsic b applied to r[opnd[c .. c+d-1]]
  AddFlops,     // flops += r[a] (a constant register)
  Jump,         // pc = a
  JumpIfZero,   // if (r[a] == 0) pc = b
  JumpIfNotZero,  // if (r[a] != 0) pc = b
  LoopBegin,    // enter loop a: lo=r[b], hi=r[c], step=r[d]
  LoopNext,     // advance loop a: jump to body or fall through to exit
  WalkInit,     // initialize walk a (hoisted bounds check); a nest-level
                //   walk reads its loop's lo=r[b], hi=r[c], step=r[d]
  WalkCopy,     // walk[a].p = cursor[b].p: enter a nest-level walk
  LaneLoop,     // run loop a lane-wise over all its iterations, then exit
  Ret,          // store homes back, halt with Signal::Return
  StopProg,     // store homes back, halt with Signal::Stop
  Halt,         // store homes back, normal end of program
};

struct Instr {
  Op op = Op::Halt;
  int a = 0, b = 0, c = 0, d = 0;
};

/// Compile-time description of one DO loop in a kernel.
struct LoopDesc {
  int var_reg = -1;         // home register of the induction variable
  int body_pc = 0;          // first instruction of the loop body
  int exit_pc = 0;          // first instruction after the loop
  int walk_begin = 0;       // walks [walk_begin, walk_end) advance
  int walk_end = 0;         //   by one stride each iteration
  int cursor_begin = 0;     // cursors [cursor_begin, cursor_end) of
  int cursor_end = 0;       //   nested loops' nest-level walks, likewise
  double iter_flops = 0.0;  // flops charged by each LoopNext
  int lane = -1;            // lane-wise body index, or -1: scalar path
};

/// Iterations a lane-wise loop runs per chunk.
inline constexpr int kLanes = 128;

/// The body of a lane-wise loop. Its code holds the body's
/// instructions with every register operand renamed to a lane slot:
/// kLanes doubles of the engine's lane buffer, one per iteration of
/// the current chunk.
struct LaneDesc {
  std::vector<Instr> code;
  std::vector<std::pair<int, int>> splat;  // {slot, reg}: invariant inputs
  std::vector<std::pair<int, int>> out;    // {reg, slot}: homes assigned
  int var_slot = -1;  // slot of the DO variable, if the body reads it
  int slots = 0;
};

/// How one subscript of a strength-reduced array reference moves.
enum class DimKind : std::uint8_t {
  Invariant,  // fixed for the walk's lifetime: the value of register reg
  Affine,     // the owning loop's variable + offset
  Outer,      // nest-level walk only: the nest loop's variable + offset
};

/// One dimension of a strength-reduced array reference.
struct WalkDim {
  DimKind kind = DimKind::Invariant;
  long long offset = 0;  // Affine and Outer
  int reg = -1;          // Invariant
};

/// Compile-time description of one strength-reduced array reference.
struct WalkDesc {
  int array_slot = -1;
  int loop = -1;    // owning LoopDesc index: its LoopNext advances the walk
  int nest = -1;    // nest-level walk: the LoopDesc index of the enclosing
                    //   loop whose preheader checks it; -1 otherwise
  int cursor = -1;  // nest-level walk: its cursor, advanced by `nest`
  std::vector<WalkDim> dims;
};

enum class ExecSignal { Normal, Return, Stop };

/// Compile/cache counters, surfaced in the run report's engine_stats
/// block and as `engine.bytecode.*` ledger keys.
struct EngineStats {
  long long kernels_compiled = 0;  // DO statements compiled to kernels
  long long stmts_compiled = 0;    // standalone assignments compiled
  long long compile_rejects = 0;   // statements left to the tree-walker
  long long cache_hits = 0;        // executions served from the cache
  long long kernel_runs = 0;       // compiled program executions
  long long instrs_emitted = 0;
  long long walks_reduced = 0;     // array refs turned into walks
  long long lane_loops = 0;        // loops compiled lane-wise

  EngineStats& operator+=(const EngineStats& o) {
    kernels_compiled += o.kernels_compiled;
    stmts_compiled += o.stmts_compiled;
    compile_rejects += o.compile_rejects;
    cache_hits += o.cache_hits;
    kernel_runs += o.kernel_runs;
    instrs_emitted += o.instrs_emitted;
    walks_reduced += o.walks_reduced;
    lane_loops += o.lane_loops;
    return *this;
  }

  /// Name/value pairs for the run report (stable order).
  [[nodiscard]] std::vector<std::pair<const char*, long long>> items() const {
    return {{"kernels_compiled", kernels_compiled},
            {"stmts_compiled", stmts_compiled},
            {"compile_rejects", compile_rejects},
            {"cache_hits", cache_hits},
            {"kernel_runs", kernel_runs},
            {"instrs_emitted", instrs_emitted},
            {"walks_reduced", walks_reduced},
            {"lane_loops", lane_loops}};
  }
};

/// One compiled statement: a DO-loop kernel or a single assignment.
/// Execution scratch other than the engine's lane buffer is owned by
/// the program and reused across runs;
/// a Program must only be executed by one thread at a time (each
/// Interpreter — hence each simulated rank — owns its own cache).
class Program {
 public:
  /// `lanes` is scratch for lane-wise loops: at least lane_doubles().
  ExecSignal execute(Env& env, double& flops, double* lanes) const;

  [[nodiscard]] const std::vector<Instr>& code() const { return code_; }
  [[nodiscard]] const std::vector<LoopDesc>& loops() const { return loops_; }
  [[nodiscard]] const std::vector<WalkDesc>& walks() const { return walks_; }
  [[nodiscard]] std::size_t lane_doubles() const { return lane_doubles_; }

 private:
  friend class Compiler;

  struct LoopState {
    long long v = 0, last = 0, step = 1;
  };
  struct WalkState {
    double* p = nullptr;
    long long stride = 0;
  };
  /// A scalar slot promoted to a register for the kernel's lifetime.
  struct Home {
    int reg = -1;
    int slot = -1;
  };

  std::vector<Instr> code_;
  std::vector<LoopDesc> loops_;
  std::vector<WalkDesc> walks_;
  std::vector<LaneDesc> lanes_;
  std::size_t lane_doubles_ = 0;  // largest lane body's slots * kLanes
  /// Operand register lists of LoadElem, StoreElem and Intrin.
  std::vector<int> operands_;
  std::vector<Home> homes_;    // loaded at entry
  std::vector<Home> written_;  // stored back at Halt/Ret/StopProg
  /// Statements referenced by CheckFinite/StoreWalk for error attribution.
  std::vector<const fortran::Stmt*> stmts_;

  /// Start of a walk: its element index and per-iteration strides.
  struct WalkStart {
    long long idx = 0;
    long long stride = 0;        // per iteration of the owning loop
    long long outer_stride = 0;  // per iteration of the nest loop
  };
  /// Checks walk `wd` over every iteration of `own` (the owning loop)
  /// and, for a nest-level walk, of `outer`; throws the tree-walker's
  /// out-of-bounds message for the first access that fails.
  static WalkStart start_walk(const WalkDesc& wd, const ArrayValue& av,
                              const LoopState& own, const LoopState* outer,
                              const double* regs);

  /// Runs a LaneLoop's iterations; returns the trip count.
  long long run_lanes(const LoopDesc& ld, const LoopState& ls, double* regs,
                      const WalkState* walk, double* lanes) const;

  // Reused scratch (single-threaded per owning interpreter). The
  // constant registers of regs_ are preset by the compiler.
  mutable std::vector<double> regs_;
  mutable std::vector<LoopState> loop_state_;
  mutable std::vector<WalkState> walk_state_;
  /// Element of each nest-level walk at its loop's first iteration,
  /// for the current iteration of the enclosing loop.
  mutable std::vector<WalkState> cursor_state_;
};

/// Per-interpreter compile cache keyed by statement identity (the AST
/// node address — stable for the lifetime of the SourceFile).
class BytecodeEngine {
 public:
  explicit BytecodeEngine(const ProgramImage& image) : image_(&image) {}

  /// Returns the compiled program for `s` (compiling on first call),
  /// or nullptr when the statement is outside the compilable subset
  /// and must be tree-walked. Only Do and Assign statements are
  /// candidates.
  const Program* compiled(const fortran::Stmt& s);

  /// Executes a program this engine compiled, with the engine's lane
  /// buffer as its scratch.
  ExecSignal run(const Program& p, Env& env, double& flops) {
    ++stats_.kernel_runs;
    return p.execute(env, flops, lanes_.data());
  }

  [[nodiscard]] const EngineStats& stats() const { return stats_; }

 private:
  const ProgramImage* image_;
  std::unordered_map<const fortran::Stmt*, std::unique_ptr<Program>> cache_;
  EngineStats stats_;
  /// Lane scratch shared by every cached program (sized to the largest).
  std::vector<double> lanes_;
};

}  // namespace autocfd::interp::bytecode
