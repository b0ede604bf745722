// Bytecode engine: kernel cache behavior, strength reduction, hoisted
// bounds checks, register-resident scalars, per-iteration flops,
// lane-wise loops and the contiguous halo-packing fast path.
//
// Bit-identity of whole programs across engines is covered by the
// randomized sweep in test_random_equivalence.cpp; this file tests the
// engine's own machinery on targeted programs.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "autocfd/codegen/spmd_runtime.hpp"
#include "autocfd/fortran/parser.hpp"
#include "autocfd/interp/interpreter.hpp"

namespace autocfd::interp {
namespace {

struct EngineRun {
  fortran::SourceFile file;
  ProgramImage image;
  Env env;
  double flops = 0.0;
  bytecode::EngineStats stats;
};

std::unique_ptr<EngineRun> run_engine(const std::string& source,
                                      EngineKind engine) {
  auto out = std::make_unique<EngineRun>();
  out->file = fortran::parse_source(source);
  DiagnosticEngine diags;
  out->image = ProgramImage::build(out->file, diags);
  throw_if_errors(diags, "image build");
  out->env = Env(out->image);
  out->env.allocate_arrays(out->image, diags);
  throw_if_errors(diags, "array allocation");
  Interpreter interp(out->image, {}, engine);
  interp.run(out->env);
  out->flops = interp.flops();
  out->stats = interp.engine_stats();
  return out;
}

void expect_envs_identical(const EngineRun& a, const EngineRun& b) {
  EXPECT_EQ(a.flops, b.flops);
  ASSERT_EQ(a.env.scalars.size(), b.env.scalars.size());
  for (std::size_t i = 0; i < a.env.scalars.size(); ++i) {
    ASSERT_EQ(a.env.scalars[i], b.env.scalars[i]) << "scalar " << i;
  }
  ASSERT_EQ(a.env.arrays.size(), b.env.arrays.size());
  for (std::size_t s = 0; s < a.env.arrays.size(); ++s) {
    const auto& av = a.env.arrays[s].data;
    const auto& bv = b.env.arrays[s].data;
    ASSERT_EQ(av.size(), bv.size()) << "array " << s;
    for (std::size_t i = 0; i < av.size(); ++i) {
      ASSERT_EQ(av[i], bv[i]) << "array " << s << "[" << i << "]";
    }
  }
}

/// Runs the same source on both engines and asserts bit-identity;
/// returns the bytecode run (for stats assertions).
std::unique_ptr<EngineRun> run_both(const std::string& source) {
  auto tree = run_engine(source, EngineKind::Tree);
  auto byte_ = run_engine(source, EngineKind::Bytecode);
  expect_envs_identical(*tree, *byte_);
  EXPECT_EQ(tree->stats.kernel_runs, 0);  // tree never runs kernels
  return byte_;
}

TEST(Bytecode, CompilesOnceAndServesRerunsFromTheCache) {
  // The write statement keeps the frame loop on the tree-walker, so
  // the inner field loop is looked up once per frame: compiled on
  // frame 1, cache hits on frames 2..4.
  const auto r = run_both(
      "program t\n"
      "real a(10)\n"
      "integer i, it\n"
      "real s\n"
      "do it = 1, 4\n"
      "  do i = 1, 10\n"
      "    a(i) = a(i) + it\n"
      "  end do\n"
      "  write(6,*) it\n"
      "end do\n"
      "end\n");
  EXPECT_EQ(r->stats.kernels_compiled, 1);
  EXPECT_GE(r->stats.compile_rejects, 1);  // the frame loop
  EXPECT_EQ(r->stats.cache_hits, 3);
  EXPECT_EQ(r->stats.kernel_runs, 4);
  EXPECT_GT(r->stats.instrs_emitted, 0);
}

TEST(Bytecode, StrengthReducesAffineAndInvariantSubscripts) {
  // a(i+1)/a(i-1) are affine in i; b(j, k) has an invariant dim (k is
  // loop-invariant inside the j loop). All should become walks.
  const auto r = run_both(
      "program t\n"
      "parameter (n = 12)\n"
      "real a(n), b(n, 3)\n"
      "integer i, j, k\n"
      "do i = 1, n\n"
      "  a(i) = 0.1 * i\n"
      "end do\n"
      "do i = 2, n - 1\n"
      "  a(i) = 0.5 * (a(i - 1) + a(i + 1))\n"
      "end do\n"
      "k = 2\n"
      "do j = 1, n\n"
      "  b(j, k) = a(j) * 2.0\n"
      "end do\n"
      "end\n");
  EXPECT_GE(r->stats.walks_reduced, 5);
  EXPECT_EQ(r->stats.compile_rejects, 0);
}

TEST(Bytecode, GuardedAccessesKeepPerIterationChecks) {
  // a(i+1) under the guard would be out of bounds on the final
  // iteration if its bounds check were hoisted to loop entry; the
  // engine must leave if-guarded references on the general path.
  const auto r = run_both(
      "program t\n"
      "parameter (n = 8)\n"
      "real a(n)\n"
      "integer i\n"
      "do i = 1, n\n"
      "  a(i) = i\n"
      "end do\n"
      "do i = 1, n\n"
      "  if (i .lt. n) then\n"
      "    a(i) = a(i + 1)\n"
      "  end if\n"
      "end do\n"
      "end\n");
  EXPECT_GE(r->stats.kernels_compiled, 2);
}

TEST(Bytecode, ZeroTripLoopSkipsHoistedChecks) {
  // The loop body would index far out of bounds, but a zero-trip loop
  // must not fault — on either engine the hoisted check never runs.
  const auto r = run_both(
      "program t\n"
      "real a(5)\n"
      "integer i\n"
      "do i = 10, 1\n"
      "  a(i + 100) = 1.0\n"
      "end do\n"
      "end\n");
  EXPECT_GE(r->stats.kernels_compiled, 1);
}

TEST(Bytecode, EarlyReturnDisablesReductionButStaysCorrect) {
  const auto r = run_both(
      "program t\n"
      "real a(6)\n"
      "integer i\n"
      "real s\n"
      "s = 0.0\n"
      "do i = 1, 6\n"
      "  a(i) = i\n"
      "  s = s + a(i)\n"
      "  if (i .gt. 3) then\n"
      "    return\n"
      "  end if\n"
      "end do\n"
      "end\n");
  // RETURN anywhere in the body bans hoisting for that loop.
  EXPECT_EQ(r->stats.walks_reduced, 0);
}

TEST(Bytecode, StandaloneAssignmentsCompileToo) {
  const auto r = run_both(
      "program t\n"
      "real x, y\n"
      "x = 2.0\n"
      "y = x ** 3 + sqrt(x)\n"
      "end\n");
  EXPECT_GE(r->stats.stmts_compiled, 2);
}

TEST(Bytecode, OutOfBoundsReportsTheSameMessageAsTheTree) {
  const std::string source =
      "program t\n"
      "real a(5)\n"
      "integer i\n"
      "do i = 1, 5\n"
      "  a(i + 1) = 1.0\n"
      "end do\n"
      "end\n";
  std::string tree_msg;
  std::string byte_msg;
  try {
    (void)run_engine(source, EngineKind::Tree);
  } catch (const CompileError& e) {
    tree_msg = e.what();
  }
  try {
    (void)run_engine(source, EngineKind::Bytecode);
  } catch (const CompileError& e) {
    byte_msg = e.what();
  }
  // The tree faults on the last iteration, the bytecode engine at loop
  // entry (the check is hoisted) — but with the identical message.
  EXPECT_FALSE(tree_msg.empty());
  EXPECT_EQ(tree_msg, byte_msg);
  EXPECT_NE(tree_msg.find("array subscript out of bounds"), std::string::npos);
}

TEST(Bytecode, ZeroStepReportsTheSameMessageAsTheTree) {
  const std::string source =
      "program t\n"
      "integer i\n"
      "real s\n"
      "s = 0.0\n"
      "do i = 1, 5, 0\n"
      "  s = s + 1.0\n"
      "end do\n"
      "end\n";
  for (const auto engine : {EngineKind::Tree, EngineKind::Bytecode}) {
    try {
      (void)run_engine(source, engine);
      FAIL() << "zero step must throw";
    } catch (const CompileError& e) {
      EXPECT_STREQ(e.what(), "do loop with zero step");
    }
  }
}

TEST(Bytecode, OneArgumentBinaryIntrinsicsAreDiagnosedForBothEngines) {
  for (const std::string name : {"mod", "atan2", "sign"}) {
    const std::string source =
        "program t\n"
        "real x, y\n"
        "x = 5.0\n"
        "y = " + name + "(x)\n"
        "end\n";
    std::string msgs[2];
    const EngineKind engines[] = {EngineKind::Tree, EngineKind::Bytecode};
    for (int e = 0; e < 2; ++e) {
      try {
        (void)run_engine(source, engines[e]);
        ADD_FAILURE() << name << "(x) must be rejected";
      } catch (const CompileError& err) {
        msgs[e] = err.what();
      }
    }
    EXPECT_EQ(msgs[0], msgs[1]);
    EXPECT_NE(msgs[0].find("intrinsic '" + name + "' takes 2 arguments"),
              std::string::npos)
        << msgs[0];
  }
}

// --- Register-resident kernels ----------------------------------------------

double scalar_of(const EngineRun& r, const std::string& unit,
                 const std::string& name) {
  const int slot = r.image.scalar_slot(unit, name);
  EXPECT_GE(slot, 0) << unit << "::" << name;
  return slot < 0 ? 0.0 : r.env.scalar(slot);
}

TEST(Bytecode, PromotedScalarsAreStoredBackOnNormalEnd) {
  const auto r = run_both(
      "program t\n"
      "real a(5), s, x\n"
      "integer i\n"
      "s = 1.0\n"
      "do i = 1, 5\n"
      "  a(i) = i\n"
      "  s = s + a(i)\n"
      "  x = s * 2.0\n"
      "end do\n"
      "end\n");
  EXPECT_EQ(scalar_of(*r, "t", "s"), 16.0);
  EXPECT_EQ(scalar_of(*r, "t", "x"), 32.0);
  EXPECT_EQ(scalar_of(*r, "t", "i"), 5.0);
}

TEST(Bytecode, PromotedScalarsAreStoredBackOnReturnInsideASubroutineLoop) {
  // The subroutine's loop is one kernel that leaves through Ret on its
  // fourth iteration; the caller must see the values written so far.
  const auto r = run_both(
      "program t\n"
      "common /c/ s, k\n"
      "real s\n"
      "integer k\n"
      "s = 0.0\n"
      "call sub\n"
      "s = s + 100.0\n"
      "end\n"
      "subroutine sub\n"
      "common /c/ s, k\n"
      "real s\n"
      "integer k, i\n"
      "do i = 1, 10\n"
      "  s = s + i\n"
      "  k = i\n"
      "  if (i .ge. 4) then\n"
      "    return\n"
      "  end if\n"
      "end do\n"
      "end\n");
  EXPECT_GE(r->stats.kernels_compiled, 1);
  EXPECT_EQ(scalar_of(*r, "t", "s"), 110.0);
  EXPECT_EQ(scalar_of(*r, "t", "k"), 4.0);
  EXPECT_EQ(scalar_of(*r, "sub", "i"), 4.0);
}

TEST(Bytecode, PromotedScalarsAreStoredBackOnStop) {
  const auto r = run_both(
      "program t\n"
      "real s\n"
      "integer i\n"
      "s = 0.0\n"
      "do i = 1, 10\n"
      "  s = s + 2.0\n"
      "  if (i .eq. 3) then\n"
      "    stop\n"
      "  end if\n"
      "end do\n"
      "s = -1.0\n"
      "end\n");
  EXPECT_EQ(scalar_of(*r, "t", "s"), 6.0);
  EXPECT_EQ(scalar_of(*r, "t", "i"), 3.0);
}

TEST(Bytecode, DoVariableAfterNormalAndZeroTripLoopsMatchesTheTree) {
  // After a loop the DO variable holds its last iterated value; a
  // zero-trip loop leaves it untouched.
  const auto r = run_both(
      "program t\n"
      "integer i, j, k\n"
      "real s\n"
      "j = 7\n"
      "do i = 1, 10, 3\n"
      "  s = s + i\n"
      "end do\n"
      "do j = 5, 1\n"
      "  s = s + 100.0\n"
      "end do\n"
      "do k = 10, 1, -4\n"
      "  s = s + k\n"
      "end do\n"
      "end\n");
  EXPECT_EQ(scalar_of(*r, "t", "i"), 10.0);
  EXPECT_EQ(scalar_of(*r, "t", "j"), 7.0);
  EXPECT_EQ(scalar_of(*r, "t", "k"), 2.0);
  EXPECT_EQ(scalar_of(*r, "t", "s"), 22.0 + 18.0);
}

TEST(Bytecode, PerIterationFlopsMatchTheTreeBitForBit) {
  // Guarded assignments, a nested zero-trip loop, nested loops, and a
  // subroutine loop that returns early. run_both compares the flop
  // totals with operator== on doubles.
  const auto r = run_both(
      "program t\n"
      "parameter (n = 6)\n"
      "common /c/ s, a\n"
      "real a(n, n), s\n"
      "integer i, j\n"
      "s = 0.0\n"
      "do j = 1, n\n"
      "  do i = 1, n\n"
      "    a(i, j) = 0.5 * i + j ** 2\n"
      "    if (mod(i + j, 2.0) .eq. 0.0) then\n"
      "      s = s + sqrt(a(i, j))\n"
      "    else\n"
      "      s = s - a(i, j) / 3.0\n"
      "    end if\n"
      "  end do\n"
      "  do i = 1, 0\n"
      "    s = s + 1.0\n"
      "  end do\n"
      "end do\n"
      "call early\n"
      "end\n"
      "subroutine early\n"
      "parameter (n = 6)\n"
      "common /c/ s, a\n"
      "real a(n, n), s\n"
      "integer i, j\n"
      "do j = 1, n\n"
      "  do i = 1, n\n"
      "    s = s + a(i, j) * 0.25\n"
      "  end do\n"
      "  if (s .gt. 40.0) then\n"
      "    return\n"
      "  end if\n"
      "end do\n"
      "end\n");
  EXPECT_GT(r->flops, 0.0);
  EXPECT_GE(r->stats.kernels_compiled, 2);
}

TEST(Bytecode, AccumulateStatementCompilesToFiveInstructions) {
  // The aerofoil stage statement: constants and scalars live in
  // registers and the loop charges its flops once per iteration, so
  // the body is two walk loads and the three arithmetic operations.
  auto file = fortran::parse_source(
      "program t\n"
      "real u(10, 4, 3), acc\n"
      "integer i, j, k\n"
      "j = 2\n"
      "k = 2\n"
      "do i = 2, 9\n"
      "  acc = acc + 0.5 * (u(i + 1, j, k) - u(i - 1, j, k))\n"
      "end do\n"
      "end\n");
  DiagnosticEngine diags;
  const auto image = ProgramImage::build(file, diags);
  ASSERT_FALSE(diags.has_errors()) << diags.dump();
  const fortran::Stmt& loop = *file.units.at(0).body.at(2);
  ASSERT_EQ(loop.kind, fortran::StmtKind::Do);

  bytecode::BytecodeEngine engine(image);
  const bytecode::Program* prog = engine.compiled(loop);
  ASSERT_NE(prog, nullptr);
  ASSERT_EQ(prog->loops().size(), 1u);
  const auto& ld = prog->loops()[0];
  const auto& code = prog->code();
  ASSERT_EQ(code.at(static_cast<std::size_t>(ld.exit_pc - 1)).op,
            bytecode::Op::LoopNext);
  std::vector<bytecode::Op> body;
  for (int pc = ld.body_pc; pc < ld.exit_pc - 1; ++pc) {
    body.push_back(code[static_cast<std::size_t>(pc)].op);
  }
  using bytecode::Op;
  EXPECT_LE(body.size(), 5u);
  EXPECT_EQ(body, (std::vector<Op>{Op::LoadWalk, Op::LoadWalk, Op::Sub,
                                   Op::Mul, Op::Add}));
  EXPECT_EQ(ld.iter_flops, loop.body.at(0)->flops);
  EXPECT_EQ(ld.walk_end - ld.walk_begin, 2);
}

// --- Lane-wise loops ---------------------------------------------------------

/// Two arrays initialized by one lane-wise nest; each shape below
/// appends one loop nest and the end of the program.
const std::string kLanePrologue =
    "program t\n"
    "parameter (n = 10, m = 6)\n"
    "real u(n, m), v(n, m), w(n, m), s(m), acc, resmax\n"
    "integer i, j\n"
    "do j = 1, m\n"
    "  do i = 1, n\n"
    "    u(i, j) = 0.01 * (i + 2 * j)\n"
    "    v(i, j) = 0.02 * (2 * i - j)\n"
    "  end do\n"
    "end do\n";

/// Runs the shape on both engines (bitwise against the tree) and
/// returns how many of its loops ran lane-wise, the prologue's not
/// counted.
long long lane_loops_of(const std::string& shape) {
  const auto r = run_both(kLanePrologue + shape + "end\n");
  return r->stats.lane_loops - 1;
}

TEST(LaneLoops, AcceptsTheStageShapeWithAPrivateAccumulator) {
  EXPECT_EQ(lane_loops_of("do j = 1, m\n"
                          "  do i = 2, n - 1\n"
                          "    acc = 0.0\n"
                          "    acc = acc + 0.5 * (v(i + 1, j) - v(i - 1, j))\n"
                          "    acc = acc + 0.5 * (u(i, j) - v(i, j))\n"
                          "    u(i, j) = u(i, j) * 0.98 + 0.01 * acc\n"
                          "  end do\n"
                          "end do\n"),
            1);
}

TEST(LaneLoops, AcceptsTheCrossDirectionSweep) {
  // sweepy: stores v(i, j) while reading vo(i, j +- 1) along j.
  EXPECT_EQ(lane_loops_of("do i = 1, n\n"
                          "  do j = 2, m - 1\n"
                          "    u(i, j) = 0.96 * u(i, j) + 0.02 * (v(i, j - 1) &\n"
                          "              + v(i, j + 1))\n"
                          "  end do\n"
                          "end do\n"),
            1);
}

TEST(LaneLoops, RejectsASelfDependentSweep) {
  EXPECT_EQ(lane_loops_of("do j = 1, m\n"
                          "  do i = 2, n - 1\n"
                          "    u(i, j) = 0.96 * u(i, j) + 0.02 * (u(i - 1, j) &\n"
                          "              + u(i + 1, j))\n"
                          "  end do\n"
                          "end do\n"),
            0);
}

TEST(LaneLoops, RejectsAReduction) {
  EXPECT_EQ(lane_loops_of("resmax = 0.0\n"
                          "do j = 1, m\n"
                          "  do i = 1, n\n"
                          "    resmax = max(resmax, abs(u(i, j) - v(i, j)))\n"
                          "  end do\n"
                          "end do\n"),
            0);
}

TEST(LaneLoops, RejectsAStoredArrayReadAtAnotherOffset) {
  EXPECT_EQ(lane_loops_of("do j = 2, m\n"
                          "  do i = 1, n\n"
                          "    u(i, j) = u(i, j - 1) + v(i, j)\n"
                          "  end do\n"
                          "end do\n"),
            0);
}

TEST(LaneLoops, RejectsAStoreWithNoAffineSubscript) {
  EXPECT_EQ(lane_loops_of("do j = 1, m\n"
                          "  do i = 1, n\n"
                          "    s(j) = s(j) + u(i, j)\n"
                          "  end do\n"
                          "end do\n"),
            0);
}

TEST(LaneLoops, RejectsAnIfInTheBody) {
  EXPECT_EQ(lane_loops_of("do j = 1, m\n"
                          "  do i = 1, n\n"
                          "    if (v(i, j) .gt. 0.05) then\n"
                          "      w(i, j) = v(i, j)\n"
                          "    end if\n"
                          "  end do\n"
                          "end do\n"),
            0);
}

TEST(LaneLoops, RejectsAShortCircuitLogicalInTheBody) {
  EXPECT_EQ(lane_loops_of("do j = 1, m\n"
                          "  do i = 1, n\n"
                          "    w(i, j) = v(i, j) .gt. 0.0 .and. v(i, j) .lt. 0.1\n"
                          "  end do\n"
                          "end do\n"),
            0);
}

TEST(LaneLoops, RejectsAGeneralSubscript) {
  EXPECT_EQ(lane_loops_of("do j = 1, m\n"
                          "  do i = 1, n / 2\n"
                          "    w(i, j) = u(2 * i, j)\n"
                          "  end do\n"
                          "end do\n"),
            0);
}

/// A loop over `lo, hi[, step]` with a private scalar, reading the DO
/// variable, over arrays large enough for any trip count used here.
std::string lane_loop_program(const std::string& bounds) {
  const int size = 2 * bytecode::kLanes + 3;
  return "program t\n"
         "parameter (n = " + std::to_string(size) + ")\n"
         "real a(n), b(n), x, y\n"
         "integer i\n"
         "do i = 1, n\n"
         "  a(i) = 0.5 * i - 3.0\n"
         "end do\n"
         "do i = " + bounds + "\n"
         "  x = a(i) * 0.25 + i\n"
         "  y = x * x - a(i)\n"
         "  b(i) = y / (1.0 + abs(x))\n"
         "end do\n"
         "end\n";
}

TEST(LaneLoops, TripCountsAroundTheChunkSizeMatchTheTree) {
  const int k = bytecode::kLanes;
  for (const int trips : {1, k - 1, k, k + 1, 2 * k + 3}) {
    SCOPED_TRACE(trips);
    const auto r = run_both(lane_loop_program("1, " + std::to_string(trips)));
    EXPECT_EQ(r->stats.lane_loops, 2);
    EXPECT_EQ(scalar_of(*r, "t", "i"), trips);
  }
}

TEST(LaneLoops, NegativeAndNonUnitStepsMatchTheTree) {
  const int k = bytecode::kLanes;
  const std::string last = std::to_string(2 * k + 3);
  for (const std::string& bounds :
       {last + ", 1, -1", last + ", 2, -3", "2, " + last + ", 5",
        "7, " + last + ", " + std::to_string(k + 2), std::string("5, 5, -2")}) {
    SCOPED_TRACE(bounds);
    const auto r = run_both(lane_loop_program(bounds));
    EXPECT_EQ(r->stats.lane_loops, 2);
  }
}

TEST(LaneLoops, DoVariableAndPrivateScalarsHoldTheLastIteration) {
  // i = 11, 8, 5, 2: the tree-walker's values after the loop, checked
  // bitwise by run_both and spelled out here.
  const auto r = run_both(lane_loop_program("11, 1, -3"));
  EXPECT_EQ(r->stats.lane_loops, 2);
  const double a2 = 0.5 * 2 - 3.0;
  const double x = a2 * 0.25 + 2;
  EXPECT_EQ(scalar_of(*r, "t", "i"), 2.0);
  EXPECT_EQ(scalar_of(*r, "t", "x"), x);
  EXPECT_EQ(scalar_of(*r, "t", "y"), x * x - a2);
}

TEST(LaneLoops, ZeroTripLoopLeavesScalarsUntouched) {
  const auto r = run_both(lane_loop_program("5, 4"));
  EXPECT_EQ(scalar_of(*r, "t", "i"), 2 * bytecode::kLanes + 3);
  EXPECT_EQ(scalar_of(*r, "t", "x"), 0.0);
}

/// The error each engine raises on `source` ("" when none).
std::string error_of(const std::string& source, EngineKind engine) {
  try {
    (void)run_engine(source, engine);
  } catch (const CompileError& e) {
    return e.what();
  }
  return "";
}

/// Lane-wise loops among the main program's top-level statements.
long long lane_loops_compiled(const std::string& source) {
  auto file = fortran::parse_source(source);
  DiagnosticEngine diags;
  const auto image = ProgramImage::build(file, diags);
  throw_if_errors(diags, "image build");
  bytecode::BytecodeEngine engine(image);
  for (const auto& st : file.units.at(0).body) (void)engine.compiled(*st);
  return engine.stats().lane_loops;
}

/// Statement 1 stores -inf at iteration `first_bad`, statement 2 +inf
/// at iteration `second_bad`.
std::string diverging_program(int first_bad, int second_bad) {
  return "program t\n"
         "parameter (n = " + std::to_string(2 * bytecode::kLanes + 3) + ")\n"
         "real a(n), b(n), x(n)\n"
         "integer i\n"
         "do i = 1, n\n"
         "  x(i) = i\n"
         "end do\n"
         "do i = 1, n\n"
         "  a(i) = -1.0 / (x(i) - " + std::to_string(first_bad) + ")\n"
         "  b(i) = 1.0 / (x(i) - " + std::to_string(second_bad) + ")\n"
         "end do\n"
         "end\n";
}

TEST(LaneLoops, NonFiniteStoreReportsTheEarliestIterationLikeTheTree) {
  const int k = bytecode::kLanes;
  struct Case {
    int first_bad, second_bad;
    const char* array;  // the one the scalar order fails on
  };
  for (const Case c : {Case{7, 3, "'b'"},         // later statement, earlier i
                       Case{3, 7, "'a'"},         // earlier statement first
                       Case{5, 5, "'a'"},         // same iteration
                       Case{k + 9, k + 5, "'b'"},  // both in the second chunk
                       Case{2 * k + 1, 0, "'a'"}}) {  // last chunk only
    const auto source = diverging_program(c.first_bad, c.second_bad);
    SCOPED_TRACE(source);
    ASSERT_EQ(lane_loops_compiled(source), 2);
    const auto tree_msg = error_of(source, EngineKind::Tree);
    EXPECT_NE(tree_msg.find(std::string("non-finite value")), std::string::npos);
    EXPECT_NE(tree_msg.find(c.array), std::string::npos) << tree_msg;
    EXPECT_EQ(error_of(source, EngineKind::Bytecode), tree_msg);
  }
}

// --- Nest-level walks -------------------------------------------------------

/// The walks of the kernel compiled from the main program's top-level
/// statement `index` of `source`.
std::vector<bytecode::WalkDesc> walks_of(const std::string& source,
                                         std::size_t index) {
  auto file = fortran::parse_source(source);
  DiagnosticEngine diags;
  const auto image = ProgramImage::build(file, diags);
  throw_if_errors(diags, "image build");
  bytecode::BytecodeEngine engine(image);
  const bytecode::Program* prog =
      engine.compiled(*file.units.at(0).body.at(index));
  if (!prog) return {};
  return prog->walks();
}

/// How many of `walks` are nest-level.
long long nest_level(const std::vector<bytecode::WalkDesc>& walks) {
  return std::count_if(walks.begin(), walks.end(),
                       [](const bytecode::WalkDesc& w) { return w.nest >= 0; });
}

/// Fills u and v; each nest below is the main program's second
/// statement (index 1).
const std::string kNestPrologue =
    "program t\n"
    "parameter (n = 10, m = 6, l = 4)\n"
    "real u(n, m, l), v(n, m, l), acc\n"
    "integer i, j, k, last\n"
    "do k = 1, l\n"
    "  do j = 1, m\n"
    "    do i = 1, n\n"
    "      u(i, j, k) = 0.01 * (i + 2 * j + 3 * k)\n"
    "      v(i, j, k) = 0.0\n"
    "    end do\n"
    "  end do\n"
    "end do\n";

TEST(NestWalks, HoistsTheStageShapeToTheEnclosingLoop) {
  // Every reference of the i loop is affine in i, affine in j or
  // invariant in j (k), so all eight are set up once per j loop entry.
  const std::string source =
      kNestPrologue +
      "do k = 2, l - 1\n"
      "  do j = 2, m - 1\n"
      "    do i = 2, n - 1\n"
      "      acc = 0.0\n"
      "      acc = acc + 0.5 * (u(i + 1, j, k) - u(i - 1, j, k))\n"
      "      acc = acc + 0.5 * (u(i, j + 1, k) - u(i, j - 1, k))\n"
      "      acc = acc + 0.5 * (u(i, j, k + 1) - u(i, j, k - 1))\n"
      "      v(i, j, k) = u(i, j, k) * 0.98 + 0.01 * acc\n"
      "    end do\n"
      "  end do\n"
      "end do\n"
      "end\n";
  const auto r = run_both(source);
  EXPECT_EQ(r->stats.lane_loops, 2);
  const auto walks = walks_of(source, 1);
  ASSERT_EQ(walks.size(), 8u);
  EXPECT_EQ(nest_level(walks), 8);
  for (const auto& w : walks) {
    // Owned by the i loop (loop 2), checked by the j loop (loop 1).
    EXPECT_EQ(w.loop, 2);
    EXPECT_EQ(w.nest, 1);
    ASSERT_EQ(w.dims.size(), 3u);
    EXPECT_EQ(w.dims[0].kind, bytecode::DimKind::Affine);
    EXPECT_EQ(w.dims[1].kind, bytecode::DimKind::Outer);
    EXPECT_EQ(w.dims[2].kind, bytecode::DimKind::Invariant);
  }
}

TEST(NestWalks, LeavesLoopsWithVaryingOrGuardedEntriesToTheirOwnChecks) {
  const std::string triangular =
      "do j = 1, m\n"
      "  do i = 1, j\n"
      "    v(i, j, 2) = u(i, j, 2) * 2.0\n"
      "  end do\n"
      "end do\n";
  const std::string guarded =
      "do j = 1, m\n"
      "  if (j .gt. 2) then\n"
      "    do i = 1, n\n"
      "      v(i, j, 2) = u(i, j, 2) * 2.0\n"
      "    end do\n"
      "  end if\n"
      "end do\n";
  const std::string bound_assigned =
      "do j = 1, m\n"
      "  last = n - 1\n"
      "  do i = 1, last\n"
      "    v(i, j, 2) = u(i, j, 2) * 2.0\n"
      "  end do\n"
      "end do\n";
  for (const auto& shape : {triangular, guarded, bound_assigned}) {
    const std::string source = kNestPrologue + shape + "end\n";
    SCOPED_TRACE(source);
    (void)run_both(source);
    const auto walks = walks_of(source, 1);
    EXPECT_EQ(walks.size(), 2u);  // still walks, set up per i loop entry
    EXPECT_EQ(nest_level(walks), 0);
  }
}

TEST(NestWalks, ZeroTripInnerLoopSkipsTheHoistedCheck) {
  // The i loop never runs, so its far out-of-range subscripts are
  // never touched: neither engine may fault.
  const std::string source =
      kNestPrologue +
      "do j = 1, m\n"
      "  do i = 10, 1\n"
      "    v(i + 100, j + 50, 9) = u(i - 100, j, 2)\n"
      "  end do\n"
      "end do\n"
      "end\n";
  (void)run_both(source);
  EXPECT_EQ(nest_level(walks_of(source, 1)), 2);
}

TEST(NestWalks, OutOfBoundsReportsTheTreesFirstFailingAccess) {
  // The hoisted check covers both loops' ranges; the message names the
  // access the tree-walker faults on first: the earliest (j, i) in
  // iteration order, at its lowest failing dimension.
  for (const std::string ref :
       {"u(i + 1, j, 2)",        // inner-affine dim, last i of j = 1
        "u(i, j + 2, 2)",        // outer-affine dim, first i of j = m - 1
        "u(i + 1, j + 2, 2)",    // both: the inner one fails first
        "u(i - 1, j - 1, 2)",    // both at the first access: dim 1
        "u(i + 1, j, l + 1)"}) {  // invariant dim fails at once: dim 3
    const std::string source = kNestPrologue +
                               "do j = 1, m\n"
                               "  do i = 1, n\n"
                               "    acc = " + ref + "\n"
                               "  end do\n"
                               "end do\n"
                               "end\n";
    SCOPED_TRACE(source);
    ASSERT_EQ(nest_level(walks_of(source, 1)), 1);
    const auto tree_msg = error_of(source, EngineKind::Tree);
    EXPECT_NE(tree_msg.find("array subscript out of bounds"),
              std::string::npos);
    EXPECT_EQ(error_of(source, EngineKind::Bytecode), tree_msg);
  }
}

TEST(NestWalks, SingleLoopCheckReportsTheFirstFailingAccessToo) {
  // a(i + 1, 7): dim 2 fails on the first access, before dim 1 does.
  const std::string source =
      "program t\n"
      "real a(5, 6), s\n"
      "integer i\n"
      "do i = 1, 5\n"
      "  s = a(i + 1, 7)\n"
      "end do\n"
      "end\n";
  const auto tree_msg = error_of(source, EngineKind::Tree);
  EXPECT_NE(tree_msg.find("dim 2 value 7"), std::string::npos) << tree_msg;
  EXPECT_EQ(error_of(source, EngineKind::Bytecode), tree_msg);
}

TEST(NestWalks, DoVariableAssignedInItsBodyIsNotWalked) {
  // The tree-walker reads the assigned value of i; a walk would follow
  // the loop counter instead.
  const std::string source =
      "program t\n"
      "real a(12)\n"
      "integer i\n"
      "do i = 1, 5\n"
      "  i = i + 1\n"
      "  a(i) = i\n"
      "end do\n"
      "end\n";
  const auto r = run_both(source);
  EXPECT_EQ(r->stats.walks_reduced, 0);
}

TEST(NestWalks, SplatsFillEveryLaneOfALongerTripAfterAShortOne) {
  // The first i loop runs 3 trips, the second 3 + kLanes + 72; `c`
  // changes between them and is broadcast to the lanes each trip uses.
  const int trips = 3 + bytecode::kLanes + 72;
  const std::string source =
      "program t\n"
      "parameter (n = " + std::to_string(trips) + ")\n"
      "real a(n, 2), b(n, 2), c, s\n"
      "integer i, j\n"
      "s = 1.5\n"
      "do j = 1, 2\n"
      "  do i = 1, n\n"
      "    a(i, j) = 0.25 * i - j\n"
      "  end do\n"
      "end do\n"
      "do j = 1, 2\n"
      "  c = 0.5 * j + s\n"
      "  do i = 1, 3 + (j - 1) * (n - 3)\n"
      "    b(i, j) = a(i, j) * s + c\n"
      "  end do\n"
      "end do\n"
      "end\n";
  const auto r = run_both(source);
  EXPECT_EQ(r->stats.lane_loops, 2);
  EXPECT_EQ(scalar_of(*r, "t", "i"), trips);
}

// --- Contiguous halo packing ------------------------------------------------

ArrayValue make_array(std::vector<long long> lower,
                      std::vector<long long> extent) {
  ArrayValue av;
  av.lower = std::move(lower);
  av.extent = std::move(extent);
  long long total = 1;
  for (const auto e : av.extent) total *= e;
  av.data.resize(static_cast<std::size_t>(total));
  for (std::size_t i = 0; i < av.data.size(); ++i) {
    av.data[i] = static_cast<double>(i) + 0.5;
  }
  return av;
}

/// Reference: the old element-by-element column-major slab walk.
std::vector<double> slab_by_walk(const ArrayValue& av, int dim,
                                 long long d_lo, long long d_hi) {
  const int rank = av.rank();
  std::vector<long long> lo(static_cast<std::size_t>(rank));
  std::vector<long long> hi(static_cast<std::size_t>(rank));
  for (int d = 0; d < rank; ++d) {
    const auto du = static_cast<std::size_t>(d);
    lo[du] = d == dim ? d_lo : av.lower[du];
    hi[du] = d == dim ? d_hi : av.upper(d);
  }
  std::vector<double> out;
  std::vector<long long> idx = lo;
  while (true) {
    out.push_back(av.data[static_cast<std::size_t>(av.index(idx))]);
    int d = 0;
    while (d < rank) {
      const auto du = static_cast<std::size_t>(d);
      if (++idx[du] <= hi[du]) break;
      idx[du] = lo[du];
      ++d;
    }
    if (d == rank) break;
  }
  return out;
}

TEST(PackSlab, MatchesTheElementWalkOnEveryDimension) {
  const auto av = make_array({0, 1, -2}, {5, 4, 3});
  for (int dim = 0; dim < 3; ++dim) {
    const long long lo = av.lower[static_cast<std::size_t>(dim)];
    for (long long d_lo = lo; d_lo <= av.upper(dim); ++d_lo) {
      for (long long d_hi = d_lo; d_hi <= av.upper(dim); ++d_hi) {
        std::vector<double> packed;
        codegen::pack_slab(av, dim, d_lo, d_hi, packed);
        EXPECT_EQ(packed, slab_by_walk(av, dim, d_lo, d_hi))
            << "dim " << dim << " [" << d_lo << ", " << d_hi << "]";
      }
    }
  }
}

TEST(PackSlab, UnpackRoundTripsAndAdvancesThePosition) {
  auto av = make_array({1, 1}, {6, 5});
  std::vector<double> packed;
  codegen::pack_slab(av, 0, 2, 3, packed);
  codegen::pack_slab(av, 1, 5, 5, packed);

  auto restored = make_array({1, 1}, {6, 5});
  for (auto& v : restored.data) v = -1.0;
  std::size_t pos = 0;
  codegen::unpack_slab(restored, 0, 2, 3, packed, pos);
  codegen::unpack_slab(restored, 1, 5, 5, packed, pos);
  EXPECT_EQ(pos, packed.size());
  EXPECT_EQ(restored.data != av.data, true);  // untouched cells stay -1
  // Every cell of the packed slabs round-tripped exactly.
  const auto a = slab_by_walk(av, 0, 2, 3);
  const auto b = slab_by_walk(restored, 0, 2, 3);
  EXPECT_EQ(a, b);
  EXPECT_EQ(slab_by_walk(av, 1, 5, 5), slab_by_walk(restored, 1, 5, 5));
}

TEST(PackSlab, UnpackThrowsOnShortInbox) {
  auto av = make_array({1, 1}, {4, 4});
  const std::vector<double> in(3, 0.0);  // slab needs 4
  std::size_t pos = 0;
  EXPECT_THROW(codegen::unpack_slab(av, 0, 2, 2, in, pos), CompileError);
}

TEST(PackSlab, OutOfRangeSlabReportsLikeAnArrayIndex) {
  const auto av = make_array({1, 1}, {4, 4});
  std::vector<double> out;
  try {
    codegen::pack_slab(av, 0, 4, 5, out);
    FAIL() << "slab beyond the upper bound must throw";
  } catch (const CompileError& e) {
    EXPECT_NE(std::string(e.what()).find("array subscript out of bounds"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace autocfd::interp
