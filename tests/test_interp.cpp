#include <gtest/gtest.h>

#include <cmath>

#include "autocfd/fortran/parser.hpp"
#include "autocfd/interp/interpreter.hpp"

namespace autocfd::interp {
namespace {

double scalar_of(const SequentialResult& r, const std::string& unit,
                 const std::string& name) {
  const int slot = r.image.scalar_slot(unit, name);
  EXPECT_GE(slot, 0) << name;
  return r.env.scalar(slot);
}

const ArrayValue& array_of(const SequentialResult& r, const std::string& unit,
                           const std::string& name) {
  const int slot = r.image.array_slot(unit, name);
  EXPECT_GE(slot, 0) << name;
  return r.env.arrays[static_cast<std::size_t>(slot)];
}

TEST(Interp, ScalarArithmetic) {
  const auto r = run_sequential(
      "program p\n"
      "real x, y\n"
      "x = 3.0\n"
      "y = x * 2.0 + 1.0\n"
      "x = y ** 2\n"
      "end\n");
  EXPECT_DOUBLE_EQ(scalar_of(*r, "p", "y"), 7.0);
  EXPECT_DOUBLE_EQ(scalar_of(*r, "p", "x"), 49.0);
}

TEST(Interp, ParameterValuesPreset) {
  const auto r = run_sequential(
      "program p\n"
      "parameter (n = 10, h = 0.5)\n"
      "real x\n"
      "x = n * h\n"
      "end\n");
  EXPECT_DOUBLE_EQ(scalar_of(*r, "p", "x"), 5.0);
}

TEST(Interp, DoLoopAccumulates) {
  const auto r = run_sequential(
      "program p\n"
      "integer i\n"
      "real s\n"
      "s = 0.0\n"
      "do i = 1, 10\n"
      "  s = s + i\n"
      "end do\n"
      "end\n");
  EXPECT_DOUBLE_EQ(scalar_of(*r, "p", "s"), 55.0);
}

TEST(Interp, DoLoopNegativeStep) {
  const auto r = run_sequential(
      "program p\n"
      "integer i\n"
      "real s\n"
      "do i = 5, 1, -2\n"
      "  s = s + i\n"
      "end do\n"
      "end\n");
  EXPECT_DOUBLE_EQ(scalar_of(*r, "p", "s"), 9.0);  // 5 + 3 + 1
}

TEST(Interp, ZeroTripLoop) {
  const auto r = run_sequential(
      "program p\n"
      "integer i\n"
      "real s\n"
      "s = 7.0\n"
      "do i = 5, 1\n"
      "  s = 0.0\n"
      "end do\n"
      "end\n");
  EXPECT_DOUBLE_EQ(scalar_of(*r, "p", "s"), 7.0);
}

TEST(Interp, ArrayStorageColumnMajor) {
  const auto r = run_sequential(
      "program p\n"
      "real v(3, 2)\n"
      "integer i, j\n"
      "do j = 1, 2\n"
      "  do i = 1, 3\n"
      "    v(i, j) = i * 10.0 + j\n"
      "  end do\n"
      "end do\n"
      "end\n");
  const auto& v = array_of(*r, "p", "v");
  ASSERT_EQ(v.data.size(), 6u);
  // Fortran column-major: v(1,1), v(2,1), v(3,1), v(1,2), ...
  EXPECT_DOUBLE_EQ(v.data[0], 11.0);
  EXPECT_DOUBLE_EQ(v.data[1], 21.0);
  EXPECT_DOUBLE_EQ(v.data[3], 12.0);
}

TEST(Interp, ArrayLowerBounds) {
  const auto r = run_sequential(
      "program p\n"
      "real v(0:4)\n"
      "integer i\n"
      "do i = 0, 4\n"
      "  v(i) = i\n"
      "end do\n"
      "end\n");
  const auto& v = array_of(*r, "p", "v");
  ASSERT_EQ(v.data.size(), 5u);
  EXPECT_DOUBLE_EQ(v.data[0], 0.0);
  EXPECT_DOUBLE_EQ(v.data[4], 4.0);
}

TEST(Interp, OutOfBoundsThrows) {
  EXPECT_THROW((void)run_sequential(
                   "program p\n"
                   "real v(4)\n"
                   "v(5) = 1.0\n"
                   "end\n"),
               CompileError);
}

TEST(Interp, DivisionByZeroInArrayBoundThrowsWithDeclaration) {
  try {
    (void)run_sequential(
        "program p\n"
        "parameter (k = 0)\n"
        "real a(10 / k)\n"
        "end\n");
    FAIL() << "zero divisor in a declared bound was accepted";
  } catch (const autocfd::CompileError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("division by zero"), std::string::npos) << what;
    EXPECT_NE(what.find("'a'"), std::string::npos) << what;
    EXPECT_NE(what.find("3"), std::string::npos) << what;  // line number
  }
}

TEST(Interp, IfElseBranches) {
  const auto r = run_sequential(
      "program p\n"
      "real x, y\n"
      "x = -2.0\n"
      "if (x .gt. 0.0) then\n"
      "  y = 1.0\n"
      "else if (x .gt. -1.0) then\n"
      "  y = 2.0\n"
      "else\n"
      "  y = 3.0\n"
      "end if\n"
      "end\n");
  EXPECT_DOUBLE_EQ(scalar_of(*r, "p", "y"), 3.0);
}

TEST(Interp, LogicalOperators) {
  const auto r = run_sequential(
      "program p\n"
      "real x, y\n"
      "x = 2.0\n"
      "if (x .gt. 1.0 .and. x .lt. 3.0) y = 1.0\n"
      "if (x .lt. 1.0 .or. .not. (x .eq. 2.0)) y = y + 10.0\n"
      "end\n");
  EXPECT_DOUBLE_EQ(scalar_of(*r, "p", "y"), 1.0);
}

TEST(Interp, GotoForwardExit) {
  const auto r = run_sequential(
      "program p\n"
      "integer i\n"
      "real s\n"
      "do i = 1, 100\n"
      "  s = s + 1.0\n"
      "  if (s .ge. 5.0) goto 99\n"
      "end do\n"
      "99 continue\n"
      "end\n");
  EXPECT_DOUBLE_EQ(scalar_of(*r, "p", "s"), 5.0);
}

TEST(Interp, GotoBackwardLoop) {
  const auto r = run_sequential(
      "program p\n"
      "real s\n"
      "s = 0.0\n"
      "10 continue\n"
      "s = s + 1.0\n"
      "if (s .lt. 3.0) goto 10\n"
      "end\n");
  EXPECT_DOUBLE_EQ(scalar_of(*r, "p", "s"), 3.0);
}

TEST(Interp, Intrinsics) {
  const auto r = run_sequential(
      "program p\n"
      "real a, b, c, d, e\n"
      "a = abs(-3.5)\n"
      "b = sqrt(16.0)\n"
      "c = max(1.0, 5.0, 3.0)\n"
      "d = min(2.0, -1.0)\n"
      "e = mod(7.0, 3.0)\n"
      "end\n");
  EXPECT_DOUBLE_EQ(scalar_of(*r, "p", "a"), 3.5);
  EXPECT_DOUBLE_EQ(scalar_of(*r, "p", "b"), 4.0);
  EXPECT_DOUBLE_EQ(scalar_of(*r, "p", "c"), 5.0);
  EXPECT_DOUBLE_EQ(scalar_of(*r, "p", "d"), -1.0);
  EXPECT_DOUBLE_EQ(scalar_of(*r, "p", "e"), 1.0);
}

TEST(Interp, SubroutineCallSharesCommon) {
  const auto r = run_sequential(
      "program p\n"
      "real v(4)\n"
      "real total\n"
      "common /blk/ v, total\n"
      "integer i\n"
      "do i = 1, 4\n"
      "  v(i) = i\n"
      "end do\n"
      "call sum4\n"
      "end\n"
      "subroutine sum4\n"
      "real v(4)\n"
      "real total\n"
      "common /blk/ v, total\n"
      "integer i\n"
      "total = 0.0\n"
      "do i = 1, 4\n"
      "  total = total + v(i)\n"
      "end do\n"
      "return\n"
      "end\n");
  EXPECT_DOUBLE_EQ(scalar_of(*r, "p", "total"), 10.0);
}

TEST(Interp, LocalsAreUnitScoped) {
  // `x` in the subroutine must not clobber `x` in the main program.
  const auto r = run_sequential(
      "program p\n"
      "real x\n"
      "x = 1.0\n"
      "call clobber\n"
      "end\n"
      "subroutine clobber\n"
      "real x\n"
      "x = 99.0\n"
      "return\n"
      "end\n");
  EXPECT_DOUBLE_EQ(scalar_of(*r, "p", "x"), 1.0);
  EXPECT_DOUBLE_EQ(scalar_of(*r, "clobber", "x"), 99.0);
}

TEST(Interp, ANameInAnyUnitsCommonIsGlobalInEveryUnit) {
  // Only one unit lists `x` and `v` in a common block; the other merely
  // declares them. The name is global if any unit lists it, so both
  // units share one slot, whichever unit comes first in the file.
  const std::string lister =
      "subroutine lister\n"
      "real x, v(3)\n"
      "common /blk/ x, v\n"
      "x = x + 2.0\n"
      "v(2) = 5.0\n"
      "return\n"
      "end\n";
  const std::string main_unit =
      "program p\n"
      "real x, v(3)\n"
      "x = 1.0\n"
      "call lister\n"
      "v(3) = v(2) + x\n"
      "end\n";
  for (const auto& source : {main_unit + lister, lister + main_unit}) {
    SCOPED_TRACE(source);
    const auto r = run_sequential(source);
    EXPECT_EQ(r->image.scalar_slot("p", "x"),
              r->image.scalar_slot("lister", "x"));
    EXPECT_EQ(r->image.array_slot("p", "v"),
              r->image.array_slot("lister", "v"));
    EXPECT_DOUBLE_EQ(scalar_of(*r, "p", "x"), 3.0);
    EXPECT_DOUBLE_EQ(array_of(*r, "p", "v").data[2], 8.0);
  }
}

TEST(Interp, ReturnExitsSubroutineOnly) {
  const auto r = run_sequential(
      "program p\n"
      "real x\n"
      "common /b/ x\n"
      "call early\n"
      "x = x + 1.0\n"
      "end\n"
      "subroutine early\n"
      "real x\n"
      "common /b/ x\n"
      "x = 10.0\n"
      "return\n"
      "x = 20.0\n"
      "end\n");
  EXPECT_DOUBLE_EQ(scalar_of(*r, "p", "x"), 11.0);
}

TEST(Interp, StopEndsProgram) {
  const auto r = run_sequential(
      "program p\n"
      "real x\n"
      "x = 1.0\n"
      "stop\n"
      "x = 2.0\n"
      "end\n");
  EXPECT_DOUBLE_EQ(scalar_of(*r, "p", "x"), 1.0);
}

TEST(Interp, WriteCapturesOutput) {
  const auto r = run_sequential(
      "program p\n"
      "real x\n"
      "x = 2.5\n"
      "write(6,*) 'x is', x\n"
      "end\n");
  ASSERT_EQ(r->output.size(), 1u);
  EXPECT_EQ(r->output[0], "x is 2.5");
}

TEST(Interp, FlopsAccounted) {
  const auto r = run_sequential(
      "program p\n"
      "integer i\n"
      "real s\n"
      "do i = 1, 100\n"
      "  s = s + 1.0\n"
      "end do\n"
      "end\n");
  // One add per iteration at minimum.
  EXPECT_GE(r->flops, 100.0);
}

TEST(Interp, JacobiConverges) {
  // Full mini CFD kernel: Laplace with fixed boundary v=1 on one edge.
  const auto r = run_sequential(
      "program p\n"
      "parameter (n = 10)\n"
      "real v(n, n), vnew(n, n)\n"
      "real err, eps\n"
      "integer i, j, it\n"
      "eps = 1.0e-6\n"
      "do i = 1, n\n"
      "  v(i, 1) = 1.0\n"
      "  vnew(i, 1) = 1.0\n"
      "end do\n"
      "do it = 1, 1000\n"
      "  err = 0.0\n"
      "  do i = 2, n - 1\n"
      "    do j = 2, n - 1\n"
      "      vnew(i, j) = 0.25 * (v(i - 1, j) + v(i + 1, j) &\n"
      "                 + v(i, j - 1) + v(i, j + 1))\n"
      "      err = max(err, abs(vnew(i, j) - v(i, j)))\n"
      "    end do\n"
      "  end do\n"
      "  do i = 2, n - 1\n"
      "    do j = 2, n - 1\n"
      "      v(i, j) = vnew(i, j)\n"
      "    end do\n"
      "  end do\n"
      "  if (err .lt. eps) goto 99\n"
      "end do\n"
      "99 continue\n"
      "end\n");
  EXPECT_LT(scalar_of(*r, "p", "err"), 1e-6);
  const auto& v = array_of(*r, "p", "v");
  // Interior values are between the boundary extremes.
  const double mid = v.data[static_cast<std::size_t>(v.index(
      std::array<long long, 2>{5, 5}))];
  EXPECT_GT(mid, 0.0);
  EXPECT_LT(mid, 1.0);
}

TEST(Interp, ArgsInCallRejected) {
  fortran::SourceFile file = fortran::parse_source(
      "program p\n"
      "real x\n"
      "call f(x)\n"
      "end\n"
      "subroutine f(a)\n"
      "real a\n"
      "a = 1.0\n"
      "return\n"
      "end\n");
  DiagnosticEngine diags;
  (void)ProgramImage::build(file, diags);
  EXPECT_TRUE(diags.has_errors());
}

TEST(Interp, ReadHookFillsArray) {
  fortran::SourceFile file = fortran::parse_source(
      "program p\n"
      "real v(4)\n"
      "read(5,*) v\n"
      "end\n");
  DiagnosticEngine diags;
  auto image = ProgramImage::build(file, diags);
  ASSERT_FALSE(diags.has_errors()) << diags.dump();
  Env env(image);
  env.allocate_arrays(image, diags);
  Interpreter::Hooks hooks;
  hooks.on_read = [](const std::string& name) {
    EXPECT_EQ(name, "v");
    return std::vector<double>{1.0, 2.0, 3.0, 4.0};
  };
  Interpreter interp(image, hooks);
  interp.run(env);
  const auto& v = env.arrays[static_cast<std::size_t>(image.array_slot("p", "v"))];
  EXPECT_EQ(v.data, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
}

TEST(Interp, ExtensionHookReceivesStatements) {
  fortran::SourceFile file = fortran::parse_source(
      "program p\n"
      "real x\n"
      "x = 1.0\n"
      "end\n");
  // Inject a Barrier into the AST as codegen would.
  auto barrier = fortran::make_stmt(fortran::StmtKind::Barrier);
  file.units[0].body.push_back(std::move(barrier));
  DiagnosticEngine diags;
  auto image = ProgramImage::build(file, diags);
  Env env(image);
  env.allocate_arrays(image, diags);
  int calls = 0;
  Interpreter::Hooks hooks;
  hooks.on_extension = [&](const fortran::Stmt& s, Env&) {
    EXPECT_EQ(s.kind, fortran::StmtKind::Barrier);
    ++calls;
  };
  Interpreter interp(image, hooks);
  interp.run(env);
  EXPECT_EQ(calls, 1);
}

TEST(Interp, WorkingSetBytes) {
  const auto r = run_sequential(
      "program p\n"
      "real v(100, 100), w(50)\n"
      "v(1, 1) = 0.0\n"
      "end\n");
  EXPECT_EQ(r->env.array_bytes(), (100 * 100 + 50) * 8);
}

TEST(Interp, NonFiniteArrayStoreIsDiagnosed) {
  // A diverging solver writing inf/NaN into a status array must fail
  // loudly at the first store, naming the array and the statement.
  try {
    (void)run_sequential(
        "program p\n"
        "real a(5)\n"
        "real z\n"
        "z = 0.0\n"
        "a(1) = 1.0 / z\n"
        "end\n");
    FAIL() << "non-finite store was accepted";
  } catch (const autocfd::CompileError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("non-finite"), std::string::npos) << what;
    EXPECT_NE(what.find("'a'"), std::string::npos) << what;
    EXPECT_NE(what.find("5"), std::string::npos) << what;  // line number
  }
}

TEST(Interp, FiniteScalarNonFiniteAllowedTransiently) {
  // Scalars are not guarded: a non-finite intermediate that never
  // reaches an array is the program's own business.
  const auto r = run_sequential(
      "program p\n"
      "real z, y\n"
      "z = 0.0\n"
      "y = 1.0 / z\n"
      "y = 2.0\n"
      "end\n");
  EXPECT_DOUBLE_EQ(scalar_of(*r, "p", "y"), 2.0);
}

}  // namespace
}  // namespace autocfd::interp
