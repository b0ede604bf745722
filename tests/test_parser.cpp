#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "autocfd/fortran/parser.hpp"
#include "autocfd/fortran/printer.hpp"

namespace autocfd::fortran {
namespace {

constexpr const char* kJacobi = R"(
      program jacobi
      parameter (n = 8, m = 8)
      real v(n, m), vold(n, m)
      real eps, errmax
      integer i, j, it
      eps = 1.0e-4
      do i = 1, n
        do j = 1, m
          v(i, j) = 0.0
        end do
      end do
      do it = 1, 100
        errmax = 0.0
        do i = 2, n - 1
          do j = 2, m - 1
            vold(i, j) = v(i, j)
          end do
        end do
        do i = 2, n - 1
          do j = 2, m - 1
            v(i, j) = 0.25 * (vold(i - 1, j) + vold(i + 1, j) &
                   + vold(i, j - 1) + vold(i, j + 1))
            errmax = max(errmax, abs(v(i, j) - vold(i, j)))
          end do
        end do
        if (errmax .lt. eps) goto 99
      end do
99    continue
      end
)";

TEST(Parser, ParsesJacobiProgram) {
  const auto file = parse_source(kJacobi);
  ASSERT_EQ(file.units.size(), 1u);
  const auto& unit = file.units[0];
  EXPECT_EQ(unit.kind, UnitKind::Program);
  EXPECT_EQ(unit.name, "jacobi");
  EXPECT_EQ(unit.params.size(), 2u);
  ASSERT_EQ(unit.decls.size(), 7u);
  EXPECT_TRUE(unit.find_decl("v")->is_array());
  EXPECT_FALSE(unit.find_decl("eps")->is_array());
}

TEST(Parser, NestedDoLoops) {
  const auto file = parse_source(
      "program p\n"
      "real v(10, 10)\n"
      "integer i, j\n"
      "do i = 1, 10\n"
      "  do j = 1, 10\n"
      "    v(i, j) = 0.0\n"
      "  end do\n"
      "end do\n"
      "end\n");
  const auto& body = file.units[0].body;
  ASSERT_EQ(body.size(), 1u);
  EXPECT_EQ(body[0]->kind, StmtKind::Do);
  EXPECT_EQ(body[0]->do_var, "i");
  ASSERT_EQ(body[0]->body.size(), 1u);
  EXPECT_EQ(body[0]->body[0]->kind, StmtKind::Do);
  EXPECT_EQ(body[0]->body[0]->do_var, "j");
}

TEST(Parser, LabeledDoLoop) {
  const auto file = parse_source(
      "program p\n"
      "integer i\n"
      "real x\n"
      "x = 0.0\n"
      "do 10 i = 1, 5\n"
      "  x = x + 1.0\n"
      "10 continue\n"
      "end\n");
  const auto& body = file.units[0].body;
  ASSERT_EQ(body.size(), 2u);
  const auto& loop = *body[1];
  EXPECT_EQ(loop.kind, StmtKind::Do);
  ASSERT_EQ(loop.body.size(), 2u);
  EXPECT_EQ(loop.body[1]->kind, StmtKind::Continue);
  EXPECT_EQ(loop.body[1]->label, 10);
}

TEST(Parser, DoWithStep) {
  const auto file = parse_source(
      "program p\n"
      "integer i\n"
      "real x\n"
      "do i = 10, 1, -1\n"
      "  x = x + 1.0\n"
      "end do\n"
      "end\n");
  const auto& loop = *file.units[0].body[0];
  ASSERT_NE(loop.step, nullptr);
  EXPECT_EQ(loop.step->kind, ExprKind::Unary);
}

TEST(Parser, IfThenElse) {
  const auto file = parse_source(
      "program p\n"
      "real x, y\n"
      "if (x .gt. 0.0) then\n"
      "  y = 1.0\n"
      "else\n"
      "  y = 2.0\n"
      "end if\n"
      "end\n");
  const auto& s = *file.units[0].body[0];
  EXPECT_EQ(s.kind, StmtKind::If);
  EXPECT_EQ(s.body.size(), 1u);
  EXPECT_EQ(s.else_body.size(), 1u);
}

TEST(Parser, ElseIfChain) {
  const auto file = parse_source(
      "program p\n"
      "real x, y\n"
      "if (x .gt. 1.0) then\n"
      "  y = 1.0\n"
      "else if (x .gt. 0.0) then\n"
      "  y = 2.0\n"
      "else\n"
      "  y = 3.0\n"
      "end if\n"
      "end\n");
  const auto& s = *file.units[0].body[0];
  ASSERT_EQ(s.else_body.size(), 1u);
  const auto& nested = *s.else_body[0];
  EXPECT_EQ(nested.kind, StmtKind::If);
  EXPECT_EQ(nested.body.size(), 1u);
  EXPECT_EQ(nested.else_body.size(), 1u);
}

TEST(Parser, LogicalIf) {
  const auto file = parse_source(
      "program p\n"
      "real x\n"
      "if (x .lt. 0.0) x = 0.0\n"
      "end\n");
  const auto& s = *file.units[0].body[0];
  EXPECT_EQ(s.kind, StmtKind::If);
  ASSERT_EQ(s.body.size(), 1u);
  EXPECT_EQ(s.body[0]->kind, StmtKind::Assign);
}

TEST(Parser, GotoAndLabels) {
  const auto file = parse_source(
      "program p\n"
      "real x\n"
      "x = 0.0\n"
      "goto 20\n"
      "x = 1.0\n"
      "20 continue\n"
      "end\n");
  const auto& body = file.units[0].body;
  EXPECT_EQ(body[1]->kind, StmtKind::Goto);
  EXPECT_EQ(body[1]->goto_target, 20);
  EXPECT_EQ(body[3]->label, 20);
}

TEST(Parser, SubroutineWithArgsAndCall) {
  const auto file = parse_source(
      "program p\n"
      "real x\n"
      "call init(x, 3)\n"
      "end\n"
      "subroutine init(a, k)\n"
      "real a\n"
      "integer k\n"
      "a = 1.0\n"
      "return\n"
      "end\n");
  ASSERT_EQ(file.units.size(), 2u);
  EXPECT_EQ(file.units[1].kind, UnitKind::Subroutine);
  ASSERT_EQ(file.units[1].formal_args.size(), 2u);
  EXPECT_EQ(file.units[1].formal_args[0], "a");
  const auto& call = *file.units[0].body[0];
  EXPECT_EQ(call.kind, StmtKind::Call);
  EXPECT_EQ(call.callee, "init");
  EXPECT_EQ(call.args.size(), 2u);
}

TEST(Parser, CommonBlock) {
  const auto file = parse_source(
      "program p\n"
      "real v(10, 10)\n"
      "common /flow/ v\n"
      "v(1, 1) = 0.0\n"
      "end\n");
  const auto& unit = file.units[0];
  ASSERT_EQ(unit.commons.size(), 1u);
  EXPECT_EQ(unit.commons[0].block_name, "flow");
  EXPECT_EQ(unit.commons[0].vars, std::vector<std::string>{"v"});
}

TEST(Parser, DimensionWithLowerBounds) {
  const auto file = parse_source(
      "program p\n"
      "parameter (n = 10)\n"
      "real v(0:n + 1, -1:n)\n"
      "v(0, -1) = 0.0\n"
      "end\n");
  const auto* d = file.units[0].find_decl("v");
  ASSERT_NE(d, nullptr);
  ASSERT_EQ(d->dims.size(), 2u);
  EXPECT_NE(d->dims[0].lower, nullptr);
  EXPECT_NE(d->dims[1].lower, nullptr);
}

TEST(Parser, IntrinsicCalls) {
  const auto file = parse_source(
      "program p\n"
      "real x, y\n"
      "y = max(abs(x), sqrt(x) + 1.0)\n"
      "end\n");
  const auto& rhs = *file.units[0].body[0]->rhs;
  EXPECT_EQ(rhs.kind, ExprKind::Intrinsic);
  EXPECT_EQ(rhs.name, "max");
  ASSERT_EQ(rhs.args.size(), 2u);
  EXPECT_EQ(rhs.args[0]->kind, ExprKind::Intrinsic);
}

TEST(Parser, UndeclaredArrayUseIsError) {
  DiagnosticEngine diags;
  (void)parse_source(
      "program p\n"
      "real x\n"
      "x = w(1, 2)\n"
      "end\n",
      diags);
  EXPECT_TRUE(diags.has_errors());
}

TEST(Parser, PowerIsRightAssociative) {
  const auto file = parse_source(
      "program p\n"
      "real x\n"
      "x = 2**3**2\n"
      "end\n");
  const auto& rhs = *file.units[0].body[0]->rhs;
  ASSERT_EQ(rhs.kind, ExprKind::Binary);
  EXPECT_EQ(rhs.bin_op, BinOp::Pow);
  // Right child must itself be the 3**2 power.
  EXPECT_EQ(rhs.args[1]->kind, ExprKind::Binary);
}

TEST(Parser, OperatorPrecedence) {
  const auto file = parse_source(
      "program p\n"
      "real x\n"
      "x = 1.0 + 2.0 * 3.0\n"
      "end\n");
  const auto& rhs = *file.units[0].body[0]->rhs;
  EXPECT_EQ(rhs.bin_op, BinOp::Add);
  EXPECT_EQ(rhs.args[1]->bin_op, BinOp::Mul);
}

TEST(Parser, ReadAndWriteStatements) {
  const auto file = parse_source(
      "program p\n"
      "real v(4)\n"
      "read(5,*) v\n"
      "write(6,*) v(1), v(2)\n"
      "end\n");
  const auto& body = file.units[0].body;
  EXPECT_EQ(body[0]->kind, StmtKind::Read);
  ASSERT_EQ(body[0]->args.size(), 1u);
  EXPECT_EQ(body[1]->kind, StmtKind::Write);
  EXPECT_EQ(body[1]->args.size(), 2u);
}

TEST(Parser, StmtIdsAreDocumentOrdered) {
  const auto file = parse_source(
      "program p\n"
      "integer i\n"
      "real x\n"
      "x = 0.0\n"
      "do i = 1, 3\n"
      "  x = x + 1.0\n"
      "end do\n"
      "x = x * 2.0\n"
      "end\n");
  const auto& body = file.units[0].body;
  EXPECT_EQ(body[0]->id, 1);
  EXPECT_EQ(body[1]->id, 2);
  EXPECT_EQ(body[1]->body[0]->id, 3);
  EXPECT_EQ(body[2]->id, 4);
}

TEST(Parser, MissingEndDoIsError) {
  DiagnosticEngine diags;
  (void)parse_source(
      "program p\n"
      "integer i\n"
      "do i = 1, 3\n"
      "end\n",
      diags);
  EXPECT_TRUE(diags.has_errors());
}

TEST(Parser, EnddoEndifSpellings) {
  const auto file = parse_source(
      "program p\n"
      "integer i\n"
      "real x\n"
      "do i = 1, 3\n"
      "  if (x .lt. 1.0) then\n"
      "    x = 1.0\n"
      "  endif\n"
      "enddo\n"
      "end\n");
  EXPECT_EQ(file.units[0].body[0]->kind, StmtKind::Do);
}

// Deterministic mutation fuzz of the frontend: every truncation of
// `doc` and every single-byte replacement from a fixed byte set must
// come back from parse_source, and a text it accepts without error must
// print to a fixed point (print, parse again, print the same text).
void expect_frontend_survives_mutations(const std::string& doc) {
  static const std::string kBytes("'()&!.*=\n d0\0\xff", 14);
  int failures = 0;
  std::string first, why;
  const auto fail = [&](const std::string& text, std::string reason) {
    if (failures++ == 0) {
      first = text;
      why = std::move(reason);
    }
  };
  const auto check = [&](const std::string& text) {
    try {
      DiagnosticEngine diags;
      const auto file = parse_source(text, diags);
      if (diags.has_errors()) return;
      const auto printed = print_file(file);
      DiagnosticEngine again;
      const auto back = parse_source(printed, again);
      if (again.has_errors()) {
        fail(text, "printed text does not parse:\n" + printed + again.dump());
      } else if (print_file(back) != printed) {
        fail(text, "print is not a fixed point:\n" + printed);
      }
    } catch (const std::exception& e) {
      fail(text, std::string("threw: ") + e.what());
    }
  };
  for (std::size_t n = 0; n < doc.size(); ++n) check(doc.substr(0, n));
  for (std::size_t i = 0; i < doc.size(); ++i) {
    for (const char b : kBytes) {
      std::string mutated = doc;
      mutated[i] = b;
      check(mutated);
    }
  }
  EXPECT_EQ(failures, 0) << why << "\nfirst failing input:\n" << first;
}

TEST(FrontendMutation, QuickstartSurvivesTruncationAndByteSwaps) {
  std::ifstream in(std::string(AUTOCFD_SOURCE_DIR) + "/examples/quickstart.f");
  std::ostringstream doc;
  doc << in.rdbuf();
  ASSERT_FALSE(doc.str().empty());
  expect_frontend_survives_mutations(doc.str());
}

}  // namespace
}  // namespace autocfd::fortran
