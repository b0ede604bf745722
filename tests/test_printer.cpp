#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <random>

#include "autocfd/fortran/parser.hpp"
#include "autocfd/fortran/printer.hpp"

namespace autocfd::fortran {
namespace {

// Round-trip: parse, print, re-parse, print — the two prints must agree.
void expect_stable(const std::string& src) {
  const auto f1 = parse_source(src);
  const auto p1 = print_file(f1);
  const auto f2 = parse_source(p1);
  const auto p2 = print_file(f2);
  EXPECT_EQ(p1, p2) << "print is not a fixed point for:\n" << src;
}

TEST(Printer, ExprPrecedenceParens) {
  const auto file = parse_source(
      "program p\n"
      "real x\n"
      "x = (1.0 + 2.0) * 3.0\n"
      "x = 1.0 - (2.0 - 3.0)\n"
      "end\n");
  EXPECT_EQ(print_expr(*file.units[0].body[0]->rhs), "(1.0+2.0)*3.0");
  EXPECT_EQ(print_expr(*file.units[0].body[1]->rhs), "1.0-(2.0-3.0)");
}

TEST(Printer, RealLiteralsKeepDecimalPoint) {
  const auto file = parse_source(
      "program p\n"
      "real x\n"
      "x = 2.0\n"
      "end\n");
  EXPECT_EQ(print_expr(*file.units[0].body[0]->rhs), "2.0");
}

TEST(Printer, RoundTripAssignment) {
  expect_stable(
      "program p\n"
      "real x, y\n"
      "x = y * 2.0 + 1.0\n"
      "end\n");
}

TEST(Printer, RoundTripLoopNest) {
  expect_stable(
      "program p\n"
      "parameter (n = 4)\n"
      "real v(n, n)\n"
      "integer i, j\n"
      "do i = 1, n\n"
      "  do j = 1, n\n"
      "    v(i, j) = v(i, j) + 1.0\n"
      "  end do\n"
      "end do\n"
      "end\n");
}

TEST(Printer, RoundTripBranchesAndGoto) {
  expect_stable(
      "program p\n"
      "real x\n"
      "integer i\n"
      "do i = 1, 10\n"
      "  if (x .gt. 5.0) then\n"
      "    goto 30\n"
      "  else\n"
      "    x = x + 1.0\n"
      "  end if\n"
      "end do\n"
      "30 continue\n"
      "end\n");
}

TEST(Printer, RoundTripSubroutines) {
  expect_stable(
      "program p\n"
      "real v(8)\n"
      "common /flow/ v\n"
      "call relax\n"
      "end\n"
      "subroutine relax\n"
      "real v(8)\n"
      "common /flow/ v\n"
      "integer i\n"
      "do i = 2, 7\n"
      "  v(i) = 0.5 * (v(i - 1) + v(i + 1))\n"
      "end do\n"
      "return\n"
      "end\n");
}

TEST(Printer, RoundTripIntrinsics) {
  expect_stable(
      "program p\n"
      "real x, e\n"
      "e = max(e, abs(x - 1.0))\n"
      "x = sqrt(x) ** 2\n"
      "end\n");
}

TEST(Printer, RoundTripRelationalChain) {
  expect_stable(
      "program p\n"
      "real a, b\n"
      "logical q\n"
      "q = a .lt. b .and. b .ge. 0.0 .or. .not. (a .eq. b)\n"
      "end\n");
}

// Emitted source must mean what the AST means: printing and parsing
// again gives back the same tree. The parser folds a unary plus into
// its operand, so `expected` may hold Plus nodes that `got` lacks.
void expect_same_tree(const Expr& expected, const Expr& got,
                      const std::string& printed) {
  if (expected.kind == ExprKind::Unary && expected.un_op == UnOp::Plus) {
    expect_same_tree(*expected.args[0], got, printed);
    return;
  }
  ASSERT_EQ(expected.kind, got.kind) << printed;
  switch (expected.kind) {
    case ExprKind::IntLit:
      EXPECT_EQ(expected.int_value, got.int_value) << printed;
      break;
    case ExprKind::RealLit:
      EXPECT_EQ(std::bit_cast<std::uint64_t>(expected.real_value),
                std::bit_cast<std::uint64_t>(got.real_value))
          << printed << ": " << expected.real_value << " read back as "
          << got.real_value;
      break;
    case ExprKind::Binary:
      EXPECT_EQ(expected.bin_op, got.bin_op) << printed;
      break;
    case ExprKind::Unary:
      EXPECT_EQ(expected.un_op, got.un_op) << printed;
      break;
    default:
      EXPECT_EQ(expected.name, got.name) << printed;
      break;
  }
  ASSERT_EQ(expected.args.size(), got.args.size()) << printed;
  for (std::size_t i = 0; i < expected.args.size(); ++i) {
    expect_same_tree(*expected.args[i], *got.args[i], printed);
  }
}

// Prints `x = <rhs>` in a program declaring every name the generated
// trees use, parses it back and compares the right-hand sides.
void expect_round_trip(ExprPtr rhs) {
  auto file = parse_source(
      "program p\n"
      "real a, b, c, x, v(10)\n"
      "x = 0\n"
      "end\n");
  auto& stmt = *file.units[0].body[0];
  stmt.rhs = std::move(rhs);
  const auto printed = print_file(file);
  DiagnosticEngine diags;
  const auto back = parse_source(printed, diags);
  ASSERT_FALSE(diags.has_errors()) << printed << diags.dump();
  expect_same_tree(*stmt.rhs, *back.units[0].body[0]->rhs, printed);
}

ExprPtr parse_rhs(const std::string& rhs) {
  auto file = parse_source("program p\nreal a, b, c, x\nx = " + rhs +
                           "\nend\n");
  return std::move(file.units[0].body[0]->rhs);
}

TEST(PrinterRoundTrip, PowLeftOperandKeepsParens) {
  auto e = parse_rhs("(a**b)**c");
  EXPECT_EQ(print_expr(*e), "(a**b)**c");
  expect_round_trip(std::move(e));
  EXPECT_EQ(print_expr(*parse_rhs("a**b**c")), "a**(b**c)");
}

TEST(PrinterRoundTrip, RealLiteralsKeepEveryDigit) {
  EXPECT_EQ(print_expr(*parse_rhs("0.1234567")), "0.1234567");
  EXPECT_EQ(print_expr(*parse_rhs("3.14159265358979d0")), "3.14159265358979");
  EXPECT_EQ(print_expr(*parse_rhs("0.1")), "0.1");
  EXPECT_EQ(print_expr(*parse_rhs("1.0e-4")), "0.0001");
  EXPECT_EQ(print_expr(*parse_rhs("1.0e20")), "1e+20");
  expect_round_trip(make_real(0.1234567));
  expect_round_trip(make_real(3.14159265358979));
  expect_round_trip(make_real(std::nextafter(1.0, 2.0)));
}

TEST(PrinterRoundTrip, UnaryOperandOfBinaryIsParenthesized) {
  EXPECT_EQ(print_expr(*parse_rhs("a - (-b)")), "a-(-(b))");
  EXPECT_EQ(print_expr(*parse_rhs("a * (-b)")), "a*(-(b))");
  EXPECT_EQ(print_expr(*parse_rhs("-b")), "-(b)");
  auto pow = make_binary(BinOp::Pow, make_unary(UnOp::Neg, make_var("a")),
                         make_int(2));
  EXPECT_EQ(print_expr(*pow), "(-(a))**2");
  expect_round_trip(std::move(pow));
  expect_round_trip(parse_rhs("a - (-b)"));
  expect_round_trip(parse_rhs("a * (-b)"));
}

// Seeded random trees over every BinOp and UnOp, with integer literals,
// 17-digit reals, scalars, an array element and an intrinsic call.
class TreeGen {
 public:
  explicit TreeGen(std::uint64_t seed) : rng_(seed) {}

  ExprPtr expr(int depth) {
    if (depth == 0 || pick(4) == 0) return leaf(depth);
    if (pick(4) == 0) {
      constexpr UnOp kUnOps[] = {UnOp::Neg, UnOp::Plus, UnOp::Not};
      return make_unary(kUnOps[pick(3)], expr(depth - 1));
    }
    constexpr BinOp kBinOps[] = {
        BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Pow,
        BinOp::Lt,  BinOp::Le,  BinOp::Gt,  BinOp::Ge,  BinOp::Eq,
        BinOp::Ne,  BinOp::And, BinOp::Or};
    const BinOp op = kBinOps[pick(std::size(kBinOps))];
    auto lhs = expr(depth - 1);
    return make_binary(op, std::move(lhs), expr(depth - 1));
  }

 private:
  std::size_t pick(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng_);
  }

  ExprPtr leaf(int depth) {
    switch (pick(6)) {
      case 0:
        return make_int(static_cast<long long>(pick(100000)));
      case 1: {
        // A 17-significant-digit value between 1e-9 and 1e9.
        const double mantissa =
            std::uniform_real_distribution<double>(1.0, 10.0)(rng_);
        const int exponent = static_cast<int>(pick(19)) - 9;
        return make_real(mantissa * std::pow(10.0, exponent));
      }
      case 2: {
        std::vector<ExprPtr> sub;
        sub.push_back(depth > 0 ? expr(depth - 1) : make_int(1));
        return make_array_ref("v", std::move(sub));
      }
      case 3: {
        std::vector<ExprPtr> args;
        args.push_back(depth > 0 ? expr(depth - 1) : make_var("a"));
        args.push_back(make_var("b"));
        return make_intrinsic("max", std::move(args));
      }
      default: {
        constexpr const char* kNames[] = {"a", "b", "c"};
        return make_var(kNames[pick(3)]);
      }
    }
  }

  std::mt19937_64 rng_;
};

TEST(PrinterRoundTrip, RandomTreesParseBackToThemselves) {
  TreeGen gen(20031017);
  for (int i = 0; i < 2000; ++i) {
    expect_round_trip(gen.expr(5));
    if (HasFailure()) {
      ADD_FAILURE() << "first failing tree is number " << i;
      return;
    }
  }
}

TEST(Printer, HaloExchangePrintsAsAcfdCall) {
  Stmt s;
  s.kind = StmtKind::HaloExchange;
  s.halo_arrays.push_back(HaloSpec{"v", {1, 0}, {1, 0}});
  const auto text = print_stmt(s);
  EXPECT_NE(text.find("acfd_halo_exchange"), std::string::npos);
  EXPECT_NE(text.find("v"), std::string::npos);
}

TEST(Printer, AllReducePrintsAsMpiCall) {
  Stmt s;
  s.kind = StmtKind::AllReduce;
  s.reduce_var = "errmax";
  s.callee = "max";
  const auto text = print_stmt(s);
  EXPECT_NE(text.find("mpi_allreduce"), std::string::npos);
  EXPECT_NE(text.find("errmax"), std::string::npos);
  EXPECT_NE(text.find("mpi_max"), std::string::npos);
}

TEST(Printer, ExtensionsAsComments) {
  Stmt s;
  s.kind = StmtKind::HaloExchange;
  s.halo_arrays.push_back(HaloSpec{"v", {1}, {1}});
  PrintOptions opts;
  opts.extensions_as_mpi_calls = false;
  const auto text = print_stmt(s, opts);
  EXPECT_NE(text.find("!$acfd halo-exchange v"), std::string::npos);
}

}  // namespace
}  // namespace autocfd::fortran
