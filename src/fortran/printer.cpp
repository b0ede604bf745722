#include "autocfd/fortran/printer.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>

namespace autocfd::fortran {

namespace {

int precedence(BinOp op) {
  switch (op) {
    case BinOp::Or: return 1;
    case BinOp::And: return 2;
    case BinOp::Lt:
    case BinOp::Le:
    case BinOp::Gt:
    case BinOp::Ge:
    case BinOp::Eq:
    case BinOp::Ne: return 3;
    case BinOp::Add:
    case BinOp::Sub: return 4;
    case BinOp::Mul:
    case BinOp::Div: return 5;
    case BinOp::Pow: return 6;
  }
  return 0;
}

void put_expr(std::string& out, const Expr& e, int parent_prec);

/// Appends each part to `out`: an expression at top level, an integer in
/// decimal, anything else (string, C string, char) as it is.
template <typename... Parts>
void put(std::string& out, const Parts&... parts) {
  const auto one = [&out](const auto& part) {
    using T = std::decay_t<decltype(part)>;
    if constexpr (std::is_same_v<T, Expr>) {
      put_expr(out, part, 0);
    } else if constexpr (std::is_integral_v<T> && !std::is_same_v<T, char>) {
      char buf[24];
      const auto res = std::to_chars(buf, buf + sizeof buf, part);
      out.append(buf, res.ptr);
    } else {
      out += part;
    }
  };
  (one(parts), ...);
}

/// A real literal that the lexer reads back to the same double: "%g"
/// when that suffices, else the shortest "%.Ng" that does, with ".0"
/// added when the digits would otherwise read as an integer.
void put_real(std::string& out, double v) {
  char buf[32];
  int n = std::snprintf(buf, sizeof buf, "%g", v);
  for (int digits = 7; digits <= 17 && std::isfinite(v) &&
                       std::strtod(buf, nullptr) != v;
       ++digits) {
    n = std::snprintf(buf, sizeof buf, "%.*g", digits, v);
  }
  out.append(buf, static_cast<std::size_t>(n));
  if (std::strpbrk(buf, ".e") == nullptr && std::strstr(buf, "inf") == nullptr &&
      std::strstr(buf, "nan") == nullptr) {
    out += ".0";
  }
}

template <typename T>
void put_list(std::string& out, const std::vector<T>& items) {
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += ", ";
    if constexpr (std::is_same_v<T, ExprPtr>) {
      put(out, *items[i]);
    } else {
      put(out, items[i]);
    }
  }
}

void put_expr(std::string& out, const Expr& e, int parent_prec) {
  switch (e.kind) {
    case ExprKind::IntLit:
      put(out, e.int_value);
      return;
    case ExprKind::RealLit:
      put_real(out, e.real_value);
      return;
    case ExprKind::StrLit:
      put(out, '\'', e.str_value, '\'');
      return;
    case ExprKind::LogicalLit:
      out += e.bool_value ? ".true." : ".false.";
      return;
    case ExprKind::VarRef:
      out += e.name;
      return;
    case ExprKind::ArrayRef:
    case ExprKind::Intrinsic:
      put(out, e.name, '(');
      put_list(out, e.args);
      out += ')';
      return;
    case ExprKind::Unary: {
      // A sign under any binary operator is parenthesized: a-(-(b)),
      // (-(a))**2. `.not.` binds looser than the relational and
      // arithmetic operators, so it needs them only under those.
      const bool need_parens = e.un_op == UnOp::Not
                                   ? parent_prec > precedence(BinOp::Lt)
                                   : parent_prec > 0;
      if (need_parens) out += '(';
      switch (e.un_op) {
        case UnOp::Neg: out += "-("; break;
        case UnOp::Plus: out += "+("; break;
        case UnOp::Not: out += ".not. ("; break;
      }
      put(out, *e.args[0], ')');
      if (need_parens) out += ')';
      return;
    }
    case ExprKind::Binary: {
      const int prec = precedence(e.bin_op);
      const bool need_parens = prec < parent_prec;
      if (need_parens) out += '(';
      // The left child of '**' (right associative) and of a relational
      // operator (not associative) gets prec+1 too: (a**b)**c must not
      // print as a**b**c.
      const bool tight_left = e.bin_op == BinOp::Pow || is_relational(e.bin_op);
      put_expr(out, *e.args[0], tight_left ? prec + 1 : prec);
      const auto sp = bin_op_spelling(e.bin_op);
      if (sp.front() == '.') {
        put(out, ' ', sp, ' ');
      } else {
        out += sp;
      }
      // Right child gets prec+1 so equal-precedence right children are
      // parenthesized (a-(b-c) must not print as a-b-c).
      put_expr(out, *e.args[1], prec + 1);
      if (need_parens) out += ')';
      return;
    }
  }
}

class StmtPrinter {
 public:
  StmtPrinter(const PrintOptions& opts, std::string& out)
      : opts_(opts), out_(out) {}

  void print(const Stmt& s, int indent) {
    pad(indent, s.label);
    switch (s.kind) {
      case StmtKind::Assign:
        put(out_, *s.lhs, " = ", *s.rhs, '\n');
        return;
      case StmtKind::Do:
        put(out_, "do ", s.do_var, " = ", *s.lo, ", ", *s.hi);
        if (s.step) put(out_, ", ", *s.step);
        out_ += '\n';
        print_list(s.body, indent + 1);
        pad(indent, 0);
        out_ += "end do\n";
        return;
      case StmtKind::If:
        put(out_, "if (", *s.cond, ") then\n");
        print_list(s.body, indent + 1);
        if (!s.else_body.empty()) {
          pad(indent, 0);
          out_ += "else\n";
          print_list(s.else_body, indent + 1);
        }
        pad(indent, 0);
        out_ += "end if\n";
        return;
      case StmtKind::Goto:
        put(out_, "goto ", s.goto_target, '\n');
        return;
      case StmtKind::Continue:
        out_ += "continue\n";
        return;
      case StmtKind::Call:
        put(out_, "call ", s.callee);
        if (!s.args.empty()) {
          out_ += '(';
          put_list(out_, s.args);
          out_ += ')';
        }
        out_ += '\n';
        return;
      case StmtKind::Return:
        out_ += "return\n";
        return;
      case StmtKind::Stop:
        out_ += "stop\n";
        return;
      case StmtKind::Read:
        out_ += "read(5,*) ";
        put_list(out_, s.args);
        out_ += '\n';
        return;
      case StmtKind::Write:
        out_ += "write(6,*) ";
        put_list(out_, s.args);
        out_ += '\n';
        return;
      case StmtKind::HaloExchange: {
        if (!opts_.extensions_as_mpi_calls) {
          out_ += "!$acfd halo-exchange";
          for (const auto& h : s.halo_arrays) put(out_, ' ', h.array);
          out_ += '\n';
          return;
        }
        put(out_, "call acfd_halo_exchange(", s.halo_arrays.size());
        for (const auto& h : s.halo_arrays) put(out_, ", ", h.array);
        out_ += ")  ! aggregated mpi_sendrecv per neighbor\n";
        return;
      }
      case StmtKind::AllReduce:
        if (!opts_.extensions_as_mpi_calls) {
          put(out_, "!$acfd allreduce ", s.reduce_var, '\n');
          return;
        }
        put(out_, "call mpi_allreduce(", s.reduce_var, ", ", s.reduce_var,
            ", 1, mpi_real, mpi_", s.callee.empty() ? "max" : s.callee,
            ", mpi_comm_world, ierr)\n");
        return;
      case StmtKind::PipelineStart:
        put(out_, "call acfd_pipeline_recv(dim=", s.pipeline_dim,
            ", dir=", s.pipeline_dir, ")  ! mirror-image sweep entry\n");
        return;
      case StmtKind::PipelineEnd:
        put(out_, "call acfd_pipeline_send(dim=", s.pipeline_dim,
            ", dir=", s.pipeline_dir, ")  ! mirror-image sweep exit\n");
        return;
      case StmtKind::Barrier:
        out_ += "call mpi_barrier(mpi_comm_world, ierr)\n";
        return;
    }
  }

  void print_list(const StmtList& list, int indent) {
    for (const auto& s : list) print(*s, indent);
  }

 private:
  /// The label field: "<label> " left-aligned, padded with blanks to
  /// column 6 + indent.
  void pad(int indent, int label) {
    const std::size_t start = out_.size();
    if (label != 0) put(out_, label, ' ');
    const std::size_t width =
        static_cast<std::size_t>(6 + indent * opts_.indent_width);
    const std::size_t used = out_.size() - start;
    if (used < width) out_.append(width - used, ' ');
  }

  const PrintOptions& opts_;
  std::string& out_;
};

void put_unit(std::string& out, const ProgramUnit& unit,
              const PrintOptions& opts) {
  if (unit.kind == UnitKind::Program) {
    put(out, "      program ", unit.name, '\n');
  } else {
    put(out, "      subroutine ", unit.name);
    if (!unit.formal_args.empty()) {
      out += '(';
      put_list(out, unit.formal_args);
      out += ')';
    }
    out += '\n';
  }
  for (const auto& d : unit.decls) {
    put(out, "      ", type_kind_name(d.type), ' ', d.name);
    if (d.is_array()) {
      out += '(';
      for (std::size_t i = 0; i < d.dims.size(); ++i) {
        if (i) out += ", ";
        if (d.dims[i].lower) put(out, *d.dims[i].lower, ':');
        put(out, *d.dims[i].upper);
      }
      out += ')';
    }
    out += '\n';
  }
  for (const auto& p : unit.params) {
    put(out, "      parameter (", p.name, " = ", *p.value, ")\n");
  }
  for (const auto& c : unit.commons) {
    put(out, "      common /", c.block_name, "/ ");
    put_list(out, c.vars);
    out += '\n';
  }
  StmtPrinter(opts, out).print_list(unit.body, 0);
  out += "      end\n";
}

/// Statements in `list` and below, to size the output buffer.
std::size_t count_stmts(const StmtList& list) {
  std::size_t n = list.size();
  for (const auto& s : list) {
    n += count_stmts(s->body) + count_stmts(s->else_body);
  }
  return n;
}

}  // namespace

std::string print_expr(const Expr& expr) {
  std::string out;
  put_expr(out, expr, 0);
  return out;
}

std::string print_stmt(const Stmt& stmt, const PrintOptions& opts,
                       int indent) {
  std::string out;
  StmtPrinter(opts, out).print(stmt, indent);
  return out;
}

std::string print_unit(const ProgramUnit& unit, const PrintOptions& opts) {
  std::string out;
  put_unit(out, unit, opts);
  return out;
}

std::string print_file(const SourceFile& file, const PrintOptions& opts) {
  // About one printed line per statement or declaration; 64 bytes a
  // line covers the generated CFD sources without a regrowth.
  constexpr std::size_t kBytesPerLine = 64;
  std::size_t lines = 0;
  for (const auto& u : file.units) {
    lines += 3 + u.decls.size() + u.params.size() + u.commons.size() +
             count_stmts(u.body);
  }
  std::string out;
  out.reserve(lines * kBytesPerLine);
  for (const auto& u : file.units) {
    put_unit(out, u, opts);
    out += '\n';
  }
  return out;
}

}  // namespace autocfd::fortran
