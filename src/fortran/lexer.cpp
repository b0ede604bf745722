#include "autocfd/fortran/lexer.hpp"

#include <charconv>
#include <cstdlib>

#include "autocfd/support/strings.hpp"

namespace autocfd::fortran {

namespace {

// ASCII character classes, as <cctype> answers them in the "C" locale.
bool is_alpha(char c) { return (c | 0x20) >= 'a' && (c | 0x20) <= 'z'; }
bool is_digit(char c) { return c >= '0' && c <= '9'; }
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool is_ident_start(char c) { return is_alpha(c) || c == '_'; }
bool is_ident_char(char c) { return is_alpha(c) || is_digit(c) || c == '_'; }

bool is_comment_line(std::string_view line) {
  const auto t = autocfd::trim(line);
  if (t.empty()) return false;
  if (t[0] == '!') return true;
  // Classic fixed-form comment markers in column 1. Unlike strict F77 we
  // only treat 'c'/'C'/'*' as a comment when followed by whitespace or
  // nothing, so statements like `call ...` or `common ...` may start in
  // column 1 (the subset accepts relaxed layout).
  const char c = line[0];
  if (c != 'c' && c != 'C' && c != '*') return false;
  if (line.size() == 1) return true;
  if (!is_space(line[1])) return false;
  if (c == '*') return true;
  // `c = ...` / `c(i) = ...` is an assignment to a variable named c,
  // not a comment.
  const auto rest = autocfd::trim(line.substr(1));
  return rest.empty() || (rest[0] != '=' && rest[0] != '(');
}

}  // namespace

Lexer::Lexer(std::string_view source, DiagnosticEngine& diags)
    : source_(source), diags_(&diags) {}

std::vector<Token> Lexer::tokenize() {
  // The generated CFD sources run about one token per two bytes.
  std::vector<Token> out;
  out.reserve(source_.size() / 2 + 1);
  std::uint32_t line_no = 0;
  bool continuation_pending = false;
  std::size_t pos = 0;
  while (pos <= source_.size()) {
    const auto nl = source_.find('\n', pos);
    const auto end = (nl == std::string::npos) ? source_.size() : nl;
    std::string_view line(source_.data() + pos, end - pos);
    ++line_no;

    if (!is_comment_line(line) && !autocfd::trim(line).empty()) {
      lex_line(line, line_no, continuation_pending, out);
      // A trailing '&' suppresses the statement terminator.
      // lex_line stripped it already and told us via the flag below.
      continuation_pending =
          !out.empty() && out.back().kind != TokenKind::EndOfStatement;
    }

    if (nl == std::string::npos) break;
    pos = nl + 1;
  }
  if (continuation_pending) {
    diags_->error({line_no, 1}, "file ends in a continued statement");
  }
  Token eof;
  eof.kind = TokenKind::EndOfFile;
  eof.loc = {line_no, 1};
  out.push_back(eof);
  return out;
}

void Lexer::lex_line(std::string_view line, std::uint32_t line_no,
                     bool is_continuation, std::vector<Token>& out) {
  // Strip inline comment (a '!' outside a string literal).
  bool in_string = false;
  std::size_t effective_len = line.size();
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (line[i] == '\'') in_string = !in_string;
    if (line[i] == '!' && !in_string) {
      effective_len = i;
      break;
    }
  }
  line = line.substr(0, effective_len);

  // Detect and strip a trailing continuation '&'.
  bool continued = false;
  {
    const auto t = autocfd::trim(line);
    if (!t.empty() && t.back() == '&') {
      continued = true;
      const auto amp = line.rfind('&');
      line = line.substr(0, amp);
    }
  }

  bool at_statement_start = !is_continuation;
  std::size_t i = 0;
  while (i < line.size()) {
    const char c = line[i];
    const auto col = static_cast<std::uint32_t>(i + 1);
    if (is_space(c)) {
      ++i;
      continue;
    }
    if (is_ident_start(c)) {
      const std::size_t start = i;
      while (i < line.size() && is_ident_char(line[i])) ++i;
      Token& ident = out.emplace_back();
      ident.kind = TokenKind::Identifier;
      ident.loc = {line_no, col};
      ident.text.assign(line.substr(start, i - start));
      for (auto& ch : ident.text) {
        if (ch >= 'A' && ch <= 'Z') ch = static_cast<char>(ch - 'A' + 'a');
      }
      at_statement_start = false;
      continue;
    }
    Token tok;
    tok.loc = {line_no, col};
    if (is_digit(c) || (c == '.' && i + 1 < line.size() && is_digit(line[i + 1]))) {
      lex_number(line, i, line_no, at_statement_start, out);
      at_statement_start = false;
      continue;
    }
    if (c == '.') {
      lex_dot_operator(line, i, line_no, out);
      at_statement_start = false;
      continue;
    }
    if (c == '\'') {
      std::size_t start = ++i;
      while (i < line.size() && line[i] != '\'') ++i;
      if (i >= line.size()) {
        diags_->error(tok.loc, "unterminated string literal");
      }
      tok.kind = TokenKind::StringLiteral;
      tok.text = std::string(line.substr(start, i - start));
      if (i < line.size()) ++i;  // closing quote
      out.push_back(std::move(tok));
      at_statement_start = false;
      continue;
    }
    at_statement_start = false;
    switch (c) {
      case '(': tok.kind = TokenKind::LParen; ++i; break;
      case ')': tok.kind = TokenKind::RParen; ++i; break;
      case ',': tok.kind = TokenKind::Comma; ++i; break;
      case ':': tok.kind = TokenKind::Colon; ++i; break;
      case '=': tok.kind = TokenKind::Equals; ++i; break;
      case '+': tok.kind = TokenKind::Plus; ++i; break;
      case '-': tok.kind = TokenKind::Minus; ++i; break;
      case '/': tok.kind = TokenKind::Slash; ++i; break;
      case '*':
        if (i + 1 < line.size() && line[i + 1] == '*') {
          tok.kind = TokenKind::StarStar;
          i += 2;
        } else {
          tok.kind = TokenKind::Star;
          ++i;
        }
        break;
      default:
        diags_->error(tok.loc, std::string("unexpected character '") + c + "'");
        ++i;
        continue;
    }
    out.push_back(std::move(tok));
  }

  if (!continued) {
    Token eos;
    eos.kind = TokenKind::EndOfStatement;
    eos.loc = {line_no, static_cast<std::uint32_t>(line.size() + 1)};
    out.push_back(eos);
  }
}

void Lexer::lex_number(std::string_view line, std::size_t& i,
                       std::uint32_t line_no, bool at_statement_start,
                       std::vector<Token>& out) {
  const auto col = static_cast<std::uint32_t>(i + 1);
  std::size_t start = i;
  bool is_real = false;
  while (i < line.size() && is_digit(line[i])) ++i;
  // A '.' begins a fraction unless it starts a dot-operator (`1.lt.2`).
  // An exponent letter right after the dot (`2.e-3`) is still a real:
  // e/d followed by an optional sign and a digit.
  const auto is_exponent_at = [&](std::size_t j) {
    if (j >= line.size()) return false;
    const char ch = line[j];
    if (ch != 'e' && ch != 'E' && ch != 'd' && ch != 'D') return false;
    std::size_t k = j + 1;
    if (k < line.size() && (line[k] == '+' || line[k] == '-')) ++k;
    return k < line.size() && is_digit(line[k]);
  };
  if (i < line.size() && line[i] == '.' &&
      (!(i + 1 < line.size() && is_alpha(line[i + 1])) ||
       is_exponent_at(i + 1))) {
    is_real = true;
    ++i;
    while (i < line.size() && is_digit(line[i])) ++i;
  }
  if (i < line.size() && (line[i] == 'e' || line[i] == 'E' || line[i] == 'd' ||
                          line[i] == 'D')) {
    std::size_t j = i + 1;
    if (j < line.size() && (line[j] == '+' || line[j] == '-')) ++j;
    if (j < line.size() && is_digit(line[j])) {
      is_real = true;
      i = j;
      while (i < line.size() && is_digit(line[i])) ++i;
    }
  }

  Token tok;
  tok.loc = {line_no, col};
  tok.text.assign(line.substr(start, i - start));
  if (is_real) {
    tok.kind = TokenKind::RealLiteral;
    // Fortran 'd' exponents are not understood by strtod.
    const auto d = tok.text.find_first_of("dD");
    if (d == std::string::npos) {
      tok.real_value = std::strtod(tok.text.c_str(), nullptr);
    } else {
      std::string spelling = tok.text;
      spelling[d] = 'e';
      tok.real_value = std::strtod(spelling.c_str(), nullptr);
    }
  } else {
    tok.kind = at_statement_start ? TokenKind::Label : TokenKind::IntLiteral;
    long long v = 0;
    std::from_chars(tok.text.data(), tok.text.data() + tok.text.size(), v);
    tok.int_value = v;
  }
  out.push_back(std::move(tok));
}

void Lexer::lex_dot_operator(std::string_view line, std::size_t& i,
                             std::uint32_t line_no, std::vector<Token>& out) {
  const auto col = static_cast<std::uint32_t>(i + 1);
  const auto close = line.find('.', i + 1);
  Token tok;
  tok.loc = {line_no, col};
  if (close == std::string_view::npos) {
    diags_->error(tok.loc, "malformed dot-operator");
    ++i;
    return;
  }
  const auto word = autocfd::to_lower(line.substr(i + 1, close - i - 1));
  i = close + 1;
  if (word == "lt") tok.kind = TokenKind::DotLt;
  else if (word == "le") tok.kind = TokenKind::DotLe;
  else if (word == "gt") tok.kind = TokenKind::DotGt;
  else if (word == "ge") tok.kind = TokenKind::DotGe;
  else if (word == "eq") tok.kind = TokenKind::DotEq;
  else if (word == "ne") tok.kind = TokenKind::DotNe;
  else if (word == "and") tok.kind = TokenKind::DotAnd;
  else if (word == "or") tok.kind = TokenKind::DotOr;
  else if (word == "not") tok.kind = TokenKind::DotNot;
  else if (word == "true") tok.kind = TokenKind::DotTrue;
  else if (word == "false") tok.kind = TokenKind::DotFalse;
  else {
    diags_->error(tok.loc, "unknown dot-operator '." + word + ".'");
    return;
  }
  out.push_back(std::move(tok));
}

}  // namespace autocfd::fortran
