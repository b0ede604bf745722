#include "autocfd/support/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace autocfd::support {

std::optional<long long> exact_int(double v) {
  // [-2^63, 2^63) is exactly the range of long long; NaN fails both.
  if (v != std::trunc(v) || !(v >= -0x1p63 && v < 0x1p63)) {
    return std::nullopt;
  }
  return static_cast<long long>(v);
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [name, value] : fields) {
    if (name == key) return &value;
  }
  return nullptr;
}

double JsonValue::num_or(std::string_view key, double fallback) const {
  const auto* v = find(key);
  return v != nullptr && v->kind == Kind::Number ? v->number : fallback;
}

long long JsonValue::int_or(std::string_view key, long long fallback) const {
  const auto* v = find(key);
  return v != nullptr && v->kind == Kind::Number
             ? exact_int(v->number).value_or(fallback)
             : fallback;
}

std::string JsonValue::str_or(std::string_view key,
                              std::string fallback) const {
  const auto* v = find(key);
  return v != nullptr && v->kind == Kind::String ? v->string
                                                 : std::move(fallback);
}

bool JsonValue::bool_or(std::string_view key, bool fallback) const {
  const auto* v = find(key);
  return v != nullptr && v->kind == Kind::Bool ? v->boolean : fallback;
}

const std::vector<JsonValue>& JsonValue::list(std::string_view key) const {
  static const std::vector<JsonValue> kEmpty;
  const auto* v = find(key);
  return v != nullptr && v->kind == Kind::Array ? v->items : kEmpty;
}

namespace {

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  int depth = 0;
  std::string error;

  [[nodiscard]] bool fail(const std::string& what) {
    if (error.empty()) {
      error = what + " at offset " + std::to_string(pos);
    }
    return false;
  }

  void skip_ws() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }

  [[nodiscard]] bool consume(char ch) {
    if (pos < text.size() && text[pos] == ch) {
      ++pos;
      return true;
    }
    return false;
  }

  [[nodiscard]] bool digits() {
    const std::size_t from = pos;
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    return pos > from;
  }

  [[nodiscard]] bool literal(std::string_view word) {
    if (text.substr(pos, word.size()) != word) {
      return fail("bad literal");
    }
    pos += word.size();
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return fail("expected '\"'");
    out.clear();
    while (pos < text.size()) {
      const char ch = text[pos++];
      if (ch == '"') return true;
      if (ch != '\\') {
        out += ch;
        continue;
      }
      if (pos >= text.size()) break;
      const char esc = text[pos++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          const char* hex = text.data() + pos;
          if (pos + 4 > text.size() ||
              std::from_chars(hex, hex + 4, code, 16).ptr != hex + 4) {
            return fail("bad \\u escape");
          }
          if (code > 0x7f) return fail("\\u escape above 0x7F");
          out += static_cast<char>(code);
          pos += 4;
          break;
        }
        default: return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  // RFC 8259: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  bool parse_number(JsonValue& out) {
    const std::size_t start = pos;
    (void)consume('-');
    if (!consume('0') && !digits()) return fail("bad number");
    if (consume('.') && !digits()) return fail("bad number");
    if (consume('e') || consume('E')) {
      if (!consume('+')) (void)consume('-');
      if (!digits()) return fail("bad number");
    }
    const std::string lexeme(text.substr(start, pos - start));
    out.kind = JsonValue::Kind::Number;
    out.number = std::strtod(lexeme.c_str(), nullptr);
    if (std::isinf(out.number)) {
      pos = start;
      return fail("number out of range");
    }
    return true;
  }

  bool parse_value(JsonValue& out) {
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char ch = text[pos];
    if (ch == '{' || ch == '[') {
      if (++depth > kMaxJsonDepth) return fail("nested too deeply");
      const bool ok = ch == '{' ? parse_object(out) : parse_array(out);
      --depth;
      return ok;
    }
    if (ch == '"') {
      out.kind = JsonValue::Kind::String;
      return parse_string(out.string);
    }
    if (ch == 't') {
      out.kind = JsonValue::Kind::Bool;
      out.boolean = true;
      return literal("true");
    }
    if (ch == 'f') {
      out.kind = JsonValue::Kind::Bool;
      out.boolean = false;
      return literal("false");
    }
    if (ch == 'n') {
      out.kind = JsonValue::Kind::Null;
      return literal("null");
    }
    if (ch == '-' || (ch >= '0' && ch <= '9')) return parse_number(out);
    return fail("expected a JSON value");
  }

  bool parse_object(JsonValue& out) {
    out.kind = JsonValue::Kind::Object;
    if (!consume('{')) return fail("expected '{'");
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!consume(':')) return fail("expected ':'");
      JsonValue value;
      if (!parse_value(value)) return false;
      out.fields.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return true;
      return fail("expected ',' or '}'");
    }
  }

  bool parse_array(JsonValue& out) {
    out.kind = JsonValue::Kind::Array;
    if (!consume('[')) return fail("expected '['");
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      JsonValue value;
      if (!parse_value(value)) return false;
      out.items.push_back(std::move(value));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return true;
      return fail("expected ',' or ']'");
    }
  }
};

}  // namespace

std::optional<JsonValue> parse_json(std::string_view text,
                                    std::string* error) {
  Parser p{text, 0, 0, {}};
  JsonValue root;
  if (!p.parse_value(root)) {
    if (error != nullptr) *error = p.error;
    return std::nullopt;
  }
  p.skip_ws();
  if (p.pos != text.size()) {
    if (error != nullptr) {
      *error = "trailing content at offset " + std::to_string(p.pos);
    }
    return std::nullopt;
  }
  return root;
}

std::optional<JsonValue> parse_json_document(std::string_view text,
                                             std::string_view what,
                                             int schema_version,
                                             std::string_view remedy,
                                             std::string* error) {
  std::string why;
  auto root = parse_json(text, &why);
  if (root && root->kind != JsonValue::Kind::Object) {
    root.reset();
    why = "top level is not an object";
  }
  if (!root) {
    if (error != nullptr) *error = std::string(what) + ": " + why;
    return std::nullopt;
  }
  const auto* v = root->find("schema_version");
  if (v == nullptr || v->kind != JsonValue::Kind::Number ||
      v->number != schema_version) {
    if (error != nullptr) {
      const std::string got =
          v == nullptr ? "missing"
          : v->kind == JsonValue::Kind::Number ? json_number(v->number)
                                               : "not a number";
      *error = std::string(what) + " schema_version " + got +
               " (this build expects " + std::to_string(schema_version) +
               "); " + std::string(remedy);
    }
    return std::nullopt;
  }
  return root;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (std::isnan(v)) v = 0.0;
  if (std::isinf(v)) v = v > 0 ? 1e308 : -1e308;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace autocfd::support
