// The repository's one JSON module: a reader for the documents it
// reads back (run reports, plan files, sweep specs, scaling reports,
// ledger lines, BENCH_*.json sidecars) and the two helpers every
// hand-written JSON emitter uses.
//
// The reader accepts RFC 8259 JSON only — no NaN, infinities, hex or
// leading '+' — and stops at kMaxJsonDepth levels of nesting, so a
// malformed or hostile input ends in a one-line diagnostic, never a
// crash. \u escapes decode only up to 0x7F (the writer emits them only
// for control bytes); raw UTF-8 passes through unchanged.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace autocfd::support {

/// Deepest array/object nesting the reader accepts. The repository's
/// own documents nest a few levels.
inline constexpr int kMaxJsonDepth = 256;

/// `v` as a long long when it is integral and in range, else nullopt.
[[nodiscard]] std::optional<long long> exact_int(double v);

/// One parsed JSON value. Objects keep insertion order so that a
/// write -> read -> write round trip is byte-identical.
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> items;                           // Array
  std::vector<std::pair<std::string, JsonValue>> fields;  // Object

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  // Typed accessors with fallbacks (never throw). int_or falls back
  // unless the member is a number exact_int accepts.
  [[nodiscard]] double num_or(std::string_view key, double fallback) const;
  [[nodiscard]] long long int_or(std::string_view key,
                                 long long fallback) const;
  [[nodiscard]] std::string str_or(std::string_view key,
                                   std::string fallback) const;
  [[nodiscard]] bool bool_or(std::string_view key, bool fallback) const;
  /// Array-valued member, or an empty list when absent/mistyped.
  [[nodiscard]] const std::vector<JsonValue>& list(std::string_view key) const;
};

/// Parses one JSON document. On failure returns nullopt and, when
/// `error` is non-null, a one-line diagnostic with the byte offset.
[[nodiscard]] std::optional<JsonValue> parse_json(std::string_view text,
                                                  std::string* error);

/// Parses one versioned document: a JSON object whose "schema_version"
/// is exactly `schema_version`. Diagnostics start with `what` ("plan
/// file", "sweep spec", ...); a version mismatch reads "<what>
/// schema_version N (this build expects M); <remedy>".
[[nodiscard]] std::optional<JsonValue> parse_json_document(
    std::string_view text, std::string_view what, int schema_version,
    std::string_view remedy, std::string* error);

/// Escapes `s` for inclusion inside a JSON string literal.
[[nodiscard]] std::string json_escape(std::string_view s);

/// Formats a double as a JSON number with 17 significant digits, so it
/// reads back bit-identically. NaN and infinities — invalid JSON — are
/// clamped to 0 and +/-1e308.
[[nodiscard]] std::string json_number(double v);

}  // namespace autocfd::support
