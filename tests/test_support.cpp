#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>

#include "autocfd/support/diagnostics.hpp"
#include "autocfd/support/json.hpp"
#include "autocfd/support/output_paths.hpp"
#include "autocfd/support/strings.hpp"

namespace autocfd {
namespace {

TEST(Strings, ToLower) {
  EXPECT_EQ(to_lower("AbC_12"), "abc_12");
  EXPECT_EQ(to_lower(""), "");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  a b  "), "a b");
  EXPECT_EQ(trim("\t\n"), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, SplitWs) {
  const auto parts = split_ws("  foo\t bar  baz ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "foo");
  EXPECT_EQ(parts[2], "baz");
}

TEST(Strings, StartsWithCi) {
  EXPECT_TRUE(starts_with_ci("Program main", "program"));
  EXPECT_FALSE(starts_with_ci("pro", "program"));
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Diagnostics, CountsErrors) {
  DiagnosticEngine diags;
  EXPECT_FALSE(diags.has_errors());
  diags.warning({1, 1}, "w");
  EXPECT_FALSE(diags.has_errors());
  diags.error({2, 3}, "e");
  EXPECT_TRUE(diags.has_errors());
  EXPECT_EQ(diags.error_count(), 1u);
  EXPECT_NE(diags.dump().find("error at 2:3: e"), std::string::npos);
}

TEST(Diagnostics, ThrowIfErrors) {
  DiagnosticEngine diags;
  EXPECT_NO_THROW(throw_if_errors(diags, "phase"));
  diags.error({}, "boom");
  EXPECT_THROW(throw_if_errors(diags, "phase"), CompileError);
}

TEST(Diagnostics, ThrowIfErrorsNamesThePhase) {
  DiagnosticEngine diags;
  diags.error({4, 2}, "unknown array");
  try {
    throw_if_errors(diags, "field-loop analysis");
    FAIL() << "expected CompileError";
  } catch (const CompileError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("field-loop analysis"), std::string::npos) << what;
    EXPECT_NE(what.find("unknown array"), std::string::npos) << what;
  }
}

TEST(Diagnostics, Clear) {
  DiagnosticEngine diags;
  diags.error({}, "x");
  diags.warning({}, "w");
  EXPECT_EQ(diags.error_count(), 1u);
  diags.clear();
  EXPECT_FALSE(diags.has_errors());
  EXPECT_EQ(diags.error_count(), 0u);
  EXPECT_TRUE(diags.all().empty());
  // A cleared engine is reusable: counts restart from zero.
  diags.error({}, "y");
  EXPECT_EQ(diags.error_count(), 1u);
}

TEST(Diagnostics, DumpPreservesInsertionOrder) {
  DiagnosticEngine diags;
  diags.warning({1, 1}, "first");
  diags.error({9, 9}, "second");
  diags.note({2, 2}, "third");
  const std::string dump = diags.dump();
  const auto a = dump.find("first");
  const auto b = dump.find("second");
  const auto c = dump.find("third");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  ASSERT_NE(c, std::string::npos);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

TEST(OutputPaths, AcceptsDistinctWritableFiles) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto problem = support::validate_output_paths(
      {{"-o", (dir / "acfd_out.f").string()},
       {"--plan-out", (dir / "acfd_plan.json").string()}});
  EXPECT_FALSE(problem.has_value()) << *problem;
  EXPECT_FALSE(support::validate_output_paths({}).has_value());
}

TEST(OutputPaths, RejectsDuplicateDestinations) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto path = (dir / "acfd_dup.json").string();
  const auto problem = support::validate_output_paths(
      {{"--plan-out", path}, {"--report-out", path}});
  ASSERT_TRUE(problem.has_value());
  EXPECT_NE(problem->find("--plan-out"), std::string::npos);
  EXPECT_NE(problem->find("--report-out"), std::string::npos);
  EXPECT_NE(problem->find(path), std::string::npos);
}

TEST(OutputPaths, RejectsDuplicatesSpelledDifferently) {
  // ./x and x name the same file; catch the aliased spelling too.
  const auto cwd = std::filesystem::current_path().string();
  const auto problem = support::validate_output_paths(
      {{"-o", cwd + "/x.json"}, {"--report-out", cwd + "/./x.json"}});
  ASSERT_TRUE(problem.has_value());
  EXPECT_NE(problem->find("both point at"), std::string::npos);
}

TEST(OutputPaths, RejectsMissingDirectory) {
  const auto problem = support::validate_output_paths(
      {{"--plan-out", "/no-such-dir-acfd/m.json"}});
  ASSERT_TRUE(problem.has_value());
  EXPECT_NE(problem->find("does not exist"), std::string::npos);
}

TEST(OutputPaths, RejectsDirectoryAsDestination) {
  const auto dir = std::filesystem::temp_directory_path().string();
  const auto problem =
      support::validate_output_paths({{"--report-out", dir}});
  ASSERT_TRUE(problem.has_value());
  EXPECT_NE(problem->find("is a directory"), std::string::npos);
}

TEST(OutputPaths, RejectsUnwritableDirectory) {
  if (::geteuid() == 0) GTEST_SKIP() << "root writes anywhere";
  const auto problem =
      support::validate_output_paths({{"--plan-out", "/proc/m.json"}});
  ASSERT_TRUE(problem.has_value());
  EXPECT_NE(problem->find("not writable"), std::string::npos);
}

TEST(OutputPaths, RejectsEmptyPath) {
  const auto problem = support::validate_output_paths({{"-o", ""}});
  ASSERT_TRUE(problem.has_value());
  EXPECT_NE(problem->find("empty"), std::string::npos);
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

TEST(JsonUtil, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(support::json_escape("plain"), "plain");
  EXPECT_EQ(support::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(support::json_escape("x\ny\t"), "x\\ny\\t");
  EXPECT_EQ(support::json_escape(std::string("\x01", 1)), "\\u0001");
}

TEST(JsonUtil, NumbersAreAlwaysValidJson) {
  EXPECT_EQ(support::json_number(2.0), "2");
  EXPECT_EQ(support::json_number(std::nan("")), "0");
  // Infinities are clamped to finite values, never "inf".
  EXPECT_EQ(support::json_number(HUGE_VAL).find("inf"), std::string::npos);
}

std::string parse_error(const std::string& text) {
  std::string error;
  EXPECT_FALSE(support::parse_json(text, &error)) << text;
  return error;
}

TEST(JsonReader, RejectsNumbersOutsideRfc8259) {
  for (const char* bad : {"-nan", "nan", "inf", "-inf", "Infinity", "+0.5",
                          "0x1p4", "1e999", "-1e999", ".5", "1.", "1e", "01",
                          "-"}) {
    EXPECT_FALSE(parse_error(std::string("[") + bad + "]").empty()) << bad;
  }
  EXPECT_NE(parse_error("[1e999]").find("out of range at offset 1"),
            std::string::npos);
}

TEST(JsonReader, ReadsRfc8259NumbersExactly) {
  std::string error;
  const auto doc = support::parse_json(
      "[0, -0, 1.5e-3, 1E+2, 4.9406564584124654e-324, 1e-400, "
      "0.87752499199999812]",
      &error);
  ASSERT_TRUE(doc) << error;
  ASSERT_EQ(doc->items.size(), 7u);
  EXPECT_EQ(doc->items[2].number, 1.5e-3);
  EXPECT_EQ(doc->items[3].number, 100.0);
  EXPECT_EQ(doc->items[4].number, 4.9406564584124654e-324);
  EXPECT_EQ(doc->items[5].number, 0.0);  // underflow is not overflow
  EXPECT_EQ(support::json_number(doc->items[6].number),
            "0.87752499199999812");
}

TEST(JsonReader, StopsAtTheNestingLimit) {
  const int limit = support::kMaxJsonDepth;
  std::string error;
  EXPECT_TRUE(support::parse_json(
      std::string(limit, '[') + std::string(limit, ']'), &error))
      << error;
  EXPECT_EQ(parse_error(std::string(limit + 1, '[')),
            "nested too deeply at offset " + std::to_string(limit));
  EXPECT_EQ(parse_error(std::string(200000, '[')),
            "nested too deeply at offset " + std::to_string(limit));
  EXPECT_NE(parse_error(std::string(200000, '{')).find("expected '\"'"),
            std::string::npos);
}

TEST(JsonReader, DecodesOnlyAsciiUnicodeEscapes) {
  std::string error;
  const auto ok = support::parse_json(
      "[\"\\u0001\\u007f\", \"\xe2\x80\x94\"]", &error);
  ASSERT_TRUE(ok) << error;
  EXPECT_EQ(ok->items[0].string, "\x01\x7f");
  EXPECT_EQ(ok->items[1].string, "\xe2\x80\x94");  // raw UTF-8 passes
  EXPECT_NE(parse_error("[\"\\u2014\"]").find("above 0x7F"),
            std::string::npos);
  EXPECT_NE(parse_error("[\"\\u0080\"]").find("above 0x7F"),
            std::string::npos);
  EXPECT_NE(parse_error("[\"\\u+7ff\"]").find("bad \\u escape"),
            std::string::npos);
}

TEST(JsonValue, IntOrFallsBackUnlessExactlyALongLong) {
  std::string error;
  const auto doc = support::parse_json(
      R"({"a": 1.5, "b": 4294967297, "c": -9223372036854775808,
          "d": 9223372036854775808, "e": 1e19, "f": "7", "g": -3})",
      &error);
  ASSERT_TRUE(doc) << error;
  EXPECT_EQ(doc->int_or("a", -1), -1);
  EXPECT_EQ(doc->int_or("b", -1), 4294967297LL);
  EXPECT_EQ(doc->int_or("c", -1), std::numeric_limits<long long>::min());
  EXPECT_EQ(doc->int_or("d", -1), -1);
  EXPECT_EQ(doc->int_or("e", -1), -1);
  EXPECT_EQ(doc->int_or("f", -1), -1);
  EXPECT_EQ(doc->int_or("g", -1), -3);
  EXPECT_EQ(doc->int_or("missing", -1), -1);
  EXPECT_FALSE(support::exact_int(std::nan("")));
  EXPECT_FALSE(support::exact_int(HUGE_VAL));
}

std::string document_error(const std::string& text) {
  std::string error;
  EXPECT_FALSE(
      support::parse_json_document(text, "demo", 1, "re-run the demo", &error))
      << text;
  return error;
}

TEST(JsonDocument, ChecksTheSchemaVersionExactly) {
  std::string error;
  const auto doc = support::parse_json_document(
      R"({"schema_version": 1, "x": 2})", "demo", 1, "re-run", &error);
  ASSERT_TRUE(doc) << error;
  EXPECT_EQ(doc->int_or("x", 0), 2);

  EXPECT_EQ(document_error(R"({"schema_version": 99})"),
            "demo schema_version 99 (this build expects 1); re-run the demo");
  EXPECT_EQ(document_error(R"({"schema_version": 1.5})"),
            "demo schema_version 1.5 (this build expects 1); re-run the demo");
  EXPECT_EQ(
      document_error(R"({"schema_version": 4294967297})"),
      "demo schema_version 4294967297 (this build expects 1); re-run the demo");
  EXPECT_EQ(document_error(R"({"schema_version": "1"})"),
            "demo schema_version not a number (this build expects 1); "
            "re-run the demo");
  EXPECT_EQ(document_error("{}"),
            "demo schema_version missing (this build expects 1); "
            "re-run the demo");
}

TEST(JsonDocument, NamesTheDocumentInParseAndShapeErrors) {
  EXPECT_EQ(document_error(R"([{"schema_version": 1}])"),
            "demo: top level is not an object");
  EXPECT_EQ(document_error("{\"schema_version\": -nan}"),
            "demo: bad number at offset 20");
  EXPECT_EQ(document_error(""), "demo: unexpected end of input at offset 0");
}

}  // namespace
}  // namespace autocfd
