// Run-history views over a telemetry ledger: per-group trend tables
// with ASCII sparklines (text) and a full machine-readable dump (json).
// A "group" is the sentinel's comparison unit — (kind, input, engine,
// build_type, machine) — so what the views trend is exactly what the
// sentinel gates.
#pragma once

#include <iosfwd>
#include <optional>
#include <string_view>
#include <vector>

#include "autocfd/ledger/ledger.hpp"

namespace autocfd::ledger {

enum class HistoryFormat { Text, Json };

/// Parses "text" / "json"; empty selects Text.
[[nodiscard]] std::optional<HistoryFormat> parse_history_format(
    std::string_view name);

struct HistoryOptions {
  /// Sparklines sample the last `spark_width` records of a series.
  int spark_width = 32;
  /// The text view shows the gating metrics (elapsed / speedup /
  /// identical) plus a short headline set; this widens it to every
  /// metric the group ever recorded. JSON always emits everything.
  bool all_metrics = false;
};

/// Renders the records (ledger order) in the requested format.
void write_history(const std::vector<RunRecord>& records,
                   HistoryFormat format, std::ostream& os,
                   const HistoryOptions& options = {});

/// The text view's ASCII sparkline: one character per sample,
/// " .:-=+*#%@" from the series minimum to its maximum (a flat series
/// renders as '='). Exposed for tests.
[[nodiscard]] std::string sparkline(const std::vector<double>& values,
                                    int width);

}  // namespace autocfd::ledger
