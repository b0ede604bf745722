// Source-attributed runtime profile (the HPCToolkit-style flat view).
//
// codegen::run_spmd collects one raw interp::StmtProfile per rank —
// virtual compute flops charged to attribution units (field-loop nests
// and standalone assignments). This module merges those into a
// source-keyed profile: one entry per source location with flops,
// entry counts and virtual seconds summed over ranks plus per-rank
// min/max and an imbalance factor, and joins the pre-compiler's
// explain engine so every hot loop carries its A/R/C/O taxonomy class
// and self-dependence verdict. Entries are sorted by source position,
// so every derived view (JSON, text, HTML) is deterministic.
#pragma once

#include <string>
#include <vector>

#include "autocfd/interp/stmt_profile.hpp"
#include "autocfd/obs/provenance.hpp"

namespace autocfd::prof {

/// One source location's merged cost across all ranks.
struct ProfileEntry {
  SourceLoc loc;
  int stmt_id = 0;       // smallest AST id merged into this entry
  bool is_loop = false;  // DO nest (vs a standalone assignment)

  /// A/R/C/O classes of the loop, one letter per status array touched,
  /// distinct and sorted ("C", "A,R", ...). Empty until
  /// attach_provenance and for non-loop entries.
  std::string loop_class;
  bool self_dependent = false;

  long long count = 0;   // unit entries summed over ranks
  double flops = 0.0;    // summed over ranks
  double time_s = 0.0;   // virtual compute seconds summed over ranks
  double min_rank_s = 0.0;  // cheapest rank (0 when some rank skips it)
  double max_rank_s = 0.0;
  int max_rank = -1;     // rank paying max_rank_s (lowest such rank)
  double share = 0.0;    // time_s / profile total

  /// Slowest rank vs the mean: 1.0 is perfectly balanced; grows as
  /// one rank dominates. 0 for zero-cost entries.
  [[nodiscard]] double imbalance(int nranks) const;
};

struct SourceProfile {
  int nranks = 0;
  /// Sorted by (line, column, stmt_id); one entry per source location.
  std::vector<ProfileEntry> entries;
  /// Per-rank attributed compute seconds / flops. Reconciles with
  /// mp::RankStats::compute_time (same flops, same cost factors).
  std::vector<double> rank_seconds;
  std::vector<double> rank_flops;
  double total_seconds = 0.0;
  double total_flops = 0.0;

  /// The n hottest entries by attributed time (ties broken by source
  /// position). Pointers into `entries`.
  [[nodiscard]] std::vector<const ProfileEntry*> hottest(
      std::size_t n) const;
};

/// Merges the per-rank raw profiles (from SpmdRunResult::profiles).
/// Statements sharing a source location — e.g. the flow and anti
/// halves of a mirror-image split — fold into one entry.
[[nodiscard]] SourceProfile build_source_profile(
    const std::vector<interp::StmtProfile>& ranks);

/// Joins the explain engine: LoopClassification entries stamp the
/// A/R/C/O classes, SelfDependence entries the self-dep flag, matched
/// by source line.
void attach_provenance(SourceProfile& profile, const obs::ProvenanceLog& log);

}  // namespace autocfd::prof
