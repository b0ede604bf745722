// PlanFile: the planner's deterministic output artifact.
//
// A PlanFile records the configuration the planner chose (partition +
// combining strategy), the static-heuristic configuration it was
// compared against, the predicted virtual times of both, a one-line
// rationale, and the full scored candidate table. It is written as
// deterministic JSON (fixed key order, fixed number formatting) so
// that write -> read -> write is byte-identical and CI can diff plans;
// `to_overrides()` turns it into the core::PlanOverrides that
// `acfd --plan=<file>` feeds into the pre-compiler.
#pragma once

#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "autocfd/core/pipeline.hpp"

namespace autocfd::plan {

/// Version stamp of the plan-file JSON schema.
inline constexpr int kPlanFileSchemaVersion = 1;

struct PlanFile {
  int schema_version = kPlanFileSchemaVersion;
  std::string planned_from;  // title of the source run report
  std::string fault_spec;    // FaultPlan::str(), empty when clean
  int nranks = 0;

  std::string partition;  // chosen PartitionSpec::str()
  std::string strategy;   // chosen combine strategy name
  std::string static_partition;
  std::string static_strategy;
  double predicted_s = 0.0;
  double static_predicted_s = 0.0;
  std::string rationale;
  /// One line per secondary decision (self-dep pipeline-vs-local etc.),
  /// echoed into the explain log of planned runs.
  std::vector<std::string> decisions;

  /// One scored candidate of the search space.
  struct Candidate {
    std::string partition;
    std::string strategy;
    bool feasible = true;
    double predicted_s = 0.0;
    // Breakdown of predicted_s (seconds of simulated virtual time).
    double compute_s = 0.0;   // max-rank weighted compute
    double comm_s = 0.0;      // max-rank halo transfer
    double pipeline_s = 0.0;  // serialization + hand-off of sweeps
    double fault_s = 0.0;     // straggler/degraded-link/jitter penalty
    int syncs_after = 0;
    int pipelined_loops = 0;
    bool chosen = false;
    bool is_static = false;
    std::string note;  // reject reason for infeasible candidates
  };
  std::vector<Candidate> candidates;

  /// The overrides a planned run applies; `origin` (the plan path)
  /// is quoted in every provenance entry the overrides generate.
  [[nodiscard]] core::PlanOverrides to_overrides(std::string origin) const;

  /// Deterministic JSON, byte-identical across write/read/write.
  void write_json(std::ostream& os) const;
  [[nodiscard]] std::string json() const;
  /// Terminal view: the scored candidate table in file order (best
  /// first), predicted time with its decomposition, the chosen and
  /// static rows marked, rejected candidates with their reason.
  void write_text(std::ostream& os) const;

  /// Parses PlanFile JSON; nullopt + diagnostic on malformed input or
  /// a schema_version mismatch.
  [[nodiscard]] static std::optional<PlanFile> parse(std::string_view text,
                                                     std::string* error);
  /// Reads and parses a plan file from disk.
  [[nodiscard]] static std::optional<PlanFile> load(const std::string& path,
                                                    std::string* error);
};

}  // namespace autocfd::plan
