// Builders that distill the repository's existing observability
// artifacts into ledger RunRecords: a finished prof::RunReport (plus
// the compile-side pass profile), and a bench binary's flat sidecar
// maps. The sweep layer builds its per-cell records on top of
// make_run_record and adds the scaling figures itself, so the ledger
// stays independent of src/sweep.
#pragma once

#include <map>
#include <optional>
#include <string>

#include "autocfd/ledger/ledger.hpp"

namespace autocfd::obs {
class PassProfiler;
struct ObsContext;
}
namespace autocfd::prof {
struct RunReport;
struct SourceProfile;
}

namespace autocfd::ledger {

/// The measurement configuration a caller knows up front.
struct RunMeta {
  std::string kind;     // "run" | "bench" | "sweep-cell"
  std::string input;    // program stem / bench name / sweep title
  std::string machine;  // machine-model name
  /// Source text to fingerprint; empty leaves source_fnv blank.
  std::string source;
  long long seed = 0;  // fault-plan seed, 0 when clean
};

/// The phase.* / hot.N.* key convention, shared by run records and
/// bench sidecars. `passes` (nullable) adds "phase.<name>.wall_s" and
/// "phase.<name>.<counter>" per phase plus "phase.total.wall_s";
/// `profile` (nullable) adds the five hottest attribution units as
/// "hot.<i>.line" / ".time_s" / ".share" numbers and a ".class" string
/// (the explain engine's A/R/C/O letters, "?" for an unclassified loop,
/// "-" for a plain statement). Existing keys are overwritten.
void record_profile_keys(const obs::PassProfiler* passes,
                         const prof::SourceProfile* profile,
                         std::map<std::string, double>& numbers,
                         std::map<std::string, std::string>& strings);

/// Distills one execution. `report` (nullable) contributes the runtime
/// block — elapsed/speedup, rank-time decomposition, wire totals,
/// recovery and fault rollups, bytecode engine counters, top-5 hot
/// loops, compile summary, partition and engine identity; `obs`
/// (nullable) contributes the pass-profiler phases. With both null the
/// record carries meta only — still a valid (if silent) history point.
[[nodiscard]] RunRecord make_run_record(const RunMeta& meta,
                                        const prof::RunReport* report,
                                        const obs::ObsContext* obs);

/// One bench binary's BENCH_<name>.json sidecar: a flat JSON object
/// of numeric and string-valued keys. This file owns the format: the
/// benches write it, perf_sentinel and `acfd --history-bench` read it.
struct Sidecar {
  std::map<std::string, double> numbers;
  std::map<std::string, std::string> strings;
};

/// Reads one sidecar file (booleans read as 1/0; nested values are
/// ignored). Returns nullopt with a diagnostic when the file is
/// unreadable or not a JSON object.
[[nodiscard]] std::optional<Sidecar> read_sidecar(const std::string& path,
                                                  std::string* error);

/// Writes `sidecar` to `path`, both maps in one sorted key order, one
/// key per line. Refuses — writing nothing and naming each offending
/// key — a non-finite number (JSON has none) or a key in both maps.
[[nodiscard]] std::optional<std::string> write_sidecar(
    const std::string& path, const Sidecar& sidecar);

/// Wraps one sidecar as a record. The sidecar's meta.build_type /
/// meta.engine / meta.machine / meta.seed keys are lifted into the
/// record's identity fields; every other key is preserved verbatim, so
/// the sentinel gates exactly the keys of the sidecar itself.
[[nodiscard]] RunRecord record_from_sidecar(const std::string& input,
                                            const Sidecar& sidecar);

/// read_sidecar + record_from_sidecar. The record's input is the
/// file's stem with the "BENCH_" prefix stripped
/// ("BENCH_fig_overlap.json" -> "fig_overlap").
[[nodiscard]] std::optional<RunRecord> record_from_sidecar_file(
    const std::string& path, std::string* error);

}  // namespace autocfd::ledger
