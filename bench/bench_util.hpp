// Shared helpers for the paper-reproduction bench binaries.
//
// Every bench binary prints its table/figure reproduction first (paper
// value vs measured value) and then runs its registered
// google-benchmark microbenchmarks, so `./bench_binary` produces the
// full report and `./bench_binary --benchmark_filter=...` still works
// as a normal benchmark harness.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "autocfd/cfd/apps.hpp"
#include "autocfd/core/pipeline.hpp"
#include "autocfd/fortran/parser.hpp"
#include "autocfd/ledger/ledger.hpp"
#include "autocfd/ledger/record_builders.hpp"
#include "autocfd/prof/source_profile.hpp"

namespace bench_util {

/// Values recorded for the machine-readable sidecar. finish() writes
/// them to BENCH_<binary>.json so the perf trajectory of the tables
/// and figures can be tracked across PRs without scraping stdout.
inline autocfd::ledger::Sidecar& sidecar() {
  static autocfd::ledger::Sidecar records;
  return records;
}

/// Records one measurement (e.g. "aerofoil.4x1x1.elapsed_s").
inline void record(const std::string& key, double value) {
  sidecar().numbers[key] = value;
}

/// Records one string-valued fact (e.g. "hot.0.class").
inline void record_str(const std::string& key, const std::string& value) {
  sidecar().strings[key] = value;
}

inline void heading(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void note(const std::string& text) { std::printf("%s\n", text.c_str()); }

/// Runs a sequential reference of `source` under the standard machine.
inline autocfd::codegen::SeqRunResult run_seq(
    const std::string& source, const std::vector<std::string>& status) {
  auto file = autocfd::fortran::parse_source(source);
  return autocfd::codegen::run_sequential_timed(
      file, status, autocfd::mp::MachineConfig::pentium_ethernet_1999());
}

/// Parallelizes and runs `source` under `partition`. Every call also
/// profiles the pre-compiler phases into the sidecar's phase.* block
/// and the run's hottest loops into its hot.N.* block; a later call
/// overwrites the blocks of an earlier one.
inline autocfd::codegen::SpmdRunResult run_par(
    const std::string& source, const std::string& partition) {
  autocfd::DiagnosticEngine diags;
  auto dirs = autocfd::core::Directives::extract(source, diags);
  dirs.partition = autocfd::partition::PartitionSpec::parse(partition);
  autocfd::obs::ObsContext obs;
  auto program = autocfd::core::parallelize(
      source, dirs, autocfd::sync::CombineStrategy::Min, &obs);
  autocfd::codegen::SpmdRunOptions run_opts;
  run_opts.profile = true;
  auto result = program->run(
      autocfd::mp::MachineConfig::pentium_ethernet_1999(), run_opts);
  auto profile = autocfd::prof::build_source_profile(result.profiles);
  autocfd::prof::attach_provenance(profile, obs.provenance);
  autocfd::ledger::record_profile_keys(&obs.profiler, &profile,
                                       sidecar().numbers, sidecar().strings);
  return result;
}

/// Stamps the build/run metadata block every sidecar carries:
/// tools/perf_sentinel refuses (exit 2) two sidecars of one bench that
/// disagree on it, so a Debug-vs-Release (or cross-engine) comparison
/// is flagged instead of read as a perf regression.
inline void record_metadata() {
  record("meta.schema_version", 1.0);
  record("meta.seed", 0.0);
#ifdef NDEBUG
  record_str("meta.build_type", "Release");
#else
  record_str("meta.build_type", "Debug");
#endif
  record_str("meta.engine", "bytecode");
  record_str("meta.machine", "pentium_ethernet_1999");
}

/// Standard tail: write the JSON sidecar (if anything was recorded),
/// print a footer and hand over to google-benchmark.
inline int finish(int argc, char** argv) {
  if (argc >= 1) {
    record_metadata();
    std::string stem = argv[0];
    if (const auto slash = stem.find_last_of('/'); slash != std::string::npos) {
      stem = stem.substr(slash + 1);
    }
    const std::string path = "BENCH_" + stem + ".json";
    if (const auto err = autocfd::ledger::write_sidecar(path, sidecar())) {
      std::fprintf(stderr, "[bench_util] %s\n", err->c_str());
      return 1;
    }
    note("\n[bench_util] wrote " + std::to_string(sidecar().numbers.size()) +
         " measurement(s) to " + path);

    // With ACFD_LEDGER set, the sidecar also becomes one run-history
    // record — CI points every bench at a shared ledger and the
    // regression sentinel trends them across runs. Append failure is a
    // loud warning, never a bench failure.
    if (const char* ledger_path = std::getenv("ACFD_LEDGER");
        ledger_path != nullptr && ledger_path[0] != '\0') {
      const auto rec = autocfd::ledger::record_from_sidecar(stem, sidecar());
      if (const auto err = autocfd::ledger::append_record(ledger_path, rec)) {
        std::fprintf(stderr, "[bench_util] ledger append failed: %s\n",
                     err->c_str());
      } else {
        note("[bench_util] appended 1 record to " +
             std::string(ledger_path));
      }
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace bench_util
