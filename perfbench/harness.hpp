// The Auto-CFD benchmark harness.
//
// One *pass* does the work of `acfd --run`: compile the sequential
// source (core::parallelize), run the SPMD program on the simulated
// cluster (ParallelProgram::run), run the sequential reference
// (fortran::parse_source + codegen::run_sequential_timed) and compare
// every gathered status array bitwise with the reference. A
// compile-only workload's pass instead parallelizes every candidate
// configuration of a partition sweep.
//
// Layers are measured from outside: a traced pass records one span
// around each call into a layer, the pre-compiler's own phase profile
// (obs::PassProfiler) supplies the phases inside core::parallelize, and
// the exact counters the calls already return (SpmdRunResult,
// RankStats, EngineStats, core::Report, trace::critical_path) become
// the pass's fingerprint. Every fingerprint must equal the first one
// bit for bit, whatever the seed.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "autocfd/codegen/spmd_runtime.hpp"
#include "autocfd/core/directives.hpp"
#include "autocfd/obs/profile.hpp"
#include "autocfd/sync/combine.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// CPU seconds used so far by every thread of this process. Time a
/// hypervisor gives to other guests is not in it.
[[nodiscard]] double process_cpu_s();

/// Median of `v` (mean of the two middle values for an even count);
/// 0 for an empty sample.
[[nodiscard]] double median(std::vector<double> v);

/// `num / den`, or 0 when `den` is 0 (a layer that did no work).
[[nodiscard]] double ratio(double num, double den);

/// One timed interval of the benchmark's own trace. Times are seconds
/// since the log's origin; `parent` indexes the enclosing span (-1 for
/// a pass span) and `pass` names the pass every span belongs to.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  int pass = -1;

  [[nodiscard]] double duration() const { return end - start; }
};

/// In-memory span store, written out once when the benchmark ends.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin = Clock::now()) : origin_(origin) {}

  /// Opens a span starting now; returns its id.
  int open(std::string name, int parent, int pass);
  /// Ends span `id` now.
  void close(int id);
  /// Records a span with explicit times; returns its id.
  int add(std::string name, double start, double end, int parent, int pass);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Span `id`'s duration minus the part of it its child spans cover.
  [[nodiscard]] double self_time(int id) const;
  /// Summed duration per span name over the spans of `pass`.
  [[nodiscard]] std::map<std::string, double> totals(int pass) const;
  /// {"spans": [{"name", "start", "end", "parent", "pass"}, ...]}
  void write_json(std::ostream& os) const;

 private:
  [[nodiscard]] double now() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Appends the phases of `profiler` as children of `parent`, laid back
/// to back from `start` in the order they ran (the profiler keeps each
/// phase's duration, not its start). Phase names get their layer's
/// prefix ("parse" -> "fortran.parse", "combine" -> "sync.combine").
void add_phase_spans(SpanLog& log, const autocfd::obs::PassProfiler& profiler,
                     double start, int parent, int pass);

/// The CPUs the calling thread may run on.
[[nodiscard]] std::vector<int> allowed_cpus();

/// Confines the calling thread to `cpus` until destroyed, then restores
/// its previous CPU set. Threads it starts meanwhile inherit the set.
class ScopedAffinity {
 public:
  explicit ScopedAffinity(const std::vector<int>& cpus);
  ScopedAffinity(const ScopedAffinity&) = delete;
  ScopedAffinity& operator=(const ScopedAffinity&) = delete;
  ~ScopedAffinity();

 private:
  cpu_set_t saved_{};
  bool active_ = false;
};

/// One configuration a pass compiles: an application's source with its
/// directives, a partition and a combining strategy.
struct Config {
  std::string label;  // "aerofoil/4x1x1"
  std::string source;
  autocfd::core::Directives directives;  // partition already set
  autocfd::sync::CombineStrategy strategy = autocfd::sync::CombineStrategy::Min;
};

struct Workload {
  std::string name;
  /// Compile-only: a pass parallelizes every config and runs nothing.
  /// Otherwise there is exactly one config, compiled and run.
  bool compile_only = false;
  std::vector<Config> configs;
};

/// Generates the sources and directives of a named paper-size workload.
/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] Workload build_workload(const std::string& name);

/// A run workload over `source` with an explicit partition.
[[nodiscard]] Workload run_workload(std::string name, std::string label,
                                    std::string source,
                                    const std::string& partition,
                                    autocfd::sync::CombineStrategy strategy);

/// A compile-only sweep: every partition shape of 1..max_ranks ranks
/// for each (label, source) app, Min combining.
[[nodiscard]] Workload sweep_workload(
    std::string name,
    const std::vector<std::pair<std::string, std::string>>& apps,
    int max_ranks);

/// Exact values of one pass, keyed by metric name.
using Fingerprint = std::map<std::string, double>;

/// First gathered element that differs bitwise from the sequential
/// reference, as a message; empty when every status array matches.
[[nodiscard]] std::string compare_gathered(
    const std::map<std::string, std::vector<double>>& reference,
    const std::map<std::string, std::vector<double>>& gathered,
    const std::vector<std::string>& status_arrays);

struct PassResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;  // process_cpu_s() spent in the pass
  Fingerprint exact;
  /// Why the pass failed; empty for a correct pass.
  std::string failure;
};

/// Runs passes of one workload back to back (a closed loop with a single
/// caller). The first pass's fingerprint becomes the reference every
/// later pass must reproduce. The seed shuffles the order in which a
/// compile-only pass visits its configs; a run pass has one config, so
/// there the seed changes nothing.
class Runner {
 public:
  Runner(Workload workload, std::uint64_t seed);

  /// Runs one pass. With a span log the pass is traced: spans around
  /// every layer call, an obs::ObsContext in core::parallelize and a
  /// trace::TraceRecorder on the cluster (for the critical path). With
  /// `cpu` >= 0 the pass's single-threaded layers run on that CPU; the
  /// SPMD run's rank threads always get every allowed CPU.
  PassResult run_pass(int pass_id, SpanLog* log = nullptr, int cpu = -1);

  [[nodiscard]] const Fingerprint& reference() const { return reference_; }

  /// Checks `fp` against the reference: keys seen before must match bit
  /// for bit, new keys join the reference. Returns the first mismatch.
  std::string check_exact(const Fingerprint& fp);

 private:
  void run_compile_pass(int pass_id, int parent, SpanLog* log,
                        PassResult& out);
  void run_program_pass(int pass_id, int parent, SpanLog* log,
                        PassResult& out);

  Workload workload_;
  std::vector<int> cpus_ = allowed_cpus();
  std::mt19937_64 rng_;
  Fingerprint reference_;
};

}  // namespace perfbench
