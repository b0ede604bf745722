// Pass profiler for the pre-compiler pipeline.
//
// Every stage of core::parallelize (parse, field-loop classification,
// partitioning, dependence analysis, self-dep / mirror-image, sync
// regions, combining, restructuring) opens an RAII PhaseTimer; on scope
// exit the wall time and the phase-specific counters (loops classified
// per category, |S_LDP| edges tested vs admitted, regions hoisted,
// intersections evaluated vs merged, ...) land in the profiler. The
// profiler also measures the total pipeline time so consumers can
// assert that the phases account for (almost) all of it.
#pragma once

#include <chrono>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace autocfd::obs {

/// One completed phase: wall time plus named counters.
struct PhaseProfile {
  std::string name;
  double wall_s = 0.0;
  std::map<std::string, double> counters;
};

class PassProfiler {
 public:
  /// RAII timer. Holds a (possibly null) profiler so call sites can
  /// open timers unconditionally; with a null profiler every operation
  /// is a no-op. Records on destruction.
  class PhaseTimer {
   public:
    PhaseTimer(PassProfiler* profiler, std::string name)
        : profiler_(profiler), name_(std::move(name)),
          start_(std::chrono::steady_clock::now()) {}
    PhaseTimer(const PhaseTimer&) = delete;
    PhaseTimer& operator=(const PhaseTimer&) = delete;
    ~PhaseTimer() { stop(); }

    /// Adds `delta` to the phase counter `key`.
    void count(const std::string& key, double delta = 1.0) {
      if (profiler_ != nullptr) counters_[key] += delta;
    }

    /// Records the phase now (idempotent; the destructor is then a no-op).
    void stop() {
      if (profiler_ == nullptr) return;
      PhaseProfile p;
      p.name = std::move(name_);
      p.wall_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start_)
                     .count();
      p.counters = std::move(counters_);
      profiler_->record(std::move(p));
      profiler_ = nullptr;
    }

   private:
    PassProfiler* profiler_;
    std::string name_;
    std::chrono::steady_clock::time_point start_;
    std::map<std::string, double> counters_;
  };

  /// Scoped timer for the *total* pipeline; same RAII discipline.
  class TotalTimer {
   public:
    explicit TotalTimer(PassProfiler* profiler)
        : profiler_(profiler), start_(std::chrono::steady_clock::now()) {}
    TotalTimer(const TotalTimer&) = delete;
    TotalTimer& operator=(const TotalTimer&) = delete;
    ~TotalTimer() {
      if (profiler_ == nullptr) return;
      profiler_->total_wall_s_ +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start_)
              .count();
    }

   private:
    PassProfiler* profiler_;
    std::chrono::steady_clock::time_point start_;
  };

  /// Appends a phase record; a re-run phase (same name) accumulates
  /// into the existing record instead of duplicating it.
  void record(PhaseProfile p);

  [[nodiscard]] const std::vector<PhaseProfile>& phases() const {
    return phases_;
  }
  [[nodiscard]] const PhaseProfile* find(std::string_view name) const;

  /// Sum of the recorded phases' wall times.
  [[nodiscard]] double phase_sum_s() const;
  /// Total measured across the whole pipeline (0 if never measured).
  [[nodiscard]] double total_wall_s() const { return total_wall_s_; }

  /// Human-readable table: one line per phase with time, share of the
  /// total, and counters.
  [[nodiscard]] std::string text_report() const;

  /// {"total_wall_s": ..., "phases": [{"name", "wall_s", "counters"}]}
  void write_json(std::ostream& os) const;

 private:
  std::vector<PhaseProfile> phases_;
  double total_wall_s_ = 0.0;
};

}  // namespace autocfd::obs
