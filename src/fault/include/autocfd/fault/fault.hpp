// Deterministic, seed-driven fault injection for the simulated cluster.
//
// A FaultPlan describes *what* can go wrong — transfer-time jitter,
// link-degradation windows, rank stragglers, message drops, payload
// corruption — and a FaultInjector turns it into an mp::FaultHook.
// Every decision is a pure function of the plan seed and the message
// identity (src, dst, tag, per-channel msg_id) or virtual departure
// time, never of a shared RNG stream or the wall clock: the same plan
// on the same program yields bit-identical fault schedules regardless
// of host thread scheduling, so chaos runs are replayable.
//
// Timing-only plans (jitter / windows / stragglers, no drops and no
// corruption) perturb virtual clocks but can never change computed
// results: data flow in the simulator is independent of time, which is
// exactly the property the chaos differential harness asserts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "autocfd/mp/fault_hook.hpp"

namespace autocfd::fault {

/// Selects messages by identity; -1 fields are wildcards. `msg_id` is
/// the deterministic per-(src,dst) channel sequence number, so
/// {src,dst,tag,msg_id=0} means "the first matching wire message".
struct MessageMatch {
  int src = -1;
  int dst = -1;
  int tag = -1;
  long long msg_id = -1;

  [[nodiscard]] bool matches(int s, int d, int t, long long id) const {
    return (src < 0 || src == s) && (dst < 0 || dst == d) &&
           (tag < 0 || tag == t) && (msg_id < 0 || msg_id == id);
  }
};

/// Link degradation: every message departing within [t0, t1) virtual
/// seconds (optionally restricted to one src and/or dst rank) takes
/// `delay` extra seconds to arrive.
struct DegradationWindow {
  double t0 = 0.0;
  double t1 = 0.0;
  double delay = 0.0;
  int src = -1;  // -1: any sender
  int dst = -1;  // -1: any receiver
};

/// Constant compute slowdown of one rank (factor >= 1).
struct Straggler {
  int rank = 0;
  double factor = 1.0;
};

struct FaultPlan {
  std::uint64_t seed = 1;

  // Timing faults (results must be unaffected).
  double jitter_prob = 0.0;  // per-message probability of extra delay
  double jitter_max = 0.0;   // extra delay drawn uniformly in (0, max]
  std::vector<DegradationWindow> windows;
  std::vector<Straggler> stragglers;

  // Data faults (must be *detected*, never silent).
  double drop_prob = 0.0;
  double corrupt_prob = 0.0;
  std::vector<MessageMatch> drops;        // targeted drops
  std::vector<MessageMatch> corruptions;  // targeted corruptions

  /// True when the plan can only perturb virtual time — such a plan is
  /// guaranteed not to change any computed value.
  [[nodiscard]] bool timing_only() const;
  /// True when the plan injects nothing at all.
  [[nodiscard]] bool empty() const;

  /// Parses a comma-separated spec, e.g.
  ///   "seed=7,jitter=0.3:0.05,straggler=1:2.5,window=0.1:0.4:0.02,
  ///    drop=0.01,dropfirst=3,corrupt=0.01,corruptfirst=3"
  /// Keys: seed=N | jitter=PROB:MAX | straggler=RANK:FACTOR |
  /// window=T0:T1:DELAY[:SRC[:DST]] | drop=PROB | dropfirst=TAG |
  /// corrupt=PROB | corruptfirst=TAG. Throws std::invalid_argument on
  /// anything it does not understand.
  [[nodiscard]] static FaultPlan parse(const std::string& spec);
  /// Round-trippable spec string of this plan.
  [[nodiscard]] std::string str() const;
};

/// What the injector actually did during a run.
struct FaultCounters {
  long long delayed = 0;
  long long dropped = 0;
  long long corrupted = 0;
  double delay_s = 0.0;  // total extra transfer time injected
};

/// The concrete seeded mp::FaultHook. One injector serves one run at a
/// time; counters are reset by reset() (or construct a fresh one).
class FaultInjector : public mp::FaultHook {
 public:
  explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

  mp::FaultDecision on_message(int src, int dst, int tag, long long msg_id,
                               long long bytes, double departure,
                               std::vector<double>& payload) override;
  double compute_factor(int rank) override;

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] const FaultCounters& counters() const { return counters_; }
  void reset() { counters_ = FaultCounters{}; }

 private:
  FaultPlan plan_;
  FaultCounters counters_;
};

}  // namespace autocfd::fault
