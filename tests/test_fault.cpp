// Chaos differential tests: the contract of the fault subsystem.
//
//   * Timing-only faults (jitter, degradation windows, stragglers)
//     perturb virtual clocks but NEVER change computed results — every
//     gathered status array stays bit-identical to the sequential run,
//     across many seeds and both CFD case studies.
//   * Data faults are never silent: a dropped message always trips the
//     virtual-time watchdog with correct attribution (rank, peer, tag,
//     sync-plan site), a corrupted payload always fails its checksum.
//   * An empty plan is indistinguishable from no fault hook at all.
#include <gtest/gtest.h>

#include <stdexcept>

#include "autocfd/cfd/apps.hpp"
#include "autocfd/core/pipeline.hpp"
#include "autocfd/fault/fault.hpp"
#include "autocfd/fortran/parser.hpp"
#include "autocfd/prof/report.hpp"
#include "autocfd/trace/recorder.hpp"

namespace autocfd::fault {
namespace {

using core::Directives;

struct App {
  std::string source;
  std::string partition;
};

App small_aerofoil() {
  cfd::AerofoilParams p;
  p.n1 = 12;
  p.n2 = 8;
  p.n3 = 4;
  p.frames = 1;
  return {cfd::aerofoil_source(p), "2x2x1"};
}

App small_sprayer() {
  cfd::SprayerParams p;
  p.nx = 18;
  p.ny = 12;
  p.frames = 2;
  return {cfd::sprayer_source(p), "2x2"};
}

struct Compiled {
  std::unique_ptr<core::ParallelProgram> program;
  codegen::SeqRunResult seq;
  std::vector<std::string> status_arrays;
};

Compiled compile(const App& app) {
  DiagnosticEngine diags;
  auto dirs = Directives::extract(app.source, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.dump();
  dirs.partition = partition::PartitionSpec::parse(app.partition);
  auto seq_file = fortran::parse_source(app.source);
  const auto machine = mp::MachineConfig::pentium_ethernet_1999();
  Compiled c;
  c.seq = codegen::run_sequential_timed(seq_file, dirs.status_arrays, machine);
  c.program = core::parallelize(app.source, dirs);
  c.status_arrays = dirs.status_arrays;
  return c;
}

void expect_bit_identical(const Compiled& c,
                          const codegen::SpmdRunResult& par,
                          const std::string& label) {
  for (const auto& name : c.status_arrays) {
    const auto& s = c.seq.arrays.at(name);
    const auto& g = par.gathered.at(name);
    ASSERT_EQ(s.size(), g.size()) << label << " " << name;
    for (std::size_t i = 0; i < s.size(); ++i) {
      ASSERT_EQ(s[i], g[i]) << label << " " << name << "[" << i << "]";
    }
  }
}

const auto kMachine = mp::MachineConfig::pentium_ethernet_1999();

TEST(FaultPlan, ParseRoundTrip) {
  const auto plan = FaultPlan::parse(
      "seed=7,jitter=0.3:0.05,straggler=1:2.5,window=0.1:0.4:0.02,"
      "drop=0.01,dropfirst=3,corrupt=0.02,corruptfirst=4");
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_DOUBLE_EQ(plan.jitter_prob, 0.3);
  EXPECT_DOUBLE_EQ(plan.jitter_max, 0.05);
  ASSERT_EQ(plan.stragglers.size(), 1u);
  EXPECT_EQ(plan.stragglers[0].rank, 1);
  ASSERT_EQ(plan.windows.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.windows[0].delay, 0.02);
  ASSERT_EQ(plan.drops.size(), 1u);
  EXPECT_EQ(plan.drops[0].tag, 3);
  EXPECT_EQ(plan.drops[0].msg_id, 0);
  ASSERT_EQ(plan.corruptions.size(), 1u);
  EXPECT_FALSE(plan.timing_only());
  EXPECT_FALSE(plan.empty());
  // str() -> parse is a fixed point.
  const auto reparsed = FaultPlan::parse(plan.str());
  EXPECT_EQ(reparsed.str(), plan.str());
}

TEST(FaultPlan, ParseRejectsGarbage) {
  EXPECT_THROW((void)FaultPlan::parse("frobnicate=1"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("jitter=0.5"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("seed"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("drop=abc"), std::invalid_argument);
}

TEST(FaultPlan, ParseRejectsInvalidValues) {
  // Structurally well-formed specs with nonsensical values must fail
  // up front with an actionable message, not misbehave at run time.
  EXPECT_THROW((void)FaultPlan::parse("window=0.4:0.1:0.02"),
               std::invalid_argument);  // empty window: end < start
  EXPECT_THROW((void)FaultPlan::parse("window=0:1:-0.5"),
               std::invalid_argument);  // negative delay
  EXPECT_THROW((void)FaultPlan::parse("drop=-0.1"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("drop=1.5"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("corrupt=2"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("jitter=-0.2:0.01"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("jitter=0.5:-0.01"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("straggler=-1:2"),
               std::invalid_argument);  // negative rank
  EXPECT_THROW((void)FaultPlan::parse("straggler=0:0.5"),
               std::invalid_argument);  // factor < 1 would speed up
  EXPECT_THROW((void)FaultPlan::parse("dropfirst=-3"),
               std::invalid_argument);
  // The diagnostics carry enough context to fix the spec.
  try {
    (void)FaultPlan::parse("window=0.4:0.1:0.02");
    FAIL();
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("end must be after the start"),
              std::string::npos)
        << e.what();
  }
  try {
    (void)FaultPlan::parse("frobnicate=1");
    FAIL();
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("known:"), std::string::npos)
        << e.what();  // lists the valid fault kinds
  }
}

TEST(FaultPlan, TimingOnlyClassification) {
  EXPECT_TRUE(FaultPlan::parse("seed=1").empty());
  EXPECT_TRUE(
      FaultPlan::parse("jitter=0.5:0.01,straggler=0:3,window=0:1:0.1")
          .timing_only());
  EXPECT_FALSE(FaultPlan::parse("drop=0.1").timing_only());
  EXPECT_FALSE(FaultPlan::parse("corruptfirst=2").timing_only());
}

TEST(FaultInjector, SameSeedSameSchedule) {
  auto plan = FaultPlan::parse("seed=11,jitter=0.5:0.01,drop=0.05");
  FaultInjector a(plan), b(plan);
  for (long long id = 0; id < 200; ++id) {
    std::vector<double> pa{1.0, 2.0}, pb{1.0, 2.0};
    const auto da = a.on_message(0, 1, 3, id, 16, 0.1, pa);
    const auto db = b.on_message(0, 1, 3, id, 16, 0.1, pb);
    ASSERT_EQ(da.extra_delay, db.extra_delay) << id;
    ASSERT_EQ(da.drop, db.drop) << id;
    ASSERT_EQ(pa, pb) << id;
  }
  EXPECT_GT(a.counters().delayed, 0);
  EXPECT_GT(a.counters().dropped, 0);
  EXPECT_EQ(a.counters().delayed, b.counters().delayed);
  EXPECT_EQ(a.counters().dropped, b.counters().dropped);
}

// The tentpole differential property: 8 distinct seeds of timing-only
// chaos on both CFD apps, every result bit-identical to sequential.
TEST(ChaosDifferential, TimingFaultsNeverChangeResults) {
  for (const auto& app : {small_aerofoil(), small_sprayer()}) {
    auto c = compile(app);
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      FaultPlan plan;
      plan.seed = seed;
      plan.jitter_prob = 0.4;
      plan.jitter_max = 0.01;
      plan.windows.push_back({0.0, 0.5, 0.02, -1, -1});
      plan.stragglers.push_back({static_cast<int>(seed) % 4, 2.0});
      FaultInjector injector(plan);
      codegen::SpmdRunOptions opts;
      opts.faults = &injector;
      const auto par = c.program->run(kMachine, opts);
      expect_bit_identical(c, par,
                           app.partition + " seed " + std::to_string(seed));
      EXPECT_GT(injector.counters().delayed, 0)
          << "seed " << seed << ": plan injected nothing, test is vacuous";
    }
  }
}

// ... and 4 more seeds of jitter-heavy chaos on one app, so the suite
// covers >= 8 distinct seeds overall.
TEST(ChaosDifferential, JitterSweepStaysBitIdentical) {
  auto c = compile(small_sprayer());
  for (std::uint64_t seed = 5; seed <= 8; ++seed) {
    FaultPlan plan;
    plan.seed = seed;
    plan.jitter_prob = 0.8;
    plan.jitter_max = 0.05;
    FaultInjector injector(plan);
    codegen::SpmdRunOptions opts;
    opts.faults = &injector;
    const auto par = c.program->run(kMachine, opts);
    expect_bit_identical(c, par, "jitter seed " + std::to_string(seed));
    EXPECT_GT(injector.counters().delayed, 0);
  }
}

TEST(ChaosDifferential, SameSeedGivesIdenticalVirtualTime) {
  auto c = compile(small_sprayer());
  FaultPlan plan = FaultPlan::parse("seed=42,jitter=0.5:0.02,straggler=1:3");
  FaultInjector i1(plan), i2(plan);
  codegen::SpmdRunOptions o1, o2;
  o1.faults = &i1;
  o2.faults = &i2;
  const auto r1 = c.program->run(kMachine, o1);
  const auto r2 = c.program->run(kMachine, o2);
  EXPECT_EQ(r1.elapsed, r2.elapsed);
  EXPECT_EQ(i1.counters().delayed, i2.counters().delayed);
  EXPECT_EQ(i1.counters().delay_s, i2.counters().delay_s);
}

TEST(ChaosDifferential, EmptyPlanIsZeroBehaviorChange) {
  auto c = compile(small_sprayer());
  const auto clean = c.program->run(kMachine);
  FaultInjector injector(FaultPlan{});
  codegen::SpmdRunOptions opts;
  opts.faults = &injector;
  const auto faulty = c.program->run(kMachine, opts);
  EXPECT_EQ(clean.elapsed, faulty.elapsed);
  expect_bit_identical(c, faulty, "empty plan");
  EXPECT_EQ(injector.counters().delayed, 0);
  EXPECT_EQ(injector.counters().dropped, 0);
}

/// First point-to-point tag of a clean run (with its sender), so drop /
/// corruption schedules can target a message that provably exists.
struct FirstMessage {
  int tag = -1;
  int src = -1;
  int dst = -1;
};

FirstMessage first_message(core::ParallelProgram& program) {
  trace::TraceRecorder rec;
  (void)program.run(mp::MachineConfig::pentium_ethernet_1999(), &rec);
  for (const auto& rank_events : rec.trace().per_rank) {
    for (const auto& e : rank_events) {
      if (e.kind == mp::EventKind::Send) {
        return {e.tag, e.rank, e.peer};
      }
    }
  }
  return {};
}

TEST(ChaosDifferential, DropAlwaysTripsWatchdogWithAttribution) {
  auto c = compile(small_aerofoil());
  const auto first = first_message(*c.program);
  ASSERT_GE(first.tag, 0);

  FaultPlan plan;
  plan.drops.push_back({first.src, first.dst, first.tag, 0});
  FaultInjector injector(plan);
  codegen::SpmdRunOptions opts;
  opts.faults = &injector;
  opts.watchdog = 5.0;
  try {
    (void)c.program->run(kMachine, opts);
    FAIL() << "dropped message did not trip the watchdog";
  } catch (const mp::CommTimeoutError& e) {
    const auto& info = e.info();
    EXPECT_EQ(info.rank, first.dst);
    EXPECT_EQ(info.peer, first.src);
    EXPECT_EQ(info.tag, first.tag);
    // Attribution resolves through the sync plan's tag registry.
    EXPECT_EQ(info.site_label, c.program->meta.tags.label(first.tag));
    // Bounded virtual time: the victim blocked at some clock <= the
    // clean elapsed time and timed out one deadline later.
    EXPECT_GT(info.time, 0.0);
    EXPECT_LE(info.time, 5.0 + 1.0);
    EXPECT_NE(std::string(e.what()).find(info.site_label), std::string::npos);
  }
  EXPECT_EQ(injector.counters().dropped, 1);
}

TEST(ChaosDifferential, CorruptionAlwaysCaughtByChecksum) {
  for (const auto& app : {small_aerofoil(), small_sprayer()}) {
    auto c = compile(app);
    const auto first = first_message(*c.program);
    ASSERT_GE(first.tag, 0);

    FaultPlan plan;
    plan.corruptions.push_back({first.src, first.dst, first.tag, 0});
    FaultInjector injector(plan);
    codegen::SpmdRunOptions opts;
    opts.faults = &injector;
    try {
      (void)c.program->run(kMachine, opts);
      FAIL() << "corrupted payload was consumed silently (" << app.partition
             << ")";
    } catch (const mp::CommChecksumError& e) {
      const auto& info = e.info();
      EXPECT_EQ(info.rank, first.dst);
      EXPECT_EQ(info.peer, first.src);
      EXPECT_EQ(info.tag, first.tag);
      EXPECT_EQ(info.site_label, c.program->meta.tags.label(first.tag));
    }
    EXPECT_EQ(injector.counters().corrupted, 1);
  }
}

TEST(ChaosObservability, FaultEventsAndMetricsAgree) {
  auto c = compile(small_sprayer());
  FaultPlan plan = FaultPlan::parse("seed=3,jitter=0.6:0.01");
  FaultInjector injector(plan);
  trace::TraceRecorder rec;
  codegen::SpmdRunOptions opts;
  opts.faults = &injector;
  opts.sink = &rec;
  const auto par = c.program->run(kMachine, opts);

  long long delay_events = 0;
  for (const auto& rank_events : rec.trace().per_rank) {
    for (const auto& e : rank_events) {
      if (e.kind == mp::EventKind::FaultDelay) {
        ++delay_events;
        EXPECT_EQ(e.t0, e.t1);  // zero-width marker
        EXPECT_GT(e.wait, 0.0);
      }
    }
  }
  EXPECT_EQ(delay_events, injector.counters().delayed);

  // The run report's trace-derived fault rollup reconciles with the
  // injector's own counters.
  const auto report =
      prof::build_run_report(*c.program, par, rec.trace(), nullptr, {});
  EXPECT_EQ(report.faults.delayed, delay_events);
  EXPECT_EQ(report.faults.delayed, injector.counters().delayed);
  EXPECT_NEAR(report.faults.delay_s, injector.counters().delay_s, 1e-12);
  EXPECT_EQ(report.faults.dropped, injector.counters().dropped);
  EXPECT_EQ(report.faults.corrupted, injector.counters().corrupted);
}

// The recovery tentpole property at the application level: seeded
// drop+corruption plans — the ones the detection tests prove fatal —
// complete under reliable delivery with results bit-identical to the
// sequential run, on both CFD case studies, deterministically per seed.
TEST(RecoveryDifferential, LossyPlansRecoverBitIdentical) {
  for (const auto& app : {small_aerofoil(), small_sprayer()}) {
    auto c = compile(app);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const auto plan =
          FaultPlan::parse("seed=" + std::to_string(seed * 7) +
                           ",drop=0.05,corrupt=0.03");
      FaultInjector injector(plan);
      codegen::SpmdRunOptions opts;
      opts.faults = &injector;
      opts.recovery = mp::RecoveryConfig::parse("default");
      const auto par = c.program->run(kMachine, opts);
      expect_bit_identical(
          c, par, app.partition + " lossy seed " + std::to_string(seed * 7));
      long long recovered = 0;
      for (const auto& st : par.cluster.ranks) recovered += st.recovered;
      const auto injected =
          injector.counters().dropped + injector.counters().corrupted;
      if (injected > 0) {
        EXPECT_GT(recovered, 0)
            << app.partition << " seed " << seed * 7
            << ": faults were injected but nothing was recovered";
      }
    }
  }
}

TEST(RecoveryDifferential, SameSeedSameRecoverySchedule) {
  auto c = compile(small_sprayer());
  const auto plan = FaultPlan::parse("seed=13,drop=0.08,corrupt=0.04");
  codegen::SpmdRunOptions opts;
  opts.recovery = mp::RecoveryConfig::parse("default");
  FaultInjector i1(plan), i2(plan);
  opts.faults = &i1;
  const auto r1 = c.program->run(kMachine, opts);
  opts.faults = &i2;
  const auto r2 = c.program->run(kMachine, opts);
  EXPECT_EQ(r1.elapsed, r2.elapsed);
  for (std::size_t r = 0; r < r1.cluster.ranks.size(); ++r) {
    EXPECT_EQ(r1.cluster.ranks[r].retransmits, r2.cluster.ranks[r].retransmits)
        << "rank " << r;
    EXPECT_EQ(r1.cluster.ranks[r].recovery_time,
              r2.cluster.ranks[r].recovery_time)
        << "rank " << r;
  }
}

TEST(RecoveryObservability, RetryMetricsMatchRuntimeCounters) {
  auto c = compile(small_sprayer());
  const auto plan = FaultPlan::parse("seed=21,drop=0.08,corrupt=0.04");
  FaultInjector injector(plan);
  trace::TraceRecorder rec;
  codegen::SpmdRunOptions opts;
  opts.faults = &injector;
  opts.sink = &rec;
  opts.recovery = mp::RecoveryConfig::parse("default");
  const auto par = c.program->run(kMachine, opts);

  long long retransmits = 0, recovered = 0;
  double recovery_s = 0.0;
  for (const auto& st : par.cluster.ranks) {
    retransmits += st.retransmits;
    recovered += st.recovered;
    recovery_s += st.recovery_time;
  }
  ASSERT_GT(retransmits, 0) << "plan injected nothing, test is vacuous";

  // The run report's trace-derived recovery rollup reconciles exactly
  // with the runtime's own per-rank accounting.
  const auto report =
      prof::build_run_report(*c.program, par, rec.trace(), nullptr, {});
  EXPECT_EQ(report.recovery.retransmits, retransmits);
  EXPECT_EQ(report.recovery.recovered, recovered);
  EXPECT_NEAR(report.recovery.recovery_s, recovery_s, 1e-12);
  // Fault counters still reconcile with the injector even though
  // retransmitted attempts can fail again: every wire decision is
  // reported on the receiver's stream.
  EXPECT_EQ(report.faults.dropped, injector.counters().dropped);
  EXPECT_EQ(report.faults.corrupted, injector.counters().corrupted);
}

}  // namespace
}  // namespace autocfd::fault
