// Tests of the benchmark harness itself: its arithmetic on hand-built
// spans, its correctness oracle, and seed independence of every exact
// metric on shrunk versions of the workloads.
#include <gtest/gtest.h>

#include <cmath>

#include "autocfd/cfd/apps.hpp"
#include "autocfd/core/pipeline.hpp"
#include "autocfd/fortran/parser.hpp"
#include "harness.hpp"

namespace {

using namespace perfbench;

TEST(PerfbenchStats, MedianOfOddEvenAndEmptySamples) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(PerfbenchStats, RatioOfIdleLayerIsZero) {
  EXPECT_EQ(ratio(3.0, 4.0), 0.75);
  EXPECT_EQ(ratio(1.0, 0.0), 0.0);
}

TEST(PerfbenchStats, SelfTimeSubtractsTheUnionOfClippedChildren) {
  SpanLog log;
  const int pass = log.add("pass", 0.0, 10.0, -1, 7);
  log.add("a", 1.0, 3.0, pass, 7);
  log.add("b", 2.0, 5.0, pass, 7);    // overlaps a: [1, 5] counted once
  log.add("c", 8.0, 12.0, pass, 7);   // clipped to the pass: [8, 10]
  const int d = log.add("d", 6.0, 7.0, -1, 8);  // another pass's span
  log.add("e", 6.0, 6.5, d, 8);
  EXPECT_DOUBLE_EQ(log.self_time(pass), 4.0);
  EXPECT_DOUBLE_EQ(log.self_time(d), 0.5);

  const auto totals = log.totals(7);
  EXPECT_DOUBLE_EQ(totals.at("pass"), 10.0);
  EXPECT_DOUBLE_EQ(totals.at("c"), 4.0);
  EXPECT_EQ(totals.count("d"), 0U);
}

TEST(PerfbenchStats, PhaseSpansAreLaidBackToBackUnderTheirLayer) {
  autocfd::obs::PassProfiler profiler;
  profiler.record({"parse", 0.5, {}});
  profiler.record({"combine", 0.25, {}});
  SpanLog log;
  const int compile = log.add("core.parallelize", 1.0, 2.0, -1, 0);
  add_phase_spans(log, profiler, 1.0, compile, 0);
  ASSERT_EQ(log.spans().size(), 3U);
  EXPECT_EQ(log.spans()[1].name, "fortran.parse");
  EXPECT_DOUBLE_EQ(log.spans()[1].end, 1.5);
  EXPECT_EQ(log.spans()[2].name, "sync.combine");
  EXPECT_DOUBLE_EQ(log.spans()[2].start, 1.5);
  EXPECT_DOUBLE_EQ(log.spans()[2].end, 1.75);
  EXPECT_DOUBLE_EQ(log.self_time(compile), 0.25);
}

autocfd::cfd::SprayerParams small_sprayer() {
  return autocfd::cfd::SprayerParams{24, 12, 2};
}

autocfd::cfd::AerofoilParams small_aerofoil() {
  return autocfd::cfd::AerofoilParams{24, 10, 4, 1};
}

TEST(PerfbenchOracle, CorruptedGatheredElementIsReported) {
  using namespace autocfd;
  const auto w = run_workload("t", "sprayer",
                              cfd::sprayer_source(small_sprayer()), "2x2",
                              sync::CombineStrategy::Min);
  const auto& cfg = w.configs.front();
  auto program = core::parallelize(cfg.source, cfg.directives, cfg.strategy);
  const auto machine = mp::MachineConfig::pentium_ethernet_1999();
  auto par = program->run(machine);
  auto file = fortran::parse_source(cfg.source);
  const auto seq = codegen::run_sequential_timed(
      file, cfg.directives.status_arrays, machine);
  const auto& status = cfg.directives.status_arrays;
  ASSERT_EQ(compare_gathered(seq.arrays, par.gathered, status), "");

  auto& victim = par.gathered.at(status.back());
  victim[5] = std::nextafter(victim[5], 1e300);
  const auto msg = compare_gathered(seq.arrays, par.gathered, status);
  EXPECT_NE(msg.find(status.back() + "[5]"), std::string::npos) << msg;

  par.gathered.erase(status.front());
  EXPECT_NE(compare_gathered(seq.arrays, par.gathered, status)
                .find("missing"),
            std::string::npos);
}

TEST(PerfbenchOracle, FingerprintChangeFailsTheCheck) {
  Runner runner(Workload{}, 1);
  EXPECT_EQ(runner.check_exact({{"virtual_s", 1.5}}), "");
  EXPECT_EQ(runner.check_exact({{"virtual_s", 1.5}, {"mp.messages", 4}}), "");
  EXPECT_NE(runner.check_exact({{"mp.messages", 5}}), "");
  EXPECT_EQ(runner.reference().at("mp.messages"), 4.0);
}

/// Runs untraced and traced passes of `w` under `seed`; every pass must
/// pass the oracle. Returns the reference fingerprint.
Fingerprint fingerprint_under(const Workload& w, std::uint64_t seed) {
  Runner runner(w, seed);
  SpanLog log;
  for (int pass = 0; pass < 4; ++pass) {
    const auto r = runner.run_pass(pass, pass % 2 == 1 ? &log : nullptr);
    EXPECT_EQ(r.failure, "") << w.name << " pass " << pass;
  }
  return runner.reference();
}

TEST(PerfbenchSeeds, SecondSeedReproducesEveryExactMetric) {
  using namespace autocfd;
  const std::vector<Workload> workloads = {
      run_workload("aerofoil", "aerofoil",
                   cfd::aerofoil_source(small_aerofoil()), "2x1x1",
                   sync::CombineStrategy::Min),
      run_workload("storm", "sprayer", cfd::sprayer_source(small_sprayer()),
                   "2x2", sync::CombineStrategy::None),
      sweep_workload("sweep",
                     {{"aerofoil", cfd::aerofoil_source(small_aerofoil())},
                      {"sprayer", cfd::sprayer_source(small_sprayer())}},
                     3),
  };
  for (const auto& w : workloads) {
    const auto a = fingerprint_under(w, 1);
    const auto b = fingerprint_under(w, 2);
    EXPECT_EQ(a, b) << w.name;
    EXPECT_GT(a.size(), 5U) << w.name;
  }
}

TEST(PerfbenchSeeds, CriticalPathSumsToVirtualTime) {
  using namespace autocfd;
  Runner runner(run_workload("aerofoil", "aerofoil",
                             cfd::aerofoil_source(small_aerofoil()), "2x1x1",
                             sync::CombineStrategy::Min),
                3);
  SpanLog log;
  const auto r = runner.run_pass(0, &log);
  ASSERT_EQ(r.failure, "");
  const double virtual_s = r.exact.at("virtual_s");
  EXPECT_NEAR(r.exact.at("cp.compute_vs") + r.exact.at("cp.transfer_vs") +
                  r.exact.at("cp.collective_vs"),
              virtual_s, 1e-12 * virtual_s);
  EXPECT_GT(r.exact.at("cp.transfer_vs"), 0.0);
}

}  // namespace
