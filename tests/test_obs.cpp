// Observability: pass profiler, decision provenance, and the acceptance
// criteria of the two on a full aerofoil pipeline (every field loop
// explained, every combined point cross-referenced, phase wall times
// accounting for the pipeline total).
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "autocfd/cfd/apps.hpp"
#include "autocfd/core/pipeline.hpp"
#include "autocfd/obs/obs.hpp"

namespace autocfd {
namespace {

// ---------------------------------------------------------------------------
// PassProfiler
// ---------------------------------------------------------------------------

TEST(PassProfiler, RecordsPhasesWithCounters) {
  obs::PassProfiler profiler;
  {
    obs::PassProfiler::PhaseTimer t(&profiler, "alpha");
    t.count("widgets", 3);
    t.count("widgets");
  }
  ASSERT_EQ(profiler.phases().size(), 1u);
  const auto* p = profiler.find("alpha");
  ASSERT_NE(p, nullptr);
  EXPECT_GE(p->wall_s, 0.0);
  EXPECT_DOUBLE_EQ(p->counters.at("widgets"), 4.0);
  EXPECT_EQ(profiler.find("beta"), nullptr);
}

TEST(PassProfiler, SameNamePhasesAccumulate) {
  obs::PassProfiler profiler;
  for (int i = 0; i < 3; ++i) {
    obs::PassProfiler::PhaseTimer t(&profiler, "loop");
    t.count("iters");
  }
  ASSERT_EQ(profiler.phases().size(), 1u);
  EXPECT_DOUBLE_EQ(profiler.phases()[0].counters.at("iters"), 3.0);
}

TEST(PassProfiler, NullProfilerIsANoOp) {
  obs::PassProfiler::PhaseTimer t(nullptr, "ghost");
  t.count("x", 100);
  t.stop();  // must not crash
}

// ---------------------------------------------------------------------------
// ProvenanceLog
// ---------------------------------------------------------------------------

TEST(ProvenanceLog, TextAndJsonReports) {
  obs::ProvenanceLog log;
  log.add(obs::DecisionKind::LoopClassification, {12, 3}, "loop@12 array v",
          "C", "assigned and referenced");
  log.add(obs::DecisionKind::CombineMerge, {40, 1}, "sync point at slot 7",
          "merged 2 regions", "2 region(s) share a 3-slot intersection",
          {0, 1});
  ASSERT_EQ(log.entries().size(), 2u);
  EXPECT_EQ(log.of_kind(obs::DecisionKind::CombineMerge).size(), 1u);
  EXPECT_TRUE(log.of_kind(obs::DecisionKind::RegionHoist).empty());

  const std::string text = log.text_report();
  EXPECT_NE(text.find("explain: [classify] 12:3 loop@12 array v -> C"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("{0,1}"), std::string::npos) << text;

  std::ostringstream os;
  log.write_json(os);
  const std::string json = os.str();
  for (const char* needle :
       {"\"decisions\"", "\"kind\": \"loop_classification\"",
        "\"kind\": \"combine_merge\"", "\"refs\": [0, 1]", "\"line\": 12"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle << "\n" << json;
  }
}

// ---------------------------------------------------------------------------
// Full-pipeline acceptance (aerofoil at a laptop-friendly size)
// ---------------------------------------------------------------------------

// A laptop-friendly aerofoil on 4 ranks: small enough to run per
// test, big enough to exercise every decision kind.
std::string aerofoil_src() {
  cfd::AerofoilParams p;
  p.n1 = 48;
  p.n2 = 20;
  p.n3 = 8;
  p.frames = 2;
  return cfd::aerofoil_source(p);
}

struct AerofoilObs {
  obs::ObsContext obs;
  std::unique_ptr<core::ParallelProgram> program;

  AerofoilObs() {
    const auto src = aerofoil_src();
    DiagnosticEngine diags;
    auto dirs = core::Directives::extract(src, diags);
    dirs.partition = partition::PartitionSpec::parse("4x1x1");
    program = core::parallelize(src, dirs, sync::CombineStrategy::Min, &obs);
  }
};

TEST(ObsPipeline, EveryFieldLoopHasAClassificationEntry) {
  AerofoilObs f;
  const auto& rep = f.program->report;
  ASSERT_GT(rep.field_loops, 0);
  // One classification decision per (loop, status array); the distinct
  // source lines cover every field loop.
  std::set<std::uint32_t> lines;
  for (const auto* e :
       f.obs.provenance.of_kind(obs::DecisionKind::LoopClassification)) {
    EXPECT_TRUE(e->loc.valid()) << e->subject;
    EXPECT_FALSE(e->decision.empty());
    EXPECT_FALSE(e->rationale.empty());
    lines.insert(e->loc.line);
  }
  EXPECT_GE(static_cast<int>(lines.size()), rep.field_loops);
}

TEST(ObsPipeline, EveryCombinedSyncListsItsMergedRegions) {
  AerofoilObs f;
  const auto& rep = f.program->report;
  ASSERT_GT(rep.syncs_after, 0);
  const auto merges =
      f.obs.provenance.of_kind(obs::DecisionKind::CombineMerge);
  EXPECT_EQ(static_cast<int>(merges.size()), rep.syncs_after);
  for (const auto* e : merges) {
    ASSERT_FALSE(e->refs.empty()) << e->subject;
    for (const int id : e->refs) {
      EXPECT_GE(id, 0) << e->subject;
      EXPECT_LT(id, rep.syncs_before) << e->subject;
    }
  }
  // Combining never drops a region: the merged ids cover all regions.
  std::set<int> covered;
  for (const auto* e : merges) covered.insert(e->refs.begin(), e->refs.end());
  EXPECT_EQ(static_cast<int>(covered.size()), rep.syncs_before);
}

TEST(ObsPipeline, SelfDependentLoopsAreExplained) {
  AerofoilObs f;
  const auto& rep = f.program->report;
  ASSERT_GT(rep.self_dependent_loops, 0);
  const auto entries =
      f.obs.provenance.of_kind(obs::DecisionKind::SelfDependence);
  EXPECT_FALSE(entries.empty());
}

TEST(ObsPipeline, PhaseWallTimesAccountForTheTotal) {
  AerofoilObs f;
  const double total = f.obs.profiler.total_wall_s();
  const double phases = f.obs.profiler.phase_sum_s();
  ASSERT_GT(total, 0.0);
  // The phases are contiguous RAII scopes over the whole pipeline, so
  // their sum must be within 5% of the measured total (acceptance
  // criterion; the slack covers scope-transition overhead).
  EXPECT_NEAR(phases, total, 0.05 * total)
      << f.obs.profiler.text_report();
}

TEST(ObsPipeline, ProfileCountersMatchTheReport) {
  AerofoilObs f;
  const auto& rep = f.program->report;
  const auto* classify = f.obs.profiler.find("classify");
  ASSERT_NE(classify, nullptr);
  EXPECT_DOUBLE_EQ(classify->counters.at("loops"),
                   static_cast<double>(rep.field_loops));
  const auto* regions = f.obs.profiler.find("regions");
  ASSERT_NE(regions, nullptr);
  const auto* combine = f.obs.profiler.find("combine");
  ASSERT_NE(combine, nullptr);
  EXPECT_DOUBLE_EQ(combine->counters.at("points"),
                   static_cast<double>(rep.syncs_after));
  const auto* depend = f.obs.profiler.find("depend");
  ASSERT_NE(depend, nullptr);
  EXPECT_GE(depend->counters.at("edges_tested"),
            depend->counters.at("pairs_admitted"));
  EXPECT_DOUBLE_EQ(depend->counters.at("pairs_admitted"),
                   static_cast<double>(rep.dependence_pairs));
}

TEST(ObsPipeline, NullContextStillProducesTheSameProgram) {
  const auto src = aerofoil_src();
  obs::ObsContext obs;
  auto with = core::parallelize(src, &obs);
  auto without = core::parallelize(src, nullptr);
  EXPECT_EQ(with->parallel_source, without->parallel_source);
  EXPECT_EQ(with->report.syncs_after, without->report.syncs_after);
  EXPECT_FALSE(obs.provenance.entries().empty());
}

}  // namespace
}  // namespace autocfd
