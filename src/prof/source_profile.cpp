#include "autocfd/prof/source_profile.hpp"

#include <algorithm>
#include <map>
#include <set>

namespace autocfd::prof {

double ProfileEntry::imbalance(int nranks) const {
  if (time_s <= 0.0 || nranks <= 0) return 0.0;
  const double mean = time_s / static_cast<double>(nranks);
  return mean > 0.0 ? max_rank_s / mean : 0.0;
}

SourceProfile build_source_profile(
    const std::vector<interp::StmtProfile>& ranks) {
  SourceProfile out;
  out.nranks = static_cast<int>(ranks.size());
  out.rank_seconds.assign(ranks.size(), 0.0);
  out.rank_flops.assign(ranks.size(), 0.0);

  struct Acc {
    ProfileEntry entry;
    std::vector<double> per_rank_s;
  };
  // Ordered by source position: the final entry vector inherits the
  // deterministic order directly.
  std::map<std::pair<std::uint32_t, std::uint32_t>, Acc> merged;

  for (std::size_t r = 0; r < ranks.size(); ++r) {
    const auto& prof = ranks[r];
    // units is hashed by statement address; fix the accumulation order
    // (AST ids are assigned deterministically) so the floating-point
    // sums below come out bit-identical on every run.
    std::vector<std::pair<const fortran::Stmt*, interp::StmtCost>> units(
        prof.units.begin(), prof.units.end());
    std::sort(units.begin(), units.end(),
              [](const auto& a, const auto& b) {
                return a.first->id < b.first->id;
              });
    for (const auto& [stmt, cost] : units) {
      const auto key = std::make_pair(stmt->loc.line, stmt->loc.column);
      auto [it, fresh] = merged.try_emplace(key);
      Acc& acc = it->second;
      if (fresh) {
        acc.entry.loc = stmt->loc;
        acc.entry.stmt_id = stmt->id;
        acc.entry.is_loop = stmt->kind == fortran::StmtKind::Do;
        acc.per_rank_s.assign(ranks.size(), 0.0);
      } else {
        acc.entry.stmt_id = std::min(acc.entry.stmt_id, stmt->id);
        acc.entry.is_loop =
            acc.entry.is_loop || stmt->kind == fortran::StmtKind::Do;
      }
      const double seconds = cost.flops * prof.seconds_per_flop;
      acc.entry.count += cost.count;
      acc.entry.flops += cost.flops;
      acc.entry.time_s += seconds;
      acc.per_rank_s[r] += seconds;
      out.rank_seconds[r] += seconds;
      out.rank_flops[r] += cost.flops;
    }
  }

  for (auto& [key, acc] : merged) {
    auto& e = acc.entry;
    e.min_rank_s = 0.0;
    e.max_rank_s = 0.0;
    e.max_rank = -1;
    for (std::size_t r = 0; r < acc.per_rank_s.size(); ++r) {
      const double s = acc.per_rank_s[r];
      if (e.max_rank < 0 || s > e.max_rank_s) {
        e.max_rank_s = s;
        e.max_rank = static_cast<int>(r);
      }
      if (r == 0 || s < e.min_rank_s) e.min_rank_s = s;
    }
    out.total_seconds += e.time_s;
    out.total_flops += e.flops;
    out.entries.push_back(std::move(e));
  }
  for (auto& e : out.entries) {
    e.share = out.total_seconds > 0.0 ? e.time_s / out.total_seconds : 0.0;
  }
  return out;
}

std::vector<const ProfileEntry*> SourceProfile::hottest(std::size_t n) const {
  std::vector<const ProfileEntry*> ptrs;
  ptrs.reserve(entries.size());
  for (const auto& e : entries) ptrs.push_back(&e);
  std::stable_sort(ptrs.begin(), ptrs.end(),
                   [](const ProfileEntry* a, const ProfileEntry* b) {
                     return a->time_s > b->time_s;
                   });
  if (ptrs.size() > n) ptrs.resize(n);
  return ptrs;
}

void attach_provenance(SourceProfile& profile, const obs::ProvenanceLog& log) {
  // Collect per source line: the set of class letters and whether any
  // self-dependence (of any kind but "none") was recorded.
  std::map<std::uint32_t, std::set<std::string>> classes;
  std::map<std::uint32_t, bool> self_dep;
  for (const auto& e : log.entries()) {
    if (e.kind == obs::DecisionKind::LoopClassification) {
      classes[e.loc.line].insert(e.decision);
    } else if (e.kind == obs::DecisionKind::SelfDependence) {
      if (e.decision != "none") self_dep[e.loc.line] = true;
    }
  }
  for (auto& entry : profile.entries) {
    if (!entry.is_loop) continue;
    if (const auto it = classes.find(entry.loc.line); it != classes.end()) {
      std::string joined;
      for (const auto& c : it->second) {
        if (!joined.empty()) joined += ',';
        joined += c;
      }
      entry.loop_class = std::move(joined);
    }
    if (const auto it = self_dep.find(entry.loc.line); it != self_dep.end()) {
      entry.self_dependent = it->second;
    }
  }
}

}  // namespace autocfd::prof
