// Runs one benchmark workload for a fixed time and prints its metrics.
//
//   acfd_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--spans FILE]
//
// Set-up (source generation, directive extraction and one untimed
// warm-up pass) runs three times; setup_s is its median. Then passes
// run back to back until S seconds have passed. With --trace 0 every
// pass is untraced and the end-to-end metrics are printed. With
// --trace 1 traced and untraced passes alternate; the per-layer metrics
// come from the traced ones, and --spans writes their spans as JSON.
//
// The end-to-end times are CPU seconds of the whole process, so time a
// hypervisor hands to other guests does not count; on a busy VM host it
// swung wall-clock medians by 40% between runs. Wall time per pass is
// reported with the per-layer metrics as pass_s, as are the layer spans.
//
// Every metric is printed as "name value unit", then the last line is
// one JSON object {"correct", "attempted", "failed", "metrics"}. The exit
// code is 1 when any pass failed or the traced run did not reconcile.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"

namespace {

using perfbench::Clock;
using perfbench::median;
using perfbench::ratio;

constexpr int kSetups = 3;
/// Share of a traced pass its child spans may leave uncovered (the
/// benchmark's own bookkeeping and freeing the pass's results).
constexpr double kPassTolerance = 0.02;
/// Share of core::parallelize its phase profile may leave uncovered
/// (freeing the analysis after the last phase).
constexpr double kCompileTolerance = 0.05;

struct Args {
  std::string workload;
  unsigned long long seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string spans;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0') return false;
    } else if (flag == "--trace") {
      args.trace = std::atoi(value);
    } else if (flag == "--spans") {
      args.spans = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0 &&
         (args.trace == 0 || args.trace == 1);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double get(const perfbench::Fingerprint& fp, const std::string& key) {
  const auto it = fp.find(key);
  return it != fp.end() ? it->second : 0.0;
}

/// Host seconds per layer in one traced pass, from its spans.
perfbench::Fingerprint layer_times(const perfbench::SpanLog& log, int pass,
                                   int pass_span, double seq_flops) {
  const auto totals = log.totals(pass);
  const auto t = [&](const char* name) { return get(totals, name); };
  double sync_plan = 0.0;
  for (const auto& [name, s] : totals) {
    if (name.rfind("sync.", 0) == 0) sync_plan += s;
  }
  return {
      {"core.parallelize_s", t("core.parallelize")},
      {"fortran.parse_s", t("fortran.parse")},
      {"fortran.print_s", t("fortran.print")},
      {"ir.classify_s", t("ir.classify")},
      {"depend.analyze_s", t("depend.analyze")},
      {"sync.plan_s", sync_plan},
      {"codegen.restructure_s", t("codegen.restructure")},
      {"core.release_s", t("core.release")},
      {"codegen.run_spmd_s", t("codegen.run_spmd")},
      {"interp.seq_ref_s", t("interp.seq_ref")},
      {"interp.ns_per_flop", 1e9 * ratio(t("interp.seq_ref"), seq_flops)},
      {"verify_s", t("verify")},
      {"pass.unaccounted_s", log.self_time(pass_span)},
  };
}

/// Checks that the traced pass's spans add up: children cover the pass,
/// and the phase profile covers each core::parallelize call. Returns a
/// message when they do not.
std::string reconcile(const perfbench::SpanLog& log, int pass_span) {
  const auto& spans = log.spans();
  const auto& pass = spans[static_cast<std::size_t>(pass_span)];
  char buf[200];
  const double uncovered = log.self_time(pass_span) / pass.duration();
  if (uncovered > kPassTolerance) {
    std::snprintf(buf, sizeof buf,
                  "child spans leave %.2f%% of pass %d uncovered (limit "
                  "%.0f%%)",
                  100.0 * uncovered, pass.pass, 100.0 * kPassTolerance);
    return buf;
  }
  double compile = 0.0, compile_self = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].pass != pass.pass || spans[i].name != "core.parallelize") {
      continue;
    }
    compile += spans[i].duration();
    compile_self += log.self_time(static_cast<int>(i));
  }
  if (ratio(compile_self, compile) > kCompileTolerance) {
    std::snprintf(buf, sizeof buf,
                  "phases leave %.2f%% of core.parallelize uncovered in pass "
                  "%d (limit %.0f%%)",
                  100.0 * compile_self / compile, pass.pass,
                  100.0 * kCompileTolerance);
    return buf;
  }
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  const auto t0 = Clock::now();
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--spans FILE]\n",
                 argv[0]);
    return 2;
  }

  int attempted = 0, failed = 0;
  std::vector<std::string> problems;
  const auto count = [&](const perfbench::PassResult& r, int pass) {
    ++attempted;
    if (r.failure.empty()) return;
    ++failed;
    problems.push_back("pass " + std::to_string(pass) + ": " + r.failure);
  };

  // The CPUs of a VM can differ in speed by a fifth, and a process tends
  // to stay where it started. So the single-threaded layers of pass k
  // run on the k-th allowed CPU in turn, and every kind of pass stops at
  // a whole number of rounds: each run samples every CPU equally.
  const auto cpus = perfbench::allowed_cpus();
  const auto cpu_for = [&](std::size_t k) {
    return cpus.empty() ? -1 : cpus[k % cpus.size()];
  };
  const auto whole_rounds = [&](std::size_t n) {
    return n > 0 && (cpus.empty() || n % cpus.size() == 0);
  };

  // Set-up, repeated; each warm-up pass must fingerprint like the first.
  std::vector<double> setups;
  std::unique_ptr<perfbench::Runner> runner;
  perfbench::Fingerprint first;
  for (int i = 0; i < kSetups; ++i) {
    // The process's CPU clock starts at 0 when it does.
    const double start = i == 0 ? 0.0 : perfbench::process_cpu_s();
    try {
      runner = std::make_unique<perfbench::Runner>(
          perfbench::build_workload(args.workload), args.seed);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "acfd_perfbench: %s\n", e.what());
      return 2;
    }
    const auto warm = runner->run_pass(-1 - i, nullptr, cpu_for(i));
    setups.push_back(perfbench::process_cpu_s() - start);
    count(warm, -1 - i);
    if (i == 0) {
      first = runner->reference();
    } else if (warm.failure.empty() && runner->reference() != first) {
      ++failed;
      problems.push_back("set-up " + std::to_string(i) +
                         ": warm-up fingerprint differs from the first");
    }
  }

  perfbench::SpanLog log(t0);
  std::vector<double> plain_walls, plain_cpus, traced_cpus;
  std::vector<perfbench::Fingerprint> layers;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  for (int pass = 0;; ++pass) {
    const bool traced = args.trace == 1 && pass % 2 == 1;
    const bool done = Clock::now() >= deadline;
    if (done && whole_rounds(plain_walls.size()) &&
        (args.trace == 0 || traced_cpus.size() == plain_cpus.size())) {
      break;
    }
    const int pass_span = static_cast<int>(log.spans().size());
    const auto r = runner->run_pass(
        pass, traced ? &log : nullptr,
        cpu_for(static_cast<std::size_t>(args.trace == 1 ? pass / 2 : pass)));
    count(r, pass);
    if (!traced) {
      plain_walls.push_back(r.wall_s);
      plain_cpus.push_back(r.cpu_s);
      continue;
    }
    traced_cpus.push_back(r.cpu_s);
    layers.push_back(layer_times(log, pass, pass_span,
                                 get(r.exact, "interp.flops")));
    if (const auto msg = reconcile(log, pass_span); !msg.empty()) {
      problems.push_back("reconciliation: " + msg);
    }
  }

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = {
        {"setup_s", median(setups), "s"},
        {"pass_cpu_s", median(plain_cpus), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  } else {
    const auto layer = [&](const char* name) {
      std::vector<double> v;
      for (const auto& l : layers) v.push_back(get(l, name));
      return median(std::move(v));
    };
    const auto& ref = runner->reference();
    const auto exact = [&](const char* name) { return get(ref, name); };
    metrics = {
        {"pass_s", median(plain_walls), "s"},
        {"core.parallelize_s", layer("core.parallelize_s"), "s"},
        {"core.rejected", exact("core.rejected"), "count"},
        {"fortran.parse_s", layer("fortran.parse_s"), "s"},
        {"fortran.print_s", layer("fortran.print_s"), "s"},
        {"ir.classify_s", layer("ir.classify_s"), "s"},
        {"depend.analyze_s", layer("depend.analyze_s"), "s"},
        {"sync.plan_s", layer("sync.plan_s"), "s"},
        {"codegen.restructure_s", layer("codegen.restructure_s"), "s"},
        {"core.release_s", layer("core.release_s"), "s"},
        {"depend.edges_tested", exact("depend.edges_tested"), "count"},
        {"depend.pairs_admitted", exact("depend.pairs_admitted"), "count"},
        {"sync.syncs_before", exact("sync.syncs_before"), "count"},
        {"sync.syncs_after", exact("sync.syncs_after"), "count"},
        {"codegen.run_spmd_s", layer("codegen.run_spmd_s"), "s"},
        {"interp.seq_ref_s", layer("interp.seq_ref_s"), "s"},
        {"interp.ns_per_flop", layer("interp.ns_per_flop"), "ns"},
        {"interp.cache_hit_ratio",
         ratio(exact("interp.cache_hits"), exact("interp.kernel_runs")),
         "ratio"},
        {"mp.messages", exact("mp.messages"), "count"},
        {"mp.bytes", exact("mp.bytes"), "B"},
        {"mp.collectives", exact("mp.collectives"), "count"},
        {"mp.wait_vs", exact("mp.wait_vs"), "vs"},
        {"cp.compute_vs", exact("cp.compute_vs"), "vs"},
        {"cp.transfer_vs", exact("cp.transfer_vs"), "vs"},
        {"cp.collective_vs", exact("cp.collective_vs"), "vs"},
        {"virtual_s", exact("virtual_s"), "vs"},
        {"speedup", exact("speedup"), "x"},
        {"verify_s", layer("verify_s"), "s"},
        {"pass.unaccounted_s", layer("pass.unaccounted_s"), "s"},
        {"trace.overhead_frac",
         ratio(median(traced_cpus), median(plain_cpus)) - 1.0, "ratio"},
    };
    if (!args.spans.empty()) {
      std::ofstream os(args.spans);
      log.write_json(os);
      if (!os) problems.push_back("cannot write spans to " + args.spans);
    }
  }

  const bool correct = problems.empty();
  for (const auto& p : problems) {
    std::fprintf(stderr, "acfd_perfbench: %s\n", p.c_str());
  }
  std::printf("workload %s, seed %llu, %zu timed pass(es), %d failed\n",
              args.workload.c_str(), args.seed,
              plain_cpus.size() + traced_cpus.size(), failed);
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    std::printf("%-24s %.17g %s\n", m.name.c_str(), m.value, m.unit);
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
