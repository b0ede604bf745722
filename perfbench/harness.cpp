#include "harness.hpp"

#include <algorithm>
#include <bit>
#include <ctime>
#include <cmath>
#include <exception>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "autocfd/cfd/apps.hpp"
#include "autocfd/core/pipeline.hpp"
#include "autocfd/fortran/parser.hpp"
#include "autocfd/partition/comm_model.hpp"
#include "autocfd/support/diagnostics.hpp"
#include "autocfd/trace/critical_path.hpp"
#include "autocfd/trace/recorder.hpp"

namespace perfbench {

using namespace autocfd;

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double SpanLog::now() const {
  return std::chrono::duration<double>(Clock::now() - origin_).count();
}

int SpanLog::open(std::string name, int parent, int pass) {
  const double t = now();
  return add(std::move(name), t, t, parent, pass);
}

void SpanLog::close(int id) { spans_[static_cast<std::size_t>(id)].end = now(); }

int SpanLog::add(std::string name, double start, double end, int parent,
                 int pass) {
  spans_.push_back(Span{std::move(name), start, end, parent, pass});
  return static_cast<int>(spans_.size()) - 1;
}

double SpanLog::self_time(int id) const {
  const Span& span = spans_[static_cast<std::size_t>(id)];
  std::vector<std::pair<double, double>> covered;
  for (const auto& s : spans_) {
    if (s.parent != id) continue;
    const double lo = std::max(s.start, span.start);
    const double hi = std::min(s.end, span.end);
    if (hi > lo) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  double busy = 0.0, reach = span.start;
  for (const auto& [lo, hi] : covered) {
    if (hi <= reach) continue;
    busy += hi - std::max(lo, reach);
    reach = hi;
  }
  return span.duration() - busy;
}

std::map<std::string, double> SpanLog::totals(int pass) const {
  std::map<std::string, double> out;
  for (const auto& s : spans_) {
    if (s.pass == pass) out[s.name] += s.duration();
  }
  return out;
}

void SpanLog::write_json(std::ostream& os) const {
  os << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"start\": %.9f, \"end\": %.9f, \"parent\": %d, "
                  "\"pass\": %d}",
                  s.start, s.end, s.parent, s.pass);
    os << (i == 0 ? "\n" : ",\n") << "  {\"name\": \"" << s.name << "\", "
       << buf;
  }
  os << "\n]}\n";
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

ScopedAffinity::ScopedAffinity(const std::vector<int>& cpus) {
  if (cpus.empty() || sched_getaffinity(0, sizeof saved_, &saved_) != 0) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  active_ = sched_setaffinity(0, sizeof set, &set) == 0;
}

ScopedAffinity::~ScopedAffinity() {
  if (active_) sched_setaffinity(0, sizeof saved_, &saved_);
}

void add_phase_spans(SpanLog& log, const obs::PassProfiler& profiler,
                     double start, int parent, int pass) {
  static const std::map<std::string, std::string> kLayer = {
      {"directives", "core.directives"},
      {"parse", "fortran.parse"},
      {"partition", "partition.choose"},
      {"classify", "ir.classify"},
      {"depend", "depend.analyze"},
      {"inline", "sync.inline"},
      {"regions", "sync.regions"},
      {"self-dep", "sync.self_dep"},
      {"combine", "sync.combine"},
      {"restructure", "codegen.restructure"},
      {"print", "fortran.print"},
  };
  for (const auto& phase : profiler.phases()) {
    const auto it = kLayer.find(phase.name);
    log.add(it != kLayer.end() ? it->second : "core." + phase.name, start,
            start + phase.wall_s, parent, pass);
    start += phase.wall_s;
  }
}

namespace {

/// Relative tolerance of critical path == virtual time.
constexpr double kPathTolerance = 1e-12;

core::Directives directives_of(const std::string& source) {
  DiagnosticEngine diags;
  auto dirs = core::Directives::extract(source, diags);
  throw_if_errors(diags, "directive extraction");
  return dirs;
}

/// FNV-1a of `text`, cut to 52 bits so it is exact as a double.
double text_hash(const std::string& text) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const unsigned char c : text) {
    h = (h ^ c) * 1099511628211ULL;
  }
  return static_cast<double>(h >> 12);
}

/// A span that closes when it leaves scope; a no-op without a log.
class Scope {
 public:
  Scope(SpanLog* log, const char* name, int parent, int pass)
      : log_(log), id_(log != nullptr ? log->open(name, parent, pass) : -1) {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() {
    if (log_ != nullptr) log_->close(id_);
  }
  [[nodiscard]] int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

double phase_counter(const obs::PassProfiler& profiler, const char* phase,
                     const char* counter) {
  const auto* p = profiler.find(phase);
  if (p == nullptr) return 0.0;
  const auto it = p->counters.find(counter);
  return it != p->counters.end() ? it->second : 0.0;
}

/// core::parallelize under a "core.parallelize" span. Traced, the call
/// gets its own ObsContext; turning its phase profile into child spans,
/// adding its dependence counters into `fp` and freeing it is recorded
/// as "trace.phases".
std::unique_ptr<core::ParallelProgram> parallelize(const Config& cfg,
                                                   SpanLog* log, int parent,
                                                   int pass, Fingerprint& fp) {
  if (log == nullptr) {
    return core::parallelize(cfg.source, cfg.directives, cfg.strategy);
  }
  auto obs = std::make_unique<obs::ObsContext>();
  std::unique_ptr<core::ParallelProgram> program;
  std::exception_ptr error;
  const int span = log->open("core.parallelize", parent, pass);
  try {
    program = core::parallelize(cfg.source, cfg.directives, cfg.strategy,
                                obs.get());
  } catch (...) {
    error = std::current_exception();
  }
  log->close(span);
  {
    const Scope s(log, "trace.phases", parent, pass);
    add_phase_spans(*log, obs->profiler, log->spans()[span].start, span, pass);
    fp["depend.edges_tested"] +=
        phase_counter(obs->profiler, "depend", "edges_tested");
    fp["depend.pairs_admitted"] +=
        phase_counter(obs->profiler, "depend", "pairs_admitted");
    obs.reset();
  }
  if (error) std::rethrow_exception(error);
  return program;
}

/// Exact values of a finished run pass: virtual time, speedup, message
/// layer totals, synchronization counts and interpreter counters.
Fingerprint run_fingerprint(const codegen::SpmdRunResult& par,
                            const codegen::SeqRunResult& seq,
                            int syncs_before, int syncs_after) {
  double messages = 0, bytes = 0, collectives = 0, wait = 0;
  for (const auto& rank : par.cluster.ranks) {
    messages += static_cast<double>(rank.messages_sent);
    bytes += static_cast<double>(rank.bytes_sent);
    collectives += static_cast<double>(rank.collectives);
    wait += rank.wait_time;
  }
  return {
      {"virtual_s", par.elapsed},
      {"seq.virtual_s", seq.elapsed},
      {"speedup", ratio(seq.elapsed, par.elapsed)},
      {"mp.messages", messages},
      {"mp.bytes", bytes},
      {"mp.collectives", collectives},
      {"mp.wait_vs", wait},
      {"sync.syncs_before", static_cast<double>(syncs_before)},
      {"sync.syncs_after", static_cast<double>(syncs_after)},
      {"codegen.flops", par.total_flops},
      {"codegen.cache_hits", static_cast<double>(par.engine_stats.cache_hits)},
      {"codegen.kernel_runs",
       static_cast<double>(par.engine_stats.kernel_runs)},
      {"interp.flops", seq.flops},
      {"interp.cache_hits", static_cast<double>(seq.engine_stats.cache_hits)},
      {"interp.kernel_runs", static_cast<double>(seq.engine_stats.kernel_runs)},
  };
}

}  // namespace

Workload run_workload(std::string name, std::string label, std::string source,
                      const std::string& partition,
                      sync::CombineStrategy strategy) {
  Config cfg;
  cfg.directives = directives_of(source);
  cfg.directives.partition = partition::PartitionSpec::parse(partition);
  cfg.label = std::move(label) + "/" + partition;
  cfg.source = std::move(source);
  cfg.strategy = strategy;
  Workload w;
  w.name = std::move(name);
  w.configs.push_back(std::move(cfg));
  return w;
}

Workload sweep_workload(
    std::string name,
    const std::vector<std::pair<std::string, std::string>>& apps,
    int max_ranks) {
  Workload w;
  w.name = std::move(name);
  w.compile_only = true;
  for (const auto& [label, source] : apps) {
    const auto dirs = directives_of(source);
    for (int n = 1; n <= max_ranks; ++n) {
      for (const auto& spec :
           partition::enumerate_partitions(n, dirs.grid.rank())) {
        Config cfg;
        cfg.label = label + "/" + spec.str();
        cfg.source = source;
        cfg.directives = dirs;
        cfg.directives.partition = spec;
        w.configs.push_back(std::move(cfg));
      }
    }
  }
  return w;
}

Workload build_workload(const std::string& name) {
  using sync::CombineStrategy;
  if (name == "aerofoil-paper") {
    return run_workload(name, "aerofoil",
                        cfd::aerofoil_source(cfd::AerofoilParams{}), "4x1x1",
                        CombineStrategy::Min);
  }
  if (name == "sprayer-paper") {
    return run_workload(name, "sprayer",
                        cfd::sprayer_source(cfd::SprayerParams{}), "2x2",
                        CombineStrategy::Min);
  }
  if (name == "compile-sweep") {
    return sweep_workload(
        name,
        {{"aerofoil", cfd::aerofoil_source(cfd::AerofoilParams{})},
         {"sprayer", cfd::sprayer_source(cfd::SprayerParams{})}},
        8);
  }
  if (name == "halo-storm") {
    return run_workload(name, "sprayer",
                        cfd::sprayer_source(cfd::SprayerParams{32, 16, 50}),
                        "2x2", CombineStrategy::None);
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::string compare_gathered(
    const std::map<std::string, std::vector<double>>& reference,
    const std::map<std::string, std::vector<double>>& gathered,
    const std::vector<std::string>& status_arrays) {
  for (const auto& name : status_arrays) {
    const auto rit = reference.find(name);
    const auto git = gathered.find(name);
    if (rit == reference.end() || git == gathered.end()) {
      return "status array '" + name + "' missing";
    }
    const auto& ref = rit->second;
    const auto& got = git->second;
    if (ref.size() != got.size()) {
      return "status array '" + name + "' has " + std::to_string(got.size()) +
             " elements, reference " + std::to_string(ref.size());
    }
    for (std::size_t i = 0; i < ref.size(); ++i) {
      if (std::bit_cast<std::uint64_t>(ref[i]) !=
          std::bit_cast<std::uint64_t>(got[i])) {
        std::ostringstream os;
        os.precision(17);
        os << name << "[" << i << "] = " << got[i] << ", reference "
           << ref[i];
        return os.str();
      }
    }
  }
  return {};
}

Runner::Runner(Workload workload, std::uint64_t seed)
    : workload_(std::move(workload)), rng_(seed) {}

std::string Runner::check_exact(const Fingerprint& fp) {
  for (const auto& [key, value] : fp) {
    const auto [it, inserted] = reference_.emplace(key, value);
    if (!inserted && std::bit_cast<std::uint64_t>(it->second) !=
                         std::bit_cast<std::uint64_t>(value)) {
      std::ostringstream os;
      os.precision(17);
      os << key << " = " << value << ", first pass " << it->second;
      return os.str();
    }
  }
  return {};
}

PassResult Runner::run_pass(int pass_id, SpanLog* log, int cpu) {
  PassResult out;
  const ScopedAffinity pin(cpu >= 0 ? std::vector<int>{cpu} : cpus_);
  const auto start = Clock::now();
  const double cpu_start = process_cpu_s();
  {
    const Scope pass(log, "pass", -1, pass_id);
    try {
      if (workload_.compile_only) {
        run_compile_pass(pass_id, pass.id(), log, out);
      } else {
        run_program_pass(pass_id, pass.id(), log, out);
      }
    } catch (const std::exception& e) {
      out.failure = std::string("pass threw: ") + e.what();
    }
  }
  out.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  out.cpu_s = process_cpu_s() - cpu_start;
  return out;
}

void Runner::run_program_pass(int pass_id, int parent, SpanLog* log,
                              PassResult& out) {
  const Config& cfg = workload_.configs.front();
  const auto machine = mp::MachineConfig::pentium_ethernet_1999();

  Fingerprint fp;
  auto program = parallelize(cfg, log, parent, pass_id, fp);

  trace::TraceRecorder recorder;
  codegen::SpmdRunResult par;
  codegen::SeqRunResult seq;
  {
    const Scope s(log, "codegen.run_spmd", parent, pass_id);
    const ScopedAffinity all(cpus_);
    codegen::SpmdRunOptions opts;
    opts.sink = log != nullptr ? &recorder : nullptr;
    par = program->run(machine, opts);
  }
  fortran::SourceFile file;
  {
    const Scope s(log, "fortran.parse", parent, pass_id);
    file = fortran::parse_source(cfg.source);
  }
  {
    const Scope s(log, "interp.seq_ref", parent, pass_id);
    seq = codegen::run_sequential_timed(file, cfg.directives.status_arrays,
                                        machine);
  }

  fp.merge(run_fingerprint(par, seq, program->report.syncs_before,
                          program->report.syncs_after));
  if (log != nullptr) {
    const Scope s(log, "trace.critical_path", parent, pass_id);
    const auto cp = trace::critical_path(recorder.trace());
    fp["cp.compute_vs"] = cp.compute;
    fp["cp.transfer_vs"] = cp.transfer;
    fp["cp.collective_vs"] = cp.collective;
    // The path adds its steps in path order, the rank clock in rank
    // order, so the sums agree to rounding, not bit for bit.
    const double sum = cp.compute + cp.transfer + cp.collective;
    if (std::abs(sum - par.elapsed) > kPathTolerance * par.elapsed) {
      std::ostringstream os;
      os.precision(17);
      os << "critical path " << cp.compute << " + " << cp.transfer << " + "
         << cp.collective << " != virtual_s " << par.elapsed;
      out.failure = os.str();
    }
  }

  {
    const Scope s(log, "verify", parent, pass_id);
    if (out.failure.empty()) {
      out.failure = compare_gathered(seq.arrays, par.gathered,
                                     cfg.directives.status_arrays);
    }
    if (out.failure.empty()) out.failure = check_exact(fp);
    out.exact = std::move(fp);
  }
  const Scope s(log, "core.release", parent, pass_id);
  program.reset();
}

void Runner::run_compile_pass(int pass_id, int parent, SpanLog* log,
                              PassResult& out) {
  const auto& configs = workload_.configs;
  std::vector<std::size_t> order(configs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::shuffle(order.begin(), order.end(), rng_);

  // Printed SPMD source per config; empty for a rejected candidate.
  std::vector<std::string> printed(configs.size());
  Fingerprint fp;
  double rejected = 0, before = 0, after = 0;
  for (const std::size_t i : order) {
    const Config& cfg = configs[i];
    std::unique_ptr<core::ParallelProgram> program;
    try {
      program = parallelize(cfg, log, parent, pass_id, fp);
      before += program->report.syncs_before;
      after += program->report.syncs_after;
      fp[cfg.label + ".syncs_after"] = program->report.syncs_after;
      printed[i] = std::move(program->parallel_source);
    } catch (const CompileError&) {
      // The planner's "infeasible candidate"; anything else fails.
      rejected += 1;
      fp[cfg.label + ".syncs_after"] = -1;
    }
    const Scope s(log, "core.release", parent, pass_id);
    program.reset();
  }

  const Scope s(log, "verify", parent, pass_id);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    fp[configs[i].label + ".source_hash"] = text_hash(printed[i]);
  }
  fp["core.rejected"] = rejected;
  fp["sync.syncs_before"] = before;
  fp["sync.syncs_after"] = after;
  out.failure = check_exact(fp);
  out.exact = std::move(fp);
}

}  // namespace perfbench
