#include "autocfd/ledger/record_builders.hpp"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "autocfd/obs/obs.hpp"
#include "autocfd/prof/report.hpp"
#include "autocfd/support/json.hpp"
#include "autocfd/support/strings.hpp"

namespace autocfd::ledger {

void record_profile_keys(const obs::PassProfiler* passes,
                         const prof::SourceProfile* profile,
                         std::map<std::string, double>& numbers,
                         std::map<std::string, std::string>& strings) {
  if (passes != nullptr) {
    for (const auto& phase : passes->phases()) {
      numbers["phase." + phase.name + ".wall_s"] = phase.wall_s;
      for (const auto& [key, value] : phase.counters) {
        numbers["phase." + phase.name + "." + key] = value;
      }
    }
    numbers["phase.total.wall_s"] = passes->total_wall_s();
  }
  if (profile != nullptr) {
    const auto hot = profile->hottest(5);
    for (std::size_t i = 0; i < hot.size(); ++i) {
      const std::string prefix = "hot." + std::to_string(i);
      numbers[prefix + ".line"] = static_cast<double>(hot[i]->loc.line);
      numbers[prefix + ".time_s"] = hot[i]->time_s;
      numbers[prefix + ".share"] = hot[i]->share;
      strings[prefix + ".class"] =
          hot[i]->loop_class.empty() ? (hot[i]->is_loop ? "?" : "-")
                                     : hot[i]->loop_class;
    }
  }
}

RunRecord make_run_record(const RunMeta& meta,
                          const prof::RunReport* report,
                          const obs::ObsContext* obs) {
  RunRecord rec;
  rec.kind = meta.kind;
  rec.input = meta.input;
  rec.machine = meta.machine;
  rec.seed = meta.seed;
  rec.build_type = build_type_name();
  if (!meta.source.empty()) {
    rec.source_fnv = source_fingerprint(meta.source);
  }

  if (report != nullptr) {
    rec.engine = report->engine;
    rec.partition = report->partition;
    rec.nranks = report->nranks;

    rec.metrics["elapsed_s"] = report->elapsed_s;
    if (report->seq_elapsed_s) {
      rec.metrics["seq_elapsed_s"] = *report->seq_elapsed_s;
    }
    if (const auto speedup = report->speedup()) {
      rec.metrics["speedup"] = *speedup;
    }
    rec.metrics["total_flops"] = report->total_flops;

    // Rank-time decomposition summed over ranks: the same figures a
    // sweep cell distills, so run and sweep-cell records trend alike.
    double compute = 0.0, transfer = 0.0, wait = 0.0, recovery = 0.0;
    for (const auto& rb : report->ranks) {
      compute += rb.compute;
      transfer += rb.transfer;
      wait += rb.wait;
      recovery += rb.recovery;
    }
    rec.metrics["comm.compute_s"] = compute;
    rec.metrics["comm.transfer_s"] = transfer;
    rec.metrics["comm.wait_s"] = wait;
    const double total = compute + transfer + wait;
    rec.metrics["comm.share"] =
        total > 0.0 ? (transfer + wait) / total : 0.0;

    long long messages = 0, bytes = 0;
    for (const auto& rt : report->comm.rank_totals) {
      messages += rt.messages_sent;
      bytes += rt.bytes_sent;
    }
    rec.metrics["comm.messages"] = static_cast<double>(messages);
    rec.metrics["comm.bytes"] = static_cast<double>(bytes);

    if (report->recovery.enabled) {
      rec.metrics["recovery.retransmits"] =
          static_cast<double>(report->recovery.retransmits);
      rec.metrics["recovery.recovered"] =
          static_cast<double>(report->recovery.recovered);
      rec.metrics["recovery.recovery_s"] = recovery;
    }

    const auto& faults = report->faults;
    rec.metrics["fault.delayed"] = static_cast<double>(faults.delayed);
    rec.metrics["fault.dropped"] = static_cast<double>(faults.dropped);
    rec.metrics["fault.corrupted"] = static_cast<double>(faults.corrupted);
    rec.metrics["fault.timeouts"] = static_cast<double>(faults.timeouts);
    rec.metrics["fault.delay_s"] = faults.delay_s;
    for (const auto& [name, value] : report->engine_stats) {
      rec.metrics["engine.bytecode." + name] = static_cast<double>(value);
    }

    // Compile summary: the decisions whose runtime cost the trend
    // lines explain.
    rec.metrics["compile.field_loops"] = report->compile.field_loops;
    rec.metrics["compile.dependence_pairs"] =
        report->compile.dependence_pairs;
    rec.metrics["compile.syncs_before"] = report->compile.syncs_before;
    rec.metrics["compile.syncs_after"] = report->compile.syncs_after;
    rec.metrics["compile.optimization_percent"] =
        report->compile.optimization_percent;
    rec.metrics["compile.pipelined_loops"] =
        report->compile.pipelined_loops;
    rec.metrics["compile.mirror_image_loops"] =
        report->compile.mirror_image_loops;
  }

  // Top-5 hot loops and the pass-profiler phases, in the bench
  // sidecars' hot.N.* / phase.* convention.
  record_profile_keys(obs != nullptr ? &obs->profiler : nullptr,
                      report != nullptr ? &report->profile : nullptr,
                      rec.metrics, rec.attrs);
  return rec;
}

RunRecord record_from_sidecar(const std::string& input,
                              const Sidecar& sidecar) {
  RunRecord rec;
  rec.kind = "bench";
  rec.input = input;
  rec.build_type = build_type_name();

  for (const auto& [key, value] : sidecar.strings) {
    if (key == "meta.build_type") {
      rec.build_type = value;
    } else if (key == "meta.engine") {
      rec.engine = value;
    } else if (key == "meta.machine") {
      rec.machine = value;
    } else {
      rec.attrs[key] = value;
    }
  }
  for (const auto& [key, value] : sidecar.numbers) {
    if (key == "meta.seed") {
      rec.seed = support::exact_int(value).value_or(0);
    } else {
      rec.metrics[key] = value;
    }
  }
  return rec;
}

std::optional<Sidecar> read_sidecar(const std::string& path,
                                    std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = path + ": cannot open";
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();

  std::string parse_error;
  auto doc = support::parse_json(text.str(), &parse_error);
  if (doc && doc->kind != support::JsonValue::Kind::Object) {
    doc.reset();
    parse_error = "not a JSON object";
  }
  if (!doc) {
    if (error != nullptr) *error = path + ": " + parse_error;
    return std::nullopt;
  }

  Sidecar sidecar;
  for (const auto& [key, value] : doc->fields) {
    if (value.kind == support::JsonValue::Kind::Number) {
      sidecar.numbers[key] = value.number;
    } else if (value.kind == support::JsonValue::Kind::String) {
      sidecar.strings[key] = value.string;
    } else if (value.kind == support::JsonValue::Kind::Bool) {
      sidecar.numbers[key] = value.boolean ? 1.0 : 0.0;
    }
    // Nested objects/arrays never appear in the flat sidecars; any
    // that do are ignored rather than rejected.
  }
  return sidecar;
}

std::optional<std::string> write_sidecar(const std::string& path,
                                         const Sidecar& sidecar) {
  // Both maps render into one sorted key order.
  std::map<std::string, std::string> values;
  std::vector<std::string> bad;
  for (const auto& [key, value] : sidecar.numbers) {
    if (std::isfinite(value)) {
      values[key] = support::json_number(value);
    } else {
      bad.push_back(key + " = " + std::to_string(value));
    }
  }
  for (const auto& [key, value] : sidecar.strings) {
    // Appended piecewise: GCC 12 -O3 flags the chained operator+ form
    // with a false -Wrestrict.
    std::string quoted = "\"";
    quoted += support::json_escape(value);
    quoted += '"';
    if (!values.emplace(key, std::move(quoted)).second) {
      bad.push_back(key + " is both a number and a string");
    }
  }
  if (!bad.empty()) return path + ": not written; " + join(bad, "; ");

  std::ofstream os(path);
  os << "{\n";
  const char* sep = "";
  for (const auto& [key, text] : values) {
    os << sep << "  \"" << support::json_escape(key) << "\": " << text;
    sep = ",\n";
  }
  os << "\n}\n";
  if (!os) return path + ": cannot write";
  return std::nullopt;
}

std::optional<RunRecord> record_from_sidecar_file(const std::string& path,
                                                  std::string* error) {
  const auto sidecar = read_sidecar(path, error);
  if (!sidecar) return std::nullopt;
  std::string stem = std::filesystem::path(path).stem().string();
  if (stem.rfind("BENCH_", 0) == 0) stem = stem.substr(6);
  return record_from_sidecar(stem, *sidecar);
}

}  // namespace autocfd::ledger
