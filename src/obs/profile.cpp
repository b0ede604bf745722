#include "autocfd/obs/profile.hpp"

#include <cstdio>
#include <sstream>

#include "autocfd/support/json.hpp"

namespace autocfd::obs {

using support::json_escape;
using support::json_number;

void PassProfiler::record(PhaseProfile p) {
  for (auto& existing : phases_) {
    if (existing.name == p.name) {
      existing.wall_s += p.wall_s;
      for (const auto& [key, value] : p.counters) {
        existing.counters[key] += value;
      }
      return;
    }
  }
  phases_.push_back(std::move(p));
}

const PhaseProfile* PassProfiler::find(std::string_view name) const {
  for (const auto& p : phases_) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

double PassProfiler::phase_sum_s() const {
  double sum = 0.0;
  for (const auto& p : phases_) sum += p.wall_s;
  return sum;
}

std::string PassProfiler::text_report() const {
  std::ostringstream os;
  char line[256];
  const double total = total_wall_s_ > 0.0 ? total_wall_s_ : phase_sum_s();
  std::snprintf(line, sizeof line, "pass profile: %zu phase(s), %.3f ms\n",
                phases_.size(), total * 1e3);
  os << line;
  for (const auto& p : phases_) {
    std::snprintf(line, sizeof line, "  %-26s %9.3f ms %5.1f%%", p.name.c_str(),
                  p.wall_s * 1e3,
                  total > 0.0 ? 100.0 * p.wall_s / total : 0.0);
    os << line;
    bool first = true;
    for (const auto& [key, value] : p.counters) {
      os << (first ? "  " : ", ") << key << "=";
      if (value == static_cast<double>(static_cast<long long>(value))) {
        os << static_cast<long long>(value);
      } else {
        os << json_number(value);
      }
      first = false;
    }
    os << '\n';
  }
  return os.str();
}

void PassProfiler::write_json(std::ostream& os) const {
  os << "{\"total_wall_s\": " << json_number(total_wall_s_)
     << ", \"phases\": [";
  bool first_phase = true;
  for (const auto& p : phases_) {
    if (!first_phase) os << ",";
    first_phase = false;
    os << "\n  {\"name\": \"" << json_escape(p.name)
       << "\", \"wall_s\": " << json_number(p.wall_s) << ", \"counters\": {";
    bool first_counter = true;
    for (const auto& [key, value] : p.counters) {
      if (!first_counter) os << ", ";
      first_counter = false;
      os << "\"" << json_escape(key) << "\": " << json_number(value);
    }
    os << "}}";
  }
  os << "\n]}";
}

}  // namespace autocfd::obs
