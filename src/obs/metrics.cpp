#include "autocfd/obs/metrics.hpp"

#include <algorithm>
#include <sstream>

#include "autocfd/support/json.hpp"

namespace autocfd::obs {

using support::json_escape;
using support::json_number;

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bucket_counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double value) {
  if (bucket_counts_.empty()) bucket_counts_.assign(1, 0);
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  ++bucket_counts_[static_cast<std::size_t>(it - bounds_.begin())];
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  sum_ += value;
  ++count_;
}

std::vector<double> byte_buckets() {
  std::vector<double> out;
  for (double b = 64.0; b <= 16.0 * 1024 * 1024; b *= 4.0) out.push_back(b);
  return out;
}

std::vector<double> seconds_buckets() {
  std::vector<double> out;
  for (double b = 1e-6; b <= 100.0; b *= 10.0) out.push_back(b);
  return out;
}

void MetricsRegistry::add(const std::string& name, std::int64_t delta) {
  counters_[name] += delta;
}

void MetricsRegistry::set_gauge(const std::string& name, double value) {
  gauges_[name] = value;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(name, Histogram(std::move(bounds)))
      .first->second;
}

std::int64_t MetricsRegistry::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

const Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void MetricsRegistry::write_json(std::ostream& os) const {
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    if (!first) os << ",";
    first = false;
    os << "\n    \"" << json_escape(name) << "\": " << value;
  }
  os << (counters_.empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges_) {
    if (!first) os << ",";
    first = false;
    os << "\n    \"" << json_escape(name) << "\": " << json_number(value);
  }
  os << (gauges_.empty() ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ",";
    first = false;
    os << "\n    \"" << json_escape(name) << "\": {\"count\": " << h.count()
       << ", \"min\": " << json_number(h.min())
       << ", \"max\": " << json_number(h.max())
       << ", \"sum\": " << json_number(h.sum())
       << ", \"mean\": " << json_number(h.mean()) << ", \"buckets\": [";
    const auto& bounds = h.bounds();
    const auto& counts = h.bucket_counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (i > 0) os << ", ";
      os << "{\"le\": ";
      if (i < bounds.size()) {
        os << json_number(bounds[i]);
      } else {
        os << "\"inf\"";
      }
      os << ", \"count\": " << counts[i] << "}";
    }
    os << "]}";
  }
  os << (histograms_.empty() ? "" : "\n  ") << "}\n}\n";
}

std::string MetricsRegistry::json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

std::string MetricsRegistry::text_report() const {
  std::ostringstream os;
  for (const auto& [name, value] : counters_) {
    os << name << " = " << value << '\n';
  }
  for (const auto& [name, value] : gauges_) {
    os << name << " = " << json_number(value) << '\n';
  }
  for (const auto& [name, h] : histograms_) {
    os << name << ": count=" << h.count() << " min=" << json_number(h.min())
       << " max=" << json_number(h.max()) << " mean=" << json_number(h.mean())
       << '\n';
  }
  return os.str();
}

}  // namespace autocfd::obs
