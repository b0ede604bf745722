#include "autocfd/fault/fault.hpp"

#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>

namespace autocfd::fault {
namespace {

/// splitmix64 finalizer: a high-quality 64-bit mixer. Feeding it the
/// plan seed combined with the message identity gives an independent,
/// scheduling-invariant random draw per (message, decision) pair.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Distinct draw stream per decision kind.
enum class Salt : std::uint64_t {
  Jitter = 1,
  JitterAmount = 2,
  Drop = 3,
  Corrupt = 4,
  CorruptSite = 5,
};

std::uint64_t draw(const FaultPlan& plan, int src, int dst, int tag,
                   long long msg_id, Salt salt) {
  std::uint64_t h = plan.seed;
  h = mix(h ^ static_cast<std::uint64_t>(salt));
  h = mix(h ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)));
  h = mix(h ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst)));
  h = mix(h ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag)));
  h = mix(h ^ static_cast<std::uint64_t>(msg_id));
  return h;
}

/// Uniform double in [0, 1) from a 64-bit draw.
double unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const auto pos = s.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

double parse_num(const std::string& key, const std::string& text) {
  try {
    std::size_t used = 0;
    const double v = std::stod(text, &used);
    if (used != text.size()) throw std::invalid_argument(text);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("fault spec: bad number '" + text +
                                "' for key '" + key + "'");
  }
}

int parse_int(const std::string& key, const std::string& text) {
  const double v = parse_num(key, text);
  if (v != std::floor(v)) {
    throw std::invalid_argument("fault spec: key '" + key +
                                "' needs an integer, got '" + text + "'");
  }
  return static_cast<int>(v);
}

}  // namespace

bool FaultPlan::timing_only() const {
  return drop_prob == 0.0 && corrupt_prob == 0.0 && drops.empty() &&
         corruptions.empty();
}

bool FaultPlan::empty() const {
  return timing_only() && jitter_prob == 0.0 && windows.empty() &&
         stragglers.empty();
}

namespace {

/// Probability key: must land in [0, 1] to mean anything.
double parse_prob(const std::string& key, const std::string& text) {
  const double v = parse_num(key, text);
  if (v < 0.0 || v > 1.0) {
    throw std::invalid_argument("fault spec: " + key +
                                " is a probability and must be in [0, 1], "
                                "got '" + text + "'");
  }
  return v;
}

int parse_rank(const std::string& key, const std::string& text) {
  const int v = parse_int(key, text);
  if (v < 0) {
    throw std::invalid_argument("fault spec: " + key +
                                " needs a rank >= 0, got '" + text + "'");
  }
  return v;
}

int parse_tag(const std::string& key, const std::string& text) {
  const int v = parse_int(key, text);
  if (v < 0) {
    throw std::invalid_argument("fault spec: " + key +
                                " needs a tag >= 0, got '" + text + "'");
  }
  return v;
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  for (const auto& item : split(spec, ',')) {
    if (item.empty()) continue;
    const auto eq = item.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("fault spec: expected key=value, got '" +
                                  item + "'");
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    const auto parts = split(value, ':');
    if (key == "seed") {
      plan.seed = static_cast<std::uint64_t>(parse_num(key, value));
    } else if (key == "jitter") {
      if (parts.size() != 2) {
        throw std::invalid_argument("fault spec: jitter=PROB:MAX");
      }
      plan.jitter_prob = parse_prob(key, parts[0]);
      plan.jitter_max = parse_num(key, parts[1]);
      if (plan.jitter_max < 0.0) {
        throw std::invalid_argument(
            "fault spec: jitter max delay must be >= 0 seconds, got '" +
            parts[1] + "'");
      }
    } else if (key == "straggler") {
      if (parts.size() != 2) {
        throw std::invalid_argument("fault spec: straggler=RANK:FACTOR");
      }
      Straggler s;
      s.rank = parse_rank(key, parts[0]);
      s.factor = parse_num(key, parts[1]);
      if (s.factor < 1.0) {
        throw std::invalid_argument(
            "fault spec: straggler factor must be >= 1 (it multiplies "
            "compute time), got '" + parts[1] + "'");
      }
      plan.stragglers.push_back(s);
    } else if (key == "window") {
      if (parts.size() < 3 || parts.size() > 5) {
        throw std::invalid_argument(
            "fault spec: window=T0:T1:DELAY[:SRC[:DST]]");
      }
      DegradationWindow w;
      w.t0 = parse_num(key, parts[0]);
      w.t1 = parse_num(key, parts[1]);
      w.delay = parse_num(key, parts[2]);
      if (w.t0 < 0.0) {
        throw std::invalid_argument(
            "fault spec: window start must be >= 0 virtual seconds, got '" +
            parts[0] + "'");
      }
      if (w.t1 <= w.t0) {
        throw std::invalid_argument(
            "fault spec: window [" + parts[0] + ", " + parts[1] +
            ") is empty — the end must be after the start");
      }
      if (w.delay < 0.0) {
        throw std::invalid_argument(
            "fault spec: window delay must be >= 0 seconds (a negative "
            "delay would move messages back in time), got '" + parts[2] +
            "'");
      }
      if (parts.size() > 3) w.src = parse_rank(key, parts[3]);
      if (parts.size() > 4) w.dst = parse_rank(key, parts[4]);
      plan.windows.push_back(w);
    } else if (key == "drop") {
      plan.drop_prob = parse_prob(key, value);
    } else if (key == "dropfirst") {
      MessageMatch m;
      m.tag = parse_tag(key, value);
      m.msg_id = 0;
      plan.drops.push_back(m);
    } else if (key == "corrupt") {
      plan.corrupt_prob = parse_prob(key, value);
    } else if (key == "corruptfirst") {
      MessageMatch m;
      m.tag = parse_tag(key, value);
      m.msg_id = 0;
      plan.corruptions.push_back(m);
    } else {
      throw std::invalid_argument(
          "fault spec: unknown fault kind '" + key +
          "' (known: seed, jitter, straggler, window, drop, dropfirst, "
          "corrupt, corruptfirst)");
    }
  }
  return plan;
}

std::string FaultPlan::str() const {
  std::ostringstream os;
  os << "seed=" << seed;
  if (jitter_prob > 0.0) os << ",jitter=" << jitter_prob << ":" << jitter_max;
  for (const auto& s : stragglers) {
    os << ",straggler=" << s.rank << ":" << s.factor;
  }
  for (const auto& w : windows) {
    os << ",window=" << w.t0 << ":" << w.t1 << ":" << w.delay;
    if (w.src >= 0 || w.dst >= 0) os << ":" << w.src;
    if (w.dst >= 0) os << ":" << w.dst;
  }
  if (drop_prob > 0.0) os << ",drop=" << drop_prob;
  for (const auto& m : drops) os << ",dropfirst=" << m.tag;
  if (corrupt_prob > 0.0) os << ",corrupt=" << corrupt_prob;
  for (const auto& m : corruptions) os << ",corruptfirst=" << m.tag;
  return os.str();
}

mp::FaultDecision FaultInjector::on_message(int src, int dst, int tag,
                                            long long msg_id, long long bytes,
                                            double departure,
                                            std::vector<double>& payload) {
  (void)bytes;
  mp::FaultDecision fd;

  // Timing: per-message jitter plus any matching degradation window.
  if (plan_.jitter_prob > 0.0 &&
      unit(draw(plan_, src, dst, tag, msg_id, Salt::Jitter)) <
          plan_.jitter_prob) {
    fd.extra_delay += plan_.jitter_max *
                      unit(draw(plan_, src, dst, tag, msg_id,
                                Salt::JitterAmount));
  }
  for (const auto& w : plan_.windows) {
    if (departure >= w.t0 && departure < w.t1 &&
        (w.src < 0 || w.src == src) && (w.dst < 0 || w.dst == dst)) {
      fd.extra_delay += w.delay;
    }
  }
  if (fd.extra_delay > 0.0) {
    ++counters_.delayed;
    counters_.delay_s += fd.extra_delay;
  }

  // Drops: targeted first, then probabilistic.
  for (const auto& m : plan_.drops) {
    if (m.matches(src, dst, tag, msg_id)) fd.drop = true;
  }
  if (!fd.drop && plan_.drop_prob > 0.0 &&
      unit(draw(plan_, src, dst, tag, msg_id, Salt::Drop)) <
          plan_.drop_prob) {
    fd.drop = true;
  }
  if (fd.drop) {
    ++counters_.dropped;
    return fd;  // a dropped message cannot also be corrupted
  }

  // Corruption: flip one mantissa bit of one element. The checksum was
  // taken before this hook ran, so the receiver always detects it.
  bool corrupt = false;
  for (const auto& m : plan_.corruptions) {
    if (m.matches(src, dst, tag, msg_id)) corrupt = true;
  }
  if (!corrupt && plan_.corrupt_prob > 0.0 &&
      unit(draw(plan_, src, dst, tag, msg_id, Salt::Corrupt)) <
          plan_.corrupt_prob) {
    corrupt = true;
  }
  if (corrupt && !payload.empty()) {
    const std::uint64_t h =
        draw(plan_, src, dst, tag, msg_id, Salt::CorruptSite);
    auto& victim = payload[static_cast<std::size_t>(
        h % static_cast<std::uint64_t>(payload.size()))];
    std::uint64_t bits;
    std::memcpy(&bits, &victim, sizeof bits);
    bits ^= 1ull << ((h >> 32) % 52);  // mantissa bit: value-corrupting
    std::memcpy(&victim, &bits, sizeof bits);
    fd.corrupted = true;
    ++counters_.corrupted;
  }
  return fd;
}

double FaultInjector::compute_factor(int rank) {
  double factor = 1.0;
  for (const auto& s : plan_.stragglers) {
    if (s.rank == rank) factor *= s.factor;
  }
  return factor;
}

}  // namespace autocfd::fault
