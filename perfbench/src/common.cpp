#include "common.hpp"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace perfbench {

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

void Report::mark(const char* phase) {
  const Clock::time_point now = Clock::now();
  char part[64];
  std::snprintf(part, sizeof part, "%s%s %.2f s", phases_.empty() ? "" : ", ",
                phase, seconds_between(last_mark_, now));
  phases_ += part;
  last_mark_ = now;
}

bool Report::has(const std::string& name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&](const Metric& m) { return m.name == name; });
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double resident_mb() {
  malloc_trim(0);
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0;
  long pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

std::string degrees_label(const kylix::Topology& topo) {
  std::string label;
  for (const std::uint32_t d : topo.degrees()) {
    if (!label.empty()) label += "x";
    label += std::to_string(d);
  }
  return label;
}

const char* phase_label(kylix::Phase phase) {
  switch (phase) {
    case kylix::Phase::kConfig:
      return "config";
    case kylix::Phase::kReduceDown:
      return "down";
    case kylix::Phase::kReduceUp:
      return "up";
  }
  return "?";
}

std::string layer_name(const char* prefix, kylix::Phase phase,
                       std::uint16_t layer, const char* suffix) {
  return std::string(prefix) + "." + phase_label(phase) + ".l" +
         std::to_string(layer) + "." + suffix;
}

DenseReference::DenseReference(const std::vector<KeySet>& out_sets,
                               const std::vector<Values>& value_sets) {
  for (const KeySet& s : out_sets) {
    keys_.insert(keys_.end(), s.begin(), s.end());
  }
  std::sort(keys_.begin(), keys_.end());
  keys_.erase(std::unique(keys_.begin(), keys_.end()), keys_.end());
  for (const Values& values : value_sets) {
    std::vector<double>& sums = sums_.emplace_back(keys_.size(), 0.0);
    for (std::size_t r = 0; r < out_sets.size(); ++r) {
      std::size_t u = 0;
      for (std::size_t p = 0; p < out_sets[r].size(); ++p) {
        while (keys_[u] < out_sets[r][p]) ++u;
        sums[u] += static_cast<double>(values[r][p]);
      }
    }
  }
}

bool DenseReference::matches(const std::vector<KeySet>& in_sets,
                             const Values& results, std::size_t which) const {
  // A sum of <= 64 float terms carries at most ~64 ulp of relative error.
  constexpr double kRelTol = 1e-5;
  const std::vector<double>& sums = sums_.at(which);
  if (results.size() != in_sets.size()) return false;
  for (std::size_t r = 0; r < in_sets.size(); ++r) {
    if (results[r].size() != in_sets[r].size()) return false;
    std::size_t u = 0;
    for (std::size_t q = 0; q < in_sets[r].size(); ++q) {
      const key_t key = in_sets[r][q];
      while (u < keys_.size() && keys_[u] < key) ++u;
      const double want =
          (u < keys_.size() && keys_[u] == key) ? sums[u] : 0.0;
      const double got = static_cast<double>(results[r][q]);
      if (std::abs(got - want) > kRelTol * std::max(1.0, std::abs(want))) {
        return false;
      }
    }
  }
  return true;
}

bool bit_equal(const Values& a, const Values& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size() ||
        std::memcmp(a[r].data(), b[r].data(), a[r].size() * sizeof(float)) !=
            0) {
      return false;
    }
  }
  return true;
}

void corrupt(Values& results) {
  for (std::vector<float>& v : results) {
    if (v.empty()) continue;
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v[0], sizeof bits);
    bits ^= 1u;
    std::memcpy(&v[0], &bits, sizeof bits);
    return;
  }
}

Values make_values(const std::vector<KeySet>& out_sets, std::uint64_t seed) {
  Values values(out_sets.size());
  for (std::size_t r = 0; r < out_sets.size(); ++r) {
    kylix::Rng rng(kylix::mix64(seed ^ (0x76616c7565ULL + r)));
    values[r].resize(out_sets[r].size());
    for (float& v : values[r]) v = static_cast<float>(rng.uniform());
  }
  return values;
}

void report_end_to_end(const EndToEnd& e2e, Report& report) {
  // Host interference on a shared VM (steal time, neighbours' load) only
  // ever adds time, and it comes and goes over seconds to minutes. The
  // timed ops are therefore cut into up to kMaxBlocks consecutive blocks of
  // at least kMinBlockOps ops each, and every latency and throughput figure
  // is taken over the quieter quartile of blocks: the first quartile of the
  // block p50s and p90s, the third quartile of the block rates. Interference
  // moves these figures only when it covers more than three quarters of the
  // run.
  constexpr std::size_t kMaxBlocks = 20;
  constexpr std::size_t kMinBlockOps = 10;
  const std::size_t n = e2e.op_s.size();
  const std::size_t blocks = std::clamp<std::size_t>(n / kMinBlockOps, 1,
                                                     kMaxBlocks);
  std::vector<double> p50, p90, rate;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::vector<double> block(
        e2e.op_s.begin() + static_cast<std::ptrdiff_t>(n * b / blocks),
        e2e.op_s.begin() + static_cast<std::ptrdiff_t>(n * (b + 1) / blocks));
    double busy = 0;
    for (const double s : block) busy += s;
    p50.push_back(quantile(block, 0.5));
    p90.push_back(quantile(block, 0.9));
    rate.push_back(busy > 0 ? e2e.results_per_op *
                                  static_cast<double>(block.size()) / busy
                            : 0);
  }
  std::string line = "block p50 ms:";
  for (const double v : p50) {
    char buf[24];
    std::snprintf(buf, sizeof buf, " %.2f", 1e3 * v);
    line += buf;
  }
  report.note(line);
  report.metric("setup_s", median(e2e.setup_s), "s");
  report.metric("reduces_per_s", quantile(rate, 0.75), "1/s");
  report.metric("op_p50_ms", 1e3 * quantile(p50, 0.25), "ms");
  report.metric("op_p90_ms", 1e3 * quantile(p90, 0.25), "ms");
  report.metric("modeled_reduce_ms", e2e.modeled_reduce_ms, "ms");
  report.metric("mem_mb", e2e.mem_mb, "MB");
  char summary[240];
  std::snprintf(summary, sizeof summary,
                "%zu timed ops in %zu blocks; whole-run p50 %.3f ms, p90 "
                "%.3f ms; setup median of %zu repetitions; "
                "modeled_reduce_ms is the modeled cluster clock",
                n, blocks, 1e3 * quantile(e2e.op_s, 0.5),
                1e3 * quantile(e2e.op_s, 0.9), e2e.setup_s.size());
  report.note(summary);
}

kylix::NetworkModel scaled_network() {
  kylix::NetworkModel net = kylix::NetworkModel::ec2_like();
  net.stack_overhead_s = 3.2e-5;
  net.handshake_latency_s = 0.8e-5;
  net.base_latency_s = 5e-5;
  return net;
}

}  // namespace perfbench
