// Shared plumbing of the benchmark binary: run configuration, the metric
// report, wall-clock and memory probes, order statistics, and the
// correctness oracles every workload checks its results against.
//
// The benchmark drives the library from outside through its public calls
// only; nothing here reaches into library internals.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "kylix.hpp"

namespace perfbench {

using kylix::key_t;
using kylix::KeySet;
using kylix::rank_t;
using Clock = std::chrono::steady_clock;
using Values = std::vector<std::vector<float>>;  ///< one vector per machine

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One benchmark invocation, as parsed from the command line.
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool small = false;           ///< self-test sizes (16 machines, 2^14 keys)
  std::uint64_t corrupt_op = 0; ///< self-test: corrupt this timed op (1-based)
  unsigned threads = 1;  ///< engine threads, min(4, usable CPUs - 1), >= 1
};

/// Fixed run-shape constants shared by the workloads.
inline constexpr int kSetupReps = 5;       ///< median of these is setup_s
inline constexpr int kWarmupOps = 20;      ///< discarded after the cold op
inline constexpr std::size_t kMinOps = 100;  ///< >= 10 samples beyond p90
inline constexpr std::size_t kMinTracedOps = 60;  ///< medians of each kind
inline constexpr std::uint16_t kMaxLayers = 3;

/// Metrics, notes and fingerprint fields of one run.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void note(std::string line) { notes_.push_back(std::move(line)); }
  /// Close the run phase that began at the previous mark (or at
  /// construction); the phase wall times are printed as one note.
  void mark(const char* phase);
  void stamp(const std::string& key, const std::string& value) {
    stamps_.emplace_back(key, value);
  }
  /// Count one checked op; `ok == false` marks it failed.
  void op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }

  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }
  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] const std::vector<std::string>& notes() const {
    return notes_;
  }
  [[nodiscard]] const std::string& phases() const { return phases_; }
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
  stamps() const {
    return stamps_;
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::pair<std::string, std::string>> stamps_;
  std::string phases_;
  Clock::time_point last_mark_ = Clock::now();
};

/// Order statistics (linear interpolation between order statistics).
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Resident set size in MiB after returning free heap pages to the OS, so
/// the figure tracks live memory rather than allocator caching.
[[nodiscard]] double resident_mb();

/// "8x4x2" — the fingerprint form of a degree list.
[[nodiscard]] std::string degrees_label(const kylix::Topology& topo);

[[nodiscard]] const char* phase_label(kylix::Phase phase);
/// "<prefix>.<phase>.l<layer>.<suffix>", e.g. comm.down.l1.round_ms.
[[nodiscard]] std::string layer_name(const char* prefix, kylix::Phase phase,
                                     std::uint16_t layer, const char* suffix);

/// Dense oracle: per-key sums in double over every contributor, one sum
/// vector per value set, computed from the generated inputs with plain
/// sorting (independent of the library's set kernels).
class DenseReference {
 public:
  DenseReference(const std::vector<KeySet>& out_sets,
                 const std::vector<Values>& value_sets);

  /// True iff every result[r][q] is within a relative tolerance of value
  /// set `which`'s sum for key in_sets[r][q] (0 for keys nobody
  /// contributes).
  [[nodiscard]] bool matches(const std::vector<KeySet>& in_sets,
                             const Values& results, std::size_t which) const;

 private:
  std::vector<key_t> keys_;
  std::vector<std::vector<double>> sums_;  ///< [value set][key]
};

/// Bit-for-bit equality of two per-machine result sets.
[[nodiscard]] bool bit_equal(const Values& a, const Values& b);

/// Self-test hook: flip the low bit of the first result element.
void corrupt(Values& results);

/// Deterministic uniform values in [0, 1) aligned with each out set.
[[nodiscard]] Values make_values(const std::vector<KeySet>& out_sets,
                                 std::uint64_t seed);

/// Runs `op(i)` (returning {seconds, ok}) until `seconds` of wall time have
/// passed and at least `min_ops` ops ran, or until twice `seconds` have
/// passed. A thrown exception (the library's check_error included) counts
/// as a failed op. Returns the op seconds of every op that returned, in
/// order.
template <typename Op>
std::vector<double> closed_loop(Report& report, double seconds,
                                std::size_t min_ops, Op&& op) {
  std::vector<double> samples;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 0;; ++i) {
    const double elapsed = seconds_between(start, Clock::now());
    if ((i >= min_ops && elapsed >= seconds) || elapsed >= 2 * seconds) {
      break;
    }
    try {
      const std::pair<double, bool> r = op(i);
      samples.push_back(r.first);
      report.op(r.second);
    } catch (const std::exception&) {
      report.op(false);
    }
  }
  return samples;
}

/// closed_loop over `kinds` interleaved kinds of op: op i runs
/// `op(i % kinds, i / kinds)`, so drift hits every kind alike. Returns each
/// kind's op seconds.
template <typename Op>
std::vector<std::vector<double>> interleaved_loop(Report& report,
                                                  double seconds,
                                                  std::size_t min_ops,
                                                  std::size_t kinds, Op&& op) {
  std::vector<std::vector<double>> by_kind(kinds);
  closed_loop(report, seconds, min_ops, [&](std::uint64_t i) {
    const std::pair<double, bool> r = op(i % kinds, i / kinds);
    by_kind[i % kinds].push_back(r.first);
    return r;
  });
  return by_kind;
}

/// The end-to-end metrics every workload reports from its untraced run.
struct EndToEnd {
  std::vector<double> setup_s;    ///< one per setup repetition
  std::vector<double> op_s;       ///< timed-loop op wall times
  double results_per_op = 1;      ///< allreduce results one op completes
  double modeled_reduce_ms = 0;
  double mem_mb = 0;
};
void report_end_to_end(const EndToEnd& e2e, Report& report);

/// The scaled EC2 testbed the figure benches model (64 machines at 1/256
/// of the paper's vertex counts): the EC2 NIC with the per-message overhead
/// scaled down so the minimum-efficient-packet knee cuts through the degree
/// choices as it does at paper scale.
[[nodiscard]] kylix::NetworkModel scaled_network();

}  // namespace perfbench
