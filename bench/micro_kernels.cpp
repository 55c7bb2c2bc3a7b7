// Per-kernel throughput regression harness (BENCH_kernels.json).
//
// Measures each vectorized sparse kernel against its scalar/standard-library
// counterpart over a size x skew grid that mirrors real configure/reduce
// traffic:
//   * radix_sort_dedup vs std::sort + std::unique — uniform hashed keys
//     (the production case) and duplicate-heavy keys;
//   * prefetched scatter_combine / gather vs their scalar forms — random
//     (cache-hostile) and strictly-increasing (cache-friendly) maps.
//
// Output rows carry elements/s for kernel and baseline plus the ratio;
// tools/bench_check.sh diffs them against the committed JSON with a
// tolerance, which is the perf gate until CI exists. Timing is min-of-trials
// over repeated calls on warm scratch buffers, so the numbers track the
// steady-state (allocation-free) regime the engines run in.
//
// A "host" fingerprint (CPU model, usable CPUs, compiler, KYLIX_NATIVE and
// LTO) says where the numbers come from: absolute elements/s only compare
// across runs with the same fingerprint, while the in-run kernel/baseline
// ratio carries over to other hosts.
//
// Output: argv[1] or BENCH_kernels.json.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#ifdef __linux__
#include <sched.h>
#endif

#include "bench_common.hpp"
#include "obs/json_writer.hpp"
#include "sparse/kernels/radix_sort.hpp"
#include "sparse/kernels/scatter_gather.hpp"

namespace {

using namespace kylix;
using kylix::key_t;  // <sched.h> drags in POSIX ::key_t, an int

constexpr int kTrials = 5;
constexpr std::size_t kTargetElementsPerTrial = std::size_t{1} << 22;

const std::size_t kSizes[] = {std::size_t{1} << 14, std::size_t{1} << 17,
                              std::size_t{1} << 20};

/// Seconds per call, min over kTrials trials of reps calls each.
template <typename Fn>
double time_per_call(std::size_t elements, Fn&& fn) {
  const std::size_t reps =
      std::max<std::size_t>(1, kTargetElementsPerTrial / (elements + 1));
  double best = 1e30;
  for (int trial = 0; trial < kTrials; ++trial) {
    bench::WallTimer t;
    for (std::size_t r = 0; r < reps; ++r) fn();
    best = std::min(best, t.seconds() / static_cast<double>(reps));
  }
  return best;
}

struct Row {
  const char* kernel;
  const char* baseline;
  std::size_t size;
  const char* skew;
  double kernel_eps = 0;
  double baseline_eps = 0;
};

void emit(obs::JsonWriter& json, const Row& row) {
  json.begin_object();
  json.key_value("kernel", row.kernel);
  json.key_value("baseline", row.baseline);
  json.key_value("size", static_cast<std::uint64_t>(row.size));
  json.key_value("skew", row.skew);
  json.key_value("kernel_eps", row.kernel_eps);
  json.key_value("baseline_eps", row.baseline_eps);
  json.key_value("speedup", row.baseline_eps > 0
                                ? row.kernel_eps / row.baseline_eps
                                : 0.0);
  json.end_object();
  std::printf("%-14s %8zu %-9s  kernel %.3g el/s  baseline %.3g el/s  "
              "(%.2fx)\n",
              row.kernel, row.size, row.skew, row.kernel_eps,
              row.baseline_eps,
              row.baseline_eps > 0 ? row.kernel_eps / row.baseline_eps : 0.0);
}

std::vector<key_t> make_keys(std::size_t n, bool duplicate_heavy,
                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<key_t> keys(n);
  if (duplicate_heavy) {
    for (auto& k : keys) k = hash_index(rng.below(n / 16 + 1));
  } else {
    for (auto& k : keys) k = rng();
  }
  return keys;
}

void bench_sort(obs::JsonWriter& json) {
  for (const std::size_t n : kSizes) {
    for (const bool dup : {false, true}) {
      const auto data = make_keys(n, dup, n * 3 + (dup ? 1 : 0));
      Row row{"radix_sort", "std_sort_unique", n, dup ? "dup-heavy" : "uniform"};

      std::vector<key_t> work(n);
      std::vector<key_t> scratch(n);
      const double radix_s = time_per_call(n, [&] {
        work.assign(data.begin(), data.end());
        kernels::radix_sort_dedup(work, scratch);
      });
      const double std_s = time_per_call(n, [&] {
        work.assign(data.begin(), data.end());
        std::sort(work.begin(), work.end());
        work.erase(std::unique(work.begin(), work.end()), work.end());
      });
      // Both loops pay the same refill copy; report elements/s of the whole
      // call so the ratio is conservative for the radix side.
      row.kernel_eps = static_cast<double>(n) / radix_s;
      row.baseline_eps = static_cast<double>(n) / std_s;
      emit(json, row);
    }
  }
}

void bench_scatter_gather(obs::JsonWriter& json) {
  for (const std::size_t n : kSizes) {
    for (const bool random_map : {true, false}) {
      Rng rng(n * 13 + (random_map ? 1 : 0));
      std::vector<real_t> values(n);
      std::vector<real_t> acc(n + 4);
      PosMap map(n);
      if (random_map) {
        for (std::size_t p = 0; p < n; ++p) {
          map[p] = static_cast<pos_t>(rng.below(acc.size()));
        }
      } else {
        for (std::size_t p = 0; p < n; ++p) map[p] = static_cast<pos_t>(p);
      }
      for (auto& v : values) v = static_cast<real_t>(rng.uniform());
      const char* skew = random_map ? "random-map" : "sequential-map";

      Row srow{"scatter_combine", "scatter_scalar", n, skew};
      srow.kernel_eps = static_cast<double>(n) / time_per_call(n, [&] {
        kernels::scatter_combine<real_t, OpSum>(std::span<real_t>(acc),
                                                values, map, {});
      });
      srow.baseline_eps = static_cast<double>(n) / time_per_call(n, [&] {
        kernels::scatter_combine_scalar<real_t, OpSum>(std::span<real_t>(acc),
                                                       values, map, {});
      });
      emit(json, srow);

      Row grow{"gather", "gather_scalar", n, skew};
      std::vector<real_t> out(n);
      grow.kernel_eps = static_cast<double>(n) / time_per_call(n, [&] {
        kernels::gather<real_t>(std::span<const real_t>(acc), map,
                                out.data());
      });
      grow.baseline_eps = static_cast<double>(n) / time_per_call(n, [&] {
        kernels::gather_scalar<real_t>(std::span<const real_t>(acc), map,
                                       out.data());
      });
      emit(json, grow);
    }
  }
}

/// The "model name" of the first CPU in /proc/cpuinfo ("unknown" when
/// absent, e.g. off Linux).
std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const std::size_t start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? std::string() : line.substr(start);
  }
  return "unknown";
}

void emit_host(obs::JsonWriter& json, unsigned affinity) {
#ifdef KYLIX_NATIVE
  constexpr bool kNative = true;
#else
  constexpr bool kNative = false;
#endif
  json.key("host");
  json.begin_object();
  json.key_value("cpu_model", cpu_model());
  json.key_value("usable_cpus", affinity);
  json.key_value("compiler", std::string(__VERSION__));
  json.key_value("native", kNative);
  json.key_value("lto", KYLIX_BENCH_LTO != 0);
  json.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_kernels.json";
  unsigned affinity = 0;
#ifdef __linux__
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    affinity = static_cast<unsigned>(CPU_COUNT(&set));
  }
#endif

  std::ofstream out(out_path);
  obs::JsonWriter json(out);
  json.begin_object();
  json.key_value("benchmark", std::string("micro_kernels"));
  json.key_value("hardware_concurrency",
                 static_cast<int>(std::thread::hardware_concurrency()));
  json.key_value("affinity_cpus", static_cast<int>(affinity));
  json.key_value("trials", kTrials);
  emit_host(json, affinity);
  json.key("tuning");
  json.begin_object();
  json.key_value("prefetch_ahead",
                 static_cast<std::uint64_t>(kernels::kPrefetchAhead));
  json.end_object();
  json.key("kernels");
  json.begin_array();
  bench_sort(json);
  bench_scatter_gather(json);
  json.end_array();
  json.end_object();
  out << '\n';
  out.flush();
  if (!out.good()) {
    std::fprintf(stderr, "error: could not write %s\n", out_path);
    return 1;
  }
  std::printf("wrote %s\n", out_path);
  return 0;
}
