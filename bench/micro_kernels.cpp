// Per-kernel throughput regression harness (BENCH_kernels.json).
//
// Measures each vectorized sparse kernel against its scalar/standard-library
// counterpart over a size x skew grid that mirrors real configure/reduce
// traffic:
//   * radix_sort_dedup vs std::sort + std::unique — uniform hashed keys
//     (the production case) and duplicate-heavy keys;
//   * prefetched scatter_combine / gather vs their scalar forms — random
//     (cache-hostile) and strictly-increasing (cache-friendly) maps;
//   * tree_merge_into (branch-free pairwise select loop) vs the same merge
//     tree over the compare-and-branch pairwise loop it replaced — 8-way and
//     64-way unions of nearly disjoint and of overlap-heavy key sets. The
//     branching loop lives here only, as the in-run baseline.
//
// Output rows carry elements/s for kernel and baseline plus the ratio;
// tools/bench_check.sh diffs them against the committed JSON with a
// tolerance, which is the perf gate until CI exists. Each row runs 15
// trials of repeated calls on warm scratch buffers, kernel and baseline
// interleaved within every trial, and reports the median and interquartile
// range of the kernel and baseline elements/s and of the per-trial speedup;
// the numbers track the steady-state (allocation-free) regime the engines
// run in, and the IQR says how far one run can be trusted.
//
// A "host" fingerprint (CPU model, usable CPUs, compiler, KYLIX_NATIVE and
// LTO) says where the numbers come from: absolute elements/s only compare
// across runs with the same fingerprint, while the in-run kernel/baseline
// ratio carries over to other hosts.
//
// Output: argv[1] or BENCH_kernels.json.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "bench_common.hpp"
#include "obs/json_writer.hpp"
#include "sparse/kernels/radix_sort.hpp"
#include "sparse/kernels/scatter_gather.hpp"
#include "sparse/merge.hpp"

namespace {

using namespace kylix;
using kylix::key_t;  // <sched.h> drags in POSIX ::key_t, an int

constexpr int kTrials = 15;
constexpr std::size_t kTargetElementsPerTrial = std::size_t{1} << 22;
/// A trial also lasts at least this long, so one scheduler preemption of a
/// fast kernel (~2 ms for 2^22 elements) cannot dominate it.
constexpr double kMinTrialSeconds = 0.02;

const std::size_t kSizes[] = {std::size_t{1} << 14, std::size_t{1} << 17,
                              std::size_t{1} << 20};

/// Median and interquartile range of a sample (linear interpolation
/// between order statistics).
struct Spread {
  double median = 0;
  double iqr = 0;
};

Spread spread_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto at = [&](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  return {at(0.5), at(0.75) - at(0.25)};
}

struct Row {
  const char* kernel;
  const char* baseline;
  std::size_t size;
  const char* skew;
  Spread kernel_eps{};
  Spread baseline_eps{};
  Spread speedup{};  ///< per-trial kernel/baseline ratios
};

/// Time kernel and baseline in kTrials interleaved trials (kernel first,
/// then baseline, every trial), so drift on the host hits both sides of
/// each trial's ratio alike. Each side repeats its call to cover
/// kTargetElementsPerTrial elements and kMinTrialSeconds, sized from one
/// warm-up call. Fills the row's elements/s and speedup spreads.
template <typename KernelFn, typename BaselineFn>
void measure(Row& row, std::size_t elements, KernelFn&& kernel,
             BaselineFn&& baseline) {
  const auto reps_for = [&](auto& fn) {
    bench::WallTimer t;
    fn();
    const auto by_time =
        static_cast<std::size_t>(kMinTrialSeconds / t.seconds()) + 1;
    return std::max<std::size_t>(
        by_time, kTargetElementsPerTrial / (elements + 1));
  };
  const std::size_t kernel_reps = reps_for(kernel);
  const std::size_t baseline_reps = reps_for(baseline);
  const auto eps = [&](auto& fn, std::size_t reps) {
    bench::WallTimer t;
    for (std::size_t r = 0; r < reps; ++r) fn();
    return static_cast<double>(elements) * static_cast<double>(reps) /
           t.seconds();
  };
  std::vector<double> k;
  std::vector<double> b;
  std::vector<double> ratio;
  for (int trial = 0; trial < kTrials; ++trial) {
    k.push_back(eps(kernel, kernel_reps));
    b.push_back(eps(baseline, baseline_reps));
    ratio.push_back(k.back() / b.back());
  }
  row.kernel_eps = spread_of(k);
  row.baseline_eps = spread_of(b);
  row.speedup = spread_of(ratio);
}

void emit(obs::JsonWriter& json, const Row& row) {
  json.begin_object();
  json.key_value("kernel", row.kernel);
  json.key_value("baseline", row.baseline);
  json.key_value("size", static_cast<std::uint64_t>(row.size));
  json.key_value("skew", row.skew);
  json.key_value("kernel_eps", row.kernel_eps.median);
  json.key_value("kernel_eps_iqr", row.kernel_eps.iqr);
  json.key_value("baseline_eps", row.baseline_eps.median);
  json.key_value("baseline_eps_iqr", row.baseline_eps.iqr);
  json.key_value("speedup", row.speedup.median);
  json.key_value("speedup_iqr", row.speedup.iqr);
  json.end_object();
  std::printf("%-16s %8zu %-14s  kernel %.3g el/s  baseline %.3g el/s  "
              "(%.2fx, IQR %.2f)\n",
              row.kernel, row.size, row.skew, row.kernel_eps.median,
              row.baseline_eps.median, row.speedup.median, row.speedup.iqr);
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
      // Both loops pay the same refill copy; report elements/s of the whole
      // call so the ratio is conservative for the radix side.
      measure(
          row, n,
          [&] {
            work.assign(data.begin(), data.end());
            kernels::radix_sort_dedup(work, scratch);
          },
          [&] {
            work.assign(data.begin(), data.end());
            std::sort(work.begin(), work.end());
            work.erase(std::unique(work.begin(), work.end()), work.end());
          });
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
      measure(
          srow, n,
          [&] {
            kernels::scatter_combine<real_t, OpSum>(std::span<real_t>(acc),
                                                    values, map, {});
          },
          [&] {
            kernels::scatter_combine_scalar<real_t, OpSum>(
                std::span<real_t>(acc), values, map, {});
          });
      emit(json, srow);

      Row grow{"gather", "gather_scalar", n, skew};
      std::vector<real_t> out(n);
      measure(
          grow, n,
          [&] {
            kernels::gather<real_t>(std::span<const real_t>(acc), map,
                                    out.data());
          },
          [&] {
            kernels::gather_scalar<real_t>(std::span<const real_t>(acc), map,
                                           out.data());
          });
      emit(json, grow);
    }
  }
}

/// Baseline for the tree_merge rows: the compare-and-branch pairwise union
/// (push_back per key, bulk tails) that tree_merge_into ran before its
/// select loop, in the same ping-pong merge tree with per-leaf map
/// composition. The row inputs have equal-sized sets, so the gallop path of
/// either version never fires.
void branching_pair(std::span<const key_t> a, std::span<const key_t> b,
                    std::vector<key_t>& keys, PosMap& map_a, PosMap& map_b) {
  keys.clear();
  keys.reserve(a.size() + b.size());
  map_a.resize(a.size());
  map_b.resize(b.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const auto out = static_cast<pos_t>(keys.size());
    if (a[i] < b[j]) {
      keys.push_back(a[i]);
      map_a[i++] = out;
    } else if (b[j] < a[i]) {
      keys.push_back(b[j]);
      map_b[j++] = out;
    } else {
      keys.push_back(a[i]);
      map_a[i++] = out;
      map_b[j++] = out;
    }
  }
  for (; i < a.size(); ++i) {
    map_a[i] = static_cast<pos_t>(keys.size());
    keys.push_back(a[i]);
  }
  for (; j < b.size(); ++j) {
    map_b[j] = static_cast<pos_t>(keys.size());
    keys.push_back(b[j]);
  }
}

void branching_tree_merge(std::span<const std::span<const key_t>> inputs,
                          UnionResult& out, MergeScratch& scratch) {
  const std::size_t k = inputs.size();  // >= 2 for every row
  out.maps.resize(k);
  auto& runs0 = scratch.runs[0];
  const std::size_t nruns0 = (k + 1) / 2;
  if (runs0.size() < nruns0) runs0.resize(nruns0);
  for (std::size_t j = 0; j < k / 2; ++j) {
    branching_pair(inputs[2 * j], inputs[2 * j + 1], runs0[j],
                   out.maps[2 * j], out.maps[2 * j + 1]);
  }
  std::size_t count = nruns0;
  std::size_t level = 0;
  while (count > 1) {
    auto& cur = scratch.runs[level & 1];
    auto& nxt = scratch.runs[(level + 1) & 1];
    const std::size_t nnext = (count + 1) / 2;
    if (nxt.size() < nnext) nxt.resize(nnext);
    const std::size_t leaf_span = std::size_t{1} << (level + 1);
    for (std::size_t j = 0; j < count / 2; ++j) {
      branching_pair(cur[2 * j], cur[2 * j + 1], nxt[j], scratch.map_a,
                     scratch.map_b);
      const std::size_t a_lo = 2 * j * leaf_span;
      const std::size_t a_hi = std::min(a_lo + leaf_span, k);
      const std::size_t b_hi = std::min(a_hi + leaf_span, k);
      for (std::size_t leaf = a_lo; leaf < a_hi; ++leaf) {
        for (pos_t& p : out.maps[leaf]) p = scratch.map_a[p];
      }
      for (std::size_t leaf = a_hi; leaf < b_hi; ++leaf) {
        for (pos_t& p : out.maps[leaf]) p = scratch.map_b[p];
      }
    }
    if (count % 2 == 1) std::swap(nxt[nnext - 1], cur[count - 1]);
    count = nnext;
    ++level;
  }
  std::swap(out.keys, scratch.runs[level & 1][0]);
}

/// k sorted, hashed key sets of `per_set` keys each. "uniform" draws from a
/// universe 2^16 times larger than the union, so the sets barely overlap;
/// "overlap" draws every set from one pool of 2 * per_set indices, so each
/// key is shared by about half the sets (the heavy-overlap regime of
/// power-law features).
std::vector<std::vector<key_t>> make_sets(std::size_t ways,
                                          std::size_t per_set, bool overlap,
                                          std::uint64_t seed) {
  Rng rng(seed);
  const std::uint64_t universe =
      overlap ? 2 * per_set : (ways * per_set) << 16;
  std::vector<std::vector<key_t>> sets(ways);
  for (auto& keys : sets) {
    keys.resize(per_set);
    for (auto& k : keys) k = hash_index(rng.below(universe));
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  }
  return sets;
}

void bench_tree_merge(obs::JsonWriter& json) {
  const struct {
    std::size_t ways;
    std::size_t per_set;
  } shapes[] = {{8, 8192}, {64, 2048}};
  for (const auto& shape : shapes) {
    for (const bool overlap : {false, true}) {
      const auto sets = make_sets(shape.ways, shape.per_set, overlap,
                                  shape.ways * 7 + (overlap ? 1 : 0));
      const std::vector<std::span<const key_t>> spans(sets.begin(),
                                                      sets.end());
      std::size_t total = 0;
      for (const auto& keys : sets) total += keys.size();
      // The skew names the shape; the size is the total input key count.
      const char* skew = shape.ways == 8
                             ? (overlap ? "overlap-8way" : "uniform-8way")
                             : (overlap ? "overlap-64way" : "uniform-64way");
      Row row{"tree_merge", "tree_merge_branching", total, skew};
      UnionResult out;
      MergeScratch scratch;
      UnionResult base;
      MergeScratch base_scratch;
      measure(
          row, total, [&] { tree_merge_into(spans, out, scratch); },
          [&] { branching_tree_merge(spans, base, base_scratch); });
      if (base.keys != out.keys || base.maps != out.maps) {
        std::fprintf(stderr, "error: tree_merge rows disagree (%s)\n", skew);
        std::exit(1);
      }
      emit(json, row);
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
  bench_tree_merge(json);
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
