#include "layers.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {
namespace {

constexpr kylix::Phase kPhases[] = {kylix::Phase::kConfig,
                                    kylix::Phase::kReduceDown,
                                    kylix::Phase::kReduceUp};

/// Median rate (work / second) of `fn` over repeated calls: at least 5
/// calls and 0.15 s of calls. `prepare` runs untimed before each call.
template <typename Prepare, typename Fn>
double median_rate(double work, Prepare&& prepare, Fn&& fn) {
  std::vector<double> rates;
  double spent = 0;
  while (rates.size() < 5 || spent < 0.15) {
    prepare();
    const Clock::time_point t0 = Clock::now();
    fn();
    const double s = seconds_between(t0, Clock::now());
    spent += s;
    rates.push_back(s > 0 ? work / s : 0);
  }
  return median(std::move(rates));
}

}  // namespace

std::vector<std::pair<std::string, std::string>> per_layer_names() {
  std::vector<std::pair<std::string, std::string>> names;
  for (const kylix::Phase phase : kPhases) {
    for (std::uint16_t l = 1; l <= kMaxLayers; ++l) {
      names.emplace_back(layer_name("comm", phase, l, "round_ms"), "ms");
      names.emplace_back(layer_name("comm", phase, l, "deliver_ms"), "ms");
      names.emplace_back(layer_name("comm", phase, l, "wire_mb"), "MB");
      names.emplace_back(layer_name("core", phase, l, "produce_busy_ms"),
                         "ms");
      names.emplace_back(layer_name("core", phase, l, "consume_busy_ms"),
                         "ms");
      names.emplace_back(layer_name("core", phase, l, "consume_skew"),
                         "ratio");
      names.emplace_back(layer_name("cluster", phase, l, "modeled_ms"), "ms");
    }
  }
  names.emplace_back("comm.messages_per_op", "count");
  names.emplace_back("comm.par_speedup", "x");
  names.emplace_back("core.compile_s", "s");
  names.emplace_back("core.async.submit_ms", "ms");
  names.emplace_back("core.async.tx_util", "ratio");
  names.emplace_back("core.async.cpu_util", "ratio");
  names.emplace_back("core.async.modeled_latency_p50_ms", "ms");
  names.emplace_back("core.async.modeled_latency_p90_ms", "ms");
  names.emplace_back("sparse.radix_dedup.mkeys_per_s", "Mkeys/s");
  names.emplace_back("sparse.tree_merge.mkeys_per_s", "Mkeys/s");
  names.emplace_back("sparse.union.mkeys_per_s", "Mkeys/s");
  names.emplace_back("sparse.scatter_combine.melems_per_s", "Melems/s");
  names.emplace_back("sparse.gather.melems_per_s", "Melems/s");
  names.emplace_back("trace_overhead", "ratio");
  for (int i = 1; i <= kWarmupOps; ++i) {
    char name[32];
    std::snprintf(name, sizeof name, "warmup.op%02d_ms", i);
    names.emplace_back(name, "ms");
  }
  return names;
}

void report_rounds(const RoundLog& log, Report& report) {
  for (const kylix::Phase phase : kPhases) {
    for (std::uint16_t l = 1; l <= kMaxLayers; ++l) {
      std::vector<double> round, deliver, produce, consume, skew;
      for (const RoundSample& s : log.samples()) {
        if (s.phase != phase || s.layer != l) continue;
        round.push_back(s.round_s);
        deliver.push_back(s.deliver_s);
        produce.push_back(s.produce_busy_s);
        consume.push_back(s.consume_busy_s);
        skew.push_back(s.consume_skew);
      }
      if (round.empty()) continue;
      report.metric(layer_name("comm", phase, l, "round_ms"),
                    1e3 * median(round), "ms");
      report.metric(layer_name("comm", phase, l, "deliver_ms"),
                    1e3 * median(deliver), "ms");
      report.metric(layer_name("core", phase, l, "produce_busy_ms"),
                    1e3 * median(produce), "ms");
      report.metric(layer_name("core", phase, l, "consume_busy_ms"),
                    1e3 * median(consume), "ms");
      report.metric(layer_name("core", phase, l, "consume_skew"),
                    median(skew), "ratio");
    }
  }
}

void LayerTotals::add(const kylix::Trace& trace,
                      const kylix::TimingAccumulator& timing) {
  for (const kylix::Phase phase : kPhases) {
    const std::vector<std::uint64_t> bytes =
        trace.bytes_by_layer(phase, kMaxLayers);
    for (std::uint16_t l = 1; l <= kMaxLayers; ++l) {
      const auto p = static_cast<std::size_t>(phase);
      wire_bytes[p][l - 1] += static_cast<double>(bytes[l - 1]);
      modeled_s[p][l - 1] += timing.round_time(phase, l);
    }
  }
  ops += 1;
}

void report_layer_totals(const LayerTotals& totals, Report& report) {
  if (totals.ops <= 0) return;
  for (const kylix::Phase phase : kPhases) {
    const auto p = static_cast<std::size_t>(phase);
    for (std::uint16_t l = 1; l <= kMaxLayers; ++l) {
      if (totals.wire_bytes[p][l - 1] == 0) continue;
      report.metric(layer_name("comm", phase, l, "wire_mb"),
                    totals.wire_bytes[p][l - 1] / totals.ops / 1e6, "MB");
      if (totals.modeled_s[p][l - 1] > 0) {
        report.metric(layer_name("cluster", phase, l, "modeled_ms"),
                      1e3 * totals.modeled_s[p][l - 1] / totals.ops, "ms");
      }
    }
  }
}

KernelInputs group_kernel_inputs(const std::vector<KeySet>& out_sets,
                                 std::uint32_t group,
                                 const kylix::CollectivePlan& plan) {
  KernelInputs in;
  for (rank_t r = 0; r < group; ++r) {
    in.sets.push_back(out_sets[r].keys());
    in.raw.insert(in.raw.end(), out_sets[r].begin(), out_sets[r].end());
  }
  in.layer = &plan.rank_plan(0).layers[0];
  return in;
}

void report_sparse_kernels(const KernelInputs& in, Report& report) {
  double set_keys = 0;
  for (const std::span<const key_t> s : in.sets) {
    set_keys += static_cast<double>(s.size());
  }
  std::vector<key_t> raw;
  report.metric(
      "sparse.radix_dedup.mkeys_per_s",
      median_rate(static_cast<double>(in.raw.size()) / 1e6,
                  [&] { raw = in.raw; },
                  [&] { (void)KeySet::from_keys(std::move(raw)); }),
      "Mkeys/s");
  kylix::UnionResult u;
  kylix::MergeScratch scratch;
  report.metric("sparse.tree_merge.mkeys_per_s",
                median_rate(
                    set_keys / 1e6, [] {},
                    [&] { kylix::tree_merge_into(in.sets, u, scratch); }),
                "Mkeys/s");
  report.metric(
      "sparse.union.mkeys_per_s",
      median_rate(set_keys / 1e6, [] {},
                  [&] { kylix::union_into(in.sets, u, scratch); }),
      "Mkeys/s");

  // Scatter every sender piece of layer 1 into the out union, and gather
  // every piece back out of the in union, through the plan's own maps.
  const kylix::PlanLayer& layer = *in.layer;
  double scatter_elems = 0;
  std::vector<std::vector<float>> pieces;
  for (const kylix::PosMap& map : layer.out_maps) {
    scatter_elems += static_cast<double>(map.size());
    pieces.emplace_back(map.size(), 0.5f);
  }
  std::vector<float> acc(layer.out_union_size, 0.0f);
  report.metric(
      "sparse.scatter_combine.melems_per_s",
      median_rate(
          scatter_elems / 1e6, [&] { std::fill(acc.begin(), acc.end(), 0.0f); },
          [&] {
            for (std::size_t j = 0; j < layer.out_maps.size(); ++j) {
              kylix::scatter_combine<float, kylix::OpSum>(
                  acc, pieces[j], layer.out_maps[j]);
            }
          }),
      "Melems/s");
  double gather_elems = 0;
  std::size_t in_union = 0;
  for (const kylix::PosMap& map : layer.in_maps) {
    gather_elems += static_cast<double>(map.size());
    for (const kylix::pos_t p : map) {
      in_union = std::max<std::size_t>(in_union, std::size_t{p} + 1);
    }
  }
  const std::vector<float> source(in_union, 0.25f);
  std::vector<float> out;
  report.metric("sparse.gather.melems_per_s",
                median_rate(gather_elems / 1e6, [] {},
                            [&] {
                              for (const kylix::PosMap& map : layer.in_maps) {
                                kylix::gather_into<float>(source, map, out);
                              }
                            }),
                "Melems/s");
}

void report_warmup(const std::vector<double>& warmup_s, Report& report) {
  std::string line = "warm-up op ms:";
  for (std::size_t i = 0; i < warmup_s.size(); ++i) {
    char name[48];
    std::snprintf(name, sizeof name, "warmup.op%02zu_ms", i + 1);
    report.metric(name, 1e3 * warmup_s[i], "ms");
    char v[48];
    std::snprintf(v, sizeof v, " %.3f", 1e3 * warmup_s[i]);
    line += v;
  }
  report.note(line);
}

}  // namespace perfbench
