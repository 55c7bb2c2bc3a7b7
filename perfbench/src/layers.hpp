// Per-layer metrics (the traced run): measured round spans, wire volume and
// modeled per-layer time, sparse-kernel rates timed from outside, and the
// warm-up trajectory.
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "traced_engine.hpp"

namespace perfbench {

/// Every per-layer metric name with its unit, in BENCHMARK.json order. A
/// workload reports the (phase, layer) pairs and layers it exercises; the
/// rest read 0 ("not exercised by this workload").
[[nodiscard]] std::vector<std::pair<std::string, std::string>>
per_layer_names();

/// comm.<ph>.l<i>.{round,deliver}_ms and core.<ph>.l<i>.* medians.
void report_rounds(const RoundLog& log, Report& report);

/// Wire volume and modeled cluster time per (phase, layer), summed over
/// `ops` ops and reported per op.
struct LayerTotals {
  double wire_bytes[3][kMaxLayers] = {};
  double modeled_s[3][kMaxLayers] = {};
  double ops = 0;

  /// Add one op's engine Trace and TimingAccumulator.
  void add(const kylix::Trace& trace, const kylix::TimingAccumulator& timing);
};
void report_layer_totals(const LayerTotals& totals, Report& report);

/// Inputs of the sparse-kernel timings, all taken from the workload.
struct KernelInputs {
  std::vector<std::span<const key_t>> sets;  ///< one layer-1 group's sets
  std::vector<key_t> raw;  ///< unsorted keys with duplicates (radix dedup)
  const kylix::PlanLayer* layer = nullptr;  ///< plan PosMaps of layer 1
};
/// Sets and raw keys of the first layer-1 group (machines 0..group-1), with
/// the plan's layer-1 maps of rank 0.
[[nodiscard]] KernelInputs group_kernel_inputs(
    const std::vector<KeySet>& out_sets, std::uint32_t group,
    const kylix::CollectivePlan& plan);
void report_sparse_kernels(const KernelInputs& in, Report& report);

/// warmup.opNN_ms: the discarded warm-up ops, so the warm-up length can be
/// checked against where op times settle.
void report_warmup(const std::vector<double>& warmup_s, Report& report);

}  // namespace perfbench
