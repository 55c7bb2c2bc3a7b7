#include <memory>

#include "inputs.hpp"
#include "layers.hpp"
#include "traced_engine.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using ParEngine = kylix::ParallelBspEngine<float>;
using ParAllreduce = kylix::SparseAllreduce<float, kylix::OpSum, ParEngine>;
using SeqEngine = kylix::BspEngine<float>;
using SeqAllreduce = kylix::SparseAllreduce<float, kylix::OpSum, SeqEngine>;
using TracedAllreduce =
    kylix::SparseAllreduce<float, kylix::OpSum, TracedEngine<float>>;

/// Distinct minibatch steps the timed ops cycle through; every step's key
/// sets differ from the previous step's.
constexpr std::size_t kPool = 4;

}  // namespace

void run_minibatch_zipf(const Config& cfg, Report& report) {
  const rank_t m = cfg.small ? 16 : 64;
  const kylix::Topology topo(cfg.small ? std::vector<std::uint32_t>{4, 2, 2}
                                       : std::vector<std::uint32_t>{8, 4, 2});
  const std::uint64_t features = cfg.small ? 1u << 14 : 1u << 20;
  const MinibatchPool pool = make_minibatch_pool(
      cfg.seed, m, features, cfg.small ? 1024 : 32768, 0.9, kPool);
  report.mark("inputs");
  report.stamp("machines", std::to_string(m));
  report.stamp("degrees", degrees_label(topo));
  report.note("minibatch out-set density " + std::to_string(pool.out_density));

  // Oracle: every pool entry through the sequential engine, each checked
  // against the dense per-key sums.
  std::vector<Values> values;
  std::vector<Values> expected;
  {
    SeqEngine seq(m);
    SeqAllreduce oracle(&seq, topo);
    for (std::size_t e = 0; e < kPool; ++e) {
      values.push_back(make_values(pool.out_sets[e], cfg.seed * 16 + e));
      expected.push_back(oracle.reduce_with_config(
          pool.in_sets[e], pool.out_sets[e], values.back()));
      report.op(DenseReference(pool.out_sets[e], {values.back()})
                    .matches(pool.in_sets[e], expected.back(), 0));
    }
  }
  const double rss_inputs = resident_mb();
  report.mark("oracle");

  const auto step_op = [&](auto& allreduce, std::uint64_t i,
                           bool corrupt_result) {
    const std::size_t e = i % kPool;
    std::vector<KeySet> in = pool.in_sets[e];
    std::vector<KeySet> out = pool.out_sets[e];
    Values vals = values[e];
    const Clock::time_point t0 = Clock::now();
    Values res = allreduce.reduce_with_config(std::move(in), std::move(out),
                                              std::move(vals));
    const double s = seconds_between(t0, Clock::now());
    if (corrupt_result) corrupt(res);
    return std::pair<double, bool>(s, bit_equal(res, expected[e]));
  };

  // Set-up: engine construction + the cold first step.
  EndToEnd e2e;
  std::unique_ptr<ParEngine> engine;
  std::unique_ptr<ParAllreduce> ar;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    std::vector<KeySet> in = pool.in_sets[0];
    std::vector<KeySet> out = pool.out_sets[0];
    Values vals = values[0];
    ar.reset();
    engine.reset();
    const Clock::time_point t0 = Clock::now();
    engine = std::make_unique<ParEngine>(m, cfg.threads);
    ar = std::make_unique<ParAllreduce>(engine.get(), topo);
    const Values res =
        ar->reduce_with_config(std::move(in), std::move(out), std::move(vals));
    e2e.setup_s.push_back(seconds_between(t0, Clock::now()));
    report.op(bit_equal(res, expected[0]));
  }

  report.mark("setup");
  std::vector<double> warmup_s;
  for (int i = 0; i < kWarmupOps; ++i) {
    const auto [s, ok] = step_op(*ar, i, false);
    warmup_s.push_back(s);
    report.op(ok);
  }

  report.mark("warm-up");
  if (!cfg.trace) {
    e2e.op_s = closed_loop(report, cfg.seconds, kMinOps, [&](std::uint64_t i) {
      return step_op(*ar, i, cfg.corrupt_op == i + 1);
    });
    e2e.mem_mb = resident_mb() - rss_inputs;
    report.mark("timed loop");
  }

  // Every pool entry once more on the modeled cluster clock, outside the
  // timed loop: wire bytes and modeled time per (phase, layer).
  LayerTotals totals;
  double messages = 0;
  double modeled_s = 0;
  for (std::size_t e = 0; e < kPool; ++e) {
    kylix::Trace trace;
    const kylix::ComputeModel compute;
    kylix::TimingAccumulator timing(m, scaled_network(), compute);
    ParEngine modeled(m, cfg.threads, nullptr, &trace, &timing);
    ParAllreduce mar(&modeled, topo, &compute);
    const Values res =
        mar.reduce_with_config(pool.in_sets[e], pool.out_sets[e], values[e]);
    report.op(bit_equal(res, expected[e]));
    modeled_s += timing.times().total();
    messages += static_cast<double>(trace.num_messages());
    totals.add(trace, timing);
  }
  e2e.modeled_reduce_ms = 1e3 * modeled_s / kPool;

  report.mark("modeled op");
  if (!cfg.trace) {
    report_end_to_end(e2e, report);
    report.stamp("timed_ops", std::to_string(e2e.op_s.size()));
    return;
  }

  RoundLog log(m);
  TracedEngine<float> traced_engine(engine.get(), &log);
  TracedAllreduce tar(&traced_engine, topo);
  SeqEngine seq(m);
  SeqAllreduce sar(&seq, topo);
  for (int i = 0; i < 4; ++i) {
    report.op(step_op(tar, i, false).second);
    report.op(step_op(sar, i, false).second);
  }
  log.clear();
  const std::vector<std::vector<double>> op_s = interleaved_loop(
      report, cfg.seconds, kMinTracedOps, 3,
      [&](std::size_t kind, std::uint64_t step) {
        return kind == 0   ? step_op(*ar, step, false)
               : kind == 1 ? step_op(tar, step, false)
                           : step_op(sar, step, false);
      });
  const std::vector<double>& plain_s = op_s[0];
  const std::vector<double>& traced_s = op_s[1];
  const std::vector<double>& seq_s = op_s[2];
  report_rounds(log, report);
  report_layer_totals(totals, report);
  report.metric("comm.messages_per_op", messages / kPool, "count");
  report.metric("comm.par_speedup", median(seq_s) / median(plain_s), "x");
  report.metric("trace_overhead", median(traced_s) / median(plain_s) - 1,
                "ratio");
  report_warmup(warmup_s, report);
  report.mark("traced loop");

  // Sparse kernels on this workload's own sets; the scatter/gather maps
  // come from a plan compiled for the first pool entry.
  ParAllreduce compiler(engine.get(), topo);
  const auto plan = compiler.compile(pool.in_sets[0], pool.out_sets[0]);
  KernelInputs kin =
      group_kernel_inputs(pool.out_sets[0], topo.degrees()[0], *plan);
  kin.raw.clear();
  for (rank_t r = 0; r < topo.degrees()[0]; ++r) {
    kin.raw.insert(kin.raw.end(), pool.raw_keys[r].begin(),
                   pool.raw_keys[r].end());
  }
  report_sparse_kernels(kin, report);
  report.mark("kernels");
  report.stamp("timed_ops", std::to_string(plain_s.size()) + "/" +
                                std::to_string(traced_s.size()) + "/" +
                                std::to_string(seq_s.size()));
}

}  // namespace perfbench
