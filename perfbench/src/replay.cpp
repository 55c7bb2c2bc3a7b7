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

/// Value sets the timed ops alternate between (PageRank feeds new values
/// through the same plan every iteration).
constexpr int kVariants = 2;

}  // namespace

void run_replay_twitter(const Config& cfg, Report& report) {
  const rank_t m = cfg.small ? 16 : 64;
  const kylix::Topology topo(cfg.small ? std::vector<std::uint32_t>{4, 2, 2}
                                       : std::vector<std::uint32_t>{8, 4, 2});
  const GraphSets g = make_graph_sets("twitter", cfg.seed, m,
                                      cfg.small ? 1u << 14 : 1u << 18);
  report.mark("inputs");
  report.stamp("machines", std::to_string(m));
  report.stamp("degrees", degrees_label(topo));
  report.note("twitter-like partition density " + std::to_string(g.density));

  // Oracle: the sequential engine's results, themselves checked against
  // the dense per-key sums.
  std::vector<Values> values;
  for (int v = 0; v < kVariants; ++v) {
    values.push_back(make_values(g.out_sets, cfg.seed * 16 + v));
  }
  const DenseReference dense(g.out_sets, values);
  std::vector<Values> expected;
  {
    SeqEngine seq(m);
    SeqAllreduce oracle(&seq, topo);
    oracle.configure(g.in_sets, g.out_sets);
    for (int v = 0; v < kVariants; ++v) {
      expected.push_back(oracle.reduce(values[v]));
      report.op(dense.matches(g.in_sets, expected.back(), v));
    }
  }
  const double rss_inputs = resident_mb();
  report.mark("oracle");

  // Set-up: engine construction + configure + the cold first reduce.
  EndToEnd e2e;
  std::vector<double> compile_s;
  std::unique_ptr<ParEngine> engine;
  std::unique_ptr<ParAllreduce> ar;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    std::vector<KeySet> in = g.in_sets;
    std::vector<KeySet> out = g.out_sets;
    Values vals = values[0];
    ar.reset();
    engine.reset();
    const Clock::time_point t0 = Clock::now();
    engine = std::make_unique<ParEngine>(m, cfg.threads);
    ar = std::make_unique<ParAllreduce>(engine.get(), topo);
    ar->configure(std::move(in), std::move(out));
    const Clock::time_point t1 = Clock::now();
    const Values res = ar->reduce(std::move(vals));
    const Clock::time_point t2 = Clock::now();
    e2e.setup_s.push_back(seconds_between(t0, t2));
    compile_s.push_back(seconds_between(t0, t1));
    report.op(dense.matches(g.in_sets, res, 0) && bit_equal(res, expected[0]));
  }

  const auto replay_op = [&](auto& allreduce, std::uint64_t i,
                             bool corrupt_result) {
    Values vals = values[i % kVariants];
    const Clock::time_point t0 = Clock::now();
    Values res = allreduce.reduce(std::move(vals));
    const double s = seconds_between(t0, Clock::now());
    if (corrupt_result) corrupt(res);
    return std::pair<double, bool>(s, bit_equal(res, expected[i % kVariants]));
  };

  report.mark("setup");
  std::vector<double> warmup_s;
  for (int i = 0; i < kWarmupOps; ++i) {
    const auto [s, ok] = replay_op(*ar, i, false);
    warmup_s.push_back(s);
    report.op(ok);
  }

  report.mark("warm-up");
  if (!cfg.trace) {
    e2e.op_s = closed_loop(report, cfg.seconds, kMinOps, [&](std::uint64_t i) {
      return replay_op(*ar, i, cfg.corrupt_op == i + 1);
    });
    e2e.mem_mb = resident_mb() - rss_inputs;
    report.mark("timed loop");
  }

  // One extra compile + reduce on the modeled cluster clock, outside the
  // timed loop: wire bytes and modeled time per (phase, layer).
  LayerTotals totals;
  double messages_per_op = 0;
  {
    kylix::Trace trace;
    const kylix::ComputeModel compute;
    kylix::TimingAccumulator timing(m, scaled_network(), compute);
    ParEngine modeled(m, cfg.threads, nullptr, &trace, &timing);
    ParAllreduce mar(&modeled, topo, &compute);
    mar.configure(g.in_sets, g.out_sets);
    const Values res = mar.reduce(values[0]);
    report.op(bit_equal(res, expected[0]));
    e2e.modeled_reduce_ms = 1e3 * timing.times().reduce();
    totals.add(trace, timing);
    for (const kylix::MsgEvent& e : trace.events()) {
      if (e.phase != kylix::Phase::kConfig) messages_per_op += 1;
    }
  }

  report.mark("modeled op");
  if (!cfg.trace) {
    report_end_to_end(e2e, report);
    report.stamp("timed_ops", std::to_string(e2e.op_s.size()));
    return;
  }

  // Traced run: untraced parallel, traced parallel and sequential replays
  // of the same plan, interleaved so drift hits all three alike.
  RoundLog log(m);
  TracedEngine<float> traced_engine(engine.get(), &log);
  TracedAllreduce tar(&traced_engine, topo);
  tar.configure(ar->plan());
  SeqEngine seq(m);
  SeqAllreduce sar(&seq, topo);
  sar.configure(ar->plan());
  for (int i = 0; i < 5; ++i) {
    report.op(replay_op(tar, i, false).second);
    report.op(replay_op(sar, i, false).second);
  }
  log.clear();
  {
    // The configuration rounds, traced once through the same adapter.
    TracedAllreduce traced_compile(&traced_engine, topo);
    traced_compile.configure(g.in_sets, g.out_sets);
  }
  const std::vector<std::vector<double>> op_s = interleaved_loop(
      report, cfg.seconds, kMinTracedOps, 3,
      [&](std::size_t kind, std::uint64_t step) {
        return kind == 0   ? replay_op(*ar, step, false)
               : kind == 1 ? replay_op(tar, step, false)
                           : replay_op(sar, step, false);
      });
  const std::vector<double>& plain_s = op_s[0];
  const std::vector<double>& traced_s = op_s[1];
  const std::vector<double>& seq_s = op_s[2];
  report_rounds(log, report);
  report_layer_totals(totals, report);
  report.metric("comm.messages_per_op", messages_per_op, "count");
  report.metric("comm.par_speedup", median(seq_s) / median(plain_s), "x");
  report.metric("core.compile_s", median(compile_s), "s");
  report.metric("trace_overhead", median(traced_s) / median(plain_s) - 1,
                "ratio");
  report_warmup(warmup_s, report);

  report.mark("traced loop");
  report_sparse_kernels(
      group_kernel_inputs(g.out_sets, topo.degrees()[0], *ar->plan()),
      report);
  report.mark("kernels");
  report.stamp("timed_ops", std::to_string(plain_s.size()) + "/" +
                                std::to_string(traced_s.size()) + "/" +
                                std::to_string(seq_s.size()));
}

}  // namespace perfbench
