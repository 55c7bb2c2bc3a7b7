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
using Executor = kylix::AsyncExecutor<float>;

/// Streams submitted per op, and the in-flight window they share.
constexpr std::uint32_t kStreams = 4;
constexpr std::uint32_t kWindow = 4;

}  // namespace

void run_async_yahoo(const Config& cfg, Report& report) {
  const rank_t m = cfg.small ? 16 : 64;
  const kylix::Topology topo(cfg.small ? std::vector<std::uint32_t>{4, 4}
                                       : std::vector<std::uint32_t>{16, 4});
  const GraphSets g = make_graph_sets("yahoo", cfg.seed, m,
                                      cfg.small ? 1u << 14 : 1u << 21);
  report.mark("inputs");
  report.stamp("machines", std::to_string(m));
  report.stamp("degrees", degrees_label(topo));
  report.stamp("streams_per_op", std::to_string(kStreams));
  report.note("yahoo-like partition density " + std::to_string(g.density));

  // Oracle: the serial ReduceExecutor replay on the sequential engine,
  // checked against the dense per-key sums.
  std::vector<Values> values;
  for (std::uint32_t s = 0; s < kStreams; ++s) {
    values.push_back(make_values(g.out_sets, cfg.seed * 16 + s));
  }
  std::vector<Values> expected;
  {
    const DenseReference dense(g.out_sets, values);
    SeqEngine seq(m);
    SeqAllreduce oracle(&seq, topo);
    oracle.configure(g.in_sets, g.out_sets);
    for (std::uint32_t s = 0; s < kStreams; ++s) {
      expected.push_back(oracle.reduce(values[s]));
      report.op(dense.matches(g.in_sets, expected.back(), s));
    }
  }
  const double rss_inputs = resident_mb();
  report.mark("oracle");

  const kylix::NetworkModel net = scaled_network();
  const kylix::ComputeModel compute;
  Executor::Options opts;
  opts.window = kWindow;
  opts.network = &net;
  opts.compute = &compute;

  // One op: submit kStreams streams to a reset executor, drain, take every
  // result. Returns {op seconds, submit seconds, all streams bit-equal}.
  struct OpResult {
    double op_s;
    double submit_s;
    bool ok;
  };
  const auto window_op = [&](Executor& ax, bool corrupt_result) {
    std::vector<Values> vals = values;
    std::uint32_t tags[kStreams];
    const Clock::time_point t0 = Clock::now();
    ax.reset();
    const Clock::time_point t1 = Clock::now();
    for (std::uint32_t s = 0; s < kStreams; ++s) {
      tags[s] = ax.submit(std::move(vals[s]));
    }
    const Clock::time_point t2 = Clock::now();
    ax.drain();
    std::vector<Values> res;
    for (const std::uint32_t tag : tags) res.push_back(ax.take_result(tag));
    const Clock::time_point t3 = Clock::now();
    if (corrupt_result) corrupt(res[0]);
    bool ok = true;
    for (std::uint32_t s = 0; s < kStreams; ++s) {
      ok = ok && bit_equal(res[s], expected[s]);
    }
    return OpResult{seconds_between(t0, t3), seconds_between(t1, t2), ok};
  };

  // Set-up: compile the plan, bind the executor, run the cold first op.
  EndToEnd e2e;
  e2e.results_per_op = kStreams;
  std::vector<double> compile_s;
  std::shared_ptr<const kylix::CollectivePlan> plan;
  std::unique_ptr<Executor> ax;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    std::vector<KeySet> in = g.in_sets;
    std::vector<KeySet> out = g.out_sets;
    ax.reset();
    plan.reset();
    const Clock::time_point t0 = Clock::now();
    {
      ParEngine compile_engine(m, cfg.threads);
      ParAllreduce compiler(&compile_engine, topo);
      plan = compiler.compile(std::move(in), std::move(out));
    }
    const Clock::time_point t1 = Clock::now();
    ax = std::make_unique<Executor>();
    ax->bind(plan, opts);
    const Clock::time_point t2 = Clock::now();
    // window_op times itself, leaving out its untimed input copies.
    const OpResult first = window_op(*ax, false);
    e2e.setup_s.push_back(seconds_between(t0, t2) + first.op_s);
    compile_s.push_back(seconds_between(t0, t1));
    report.op(first.ok);
  }

  report.mark("setup");
  std::vector<double> warmup_s;
  for (int i = 0; i < kWarmupOps; ++i) {
    const OpResult r = window_op(*ax, false);
    warmup_s.push_back(r.op_s);
    report.op(r.ok);
  }

  report.mark("warm-up");
  if (!cfg.trace) {
    e2e.op_s = closed_loop(report, cfg.seconds, kMinOps, [&](std::uint64_t i) {
      const OpResult r = window_op(*ax, cfg.corrupt_op == i + 1);
      return std::pair<double, bool>(r.op_s, r.ok);
    });
    e2e.mem_mb = resident_mb() - rss_inputs;
    report.mark("timed loop");
  }

  // One extra op with a message observer attached, outside the timed loop:
  // wire bytes per (phase, layer), the modeled makespan and NIC/CPU busy.
  WireObserver wire;
  Executor::Options observed = opts;
  observed.observer = &wire;
  Executor modeled;
  modeled.bind(plan, observed);
  report.op(window_op(modeled, false).ok);
  e2e.modeled_reduce_ms = 1e3 * modeled.makespan_seconds() / kStreams;

  report.mark("modeled op");
  if (!cfg.trace) {
    report_end_to_end(e2e, report);
    report.stamp("timed_ops", std::to_string(e2e.op_s.size()));
    return;
  }

  const double makespan = modeled.makespan_seconds();
  report.metric("core.async.tx_util", modeled.max_tx_busy_seconds() / makespan,
                "ratio");
  report.metric("core.async.cpu_util",
                modeled.max_cpu_busy_seconds() / makespan, "ratio");
  report.metric("core.async.modeled_latency_p50_ms",
                1e3 * quantile(modeled.completion_latencies(), 0.5), "ms");
  report.metric("core.async.modeled_latency_p90_ms",
                1e3 * quantile(modeled.completion_latencies(), 0.9), "ms");
  LayerTotals totals;
  for (const kylix::Phase phase :
       {kylix::Phase::kReduceDown, kylix::Phase::kReduceUp}) {
    for (std::uint16_t l = 1; l <= topo.num_layers(); ++l) {
      totals.wire_bytes[static_cast<std::size_t>(phase)][l - 1] =
          static_cast<double>(wire.bytes(phase, l));
    }
  }
  totals.ops = 1;
  report_layer_totals(totals, report);
  report.metric("comm.messages_per_op", static_cast<double>(wire.messages()),
                "count");

  // Traced run: the same windows with and without a message observer,
  // interleaved.
  WireObserver traced_wire;
  Executor::Options traced_opts = opts;
  traced_opts.observer = &traced_wire;
  Executor traced;
  traced.bind(plan, traced_opts);
  for (int i = 0; i < 4; ++i) report.op(window_op(traced, false).ok);
  std::vector<double> submit_s;
  const std::vector<std::vector<double>> op_s = interleaved_loop(
      report, cfg.seconds, kMinTracedOps, 2,
      [&](std::size_t kind, std::uint64_t) {
        const OpResult r = window_op(kind == 0 ? *ax : traced, false);
        if (kind == 0) submit_s.push_back(r.submit_s);
        return std::pair<double, bool>(r.op_s, r.ok);
      });
  const std::vector<double>& plain_s = op_s[0];
  const std::vector<double>& traced_s = op_s[1];
  report.metric("core.async.submit_ms", 1e3 * median(submit_s), "ms");
  report.metric("core.compile_s", median(compile_s), "s");
  report.metric("trace_overhead", median(traced_s) / median(plain_s) - 1,
                "ratio");
  report_warmup(warmup_s, report);

  report.mark("traced loop");
  report_sparse_kernels(
      group_kernel_inputs(g.out_sets, topo.degrees()[0], *plan), report);
  report.mark("kernels");
  report.stamp("timed_ops", std::to_string(plain_s.size()) + "/" +
                                std::to_string(traced_s.size()));
}

}  // namespace perfbench
