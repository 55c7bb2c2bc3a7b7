// Golden modeled schedule of the AsyncExecutor. Every modeled figure —
// makespan, each completion latency (in completion order), the peak
// tx/rx/cpu busy time and the admission pace — is pinned as a hex float on
// a 3-layer plan at windows 1, 4 and 8, for clean streamed + strided
// streams and for a batch mixing clean and faulted streams (drop,
// duplicate, delay, and crashes at (kReduceDown, l) and (kReduceUp, l)).
// Six streams per batch, so windows 1 and 4 run the pending queue.
//
// The figures depend only on the plan, the letter sizes, the compute
// charges and each stream's fault fates, so how the executor runs the
// streams may change but these numbers may not: any drift in a digit
// means the modeled schedule changed.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "cluster/fault_plan.hpp"
#include "cluster/netmodel.hpp"
#include "comm/bsp.hpp"
#include "core/allreduce.hpp"
#include "core/async_executor.hpp"
#include "test_util.hpp"

namespace kylix {
namespace {

struct Figures {
  double makespan = 0;
  std::vector<double> latencies;
  double max_tx = 0;
  double max_rx = 0;
  double max_cpu = 0;
  double pace = 0;
};

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// The figures as a Figures initializer, for the failure message.
std::string literal(const Figures& f) {
  std::string out = "{" + hex(f.makespan) + ", {";
  for (std::size_t i = 0; i < f.latencies.size(); ++i) {
    out += (i == 0 ? "" : ", ") + hex(f.latencies[i]);
  }
  return out + "}, " + hex(f.max_tx) + ", " + hex(f.max_rx) + ", " +
         hex(f.max_cpu) + ", " + hex(f.pace) + "}";
}

void expect_figures(const Figures& got, const Figures& want) {
  SCOPED_TRACE("got " + literal(got));
  EXPECT_EQ(got.makespan, want.makespan);
  EXPECT_EQ(got.latencies, want.latencies);
  EXPECT_EQ(got.max_tx, want.max_tx);
  EXPECT_EQ(got.max_rx, want.max_rx);
  EXPECT_EQ(got.max_cpu, want.max_cpu);
  EXPECT_EQ(got.pace, want.pace);
}

class AsyncScheduleGolden : public ::testing::Test {
 protected:
  static constexpr int kStreams = 6;

  void SetUp() override {
    w_ = testing::random_workload<float>(topo_.num_machines(), 600, 0.2,
                                         0.35, 1601);
    BspEngine<float> engine(topo_.num_machines());
    SparseAllreduce<float, OpSum, BspEngine<float>> compiler(&engine, topo_);
    plan_ = compiler.compile(w_.in_sets, w_.out_sets);
    ASSERT_NE(plan_, nullptr);
    ASSERT_EQ(topo_.num_layers(), 3);
  }

  /// Stream i's contribution: stride payloads per key, interleaved
  /// key-major, shifted by i so streams differ.
  [[nodiscard]] std::vector<std::vector<float>> inputs(
      int i, std::uint32_t stride) const {
    std::vector<std::vector<float>> values(topo_.num_machines());
    for (rank_t r = 0; r < topo_.num_machines(); ++r) {
      for (const float v : w_.out_values[r]) {
        for (std::uint32_t c = 0; c < stride; ++c) {
          values[r].push_back(v + static_cast<float>(i + 3 * c));
        }
      }
    }
    return values;
  }

  /// Stream i's fault schedule in the mixed batch; null for clean streams.
  [[nodiscard]] static bool faulted(int i) { return i != 0 && i != 3; }
  [[nodiscard]] FaultPlan faults(int i) const {
    const rank_t m = topo_.num_machines();
    FaultPlan plan(m, 700 + static_cast<std::uint64_t>(i));
    FaultPlan::TransientRates rates;
    switch (i) {
      case 1:  // transient faults only
        rates.drop = 0.1;
        rates.duplicate = 0.1;
        rates.delay = 0.1;
        break;
      case 2:  // crash entering the last scatter-reduce round
        rates.drop = 0.05;
        plan.crash_at(5, Phase::kReduceDown, 3);
        break;
      case 4:  // crash entering the first allgather round
        rates.duplicate = 0.1;
        plan.crash_at(9, Phase::kReduceUp, 3);
        break;
      default:  // delay-heavy
        rates.delay = 0.3;
        break;
    }
    plan.set_transient_rates(rates);
    return plan;
  }

  [[nodiscard]] Figures run(std::uint32_t window, bool mixed_faults) {
    AsyncExecutor<float> ax;
    AsyncExecutor<float>::Options opts;
    opts.window = window;
    opts.network = &net_;
    opts.compute = &compute_;
    if (!mixed_faults) {
      opts.stride = 2;
      opts.streaming = true;
      opts.chunk_bytes_override = 256;
    }
    ax.bind(plan_, opts);
    std::vector<FaultPlan> plans;
    plans.reserve(kStreams);
    std::vector<std::uint32_t> tags;
    for (int i = 0; i < kStreams; ++i) {
      FaultPlan* f = nullptr;
      if (mixed_faults && faulted(i)) {
        plans.push_back(faults(i));
        f = &plans.back();
      }
      tags.push_back(ax.submit(inputs(i, opts.stride), f));
    }
    ax.drain();
    if (mixed_faults) {
      // The scenario really carries every fault kind it claims to.
      const FaultStats& transient = ax.fault_stats(tags[1]);
      EXPECT_GT(transient.dropped, 0u);
      EXPECT_GT(transient.duplicated, 0u);
      EXPECT_GT(transient.delayed, 0u);
      EXPECT_EQ(ax.fault_stats(tags[2]).crashes, 1u);
      EXPECT_EQ(ax.fault_stats(tags[4]).crashes, 1u);
      EXPECT_GT(ax.fault_stats(tags[5]).delayed, 0u);
      EXPECT_TRUE(ax.take_result(tags[2])[5].empty());
      EXPECT_TRUE(ax.take_result(tags[4])[9].empty());
    }
    Figures out;
    out.makespan = ax.makespan_seconds();
    out.latencies = ax.completion_latencies();
    out.max_tx = ax.max_tx_busy_seconds();
    out.max_rx = ax.max_rx_busy_seconds();
    out.max_cpu = ax.max_cpu_busy_seconds();
    out.pace = ax.admission_pace_seconds();
    return out;
  }

  const Topology topo_{{3, 2, 2}};
  const NetworkModel net_;
  const ComputeModel compute_;
  testing::Workload<float> w_;
  std::shared_ptr<const CollectivePlan> plan_;
};

TEST_F(AsyncScheduleGolden, StreamedStridedWindow1) {
  expect_figures(run(1, false),
                 Figures{0x1.f82a40edc7474p-5,
                         {0x1.501c2b492f859p-7,
                          0x1.501c2b492f853p-7,
                          0x1.501c2b492f84cp-7,
                          0x1.501c2b492f848p-7,
                          0x1.501c2b492f848p-7,
                          0x1.501c2b492f848p-7},
                         0x1.4706cdf0257b4p-5,
                         0x1.493590f701d68p-16,
                         0x1.bafc51051172cp-16,
                         0x1.1366515233fdbp-9});
}

TEST_F(AsyncScheduleGolden, StreamedStridedWindow4) {
  expect_figures(run(4, false),
                 Figures{0x1.61af8e835fae1p-5,
                         {0x1.4e70da536033ap-6,
                          0x1.6cc0272e9c1adp-6,
                          0x1.a139132af526cp-6,
                          0x1.cfede9c653baap-6,
                          0x1.448f810c29528p-6,
                          0x1.34322baddcc1ap-6},
                         0x1.4706cdf0257b4p-5,
                         0x1.493590f701d69p-16,
                         0x1.bafc51051172ep-16,
                         0x1.1366515233fdbp-9});
}

TEST_F(AsyncScheduleGolden, StreamedStridedWindow8) {
  expect_figures(run(8, false),
                 Figures{0x1.5634b6bf39fe9p-5,
                         {0x1.c6eaf22516a77p-6,
                          0x1.00251d8a9939fp-5,
                          0x1.0025057d555b5p-5,
                          0x1.0024ed70117cap-5,
                          0x1.0024d562cd9dfp-5,
                          0x1.0024bd5589bf4p-5},
                         0x1.4706cdf0257b3p-5,
                         0x1.493590f701d69p-16,
                         0x1.bafc51051172cp-16,
                         0x1.1366515233fdbp-9});
}

TEST_F(AsyncScheduleGolden, MixedFaultsWindow1) {
  expect_figures(run(1, true),
                 Figures{0x1.4637b010d33e3p-5,
                         {0x1.a3abcdd2aca89p-8,
                          0x1.d188e70412377p-8,
                          0x1.a3a6cac5e69dcp-8,
                          0x1.a3abcdd2aca88p-8,
                          0x1.e88010a60a094p-8,
                          0x1.8cb622713dc2p-8},
                         0x1.2a5903a22d036p-6,
                         0x1.31e8b73759f69p-17,
                         0x1.c4283b60562ecp-17,
                         0x1.6f48fe9aa6ea2p-11});
}

TEST_F(AsyncScheduleGolden, MixedFaultsWindow4) {
  expect_figures(run(4, true),
                 Figures{0x1.6d8ffaa8f29cap-6,
                         {0x1.6a48b61213a4ep-7,
                          0x1.b7547b99d207cp-7,
                          0x1.af1c92ad10941p-7,
                          0x1.08bbfa7a569eap-6,
                          0x1.500b99258d066p-7,
                          0x1.0cd6e9ce68c2ep-7},
                         0x1.2a5903a22d037p-6,
                         0x1.31e8b73759f67p-17,
                         0x1.c4283b60562edp-17,
                         0x1.6f48fe9aa6ea2p-11});
}

TEST_F(AsyncScheduleGolden, MixedFaultsWindow8) {
  expect_figures(run(8, true),
                 Figures{0x1.528661f573591p-6,
                         {0x1.f0b47559285fp-7,
                          0x1.0b354eea94762p-6,
                          0x1.26428b56ccac8p-6,
                          0x1.1ee09f010d2d4p-6,
                          0x1.15056298e6106p-6,
                          0x1.249d42221e7bdp-6},
                         0x1.2a5903a22d036p-6,
                         0x1.31e8b73759f69p-17,
                         0x1.c4283b60562ecp-17,
                         0x1.6f48fe9aa6ea2p-11});
}

}  // namespace
}  // namespace kylix
