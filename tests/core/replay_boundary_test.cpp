// The replay boundary: where a reduce's per-rank work enters and leaves the
// rounds. ReduceExecutor adopts each caller's contribution vector (no copy)
// and runs the bottom gather inside the consume callback of the last down
// round, on the rank's own engine worker; only replays without a down round
// (zero-layer topologies, the allgather-only tail of reduce_with_config())
// gather on the driving thread. This suite pins both placements:
//
//   * Crash ordering. A rank crashed by a FaultPlan at the first allgather
//     round (kReduceUp, l) has already gathered its bottom: the crash fires
//     at that round's start, after the last down consume. Every engine and
//     the AsyncExecutor must agree bit for bit on the results and on the
//     DegradedReport, and ParallelBspEngine's modeled times (gather charges
//     included) must equal BspEngine's. Whichever rank dies, the
//     scatter-reduce is priced exactly as in a clean run.
//   * Edge topologies. Zero-layer (one machine, degrees {}) and one-layer
//     topologies have no down round before the gather, or exactly one; both
//     must match the dense oracle on every engine through reduce(),
//     reduce_strided() and reduce_with_config().
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "cluster/fault_plan.hpp"
#include "cluster/netmodel.hpp"
#include "cluster/timing.hpp"
#include "comm/bsp.hpp"
#include "comm/fault_channel.hpp"
#include "comm/parallel.hpp"
#include "comm/replicated.hpp"
#include "comm/threaded.hpp"
#include "core/allreduce.hpp"
#include "core/async_executor.hpp"
#include "test_util.hpp"

namespace kylix {
namespace {

using testing::random_workload;
using testing::Workload;

void expect_same_report(const DegradedReport& a, const DegradedReport& b) {
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.lost_logical, b.lost_logical);
  EXPECT_EQ(a.lost_from_start, b.lost_from_start);
  EXPECT_EQ(a.inputs_lost, b.inputs_lost);
  ASSERT_EQ(a.degraded_ranges.size(), b.degraded_ranges.size());
  for (std::size_t i = 0; i < a.degraded_ranges.size(); ++i) {
    EXPECT_EQ(a.degraded_ranges[i].lo, b.degraded_ranges[i].lo);
    EXPECT_EQ(a.degraded_ranges[i].hi, b.degraded_ranges[i].hi);
  }
  EXPECT_EQ(a.lost_keys, b.lost_keys);
  EXPECT_EQ(a.lost_keys_per_rank, b.lost_keys_per_rank);
  EXPECT_EQ(a.mass_lost_fraction, b.mass_lost_fraction);
  ASSERT_EQ(a.deaths.size(), b.deaths.size());
  for (std::size_t i = 0; i < a.deaths.size(); ++i) {
    EXPECT_EQ(a.deaths[i].phase, b.deaths[i].phase);
    EXPECT_EQ(a.deaths[i].layer, b.deaths[i].layer);
    EXPECT_EQ(a.deaths[i].logical, b.deaths[i].logical);
  }
}

// ---- crash ordering ---------------------------------------------------------

struct CrashRun {
  std::vector<std::vector<float>> results;
  DegradedReport report;
};

class CrashAtFirstUpRoundTest
    : public ::testing::TestWithParam<std::vector<std::uint32_t>> {
 protected:
  void SetUp() override {
    topo_.emplace(GetParam());
    m_ = topo_->num_machines();
    l_ = topo_->num_layers();
    victim_ = m_ / 2 + 1;
    w_ = random_workload<float>(m_, 600, 0.15, 0.3, 700 + m_);
    BspEngine<float> engine(m_);
    SparseAllreduce<float, OpSum, BspEngine<float>> compiler(&engine, *topo_);
    plan_ = compiler.compile(w_.in_sets, w_.out_sets);
  }

  /// The victim dies as round (kReduceUp, l) begins; `replicas` > 1 kills
  /// every replica of it, so its whole group is lost.
  [[nodiscard]] FaultPlan faults(std::uint32_t replicas = 1) const {
    return faults_for(victim_, replicas);
  }
  [[nodiscard]] FaultPlan faults_for(rank_t victim,
                                     std::uint32_t replicas = 1) const {
    FaultPlan plan(m_ * replicas, 5);
    for (std::uint32_t i = 0; i < replicas; ++i) {
      plan.crash_at(victim + i * m_, Phase::kReduceUp, l_);
    }
    return plan;
  }

  /// Adopt the plan on `engine` (fault channel attached) and reduce once.
  template <typename Engine>
  CrashRun run(Engine& engine, FaultPlan& plan,
               const ComputeModel* compute = nullptr) {
    FaultChannel<float> channel(&plan);
    engine.set_fault_channel(&channel);
    SparseAllreduce<float, OpSum, Engine> ar(&engine, *topo_, compute);
    ar.configure(plan_);
    CrashRun out;
    out.results = ar.reduce(w_.out_values);
    out.report = ar.degraded_report();
    engine.set_fault_channel(nullptr);  // the channel dies with this scope
    return out;
  }

  std::optional<Topology> topo_;
  rank_t m_ = 0;
  std::uint16_t l_ = 0;
  rank_t victim_ = 0;
  Workload<float> w_;
  std::shared_ptr<const CollectivePlan> plan_;
};

TEST_P(CrashAtFirstUpRoundTest, EveryEngineAndAsyncAgreeBitForBit) {
  FaultPlan bsp_faults = faults();
  BspEngine<float> bsp(m_);
  const CrashRun want = run(bsp, bsp_faults);
  EXPECT_TRUE(bsp.is_dead(victim_));
  ASSERT_EQ(want.results.size(), m_);
  EXPECT_TRUE(want.results[victim_].empty());
  // The crash cut the victim's allgather pieces out of its layer-l group
  // only: every survivor still has a result of its requested length.
  for (rank_t r = 0; r < m_; ++r) {
    if (r != victim_) {
      EXPECT_EQ(want.results[r].size(), w_.in_sets[r].size()) << "rank " << r;
    }
  }

  const auto expect_same = [&](const CrashRun& got) {
    EXPECT_EQ(got.results, want.results);
    expect_same_report(got.report, want.report);
  };
  {
    SCOPED_TRACE("ParallelBspEngine");
    FaultPlan f = faults();
    ParallelBspEngine<float> engine(m_, 4);
    expect_same(run(engine, f));
  }
  {
    SCOPED_TRACE("ThreadedBsp");
    FaultPlan f = faults();
    ThreadedBsp<float> engine(m_);
    expect_same(run(engine, f));
  }
  {
    SCOPED_TRACE("AsyncExecutor");
    FaultPlan f = faults();
    AsyncExecutor<float> ax;
    ax.bind(plan_, AsyncExecutor<float>::Options{});
    const std::uint32_t tag = ax.submit(w_.out_values, &f);
    ax.drain();
    expect_same({ax.take_result(tag), ax.degraded_report(tag)});
  }

  // ReplicatedBsp reports the lost group (the plain engines have no
  // recovery layer to report with). A group of one replica dying, or a
  // group of two losing both, must tell the same story over the same
  // results.
  FaultPlan single_faults = faults(1);
  ReplicatedBsp<float> single(m_, 1);
  const CrashRun replicated = run(single, single_faults);
  EXPECT_EQ(replicated.results, want.results);
  EXPECT_TRUE(replicated.report.degraded);
  EXPECT_EQ(replicated.report.lost_logical, std::vector<rank_t>{victim_});
  EXPECT_TRUE(replicated.report.inputs_lost.empty())
      << "the victim's contribution entered the sums before it died";
  for (const DeathRecord& d : replicated.report.deaths) {
    EXPECT_EQ(d.phase, Phase::kReduceUp);
    EXPECT_EQ(d.logical, victim_);
  }
  {
    SCOPED_TRACE("ReplicatedBsp x2");
    FaultPlan f = faults(2);
    ReplicatedBsp<float> engine(m_, 2);
    const CrashRun got = run(engine, f);
    EXPECT_EQ(got.results, want.results);
    expect_same_report(got.report, replicated.report);
  }
}

TEST_P(CrashAtFirstUpRoundTest, ParallelModeledTimesMatchSequential) {
  const NetworkModel net = NetworkModel::ec2_like();
  const ComputeModel compute;
  TimingAccumulator seq_timing(m_, net, compute, 16);
  TimingAccumulator par_timing(m_, net, compute, 16);

  FaultPlan seq_faults = faults();
  BspEngine<float> seq(m_, nullptr, nullptr, &seq_timing);
  const CrashRun a = run(seq, seq_faults, &compute);
  FaultPlan par_faults = faults();
  ParallelBspEngine<float> par(m_, 4, nullptr, nullptr, &par_timing);
  const CrashRun b = run(par, par_faults, &compute);
  EXPECT_EQ(a.results, b.results);

  const TimingAccumulator::PhaseTimes x = seq_timing.times();
  const TimingAccumulator::PhaseTimes y = par_timing.times();
  EXPECT_GT(x.reduce_down, 0.0);
  EXPECT_EQ(x.reduce_down, y.reduce_down);
  EXPECT_EQ(x.reduce_up, y.reduce_up);
  const auto xr = seq_timing.per_round_times();
  const auto yr = par_timing.per_round_times();
  ASSERT_EQ(xr.size(), yr.size());
  for (std::size_t i = 0; i < xr.size(); ++i) {
    EXPECT_EQ(xr[i].phase, yr[i].phase);
    EXPECT_EQ(xr[i].layer, yr[i].layer);
    EXPECT_EQ(xr[i].seconds, yr[i].seconds) << "round " << i;
  }
}

// The crash fires after every down-phase charge, the victim's bottom gather
// included, so whichever rank dies the scatter-reduce is priced exactly as
// in a clean run. A slow modeled gather makes every rank's gather weigh in
// the round maximum, so a gather skipped (or charged after the crash) on
// the critical rank would show.
TEST_P(CrashAtFirstUpRoundTest, VictimsBottomGatherIsChargedBeforeItDies) {
  const NetworkModel net = NetworkModel::ec2_like();
  ComputeModel compute;
  compute.gather_rate = 1e4;
  const auto reduce_down = [&](FaultPlan plan, std::optional<rank_t> victim) {
    TimingAccumulator timing(m_, net, compute, 16);
    BspEngine<float> engine(m_, nullptr, nullptr, &timing);
    (void)run(engine, plan, &compute);
    if (victim) {
      EXPECT_TRUE(engine.is_dead(*victim));
    }
    return timing.times().reduce_down;
  };
  const double clean = reduce_down(FaultPlan(m_, 5), std::nullopt);
  for (rank_t victim = 0; victim < m_; ++victim) {
    EXPECT_EQ(reduce_down(faults_for(victim), victim), clean)
        << "victim " << victim;
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, CrashAtFirstUpRoundTest,
                         ::testing::Values(std::vector<std::uint32_t>{4, 2},
                                           std::vector<std::uint32_t>{2, 2, 2},
                                           std::vector<std::uint32_t>{8}));

// ---- edge topologies --------------------------------------------------------

/// One engine of each kind, constructed the same way for every case.
template <typename Engine>
std::unique_ptr<Engine> make_engine(rank_t m);
template <>
std::unique_ptr<BspEngine<float>> make_engine(rank_t m) {
  return std::make_unique<BspEngine<float>>(m);
}
template <>
std::unique_ptr<ParallelBspEngine<float>> make_engine(rank_t m) {
  return std::make_unique<ParallelBspEngine<float>>(m, 3);
}
template <>
std::unique_ptr<ThreadedBsp<float>> make_engine(rank_t m) {
  return std::make_unique<ThreadedBsp<float>>(m);
}
template <>
std::unique_ptr<ReplicatedBsp<float>> make_engine(rank_t m) {
  return std::make_unique<ReplicatedBsp<float>>(m, 2);
}

template <typename Engine>
class EdgeTopologyTest : public ::testing::Test {
 protected:
  /// reduce() warm and cold, reduce_strided() and reduce_with_config(),
  /// each checked against the dense oracle.
  void check(const Topology& topo, std::uint64_t seed) {
    const rank_t m = topo.num_machines();
    const auto w = random_workload<float>(m, 300, 0.2, 0.4, seed);
    auto engine = make_engine<Engine>(m);
    SparseAllreduce<float, OpSum, Engine> ar(engine.get(), topo);
    ar.configure(w.in_sets, w.out_sets);
    for (int iter = 0; iter < 3; ++iter) {
      SCOPED_TRACE("reduce() iteration " + std::to_string(iter));
      testing::expect_matches_oracle<float>(w, ar.reduce(w.out_values));
    }

    // Component c of key p carries value + c, so each component must equal
    // the oracle of the correspondingly shifted workload.
    constexpr std::uint32_t kStride = 3;
    std::vector<std::vector<float>> interleaved(m);
    for (rank_t r = 0; r < m; ++r) {
      for (const float v : w.out_values[r]) {
        for (std::uint32_t c = 0; c < kStride; ++c) {
          interleaved[r].push_back(v + static_cast<float>(c));
        }
      }
    }
    const auto strided = ar.reduce_strided(std::move(interleaved), kStride);
    ASSERT_EQ(strided.size(), m);
    for (std::uint32_t c = 0; c < kStride; ++c) {
      SCOPED_TRACE("reduce_strided() component " + std::to_string(c));
      Workload<float> shifted = w;
      std::vector<std::vector<float>> component(m);
      for (rank_t r = 0; r < m; ++r) {
        for (float& v : shifted.out_values[r]) v += static_cast<float>(c);
        for (std::size_t p = c; p < strided[r].size(); p += kStride) {
          component[r].push_back(strided[r][p]);
        }
      }
      testing::expect_matches_oracle<float>(shifted, component);
    }

    auto combined_engine = make_engine<Engine>(m);
    SparseAllreduce<float, OpSum, Engine> combined(combined_engine.get(),
                                                   topo);
    for (int step = 0; step < 2; ++step) {
      SCOPED_TRACE("reduce_with_config() step " + std::to_string(step));
      testing::expect_matches_oracle<float>(
          w, combined.reduce_with_config(w.in_sets, w.out_sets, w.out_values));
    }
  }
};

using Engines = ::testing::Types<BspEngine<float>, ParallelBspEngine<float>,
                                 ThreadedBsp<float>, ReplicatedBsp<float>>;

struct EngineNames {
  template <typename Engine>
  static std::string GetName(int) {
    if constexpr (std::is_same_v<Engine, BspEngine<float>>) return "Bsp";
    if constexpr (std::is_same_v<Engine, ParallelBspEngine<float>>) {
      return "ParallelBsp";
    }
    if constexpr (std::is_same_v<Engine, ThreadedBsp<float>>) {
      return "ThreadedBsp";
    }
    return "ReplicatedBsp";
  }
};

TYPED_TEST_SUITE(EdgeTopologyTest, Engines, EngineNames);

// No down round exists to carry the bottom gather: it runs on the driving
// thread, for reduce(), reduce_strided() and reduce_with_config() alike.
TYPED_TEST(EdgeTopologyTest, ZeroLayerSingleMachineMatchesOracle) {
  this->check(Topology({}), 11);
}

// Exactly one down round carries the gather, for a direct exchange and for
// a degree-1 layer whose only letter is a self-letter.
TYPED_TEST(EdgeTopologyTest, OneLayerMatchesOracle) {
  {
    SCOPED_TRACE("degrees {4}");
    this->check(Topology({4}), 12);
  }
  {
    SCOPED_TRACE("degrees {1}");
    this->check(Topology({1}), 13);
  }
}

}  // namespace
}  // namespace kylix
