#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <tuple>

#include "common/check.hpp"

#include "cluster/fault_plan.hpp"
#include "comm/bsp.hpp"
#include "comm/fault_channel.hpp"
#include "comm/threaded.hpp"
#include "core/allreduce.hpp"
#include "obs/engine_obs.hpp"
#include "synthetic_rounds.hpp"
#include "test_util.hpp"

namespace kylix {
namespace {

using testing::random_workload;

class ThreadedScheduleTest
    : public ::testing::TestWithParam<std::vector<std::uint32_t>> {};

TEST_P(ThreadedScheduleTest, MatchesTheSequentialEngineBitForBit) {
  const Topology topo(GetParam());
  const rank_t m = topo.num_machines();
  const auto w = random_workload<float>(m, 150, 0.2, 0.4, 500 + m);

  std::vector<std::vector<float>> sequential;
  {
    BspEngine<float> engine(m);
    SparseAllreduce<float, OpSum, BspEngine<float>> allreduce(&engine, topo);
    allreduce.configure(w.in_sets, w.out_sets);
    sequential = allreduce.reduce(w.out_values);
  }
  std::vector<std::vector<float>> threaded;
  {
    ThreadedBsp<float> engine(m);
    SparseAllreduce<float, OpSum, ThreadedBsp<float>> allreduce(&engine,
                                                                topo);
    allreduce.configure(w.in_sets, w.out_sets);
    threaded = allreduce.reduce(w.out_values);
  }
  EXPECT_EQ(threaded, sequential);
  testing::expect_matches_oracle<float>(w, threaded);
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, ThreadedScheduleTest,
    ::testing::Values(std::vector<std::uint32_t>{},
                      std::vector<std::uint32_t>{4},
                      std::vector<std::uint32_t>{2, 2},
                      std::vector<std::uint32_t>{4, 2},
                      std::vector<std::uint32_t>{3, 3}));

TEST(ThreadedAllreduce, CombinedModeWorksConcurrently) {
  const Topology topo({4, 2});
  const rank_t m = topo.num_machines();
  const auto w = random_workload<float>(m, 100, 0.3, 0.4, 77);
  ThreadedBsp<float> engine(m);
  SparseAllreduce<float, OpSum, ThreadedBsp<float>> allreduce(&engine, topo);
  const auto results =
      allreduce.reduce_with_config(w.in_sets, w.out_sets, w.out_values);
  testing::expect_matches_oracle<float>(w, results);
}

TEST(ThreadedAllreduce, RepeatedReductionsStayCorrect) {
  const Topology topo({2, 2, 2});
  const rank_t m = topo.num_machines();
  auto w = random_workload<float>(m, 120, 0.25, 0.4, 88);
  ThreadedBsp<float> engine(m);
  SparseAllreduce<float, OpSum, ThreadedBsp<float>> allreduce(&engine, topo);
  allreduce.configure(w.in_sets, w.out_sets);
  for (int round = 0; round < 5; ++round) {
    testing::expect_matches_oracle<float>(w, allreduce.reduce(w.out_values));
  }
}

TEST(ThreadedBspEngine, RecordsTraceLikeSequential) {
  const Topology topo({2, 2});
  const auto w = random_workload<float>(4, 60, 0.3, 0.5, 99);

  Trace seq_trace;
  {
    BspEngine<float> engine(4, nullptr, &seq_trace);
    SparseAllreduce<float, OpSum, BspEngine<float>> ar(&engine, topo);
    ar.configure(w.in_sets, w.out_sets);
    (void)ar.reduce(w.out_values);
  }
  Trace thr_trace;
  {
    ThreadedBsp<float> engine(4, nullptr, &thr_trace);
    SparseAllreduce<float, OpSum, ThreadedBsp<float>> ar(&engine, topo);
    ar.configure(w.in_sets, w.out_sets);
    (void)ar.reduce(w.out_values);
  }
  EXPECT_EQ(thr_trace.num_messages(), seq_trace.num_messages());
  EXPECT_EQ(thr_trace.total_bytes(), seq_trace.total_bytes());
  EXPECT_EQ(thr_trace.bytes_by_layer_all_phases(2),
            seq_trace.bytes_by_layer_all_phases(2));
}

TEST(ThreadedBspEngine, DeadNodesAreSkipped) {
  FailureModel failures(4);
  failures.kill(3);
  ThreadedBsp<float> engine(4, &failures);
  std::vector<int> received(4, 0);
  engine.round(
      Phase::kConfig, 1,
      [&](rank_t r) {
        std::vector<Letter<float>> letters;
        for (rank_t dst = 0; dst < 4; ++dst) {
          Letter<float> letter;
          letter.src = r;
          letter.dst = dst;
          letters.push_back(std::move(letter));
        }
        return letters;
      },
      [&](rank_t) {
        return std::vector<rank_t>{0, 1, 2, 3};
      },
      [&](rank_t r, std::vector<Letter<float>>&& inbox) {
        received[r] = static_cast<int>(inbox.size());
      });
  EXPECT_EQ(received, (std::vector<int>{3, 3, 3, 0}));
}

TEST(ThreadedBspEngine, WorkerExceptionsPropagate) {
  ThreadedBsp<float> engine(2);
  EXPECT_THROW(
      engine.round(
          Phase::kConfig, 1,
          [&](rank_t r) -> std::vector<Letter<float>> {
            if (r == 1) throw check_error("boom");
            return {};
          },
          [&](rank_t) { return std::vector<rank_t>{}; },
          [&](rank_t, std::vector<Letter<float>>&&) {}),
      check_error);
  // The engine stays usable after a worker error.
  engine.round(
      Phase::kConfig, 2, [&](rank_t) { return std::vector<Letter<float>>{}; },
      [&](rank_t) { return std::vector<rank_t>{}; },
      [&](rank_t, std::vector<Letter<float>>&&) {});
}


TEST(ThreadedBspEngine, FailedRoundLeavesNoStaleLetters) {
  // Rank 0 sends rank 1 the layer number; in layer 1 rank 1 throws before
  // taking it. Layer 2 must deliver layer 2's letter, not layer 1's.
  ThreadedBsp<float> engine(2);
  auto run = [&](std::uint16_t layer, bool fail) {
    float received = -1;
    engine.round(
        Phase::kConfig, layer,
        [&](rank_t r) -> std::vector<Letter<float>> {
          if (r == 1 && fail) throw check_error("boom");
          std::vector<Letter<float>> out;
          if (r == 0) {
            Letter<float> letter;
            letter.src = 0;
            letter.dst = 1;
            letter.packet.values.push_back(static_cast<float>(layer));
            out.push_back(std::move(letter));
          }
          return out;
        },
        [&](rank_t r) {
          return r == 1 ? std::vector<rank_t>{0} : std::vector<rank_t>{};
        },
        [&](rank_t r, std::vector<Letter<float>>&& inbox) {
          if (r == 1) received = inbox.at(0).packet.values.at(0);
        });
    return received;
  };
  EXPECT_THROW(run(1, true), check_error);
  EXPECT_EQ(run(2, false), 2.0f);
}

// ---------------------------------------------------------------------------
// Wire-accounting parity with the sequential engine under faults whose
// placement does not depend on scheduling: dead ranks, a duplicate on every
// copy, and per-edge scripted rules (an edge's letters all come from one
// sender, one per round, so its rules are consumed in the same order under
// any interleaving). Trace events are compared as a sorted multiset — their
// order is the scheduler's.

struct WireRun {
  std::vector<float> state;
  std::vector<MsgEvent> events;  ///< sorted
  std::uint64_t dropped = 0;
  std::uint64_t observed_drops = 0;
  std::uint64_t observed_faults = 0;
  std::uint64_t redelivered = 0;
  std::uint64_t stale = 0;
  FaultStats plan_stats;
};

auto event_key(const MsgEvent& e) {
  return std::tie(e.phase, e.layer, e.src, e.dst, e.bytes);
}

/// Run the synthetic rounds on a fresh engine; `script` (copied, so each
/// engine consumes its own plan) attaches a fault channel when non-null.
template <typename E>
WireRun run_wire(rank_t m, const FailureModel* failures,
                 const FaultPlan* script, int passes) {
  Trace trace;
  obs::TelemetryObserver observer(nullptr, m);
  E engine(m, failures, &trace);
  engine.set_observer(&observer);
  std::optional<FaultPlan> plan;
  std::optional<FaultChannel<float>> channel;
  if (script != nullptr) {
    plan.emplace(*script);
    channel.emplace(&*plan);
    engine.set_fault_channel(&*channel);
  }
  WireRun run;
  run.state = testing::run_synthetic_rounds(engine, m, passes);
  run.events = trace.events();
  std::sort(run.events.begin(), run.events.end(),
            [](const MsgEvent& a, const MsgEvent& b) {
              return event_key(a) < event_key(b);
            });
  run.dropped = engine.dropped_messages();
  run.observed_drops = observer.total_drops();
  run.observed_faults = observer.total_faults();
  if (channel) {
    run.redelivered = channel->redelivered();
    run.stale = channel->stale();
    run.plan_stats = plan->stats();
  }
  return run;
}

void expect_same_wire(const WireRun& threaded, const WireRun& sequential) {
  EXPECT_EQ(threaded.state, sequential.state);
  ASSERT_EQ(threaded.events.size(), sequential.events.size());
  for (std::size_t i = 0; i < threaded.events.size(); ++i) {
    EXPECT_TRUE(event_key(threaded.events[i]) ==
                event_key(sequential.events[i]))
        << "sorted event " << i;
  }
  EXPECT_EQ(threaded.dropped, sequential.dropped);
  EXPECT_EQ(threaded.observed_drops, sequential.observed_drops);
  EXPECT_EQ(threaded.observed_faults, sequential.observed_faults);
  EXPECT_EQ(threaded.redelivered, sequential.redelivered);
  EXPECT_EQ(threaded.stale, sequential.stale);
  EXPECT_EQ(threaded.plan_stats.dropped, sequential.plan_stats.dropped);
  EXPECT_EQ(threaded.plan_stats.duplicated,
            sequential.plan_stats.duplicated);
  EXPECT_EQ(threaded.plan_stats.delayed, sequential.plan_stats.delayed);
}

constexpr rank_t kWireRanks = 12;

TEST(ThreadedBspEngine, WireAccountingMatchesSequentialWithDeadRanks) {
  FailureModel failures(kWireRanks);
  failures.kill(2);
  failures.kill(9);
  const WireRun sequential =
      run_wire<BspEngine<float>>(kWireRanks, &failures, nullptr, 1);
  const WireRun threaded =
      run_wire<ThreadedBsp<float>>(kWireRanks, &failures, nullptr, 1);
  expect_same_wire(threaded, sequential);
  // Ranks 1, 11 (-> 2) and 6, 8 (-> 9) send to the dead, every layer.
  EXPECT_EQ(sequential.dropped, 12u);
  EXPECT_EQ(sequential.observed_drops, sequential.dropped);
}

TEST(ThreadedBspEngine, WireAccountingMatchesSequentialUnderDuplicates) {
  FaultPlan script(kWireRanks, 7);
  FaultPlan::TransientRates rates;
  rates.duplicate = 1.0;
  script.set_transient_rates(rates);
  const WireRun sequential =
      run_wire<BspEngine<float>>(kWireRanks, nullptr, &script, 1);
  const WireRun threaded =
      run_wire<ThreadedBsp<float>>(kWireRanks, nullptr, &script, 1);
  expect_same_wire(threaded, sequential);
  // Every copy of 3 layers x 12 ranks x 2 letters is charged twice.
  EXPECT_EQ(sequential.plan_stats.duplicated, 72u);
  EXPECT_EQ(sequential.events.size(), 144u);
}

TEST(ThreadedBspEngine, WireAccountingMatchesSequentialUnderEdgeRules) {
  FaultPlan script(kWireRanks, 11);
  using Rule = FaultPlan::EdgeRule;
  // Edge 0->1 carries one letter per round (pass 0 layers 1-3, then pass
  // 1): the pass-0 layer-1 letter is delayed, and its pass-1 successor is
  // dropped, so the delayed copy is redelivered rather than superseded.
  script.add_edge_rule(Rule{0, 1, FaultAction::kDelay, 1, 1});
  script.add_edge_rule(Rule{0, 1, FaultAction::kDeliver, 1, 2});
  script.add_edge_rule(Rule{0, 1, FaultAction::kDrop, 1, 1});
  // Edge 2->3: the delayed copy meets a fresh letter and goes stale.
  script.add_edge_rule(Rule{2, 3, FaultAction::kDelay, 1, 1});
  script.add_edge_rule(Rule{4, 5, FaultAction::kDrop, 1, 2});
  script.add_edge_rule(Rule{6, 9, FaultAction::kDuplicate, 1, 1});
  const WireRun sequential =
      run_wire<BspEngine<float>>(kWireRanks, nullptr, &script, 2);
  const WireRun threaded =
      run_wire<ThreadedBsp<float>>(kWireRanks, nullptr, &script, 2);
  expect_same_wire(threaded, sequential);
  EXPECT_EQ(sequential.redelivered, 1u);
  EXPECT_EQ(sequential.stale, 1u);
  EXPECT_EQ(sequential.plan_stats.dropped, 3u);
  EXPECT_EQ(sequential.plan_stats.delayed, 2u);
  EXPECT_EQ(sequential.plan_stats.duplicated, 1u);
}

}  // namespace
}  // namespace kylix
