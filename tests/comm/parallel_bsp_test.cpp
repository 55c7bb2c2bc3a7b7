// ThreadPool behavior and ParallelBspEngine round-level parity across
// thread counts (BspEngine is the one-thread form): same delivered state,
// same trace event sequence, same modeled timing — with failures and
// compute charges in play.
#include "comm/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "comm/bsp.hpp"
#include "common/thread_pool.hpp"
#include "synthetic_rounds.hpp"

namespace kylix {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ReusableAcrossManyBatches) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> total{0};
  for (int batch = 0; batch < 200; ++batch) {
    pool.parallel_for(17, [&](std::size_t i) {
      total.fetch_add(i + 1, std::memory_order_relaxed);
    });
  }
  // 200 batches of sum 1..17 = 153 each.
  EXPECT_EQ(total.load(), 200u * 153u);
}

TEST(ThreadPool, RethrowsWorkerException) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](std::size_t i) {
                                   ran.fetch_add(1);
                                   if (i == 7) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // Remaining indices still ran to completion.
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::vector<int> order;
  pool.parallel_for(5, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ZeroItemsIsANoOp) {
  ThreadPool pool(4);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "should not run"; });
}

// ---------------------------------------------------------------------------
// Engine parity over the synthetic rounds of synthetic_rounds.hpp: four
// threads against BspEngine, which is the same engine at one thread.

using Engine = BspEngine<float>;
using Parallel = ParallelBspEngine<float>;
using testing::run_synthetic_rounds;

bool same_event(const MsgEvent& a, const MsgEvent& b) {
  return a.phase == b.phase && a.layer == b.layer && a.src == b.src &&
         a.dst == b.dst && a.bytes == b.bytes;
}

void expect_same_trace(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_TRUE(same_event(a.events()[i], b.events()[i])) << "event " << i;
  }
}

TEST(ParallelBspEngine, MatchesBspStateTraceAndTimingExactly) {
  const rank_t m = 12;
  const NetworkModel net = NetworkModel::ec2_like();
  const ComputeModel compute;

  Trace seq_trace, par_trace;
  TimingAccumulator seq_timing(m, net, compute, 16);
  TimingAccumulator par_timing(m, net, compute, 16);

  Engine seq(m, nullptr, &seq_trace, &seq_timing);
  Parallel par(m, 4, nullptr, &par_trace, &par_timing);

  const auto seq_state = run_synthetic_rounds(seq, m);
  const auto par_state = run_synthetic_rounds(par, m);

  EXPECT_EQ(seq_state, par_state);
  expect_same_trace(seq_trace, par_trace);
  EXPECT_EQ(seq_timing.times().total(), par_timing.times().total());
  for (std::uint16_t layer = 1; layer <= 3; ++layer) {
    EXPECT_EQ(seq_timing.round_time(Phase::kReduceDown, layer),
              par_timing.round_time(Phase::kReduceDown, layer))
        << "layer " << layer;
  }
}

TEST(ParallelBspEngine, MatchesBspUnderFailures) {
  const rank_t m = 12;
  FailureModel failures(m);
  failures.kill(2);
  failures.kill(9);

  Trace seq_trace, par_trace;
  Engine seq(m, &failures, &seq_trace, nullptr);
  Parallel par(m, 4, &failures, &par_trace, nullptr);

  const auto seq_state = run_synthetic_rounds(seq, m);
  const auto par_state = run_synthetic_rounds(par, m);

  EXPECT_EQ(seq_state, par_state);
  expect_same_trace(seq_trace, par_trace);
  EXPECT_TRUE(par.is_dead(2));
  EXPECT_FALSE(par.is_dead(3));
}

}  // namespace
}  // namespace kylix
