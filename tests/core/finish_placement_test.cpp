// Where a rank's configuration ends. Every alive union-holding node runs its
// bottom-map sweep (KylixNode::finish_configure) on the engine worker that
// consumed its last config round; the driving thread only decides, per rank,
// whether an unresolved requested key is an error or a degraded identity.
// These tests pin what that placement must not change:
//
//   * a requested index no machine contributed raises the same check_error
//     text through compile() and reduce_with_config() on every non-chaos
//     engine, and the allreduce stays usable afterwards;
//   * degraded completion yields the same bottom_map, missing_bottom and
//     DegradedReport as the driving-thread sweep did (golden digests
//     recorded from it), including a group death in the last config round.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "cluster/fault_plan.hpp"
#include "comm/bsp.hpp"
#include "comm/fault_channel.hpp"
#include "comm/parallel.hpp"
#include "comm/replicated.hpp"
#include "comm/threaded.hpp"
#include "core/allreduce.hpp"
#include "test_util.hpp"

namespace kylix {
namespace {

using testing::random_workload;
using testing::Workload;

// ---- Unresolvable requested index: the error and recovery from it ----

/// ParallelBspEngine runs four workers so the finish is really spread.
template <typename Engine>
Engine make_engine(rank_t m) {
  if constexpr (std::is_same_v<Engine, ParallelBspEngine<float>>) {
    return Engine(m, 4);
  } else {
    return Engine(m);
  }
}

template <typename Engine>
class MissingIndexTest : public ::testing::Test {};

using Engines = ::testing::Types<BspEngine<float>, ParallelBspEngine<float>,
                                 ThreadedBsp<float>>;
TYPED_TEST_SUITE(MissingIndexTest, Engines);

/// A clean workload plus a copy whose requests name indices nobody
/// contributed: two at rank 1, one at rank 5.
struct MissingCase {
  Topology topo{{4, 2}};
  Workload<float> clean;
  std::vector<KeySet> bad_in;
  std::string expected_message;

  MissingCase() {
    const rank_t m = topo.num_machines();
    clean = random_workload<float>(m, 120, 0.3, 0.4, 77);
    bad_in = clean.in_sets;
    const std::vector<std::pair<rank_t, index_t>> extra = {
        {1, 100001}, {1, 100002}, {5, 100003}};
    for (const auto& [r, index] : extra) {
      std::vector<index_t> in = bad_in[r].to_indices();
      in.push_back(index);
      bad_in[r] = KeySet::from_indices(in);
    }
    // The error names the lowest missing key of the lowest rank whose
    // bottom range holds a missing key: the rank that owns it after the
    // last layer, not the rank that requested it.
    const std::uint16_t l = topo.num_layers();
    rank_t best_rank = std::numeric_limits<rank_t>::max();
    key_t best_key = 0;
    for (const auto& [r, index] : extra) {
      const key_t key = hash_index(index);
      for (rank_t owner = 0; owner < m; ++owner) {
        if (!topo.key_range(l, owner).contains(key)) continue;
        if (owner < best_rank || (owner == best_rank && key < best_key)) {
          best_rank = owner;
          best_key = key;
        }
      }
    }
    expected_message = "requested index " +
                       std::to_string(unhash_index(best_key)) +
                       " was contributed by no machine";
  }
};

template <typename Fn>
std::string thrown_message(Fn&& fn) {
  try {
    fn();
  } catch (const check_error& e) {
    return e.what();
  }
  return "<no check_error>";
}

TYPED_TEST(MissingIndexTest, CompileRaisesTheSameErrorAndRecovers) {
  using Engine = TypeParam;
  MissingCase c;
  Engine engine = make_engine<Engine>(c.topo.num_machines());
  SparseAllreduce<float, OpSum, Engine> allreduce(&engine, c.topo);
  const std::string message = thrown_message(
      [&] { (void)allreduce.compile(c.bad_in, c.clean.out_sets); });
  EXPECT_NE(message.find(c.expected_message), std::string::npos) << message;

  // The failed pass left nothing to replay, and the next compile works.
  EXPECT_THROW((void)allreduce.reduce(c.clean.out_values), check_error);
  (void)allreduce.compile(c.clean.in_sets, c.clean.out_sets);
  testing::expect_matches_oracle<float>(c.clean,
                                        allreduce.reduce(c.clean.out_values));
}

TYPED_TEST(MissingIndexTest, ReduceWithConfigRaisesTheSameErrorAndRecovers) {
  using Engine = TypeParam;
  MissingCase c;
  Engine engine = make_engine<Engine>(c.topo.num_machines());
  SparseAllreduce<float, OpSum, Engine> allreduce(&engine, c.topo);
  for (int step = 0; step < 2; ++step) {
    const std::string message = thrown_message([&] {
      (void)allreduce.reduce_with_config(c.bad_in, c.clean.out_sets,
                                         c.clean.out_values);
    });
    EXPECT_NE(message.find(c.expected_message), std::string::npos)
        << message;
    testing::expect_matches_oracle<float>(
        c.clean, allreduce.reduce_with_config(c.clean.in_sets,
                                              c.clean.out_sets,
                                              c.clean.out_values));
  }
}

// ---- Degraded completion: same plans and reports as before ----

/// Order-sensitive digest of everything degraded completion decides: every
/// rank's configured flag, bottom_map and missing_bottom, and every field
/// of the DegradedReport.
class Digest {
 public:
  void add(std::uint64_t v) {
    h_ = mix64(h_ ^ mix64(v + 0x9e3779b97f4a7c15ULL));
  }
  template <typename T>
  void add_all(const std::vector<T>& values) {
    add(values.size());
    for (const T& v : values) add(static_cast<std::uint64_t>(v));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0;
};

void add_plan(Digest& d, const CollectivePlan& plan) {
  for (rank_t r = 0; r < plan.num_ranks(); ++r) {
    const RankPlan& rp = plan.rank_plan(r);
    d.add(rp.configured ? 1 : 0);
    if (!rp.configured) continue;
    d.add_all(rp.bottom_map);
    d.add_all(rp.missing_bottom);
  }
}

void add_report(Digest& d, const DegradedReport& rep) {
  d.add(rep.degraded ? 1 : 0);
  d.add_all(rep.lost_logical);
  d.add_all(rep.lost_from_start);
  d.add_all(rep.inputs_lost);
  d.add(rep.degraded_ranges.size());
  for (const KeyRange& range : rep.degraded_ranges) {
    d.add(range.lo);
    d.add(range.hi);
  }
  d.add_all(rep.lost_keys);
  for (const auto& keys : rep.lost_keys_per_rank) d.add_all(keys);
  d.add(std::bit_cast<std::uint64_t>(rep.mass_lost_fraction));
  d.add(rep.deaths.size());
  for (const DeathRecord& death : rep.deaths) {
    d.add(static_cast<std::uint64_t>(death.phase));
    d.add(death.layer);
    d.add(death.logical);
  }
}

/// The sweep the plan must agree with, recomputed from the nodes' bottom
/// sets: each requested bottom key maps to its position among the bottom
/// out-keys, or to kMissingPos and into missing_bottom.
void expect_bottom_maps_match_sets(
    const SparseAllreduce<float, OpSum, ReplicatedBsp<float>>& allreduce,
    const CollectivePlan& plan) {
  const std::uint16_t l = plan.topology().num_layers();
  for (rank_t r = 0; r < plan.num_ranks(); ++r) {
    const RankPlan& rp = plan.rank_plan(r);
    if (!rp.configured) continue;
    const KeySet& in = allreduce.node(r).in_set(l);
    const KeySet& out = allreduce.node(r).out_set(l);
    ASSERT_EQ(rp.bottom_map.size(), in.size()) << "rank " << r;
    std::vector<key_t> missing;
    for (std::size_t p = 0; p < in.size(); ++p) {
      const std::size_t pos = out.find(in[p]);
      if (pos == KeySet::npos) {
        EXPECT_EQ(rp.bottom_map[p], kMissingPos) << "rank " << r;
        missing.push_back(in[p]);
      } else {
        EXPECT_EQ(rp.bottom_map[p], static_cast<pos_t>(pos)) << "rank " << r;
      }
    }
    EXPECT_EQ(rp.missing_bottom, missing) << "rank " << r;
  }
}

struct Kill {
  const char* name;
  bool from_start;
  Phase phase;
  std::uint16_t layer;
  /// Golden digests over seeds 0..3 (plan + report + results), recorded
  /// with the bottom-map sweep on the driving thread.
  std::uint64_t golden[4];
};

class DegradedGoldenTest : public ::testing::TestWithParam<Kill> {};

TEST_P(DegradedGoldenTest, ReplicatedPlansAndReportsMatchTheGoldens) {
  const Kill& kill = GetParam();
  const Topology topo({4, 2});
  const rank_t m = topo.num_machines();
  std::size_t missing = 0;  // the sweeps must have had keys to give up on
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto w = random_workload<float>(m, 64, 0.2, 0.4, 7000 + seed);
    const rank_t g = (seed * 5 + 2) % m;
    FaultPlan plan(m * 2, seed);
    if (kill.from_start) {
      plan.failures().kill(g);
      plan.failures().kill(g + m);
    } else {
      plan.crash_at(g, kill.phase, kill.layer);
      plan.crash_at(g + m, kill.phase, kill.layer);
    }
    FaultChannel<float> channel(&plan);
    ReplicatedBsp<float> engine(m, 2);
    engine.set_fault_channel(&channel);
    SparseAllreduce<float, OpSum, ReplicatedBsp<float>> allreduce(&engine,
                                                                  topo);
    const auto compiled = allreduce.compile(w.in_sets, w.out_sets);
    ASSERT_TRUE(engine.has_failed());
    EXPECT_FALSE(compiled->rank_plan(g).configured);
    expect_bottom_maps_match_sets(allreduce, *compiled);
    const auto results = allreduce.reduce(w.out_values);
    const DegradedReport report = allreduce.degraded_report();
    EXPECT_TRUE(report.degraded);
    for (rank_t r = 0; r < m; ++r) {
      missing += compiled->rank_plan(r).missing_bottom.size();
    }

    Digest d;
    add_plan(d, *compiled);
    add_report(d, report);
    for (const auto& values : results) {
      d.add(values.size());
      for (const float v : values) d.add(std::bit_cast<std::uint32_t>(v));
    }
    EXPECT_EQ(d.value(), kill.golden[seed])
        << kill.name << " digest 0x" << std::hex << d.value();
  }
  EXPECT_GT(missing, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Kills, DegradedGoldenTest,
    ::testing::Values(
        Kill{"FromStart", true, Phase::kConfig, 0,
             {0x635c8038539b2f13ULL, 0xd0dd373d0afe8b51ULL,
              0xf875505096c5ffccULL, 0xc1c342d8f780fd2ULL}},
        Kill{"ConfigLayer1", false, Phase::kConfig, 1,
             {0x42590ff2849ebe94ULL, 0x9519b2395e3c590bULL,
              0xbfa31c1220f88970ULL, 0xe4d8dadca410f764ULL}},
        // The last config round: the death lands where the finish runs.
        Kill{"ConfigLayer2", false, Phase::kConfig, 2,
             {0xff301035026e769ULL, 0x80386bbffdd31b82ULL,
              0x28b05ac98606d438ULL, 0x3bb666e0bbaf5fdbULL}}),
    [](const ::testing::TestParamInfo<Kill>& p) { return p.param.name; });

/// A death in the last config round on the unreplicated engines: the
/// degraded plans the workers finish must be identical at every thread
/// count and on the one-thread-per-rank engine.
template <typename Engine>
std::uint64_t last_round_death_digest(Engine& engine, FaultPlan& plan,
                                      const Topology& topo,
                                      const Workload<float>& w) {
  FaultChannel<float> channel(&plan);
  engine.set_fault_channel(&channel);
  SparseAllreduce<float, OpSum, Engine> allreduce(&engine, topo);
  const auto compiled = allreduce.compile(w.in_sets, w.out_sets);
  EXPECT_TRUE(engine.has_failed());
  Digest d;
  add_plan(d, *compiled);
  for (const auto& values : allreduce.reduce(w.out_values)) {
    d.add(values.size());
    for (const float v : values) d.add(std::bit_cast<std::uint32_t>(v));
  }
  return d.value();
}

TEST(FinishPlacement, LastConfigRoundDeathIsIdenticalOnEveryEngine) {
  const Topology topo({4, 2, 2});
  const rank_t m = topo.num_machines();
  const std::uint16_t l = topo.num_layers();
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto w = random_workload<float>(m, 96, 0.15, 0.4, 8100 + seed);
    const rank_t victim = (seed * 3 + 1) % m;
    const auto arm = [&](FaultPlan& plan) {
      plan.crash_at(victim, Phase::kConfig, l);
    };
    FaultPlan p1(m, seed);
    arm(p1);
    BspEngine<float> bsp(m);
    const std::uint64_t reference = last_round_death_digest(bsp, p1, topo, w);
    FaultPlan p2(m, seed);
    arm(p2);
    ParallelBspEngine<float> parallel(m, 4);
    EXPECT_EQ(last_round_death_digest(parallel, p2, topo, w), reference);
    FaultPlan p3(m, seed);
    arm(p3);
    ThreadedBsp<float> threaded(m);
    EXPECT_EQ(last_round_death_digest(threaded, p3, topo, w), reference);
  }
}

}  // namespace
}  // namespace kylix
