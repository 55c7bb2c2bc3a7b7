#include "sparse/merge.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <set>

#include "common/rng.hpp"

namespace kylix {
namespace {

std::vector<key_t> random_sorted_unique(Rng& rng, std::size_t size,
                                        key_t universe) {
  std::set<key_t> keys;
  while (keys.size() < size) keys.insert(rng.below(universe));
  return std::vector<key_t>(keys.begin(), keys.end());
}

/// The defining property of a union-with-maps: union[map[p]] == input[p].
void expect_maps_valid(const UnionResult& result,
                       const std::vector<std::vector<key_t>>& inputs) {
  ASSERT_EQ(result.maps.size(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    ASSERT_EQ(result.maps[i].size(), inputs[i].size()) << "input " << i;
    for (std::size_t p = 0; p < inputs[i].size(); ++p) {
      ASSERT_LT(result.maps[i][p], result.keys.size());
      EXPECT_EQ(result.keys[result.maps[i][p]], inputs[i][p])
          << "input " << i << " position " << p;
    }
  }
}

std::vector<key_t> set_union_oracle(
    const std::vector<std::vector<key_t>>& inputs) {
  std::set<key_t> u;
  for (const auto& in : inputs) u.insert(in.begin(), in.end());
  return std::vector<key_t>(u.begin(), u.end());
}

TEST(MergeUnion, DisjointInputsConcatenate) {
  const UnionResult r = merge_union(std::vector<key_t>{1, 3, 5},
                                    std::vector<key_t>{2, 4, 6});
  EXPECT_EQ(r.keys, (std::vector<key_t>{1, 2, 3, 4, 5, 6}));
  expect_maps_valid(r, {{1, 3, 5}, {2, 4, 6}});
}

TEST(MergeUnion, OverlappingKeysCollapse) {
  const UnionResult r = merge_union(std::vector<key_t>{1, 2, 3},
                                    std::vector<key_t>{2, 3, 4});
  EXPECT_EQ(r.keys, (std::vector<key_t>{1, 2, 3, 4}));
  expect_maps_valid(r, {{1, 2, 3}, {2, 3, 4}});
  // Shared keys map to the same union slot (this is what makes reduction
  // collapse sparse contributions).
  EXPECT_EQ(r.maps[0][1], r.maps[1][0]);
  EXPECT_EQ(r.maps[0][2], r.maps[1][1]);
}

TEST(MergeUnion, EmptySides) {
  const std::vector<key_t> some = {7, 9};
  UnionResult r = merge_union(some, {});
  EXPECT_EQ(r.keys, some);
  r = merge_union({}, some);
  EXPECT_EQ(r.keys, some);
  r = merge_union({}, {});
  EXPECT_TRUE(r.keys.empty());
}

TEST(MergeUnion, IdenticalInputsGiveIdentityMaps) {
  const std::vector<key_t> keys = {1, 5, 9};
  const UnionResult r = merge_union(keys, keys);
  EXPECT_EQ(r.keys, keys);
  for (std::size_t p = 0; p < keys.size(); ++p) {
    EXPECT_EQ(r.maps[0][p], p);
    EXPECT_EQ(r.maps[1][p], p);
  }
}

class TreeMergeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TreeMergeTest, MatchesOracleWithValidMaps) {
  const std::size_t ways = GetParam();
  Rng rng(ways);
  std::vector<std::vector<key_t>> inputs;
  for (std::size_t i = 0; i < ways; ++i) {
    inputs.push_back(random_sorted_unique(rng, 20 + rng.below(50), 300));
  }
  const UnionResult r = tree_merge(inputs);
  EXPECT_EQ(r.keys, set_union_oracle(inputs));
  expect_maps_valid(r, inputs);
}

INSTANTIATE_TEST_SUITE_P(Ways, TreeMergeTest,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 13, 16, 64));

TEST(TreeMerge, ZeroInputsGivesEmpty) {
  const UnionResult r = tree_merge(std::vector<std::vector<key_t>>{});
  EXPECT_TRUE(r.keys.empty());
  EXPECT_TRUE(r.maps.empty());
}

TEST(TreeMerge, SomeInputsEmpty) {
  std::vector<std::vector<key_t>> inputs = {{}, {1, 2}, {}, {2, 3}, {}};
  const UnionResult r = tree_merge(inputs);
  EXPECT_EQ(r.keys, (std::vector<key_t>{1, 2, 3}));
  expect_maps_valid(r, inputs);
}

TEST(TreeMerge, HeavilyOverlappingPowerLawLikeInputs) {
  // Mimics the workload the merge exists for: many sets sharing a hot head.
  Rng rng(77);
  std::vector<std::vector<key_t>> inputs;
  for (int i = 0; i < 16; ++i) {
    std::set<key_t> keys;
    for (int j = 0; j < 40; ++j) keys.insert(rng.below(30));    // hot head
    for (int j = 0; j < 10; ++j) keys.insert(rng.below(10000));  // tail
    inputs.emplace_back(keys.begin(), keys.end());
  }
  const UnionResult r = tree_merge(inputs);
  EXPECT_EQ(r.keys, set_union_oracle(inputs));
  expect_maps_valid(r, inputs);
  // Collapse happened: the union is far smaller than the total input.
  std::size_t total = 0;
  for (const auto& in : inputs) total += in.size();
  EXPECT_LT(r.keys.size(), total / 2);
}

TEST(TreeMergeScratch, ReusedScratchMatchesFreshCallsAcrossShapes) {
  // One scratch + one output driven through wildly varying input shapes —
  // exactly how KylixNode reuses them layer after layer — must produce the
  // same result as a fresh allocating call every time.
  Rng rng(123);
  MergeScratch scratch;
  UnionResult out;
  for (std::size_t ways : {5u, 1u, 16u, 2u, 64u, 3u, 0u, 7u}) {
    std::vector<std::vector<key_t>> inputs;
    for (std::size_t i = 0; i < ways; ++i) {
      inputs.push_back(random_sorted_unique(rng, 5 + rng.below(80), 400));
    }
    std::vector<std::span<const key_t>> spans(inputs.begin(), inputs.end());
    tree_merge_into(spans, out, scratch);
    const UnionResult fresh = tree_merge(spans);
    EXPECT_EQ(out.keys, fresh.keys) << ways << " ways";
    EXPECT_EQ(out.maps, fresh.maps) << ways << " ways";
    expect_maps_valid(out, inputs);
  }
}

TEST(TreeMergeScratch, EmptyAndSingleInputEdgeCases) {
  MergeScratch scratch;
  UnionResult out;
  // Pre-dirty the output with an unrelated merge.
  const std::vector<std::vector<key_t>> dirty = {{1, 2, 3}, {4, 5}};
  std::vector<std::span<const key_t>> dirty_spans(dirty.begin(), dirty.end());
  tree_merge_into(dirty_spans, out, scratch);

  // k == 0: everything clears.
  tree_merge_into({}, out, scratch);
  EXPECT_TRUE(out.keys.empty());
  EXPECT_TRUE(out.maps.empty());

  // k == 1: identity map, keys copied.
  const std::vector<key_t> single = {10, 20, 30};
  const std::span<const key_t> single_span(single);
  tree_merge_into(std::span<const std::span<const key_t>>(&single_span, 1),
                  out, scratch);
  EXPECT_EQ(out.keys, single);
  ASSERT_EQ(out.maps.size(), 1u);
  EXPECT_EQ(out.maps[0], (PosMap{0, 1, 2}));

  // All-empty inputs: empty union with empty-but-present maps.
  const std::vector<std::vector<key_t>> empties(5);
  std::vector<std::span<const key_t>> empty_spans(empties.begin(),
                                                  empties.end());
  tree_merge_into(empty_spans, out, scratch);
  EXPECT_TRUE(out.keys.empty());
  ASSERT_EQ(out.maps.size(), 5u);
  for (const PosMap& map : out.maps) EXPECT_TRUE(map.empty());
}

TEST(MergeUnionInto, ReusesCallerBuffers) {
  const std::vector<key_t> a = {1, 4, 6};
  const std::vector<key_t> b = {2, 4, 9};
  std::vector<key_t> keys = {99, 98, 97, 96, 95};  // stale content
  PosMap map_a = {7, 7, 7, 7};
  PosMap map_b;
  merge_union_into(a, b, keys, map_a, map_b);
  EXPECT_EQ(keys, (std::vector<key_t>{1, 2, 4, 6, 9}));
  EXPECT_EQ(map_a, (PosMap{0, 2, 3}));
  EXPECT_EQ(map_b, (PosMap{1, 2, 4}));
}

// ---- Differential tests against std::set_union --------------------------
//
// Every case checks the union key for key against std::set_union and every
// map entry against the exact union position of its input key, so a single
// wrong or missing map store fails. Buffers are reused across cases with
// stale, differently sized content, as KylixNode reuses them.

/// Two strictly-sorted sequences built by walking a random key sequence and
/// assigning each key to a only, b only, or both, in runs of random length:
/// long equal-key runs (both), long one-sided runs, and rapid alternation
/// all occur. With `extremes`, keys 0 and UINT64_MAX are present (in a
/// random side or both).
struct Pair {
  std::vector<key_t> a;
  std::vector<key_t> b;
};

Pair random_pair(Rng& rng, std::size_t steps, bool extremes) {
  Pair pair;
  key_t key = extremes ? 0 : rng.below(16);
  int side = 0;        // 0: a only, 1: b only, 2: both
  std::size_t run = 0;
  for (std::size_t s = 0; s < steps; ++s) {
    if (run == 0) {
      side = static_cast<int>(rng.below(3));
      run = 1 + rng.below(rng.below(2) == 0 ? 3 : 40);
    }
    --run;
    if (side != 1) pair.a.push_back(key);
    if (side != 0) pair.b.push_back(key);
    key += 1 + rng.below(rng.below(4) == 0 ? 1000 : 3);
  }
  if (extremes) {
    const key_t top = std::numeric_limits<key_t>::max();
    const auto where = rng.below(3);
    if (where != 1) pair.a.push_back(top);
    if (where != 0) pair.b.push_back(top);
  }
  return pair;
}

std::vector<key_t> std_union(const std::vector<key_t>& a,
                             const std::vector<key_t>& b) {
  std::vector<key_t> out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

/// map[p] must be exactly the position of input[p] in the oracle union.
void expect_exact_map(const std::vector<key_t>& expected,
                      const std::vector<key_t>& input, const PosMap& map,
                      const char* side) {
  ASSERT_EQ(map.size(), input.size()) << side;
  for (std::size_t p = 0; p < input.size(); ++p) {
    const auto want = static_cast<pos_t>(
        std::lower_bound(expected.begin(), expected.end(), input[p]) -
        expected.begin());
    ASSERT_EQ(map[p], want) << side << " position " << p;
  }
}

void expect_pair_matches_std(const std::vector<key_t>& a,
                             const std::vector<key_t>& b,
                             std::vector<key_t>& keys, PosMap& map_a,
                             PosMap& map_b) {
  merge_union_into(a, b, keys, map_a, map_b);
  const std::vector<key_t> expected = std_union(a, b);
  ASSERT_EQ(keys, expected) << "|a| " << a.size() << " |b| " << b.size();
  expect_exact_map(expected, a, map_a, "a");
  expect_exact_map(expected, b, map_b, "b");
}

TEST(MergeUnionDifferential, SeededRandomPairsMatchStdSetUnion) {
  Rng rng(2024);
  std::vector<key_t> keys;
  PosMap map_a;
  PosMap map_b;
  for (int c = 0; c < 400; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    const std::size_t steps = rng.below(c % 10 == 0 ? 5000 : 200);
    const Pair pair = random_pair(rng, steps, c % 3 == 0);
    expect_pair_matches_std(pair.a, pair.b, keys, map_a, map_b);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(MergeUnionDifferential, EqualKeyRunsAndExtremeKeys) {
  const key_t top = std::numeric_limits<key_t>::max();
  std::vector<key_t> keys = {5, 5, 5};  // stale
  PosMap map_a = {9};
  PosMap map_b(100, 3);
  // Identical long runs, a run shifted by one key, and the extremes.
  std::vector<key_t> run(300);
  for (std::size_t p = 0; p < run.size(); ++p) run[p] = 2 * p;
  std::vector<key_t> shifted(run);
  for (key_t& k : shifted) ++k;
  expect_pair_matches_std(run, run, keys, map_a, map_b);
  expect_pair_matches_std(run, shifted, keys, map_a, map_b);
  expect_pair_matches_std({0, top}, {0, top}, keys, map_a, map_b);
  expect_pair_matches_std({0}, {top}, keys, map_a, map_b);
  expect_pair_matches_std({top}, {0}, keys, map_a, map_b);
  expect_pair_matches_std({0, 1, 2, top}, {1, top}, keys, map_a, map_b);
  expect_pair_matches_std({1, 2, 3}, {0, 1, 2, 3, top}, keys, map_a, map_b);
}

TEST(MergeUnionDifferential, EmptySidesOverStaleBuffers) {
  const std::vector<key_t> some = {0, 3, 8, std::numeric_limits<key_t>::max()};
  std::vector<key_t> keys(50, 7);
  PosMap map_a(50, 7);
  PosMap map_b(50, 7);
  expect_pair_matches_std(some, {}, keys, map_a, map_b);
  expect_pair_matches_std({}, some, keys, map_a, map_b);
  expect_pair_matches_std({}, {}, keys, map_a, map_b);
}

TEST(MergeUnionDifferential, SizeRatiosAroundTheGallopThreshold) {
  // |long| = kGallopRatio * |short| + delta for delta in {-1, 0, +1}: the
  // select loop just below the threshold, the gallop path at and above it,
  // on both orientations.
  Rng rng(99);
  std::vector<key_t> keys;
  PosMap map_a;
  PosMap map_b;
  for (const std::size_t shrt : {1u, 2u, 7u, 64u}) {
    for (const int delta : {-1, 0, 1}) {
      const std::size_t lng = kGallopRatio * shrt + delta;
      for (int c = 0; c < 6; ++c) {
        SCOPED_TRACE("short " + std::to_string(shrt) + " long " +
                     std::to_string(lng) + " case " + std::to_string(c));
        // Draw both from one small universe so they overlap, or from a
        // wide one so they interleave sparsely.
        const key_t universe = c % 2 == 0 ? 3 * lng : key_t{1} << 40;
        const auto l = random_sorted_unique(rng, lng, universe);
        const auto s = random_sorted_unique(rng, shrt, universe);
        expect_pair_matches_std(l, s, keys, map_a, map_b);
        expect_pair_matches_std(s, l, keys, map_a, map_b);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(TreeMergeDifferential, OneToSeventyInputsMatchStdSetUnion) {
  Rng rng(4242);
  MergeScratch scratch;
  UnionResult out;
  for (std::size_t k = 1; k <= 70; ++k) {
    SCOPED_TRACE(std::to_string(k) + " inputs");
    std::vector<std::vector<key_t>> inputs;
    for (std::size_t i = 0; i < k; ++i) {
      // Mixed sizes (some empty, some 20x the others) over a universe that
      // forces heavy overlap, plus the extreme keys on some inputs.
      const std::size_t size =
          rng.below(7) == 0 ? 0 : (rng.below(5) == 0 ? 400 : 20);
      auto keys = random_sorted_unique(rng, size, 2000);
      if (rng.below(4) == 0) keys.insert(keys.begin(), 0);
      if (rng.below(4) == 0) keys.push_back(std::numeric_limits<key_t>::max());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
      inputs.push_back(std::move(keys));
    }
    std::vector<key_t> expected;
    for (const auto& in : inputs) expected = std_union(expected, in);

    std::vector<std::span<const key_t>> spans(inputs.begin(), inputs.end());
    tree_merge_into(spans, out, scratch);
    ASSERT_EQ(out.keys, expected);
    ASSERT_EQ(out.maps.size(), k);
    for (std::size_t i = 0; i < k; ++i) {
      expect_exact_map(expected, inputs[i], out.maps[i], "leaf");
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

class HashUnionTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HashUnionTest, SameSetAsTreeMergeWithValidMaps) {
  const std::size_t ways = GetParam();
  Rng rng(1000 + ways);
  std::vector<std::vector<key_t>> input_vecs;
  for (std::size_t i = 0; i < ways; ++i) {
    input_vecs.push_back(random_sorted_unique(rng, 30, 200));
  }
  std::vector<std::span<const key_t>> inputs(input_vecs.begin(),
                                             input_vecs.end());
  const UnionResult r = hash_union(inputs);
  // hash_union's union is insertion-ordered, not sorted; compare as sets.
  std::vector<key_t> sorted = r.keys;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, set_union_oracle(input_vecs));
  expect_maps_valid(r, input_vecs);
}

INSTANTIATE_TEST_SUITE_P(Ways, HashUnionTest, ::testing::Values(1, 2, 8, 16));

}  // namespace
}  // namespace kylix
