// Per-machine configuration state machine for the nested sparse allreduce
// (§III-A/B).
//
// A KylixNode owns one machine's view of the butterfly while it configures:
// its in/out index sets at every node layer and the RankPlan (core/plan.hpp)
// those sets compile into. It exposes one produce/consume step per
// configuration round, so any engine satisfying the concept in
// comm/parallel.hpp can drive it:
//
//   partition the in/out sets into the d_i hashed key subranges of the
//   current range, send piece q to the group member whose digit is q, union
//   arriving pieces (tree merge, §VI-A) and record the f/g positional maps
//   in that layer's PlanLayer.
//
// finish_configure() completes the RankPlan — on the engine worker that ran
// the rank's last config consume, so it never throws; an unresolved
// requested key is recorded, and the caller decides afterwards whether it
// is an error — and take_plan() moves it into a CollectivePlan. The node
// runs no value rounds: every scatter-reduce and allgather is a replay of
// the plan (ReplayOps, core/replay_node.hpp). The one place values meet a
// node is minibatch mode (§III): carry_values() makes the contributions
// ride the config letters, combined into the union at every layer, inside
// the rank's ReplayScratch — so the replayed allgather starts from the
// bottom buffer the node leaves there.
//
// Allocation discipline: all transient key storage (letter shells, piece
// vectors, merge workspaces) lives in a NodeScratch that survives across
// rounds and — when supplied by the caller, as SparseAllreduce does — across
// node rebuilds, so repeated minibatch steps reuse warmed buffers instead of
// re-allocating every union. Carried values use the replay's buffers.
//
// Fault tolerance hook: a missing letter (dead unreplicated sender) is
// treated as an empty piece, so the protocol always terminates; correctness
// under failures is the replication layer's job.
#pragma once

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "comm/packet.hpp"
#include "core/plan.hpp"
#include "core/replay_node.hpp"
#include "core/topology.hpp"
#include "sparse/merge.hpp"
#include "sparse/ops.hpp"

namespace kylix {

/// Reusable working storage for a KylixNode. Stable across rounds; pass the
/// same scratch to successive nodes of the same rank (as SparseAllreduce
/// does) so repeated reduce_with_config() calls reuse warmed buffers too.
/// All buffers only ever grow.
template <typename V>
struct NodeScratch {
  MergeScratch merge;
  UnionResult in_union;
  UnionResult out_union;
  std::vector<std::span<const key_t>> key_spans;
  std::vector<std::vector<key_t>> in_pieces;
  std::vector<std::vector<key_t>> out_pieces;
  std::vector<std::vector<V>> value_pieces;  ///< carried values, by digit
  std::vector<std::vector<Letter<V>>> letters;  ///< per comm layer shells
  std::vector<std::vector<key_t>> key_pool;  ///< recycled packet key buffers
};

template <typename V, typename Op = OpSum>
class KylixNode {
 public:
  /// `topology` must outlive the node. `in0`/`out0` are this machine's
  /// requested and contributed index sets (§III properties 1-2). `scratch`
  /// (optional, not owned, must outlive the node) lets the caller keep
  /// warmed buffers alive across node rebuilds; without it the node owns a
  /// private scratch.
  KylixNode(const Topology* topology, rank_t rank, KeySet in0, KeySet out0,
            NodeScratch<V>* scratch = nullptr)
      : topo_(topology), rank_(rank), scratch_(scratch) {
    KYLIX_CHECK(rank < topo_->num_machines());
    if (scratch_ == nullptr) {
      owned_scratch_ = std::make_unique<NodeScratch<V>>();
      scratch_ = owned_scratch_.get();
    }
    const std::uint16_t l = topo_->num_layers();
    in_sets_.resize(l + 1);
    out_sets_.resize(l + 1);
    in_sets_[0] = std::move(in0);
    out_sets_[0] = std::move(out0);
    groups_.resize(l);
    for (std::uint16_t i = 1; i <= l; ++i) {
      groups_[i - 1] = topo_->group(i, rank_);
    }
    plan_.layers.resize(l);
    if (scratch_->letters.size() < l) scratch_->letters.resize(l);
  }

  [[nodiscard]] rank_t rank() const { return rank_; }

  /// Group members (including self) at `layer` — the expected senders of
  /// every round at that layer. Cached at construction.
  [[nodiscard]] const std::vector<rank_t>& expected(
      std::uint16_t layer) const {
    return groups_[layer - 1];
  }

  /// Combined configure+reduce (minibatch mode, §III): `out_values`, aligned
  /// with out_set(0), ride the config letters and are combined into the
  /// union at every layer. The caller's vector becomes `values.v` (not
  /// owned, must outlive the config rounds), which holds the bottom values
  /// afterwards; the buffer it replaces is released rather than pooled, so
  /// pooled buffers stay piece-sized. Call before the first config round.
  void carry_values(std::vector<V> out_values, ReplayScratch<V>& values) {
    KYLIX_CHECK(out_values.size() == out_sets_[0].size());
    values.v = std::move(out_values);
    values_ = &values;
  }

  // ---- configuration, downward ----

  [[nodiscard]] std::vector<Letter<V>>& config_produce(std::uint16_t layer) {
    PlanLayer& cfg = plan_.layers[layer - 1];
    cfg.group = groups_[layer - 1];
    const auto d = static_cast<std::uint32_t>(cfg.group.size());
    const KeyRange range = topo_->key_range(layer - 1, rank_);
    const KeySet& in_prev = in_sets_[layer - 1];
    const KeySet& out_prev = out_sets_[layer - 1];
    cfg.in_split = in_prev.split_points(range, d);
    cfg.out_split = out_prev.split_points(range, d);
    cfg.in_prev_size = in_prev.size();

    std::vector<Letter<V>>& letters = scratch_->letters[layer - 1];
    letters.resize(d);
    for (std::uint32_t q = 0; q < d; ++q) {
      Letter<V>& letter = letters[q];
      letter.src = rank_;
      letter.dst = cfg.group[q];
      refill_keys(letter.packet.in_keys);
      refill_keys(letter.packet.out_keys);
      in_prev.extract_into(cfg.in_split[q], cfg.in_split[q + 1],
                           letter.packet.in_keys);
      out_prev.extract_into(cfg.out_split[q], cfg.out_split[q + 1],
                            letter.packet.out_keys);
      if (values_ != nullptr) {
        refill(values_->value_pool, letter.packet.values);
        letter.packet.values.assign(
            values_->v.begin() + static_cast<std::ptrdiff_t>(cfg.out_split[q]),
            values_->v.begin() +
                static_cast<std::ptrdiff_t>(cfg.out_split[q + 1]));
      } else {
        letter.packet.values.clear();
      }
      work_.gather_elements +=
          static_cast<double>(letter.packet.in_keys.size() +
                              letter.packet.out_keys.size() +
                              letter.packet.values.size());
    }
    return letters;
  }

  void config_consume(std::uint16_t layer, std::vector<Letter<V>>&& inbox) {
    PlanLayer& cfg = plan_.layers[layer - 1];
    const std::uint32_t d = topo_->degree(layer);
    auto& in_pieces = scratch_->in_pieces;
    auto& out_pieces = scratch_->out_pieces;
    auto& value_pieces = scratch_->value_pieces;
    in_pieces.resize(d);
    out_pieces.resize(d);
    value_pieces.resize(d);
    for (std::uint32_t q = 0; q < d; ++q) {
      in_pieces[q].clear();
      out_pieces[q].clear();
      value_pieces[q].clear();
    }
    for (Letter<V>& letter : inbox) {
      const std::uint32_t q = topo_->digit(layer, letter.src);
      in_pieces[q] = std::move(letter.packet.in_keys);
      out_pieces[q] = std::move(letter.packet.out_keys);
      value_pieces[q] = std::move(letter.packet.values);
    }

    UnionResult& in_union = scratch_->in_union;
    UnionResult& out_union = scratch_->out_union;
    tree_merge_into(spans_of(in_pieces), in_union, scratch_->merge);
    for (const auto& piece : in_pieces) {
      work_.merge_elements += static_cast<double>(piece.size());
    }
    tree_merge_into(spans_of(out_pieces), out_union, scratch_->merge);
    for (const auto& piece : out_pieces) {
      work_.merge_elements += static_cast<double>(piece.size());
    }
    work_.merge_ways = std::max(work_.merge_ways, d);

    cfg.recv_out_sizes.assign(d, 0);
    for (std::uint32_t q = 0; q < d; ++q) {
      cfg.recv_out_sizes[q] = out_pieces[q].size();
    }
    // Swap (not move) so the union scratch keeps right-sized map buffers
    // for the next configure pass.
    std::swap(cfg.in_maps, in_union.maps);
    std::swap(cfg.out_maps, out_union.maps);
    cfg.out_union_size = out_union.keys.size();

    if (values_ != nullptr) {
      std::vector<V>& merged = values_->merged;
      merged.assign(out_union.keys.size(), Op::template identity<V>());
      for (std::uint32_t q = 0; q < d; ++q) {
        if (!value_pieces[q].empty()) {
          scatter_combine<V, Op>(std::span<V>(merged),
                                 std::span<const V>(value_pieces[q]),
                                 cfg.out_maps[q]);
          work_.combine_elements +=
              static_cast<double>(value_pieces[q].size());
        }
        recycle(values_->value_pool, value_pieces[q]);
      }
      std::swap(values_->v, merged);
    }

    in_sets_[layer] = KeySet::from_sorted_keys(std::move(in_union.keys));
    out_sets_[layer] = KeySet::from_sorted_keys(std::move(out_union.keys));
    for (std::uint32_t q = 0; q < d; ++q) {
      recycle(scratch_->key_pool, in_pieces[q]);
      recycle(scratch_->key_pool, out_pieces[q]);
    }
  }

  /// After the last config layer: locate every bottom in-key inside the
  /// bottom out-keys and complete the RankPlan. Runs on the engine worker
  /// that consumed the rank's last config round, so it never throws: a
  /// requested index no machine contributed (a break of the ∪in ⊆ ∪out
  /// precondition of §III, or a lost contributor) resolves to the reduction
  /// identity and is recorded in missing_bottom(). Whether that is a
  /// degraded completion or an error is the caller's decision, taken once
  /// the rounds are over (SparseAllreduce::run_config_rounds).
  void finish_configure() {
    const std::uint16_t l = topo_->num_layers();
    const KeySet& in_bottom = in_sets_[l];
    const KeySet& out_bottom = out_sets_[l];
    plan_.bottom_map.resize(in_bottom.size());
    plan_.missing_bottom.clear();
    // Both sets are sorted, so locating every in-key is one monotone sweep
    // (O(|in|+|out|)) rather than a binary search per key.
    std::size_t pos = 0;
    for (std::size_t p = 0; p < in_bottom.size(); ++p) {
      const key_t key = in_bottom[p];
      while (pos < out_bottom.size() && out_bottom[pos] < key) ++pos;
      if (pos < out_bottom.size() && out_bottom[pos] == key) {
        plan_.bottom_map[p] = static_cast<pos_t>(pos);
        continue;
      }
      plan_.bottom_map[p] = kMissingPos;
      plan_.missing_bottom.push_back(key);
    }
    plan_.in0 = in_sets_[0];
    plan_.out0_size = out_sets_[0].size();
    plan_.in_sizes.resize(l + 1);
    plan_.out_sizes.resize(l + 1);
    // Largest buffer the upward pass will hold: reserving it once at
    // begin_up keeps every allgather assign within capacity.
    plan_.up_capacity = 0;
    for (std::uint16_t i = 0; i <= l; ++i) {
      plan_.in_sizes[i] = in_sets_[i].size();
      plan_.out_sizes[i] = out_sets_[i].size();
      plan_.up_capacity = std::max(plan_.up_capacity, in_sets_[i].size());
    }
    plan_.configured = true;
    configured_ = true;
  }

  [[nodiscard]] bool configured() const { return configured_; }

  /// Requested bottom keys that resolved to no contributed key, sorted.
  /// Valid after finish_configure().
  [[nodiscard]] const std::vector<key_t>& missing_bottom() const {
    return plan_.missing_bottom;
  }

  /// Drop the completed plan of a rank that died after finishing, so
  /// take_plan() is never called for it.
  void unconfigure() { configured_ = false; }

  /// Move the completed RankPlan out (once, after finish_configure()). The
  /// node keeps its key sets and groups for introspection.
  [[nodiscard]] RankPlan take_plan() {
    KYLIX_CHECK(configured_);
    return std::move(plan_);
  }

  // ---- introspection ----

  [[nodiscard]] const KeySet& in_set(std::uint16_t node_layer) const {
    return in_sets_[node_layer];
  }
  [[nodiscard]] const KeySet& out_set(std::uint16_t node_layer) const {
    return out_sets_[node_layer];
  }

  [[nodiscard]] NodeWork take_work() {
    return std::exchange(work_, NodeWork{});
  }

 private:
  /// Hand a recycled buffer to an empty shell so the following assign()
  /// reuses warmed capacity instead of allocating.
  template <typename T>
  static void refill(std::vector<std::vector<T>>& pool, std::vector<T>& buf) {
    if (buf.capacity() == 0 && !pool.empty()) {
      buf = std::move(pool.back());
      pool.pop_back();
      buf.clear();
    }
  }
  void refill_keys(std::vector<key_t>& buf) {
    refill(scratch_->key_pool, buf);
  }
  template <typename T>
  static void recycle(std::vector<std::vector<T>>& pool, std::vector<T>& buf) {
    if (buf.capacity() > 0) pool.push_back(std::move(buf));
  }

  [[nodiscard]] std::span<const std::span<const key_t>> spans_of(
      const std::vector<std::vector<key_t>>& pieces) {
    auto& spans = scratch_->key_spans;
    spans.clear();
    for (const auto& piece : pieces) spans.emplace_back(piece);
    return spans;
  }

  const Topology* topo_;
  rank_t rank_;
  bool configured_ = false;

  NodeScratch<V>* scratch_;  ///< external or owned_scratch_.get()
  std::unique_ptr<NodeScratch<V>> owned_scratch_;

  std::vector<KeySet> in_sets_;   ///< node layers 0..l
  std::vector<KeySet> out_sets_;  ///< node layers 0..l
  std::vector<std::vector<rank_t>> groups_;  ///< index i-1: comm layer i
  RankPlan plan_;  ///< built round by round; moved out by take_plan()
  ReplayScratch<V>* values_ = nullptr;  ///< combined mode: carried values
  NodeWork work_;
};

}  // namespace kylix
