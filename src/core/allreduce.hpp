// SparseAllreduce — the public orchestration API (§III).
//
// Configuration is a *compiler*: configure()/compile() run the downward
// configuration pass once and freeze every rank's routing state (unions,
// positional maps, split boundaries, per-round piece sizes) into an
// immutable CollectivePlan (core/plan.hpp). Value traffic is *replay*:
// reduce() hands the plan to a ReduceExecutor (core/executor.hpp) that
// re-runs the frozen schedule with fresh buffers — bit-identically to
// driving the nodes directly, but touching no routing state. Usage patterns:
//
//   * configure() once, reduce() many times — graph algorithms whose in/out
//     vertex sets are fixed across iterations (PageRank, §III). The first
//     call compiles; every reduce is a plan replay.
//   * configure(plan) / configure_cached() — adopt a previously compiled
//     (possibly PlanCache-served) plan, skipping configuration entirely.
//   * reduce_strided() — push k interleaved payload vectors through one
//     replay, amortizing routing across payloads.
//   * reduce_with_config() — minibatch workloads whose sets change every
//     step; configuration and reduction share combined messages, saving a
//     full downward pass. The nodes configure with the values riding their
//     config letters, then move their RankPlans into a plan private to this
//     allreduce, and the executor replays the allgather from the nodes'
//     reduced bottom buffers. KylixNode never runs a value round itself.
//
// Per-rank configuration work stays on the engine's workers: each node's
// unions run in its config consumes, and its bottom-map sweep
// (KylixNode::finish_configure) in the consume of the last config round.
// The driving thread keeps only one O(1) decision per rank afterwards
// (run_config_rounds): dead ranks are unconfigured, and a requested index
// no machine contributed is an error unless degraded completion applies.
//
// Modeled compute (tree merges, scatter-adds, gathers) is charged to the
// engine per round when a ComputeModel is supplied, so timing reports
// include local work, not just wire time.
#pragma once

#include <algorithm>
#include <cmath>
#include <concepts>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "cluster/netmodel.hpp"
#include "common/hash.hpp"
#include "core/degraded.hpp"
#include "core/executor.hpp"
#include "core/node.hpp"
#include "core/plan.hpp"
#include "core/plan_cache.hpp"
#include "core/topology.hpp"

namespace kylix {

template <typename V, typename Op = OpSum, typename Engine = void>
class SparseAllreduce {
 public:
  /// `engine` must outlive the allreduce; its rank count must match the
  /// topology. `compute` is optional (no compute charging when null).
  SparseAllreduce(Engine* engine, Topology topology,
                  const ComputeModel* compute = nullptr)
      : engine_(engine), topo_(std::move(topology)), compute_(compute) {
    KYLIX_CHECK(engine_ != nullptr);
    KYLIX_CHECK_MSG(engine_->num_ranks() == topo_.num_machines(),
                    "engine/topology machine count mismatch");
  }

  [[nodiscard]] const Topology& topology() const { return topo_; }

  /// Tell the compiler what network it is scheduling for (optional, not
  /// owned, must outlive the allreduce): compile() then stamps the plan's
  /// streaming chunk size with NetworkModel::min_efficient_packet — the
  /// Fig. 2 knee, the smallest chunk that still runs the wire efficiently.
  void set_network(const NetworkModel* net) { net_ = net; }

  /// Tuning override for the streaming chunk size in payload bytes: applies
  /// to plans compiled afterwards AND to replays of already-adopted plans
  /// (0 clears both, restoring the compiled value).
  void set_chunk_bytes(std::uint64_t bytes) {
    chunk_bytes_ = bytes;
    executor_.set_chunk_bytes_override(bytes);
  }

  /// Toggle streamed replay (chunked letters, eager per-chunk combining —
  /// DESIGN §9). Applies to reduce()/reduce_strided(); the allgather that
  /// finishes reduce_with_config() stays letter-at-once. Bit-identical to
  /// letter-at-once on every engine.
  void set_streaming(bool on) { executor_.set_streaming(on); }
  [[nodiscard]] bool streaming() const { return executor_.streaming(); }

  /// Telemetry of the last replay (chunks, block flushes, buffer
  /// envelopes, overlap ratio); after reduce_with_config() it covers the
  /// allgather only.
  [[nodiscard]] const StreamStats& stream_stats() const {
    return executor_.stream_stats();
  }

  /// Attach a flight recorder to every replay (optional, not owned),
  /// including the allgather of reduce_with_config(): replay markers plus
  /// per-round stream-flush/watermark events.
  void set_flight_recorder(obs::FlightRecorder* recorder) {
    executor_.set_flight_recorder(recorder);
  }

  /// Step 1, separate form: exchange and union index sets, compiling the
  /// routing into a plan. `in_sets[r]` / `out_sets[r]` are machine r's
  /// requested / contributed key sets.
  void configure(std::vector<KeySet> in_sets, std::vector<KeySet> out_sets) {
    (void)compile(std::move(in_sets), std::move(out_sets));
  }

  /// Run the configuration pass and freeze its result into a shareable
  /// CollectivePlan; this allreduce is left configured against it (nodes
  /// are retained for introspection). The plan is keyed by a fingerprint of
  /// the input sets, so PlanCache can serve it to later iterations.
  [[nodiscard]] std::shared_ptr<const CollectivePlan> compile(
      std::vector<KeySet> in_sets, std::vector<KeySet> out_sets) {
    if (topo_.hierarchical()) {
      return compile_hierarchical(std::move(in_sets), std::move(out_sets));
    }
    const std::uint64_t fp =
        salt_fingerprint(fingerprint_key_sets(in_sets, out_sets));
    build_nodes(std::move(in_sets), std::move(out_sets));
    run_config_rounds();
    plan_ = take_node_plans(fp);
    activate(plan_, /*combined=*/false);
    return plan_;
  }

  /// Adopt a previously compiled plan (e.g. a PlanCache hit), skipping the
  /// configuration pass entirely. The plan's topology must match. node() is
  /// unavailable on this path — the whole point is that no nodes exist.
  void configure(std::shared_ptr<const CollectivePlan> plan) {
    KYLIX_CHECK(plan != nullptr);
    KYLIX_CHECK_MSG(
        plan->topology().num_machines() == topo_.num_machines() &&
            plan->topology().cores_per_machine() ==
                topo_.cores_per_machine() &&
            std::equal(plan->topology().degrees().begin(),
                       plan->topology().degrees().end(),
                       topo_.degrees().begin(), topo_.degrees().end()),
        "adopted plan was compiled for a different topology");
    nodes_.clear();
    plan_ = std::move(plan);
    activate(plan_, /*combined=*/false);
  }

  /// Cache-aware configure: fingerprint the sets, adopt on a hit, compile
  /// and insert on a miss. Returns true iff the cache served the plan.
  bool configure_cached(PlanCache& cache, std::vector<KeySet> in_sets,
                        std::vector<KeySet> out_sets) {
    const std::uint64_t fp =
        salt_fingerprint(PlanCache::fingerprint(in_sets, out_sets));
    if (std::shared_ptr<const CollectivePlan> plan = cache.find(fp)) {
      configure(std::move(plan));
      return true;
    }
    cache.insert(compile(std::move(in_sets), std::move(out_sets)));
    return false;
  }

  /// The plan the last configure()/compile() produced or adopted (null
  /// before any, and untouched by reduce_with_config()).
  [[nodiscard]] const std::shared_ptr<const CollectivePlan>& plan() const {
    return plan_;
  }

  /// Step 2: push contributions down and pull requested values back up.
  /// `out_values[r]` aligns with the key order of machine r's out set;
  /// the result[r] aligns with the key order of machine r's in set.
  /// Reusable: call any number of times after one configure(). Every
  /// reduce replays the active plan — the compiled or adopted one, or after
  /// reduce_with_config() the private plan its nodes built.
  [[nodiscard]] std::vector<std::vector<V>> reduce(
      std::vector<std::vector<V>> out_values) {
    // Dead ranks never configure (degraded completion), so the precondition
    // is that some alive rank finished configuring.
    KYLIX_CHECK_MSG(replayable(), "reduce() before configure()");
    return executor_.reduce(std::move(out_values));
  }

  /// Multi-payload replay: reduce `stride` value vectors through one pass.
  /// `out_values[r]` interleaves the payloads key-major (the stride values
  /// of contributed key p occupy [p*stride, (p+1)*stride)); results use the
  /// same layout over requested keys. Bit-identical to `stride` independent
  /// reduce() calls per component. Requires a plan-based configuration.
  [[nodiscard]] std::vector<std::vector<V>> reduce_strided(
      std::vector<std::vector<V>> out_values, std::uint32_t stride) {
    KYLIX_CHECK_MSG(replayable() && !combined_,
                    "reduce_strided() requires a compiled plan");
    return executor_.reduce_strided(std::move(out_values), stride);
  }

  /// Combined configuration + reduction (minibatch mode): config messages
  /// carry values, so the separate downward value pass disappears.
  [[nodiscard]] std::vector<std::vector<V>> reduce_with_config(
      std::vector<KeySet> in_sets, std::vector<KeySet> out_sets,
      std::vector<std::vector<V>> out_values) {
    // The shared-memory tier only pays off on replayed plans, so the
    // hierarchical combined path deliberately does not exist.
    KYLIX_CHECK_MSG(!topo_.hierarchical(),
                    "reduce_with_config() supports flat topologies only "
                    "(compile a hierarchical plan and replay it instead)");
    build_nodes(std::move(in_sets), std::move(out_sets));
    KYLIX_CHECK(out_values.size() == nodes_.size());
    // The values travel in the executor's per-rank scratch, so the
    // allgather below starts from the bottom buffers the nodes leave there.
    executor_.reserve(topo_.num_machines(), topo_.num_layers());
    for (rank_t r = 0; r < nodes_.size(); ++r) {
      note_input_mass(r, out_values[r]);
      nodes_[r].carry_values(std::move(out_values[r]), executor_.scratch(r));
    }
    run_config_rounds();
    // The routing is thrown away next step, so the plan stays anonymous and
    // private: plan() keeps whatever configure()/compile() last produced.
    activate(take_node_plans(0), /*combined=*/true);
    if (!replayable()) return std::vector<std::vector<V>>(nodes_.size());
    return executor_.reduce_from_bottom();
  }

  /// Machine r's node, for tests and volume introspection (Fig. 5 reads the
  /// per-layer set sizes off these). Unavailable after adopting a
  /// precompiled plan (no nodes exist on that path — read the plan instead).
  [[nodiscard]] const KylixNode<V, Op>& node(rank_t rank) const {
    KYLIX_CHECK_MSG(rank < nodes_.size(),
                    "node() unavailable: configuration was adopted from a "
                    "precompiled plan");
    return nodes_[rank];
  }

  /// Mean out-set size over alive machines at node layers 0..l: the
  /// measured per-node elements P_i entering communication layer i is
  /// entry i-1, and the last entry is the fully reduced bottom. This is the
  /// measured column of the run report's D_i / P_i comparison (src/obs).
  /// Read off the active plan's per-rank set sizes.
  [[nodiscard]] std::vector<double> measured_layer_elements() const {
    KYLIX_CHECK_MSG(active_ != nullptr, "no configured state to measure");
    std::vector<double> mean(topo_.num_layers() + 1, 0.0);
    rank_t alive = 0;
    for (rank_t r = 0; r < active_->num_ranks(); ++r) {
      const RankPlan& rp = active_->rank_plan(r);
      // Hierarchical members carry no per-layer sizes; only union-holding
      // ranks (flat ranks, host leaders) enter the Prop 4.1 averages.
      if (!rp.configured || engine_->is_dead(r) ||
          rp.out_sizes.size() != mean.size()) {
        continue;
      }
      ++alive;
      for (std::uint16_t i = 0; i <= topo_.num_layers(); ++i) {
        mean[i] += static_cast<double>(rp.out_sizes[i]);
      }
    }
    if (alive > 0) {
      for (double& v : mean) v /= static_cast<double>(alive);
    }
    return mean;
  }

  /// What the last completed run lost, if anything (core/degraded.hpp).
  /// Engines without recovery support (BspEngine & friends) always report
  /// an exact run. Call after reduce() / reduce_with_config() returns.
  [[nodiscard]] DegradedReport degraded_report() const {
    DegradedReport rep;
    if constexpr (requires(const Engine& e) {
                    e.death_records();
                    e.recovery_stats();
                    { e.was_dead_at_start(rank_t{0}) }
                        -> std::convertible_to<bool>;
                    { e.lost_mass_fraction() }
                        -> std::convertible_to<double>;
                  }) {
      rep.deaths = engine_->death_records();
      rep.recovery = engine_->recovery_stats();
      rep.degraded = !rep.deaths.empty();
      if (!rep.degraded) return rep;
      rep.mass_lost_fraction = engine_->lost_mass_fraction();
      for (const DeathRecord& d : rep.deaths) {
        if (!contains(rep.lost_logical, d.logical)) {
          rep.lost_logical.push_back(d.logical);
          if (engine_->was_dead_at_start(d.logical)) {
            rep.lost_from_start.push_back(d.logical);
          }
          // A group's inputs entered the reduction iff it completed its
          // first reduce-down merge. Its chronologically first record
          // tells: dead during config, at {down, 1}, or from the start
          // means the contribution never left the group.
          if (engine_->was_dead_at_start(d.logical) ||
              d.phase == Phase::kConfig ||
              (d.phase == Phase::kReduceDown && d.layer <= 1)) {
            rep.inputs_lost.push_back(d.logical);
          }
        }
        rep.degraded_ranges.push_back(
            topo_.key_range(record_node_layer(d), d.logical));
      }
      std::sort(rep.lost_logical.begin(), rep.lost_logical.end());
      std::sort(rep.lost_from_start.begin(), rep.lost_from_start.end());
      std::sort(rep.inputs_lost.begin(), rep.inputs_lost.end());
      prune_ranges(rep.degraded_ranges);
      // Requested indices that resolved to no surviving contributor, per
      // alive requester and globally (sorted, deduplicated), read off the
      // active plan.
      const rank_t m = topo_.num_machines();
      const auto covered = [&](rank_t r) {
        return active_ != nullptr && !engine_->is_dead(r) &&
               active_->rank_plan(r).configured;
      };
      rep.lost_keys_per_rank.resize(m);
      for (rank_t r = 0; r < m; ++r) {
        if (!covered(r)) continue;
        for (const key_t key : active_->rank_plan(r).missing_bottom) {
          rep.lost_keys.push_back(key);
        }
      }
      std::sort(rep.lost_keys.begin(), rep.lost_keys.end());
      rep.lost_keys.erase(
          std::unique(rep.lost_keys.begin(), rep.lost_keys.end()),
          rep.lost_keys.end());
      for (rank_t r = 0; r < m; ++r) {
        if (!covered(r)) continue;
        const KeySet& in0 = active_->rank_plan(r).in0;
        for (std::size_t p = 0; p < in0.size(); ++p) {
          const key_t key = in0[p];
          if (rep.covers(key) ||
              std::binary_search(rep.lost_keys.begin(), rep.lost_keys.end(),
                                 key)) {
            rep.lost_keys_per_rank[r].push_back(key);
          }
        }
      }
    }
    return rep;
  }

 private:
  using Node = KylixNode<V, Op>;

  /// Hierarchical compile (DESIGN §13). The shared-memory tier is compiled
  /// here: per-host unions of the alive members' {in, out} sets, whose
  /// piece->union positional maps from tree_merge_into ARE the intra-stage
  /// scatter/gather maps. The inter-node butterfly is then the ordinary
  /// flat configuration pass over host leaders (canonical rank host*c)
  /// holding those unions — config rounds are gated to leaders, so the wire
  /// schedule is exactly the flat schedule over one rank per host. Members
  /// get API-surface RankPlans (in0, out0_size, missing_bottom; no layers);
  /// leaders keep host-level replay state but member-level in0/out0_size,
  /// since contributions and results align with each rank's own sets.
  [[nodiscard]] std::shared_ptr<const CollectivePlan> compile_hierarchical(
      std::vector<KeySet> in_sets, std::vector<KeySet> out_sets) {
    const rank_t m = topo_.num_machines();
    KYLIX_CHECK(in_sets.size() == m && out_sets.size() == m);
    const std::uint64_t fp =
        salt_fingerprint(fingerprint_key_sets(in_sets, out_sets));
    const rank_t hosts = topo_.num_hosts();
    const std::uint32_t c = topo_.cores_per_machine();

    std::vector<IntraHost> intra(hosts);
    std::vector<KeySet> node_in(m);
    std::vector<KeySet> node_out(m);
    UnionResult host_union;
    MergeScratch merge_scratch;
    std::vector<std::span<const key_t>> member_keys;
    for (rank_t h = 0; h < hosts; ++h) {
      IntraHost& ih = intra[h];
      const rank_t canonical = topo_.leader_rank(h);
      for (std::uint32_t k = 0; k < c; ++k) {
        const rank_t r = canonical + k;
        if (!engine_->is_dead(r)) ih.members.push_back(r);
      }
      // Canonical-leader policy: no election, no rank rewriting. A host
      // whose canonical leader is dead at compile time contributes nothing
      // to the inter-node exchange; its surviving members complete
      // degraded (every requested key resolves to identity, filled below).
      if (ih.members.empty() || engine_->is_dead(canonical)) continue;
      ih.leader = canonical;
      member_keys.clear();
      for (const rank_t r : ih.members) {
        member_keys.push_back(out_sets[r].keys());
      }
      tree_merge_into(member_keys, host_union, merge_scratch);
      ih.out_maps = std::move(host_union.maps);
      ih.out_union_size = host_union.keys.size();
      node_out[canonical] =
          KeySet::from_sorted_keys(std::vector<key_t>(host_union.keys));
      member_keys.clear();
      for (const rank_t r : ih.members) {
        member_keys.push_back(in_sets[r].keys());
      }
      tree_merge_into(member_keys, host_union, merge_scratch);
      ih.in_maps = std::move(host_union.maps);
      node_in[canonical] =
          KeySet::from_sorted_keys(std::vector<key_t>(host_union.keys));
      // Price the leader-side set unions of the config stage: the leader
      // walks every co-located member's key sets once over the memory bus.
      if constexpr (requires(Engine& e) {
                      e.charge_intra(Phase::kConfig, rank_t{0}, 0.0);
                    }) {
        double elements = 0.0;
        for (const rank_t r : ih.members) {
          elements +=
              static_cast<double>(in_sets[r].size() + out_sets[r].size());
        }
        const auto peers = static_cast<std::uint32_t>(ih.members.size());
        double seconds = 0.0;
        if (net_ != nullptr) {
          seconds += net_->intra_copy_time(elements * sizeof(key_t), peers);
        }
        if (compute_ != nullptr) {
          seconds += compute_->merge_time(elements, peers);
        }
        if (seconds > 0.0) {
          engine_->charge_intra(Phase::kConfig, ih.leader, seconds);
        }
      }
    }

    build_nodes(std::move(node_in), std::move(node_out));
    run_config_rounds();
    std::shared_ptr<CollectivePlan> plan = take_node_plans(fp);
    for (rank_t h = 0; h < hosts; ++h) {
      const IntraHost& ih = intra[h];
      const std::vector<key_t>* host_missing =
          ih.leader != kNoLeader
              ? &plan->rank_plan(ih.leader).missing_bottom
              : nullptr;
      for (const rank_t r : ih.members) {
        RankPlan& rp = plan->mutable_rank_plan(r);
        rp.configured = true;
        rp.in0 = std::move(in_sets[r]);
        rp.out0_size = out_sets[r].size();
        // The leader keeps its host-level missing set (begin_up's degraded
        // cold path keys off it); members intersect their own requested
        // keys with it. A leaderless host lost every requested key.
        if (r == ih.leader) continue;
        rp.missing_bottom.clear();
        if (host_missing == nullptr) {
          rp.missing_bottom.assign(rp.in0.begin(), rp.in0.end());
        } else if (!host_missing->empty()) {
          for (const key_t key : rp.in0) {
            if (std::binary_search(host_missing->begin(),
                                   host_missing->end(), key)) {
              rp.missing_bottom.push_back(key);
            }
          }
        }
      }
    }
    plan->set_intra_hosts(std::move(intra));
    plan_ = std::move(plan);
    activate(plan_, /*combined=*/false);
    return plan_;
  }

  void build_nodes(std::vector<KeySet> in_sets, std::vector<KeySet> out_sets) {
    const rank_t m = topo_.num_machines();
    KYLIX_CHECK(in_sets.size() == m && out_sets.size() == m);
    // Nodes are rebuilt per configure/reduce_with_config call, but their
    // working storage persists here, so repeated minibatch steps reuse
    // warmed buffers instead of re-allocating every letter and union.
    // Until the new pass completes there is no plan to replay.
    active_.reset();
    nodes_.clear();
    if (scratch_.size() < m) scratch_.resize(m);
    nodes_.reserve(m);
    for (rank_t r = 0; r < m; ++r) {
      nodes_.emplace_back(&topo_, r, std::move(in_sets[r]),
                          std::move(out_sets[r]), &scratch_[r]);
    }
  }

  /// Recovery-capable engines price group deaths by input mass Σ|v|.
  void note_input_mass(rank_t r, const std::vector<V>& values) {
    if constexpr (std::is_arithmetic_v<V> &&
                  requires(Engine& e) { e.note_input_mass(r, 0.0); }) {
      double mass = 0.0;
      for (const V& v : values) mass += std::abs(static_cast<double>(v));
      engine_->note_input_mass(r, mass);
    }
  }

  /// The configuration pass over the freshly built nodes: config rounds
  /// 1..l, every alive union-holding node completing its RankPlan on its
  /// own worker inside the last round's consume (run_round). The driving
  /// thread keeps one O(1) decision per rank, in rank order: a dead rank is
  /// unconfigured, and a requested index no machine contributed is an
  /// error unless the engine allows degraded completion and has lost a
  /// rank, in which case it stays at the reduction identity.
  void run_config_rounds() {
    const std::uint16_t l = topo_.num_layers();
    for (std::uint16_t layer = 1; layer <= l; ++layer) {
      run_round(Phase::kConfig, layer);
    }
    if (l == 0) {
      // No round to carry the finish: a zero-layer topology finishes here,
      // on the union-holding ranks the rounds would have run.
      for (Node& node : nodes_) {
        const rank_t r = node.rank();
        if (engine_->is_dead(r)) continue;
        if (topo_.hierarchical() && !topo_.is_leader(r)) continue;
        node.finish_configure();
      }
    }
    bool degraded = false;
    if constexpr (requires(Engine& e) {
                    { e.degraded_allowed() } -> std::convertible_to<bool>;
                    { e.has_failed() } -> std::convertible_to<bool>;
                  }) {
      degraded = engine_->degraded_allowed() && engine_->has_failed();
    }
    for (Node& node : nodes_) {
      if (!node.configured()) continue;
      if (engine_->is_dead(node.rank())) {
        node.unconfigure();
        continue;
      }
      KYLIX_CHECK_MSG(degraded || node.missing_bottom().empty(),
                      "requested index "
                          << unhash_index(node.missing_bottom().front())
                          << " was contributed by no machine");
    }
  }

  /// Move every configured node's RankPlan into a new plan (no copy).
  [[nodiscard]] std::shared_ptr<CollectivePlan> take_node_plans(
      std::uint64_t fingerprint) {
    auto plan = std::make_shared<CollectivePlan>(topo_, fingerprint);
    for (Node& node : nodes_) {
      if (node.configured()) {
        plan->mutable_rank_plan(node.rank()) = node.take_plan();
      }
    }
    plan->set_chunk_bytes(
        chunk_bytes_ != 0
            ? chunk_bytes_
            : (net_ != nullptr
                   ? static_cast<std::uint64_t>(net_->min_efficient_packet())
                   : 0));
    return plan;
  }

  /// Make `plan` the one reduce() replays. `combined` records that values
  /// rode its config letters (reduce_with_config), which changes how death
  /// records map to key ranges and keeps reduce_strided() off it.
  void activate(std::shared_ptr<const CollectivePlan> plan, bool combined) {
    active_ = std::move(plan);
    combined_ = combined;
    if (active_->any_configured()) {
      executor_.bind(engine_, active_, compute_, net_);
    }
  }

  [[nodiscard]] bool replayable() const {
    return active_ != nullptr && active_->any_configured();
  }

  void run_round(Phase phase, std::uint16_t layer) {
    // Hierarchical topologies exchange between host leaders only: the other
    // cores of a host hold no per-layer routing state (their unions live at
    // the leader), so they neither produce, expect, nor consume letters.
    const bool gate = topo_.hierarchical();
    engine_->round(
        phase, layer,
        // Reference returns: produce hands out the node's reusable letter
        // shells; expected hands out the cached group (no copies per round).
        [&](rank_t r) -> std::vector<Letter<V>>& {
          if (gate && !topo_.is_leader(r)) return empty_letters_;
          return nodes_[r].config_produce(layer);
        },
        [&](rank_t r) -> const std::vector<rank_t>& {
          if (gate && !topo_.is_leader(r)) return empty_ranks_;
          return nodes_[r].expected(layer);
        },
        [&](rank_t r, std::vector<Letter<V>>&& inbox) {
          if (gate && !topo_.is_leader(r)) return;
          nodes_[r].config_consume(layer, std::move(inbox));
          charge(phase, layer, nodes_[r]);
          // The bottom-map sweep ends the rank's configuration on its own
          // worker; it charges nothing, so the modeled clock is unchanged.
          if (layer == topo_.num_layers()) nodes_[r].finish_configure();
        });
  }

  static bool contains(const std::vector<rank_t>& v, rank_t x) {
    return std::find(v.begin(), v.end(), x) != v.end();
  }

  /// Node layer whose key range a death record takes down. A group dying at
  /// {down, i} held its layer i-1 merged partial; one noticed at {up, i}
  /// was the only path to its layer-i fully-reduced values. Config deaths
  /// follow the down rule in combined mode (values ride config letters);
  /// in separate mode only key routing through the group is lost, which is
  /// the layer-i subrange. Clamped at 1: a group that never merged anything
  /// loses at most its layer-1 range (its own inputs are priced by
  /// inputs_lost, not by a range).
  [[nodiscard]] std::uint16_t record_node_layer(const DeathRecord& d) const {
    if (d.phase == Phase::kReduceUp) return d.layer;
    if (d.phase == Phase::kConfig && !combined_) return d.layer;
    return std::max<std::uint16_t>(d.layer, 2) - 1;
  }

  /// Dead ranks can't answer configuration, so two compiles of the *same*
  /// key sets under different alive sets produce different plans. Fold the
  /// dead set into the fingerprint (order-independent xor of per-rank
  /// digests) so per-epoch plans never collide in the PlanCache; identity
  /// when every rank is alive, so full-membership fingerprints — including
  /// after a rejoin — are unchanged and still hit their original entries.
  [[nodiscard]] std::uint64_t salt_fingerprint(std::uint64_t fp) const {
    if (fp == 0) return 0;  // anonymous plans stay anonymous
    for (rank_t r = 0; r < topo_.num_machines(); ++r) {
      if (engine_->is_dead(r)) {
        fp ^= mix64(0x6d656d62ULL ^ static_cast<std::uint64_t>(r));
      }
    }
    // The intra tier reshapes the whole schedule, so hierarchical and flat
    // plans over the same key sets must coexist in a PlanCache. Salted only
    // when cores > 1: a one-core "hierarchical" topology compiles the exact
    // flat plan, and keeping the fingerprint unchanged lets it hit the flat
    // entry (tested by the hierarchy lane).
    if (topo_.hierarchical()) {
      fp = mix64(fp ^ (0x686f7374ULL << 8) ^
                 static_cast<std::uint64_t>(topo_.cores_per_machine()));
      if (fp == 0) fp = 1;
    }
    return fp;
  }

  /// True iff `inner` ⊆ `outer` (hi == 0 with lo != 0 means "up to 2^64").
  static bool range_within(const KeyRange& inner, const KeyRange& outer) {
    if (outer.is_full()) return true;
    if (inner.is_full()) return false;
    if (inner.lo < outer.lo) return false;
    if (outer.hi == 0) return true;
    return inner.hi != 0 && inner.hi <= outer.hi;
  }

  /// Drop ranges contained in another (death records repeat across rounds
  /// at nested layers); collapse to the full space if any record was.
  static void prune_ranges(std::vector<KeyRange>& ranges) {
    for (const KeyRange& range : ranges) {
      if (range.is_full()) {
        ranges.assign(1, KeyRange::full());
        return;
      }
    }
    std::vector<KeyRange> kept;
    for (std::size_t i = 0; i < ranges.size(); ++i) {
      bool dominated = false;
      for (std::size_t k = 0; k < ranges.size() && !dominated; ++k) {
        if (k == i) continue;
        if (range_within(ranges[i], ranges[k]) &&
            !(range_within(ranges[k], ranges[i]) && k > i)) {
          dominated = true;
        }
      }
      if (!dominated) kept.push_back(ranges[i]);
    }
    ranges.swap(kept);
  }

  void charge(Phase phase, std::uint16_t layer, Node& node) {
    const NodeWork work = node.take_work();
    if (compute_ == nullptr || layer == 0) return;
    const double seconds =
        compute_->merge_time(work.merge_elements, work.merge_ways) +
        compute_->combine_time(work.combine_elements) +
        compute_->gather_time(work.gather_elements);
    engine_->charge_compute(phase, layer, node.rank(), seconds);
  }

  Engine* engine_;
  Topology topo_;
  const ComputeModel* compute_;
  const NetworkModel* net_ = nullptr;  ///< chunk-size compiler input
  std::uint64_t chunk_bytes_ = 0;      ///< tuning override (0 = compiled)
  std::vector<Node> nodes_;
  std::vector<Letter<V>> empty_letters_;  ///< hierarchical non-leader rounds
  std::vector<rank_t> empty_ranks_;
  std::vector<NodeScratch<V>> scratch_;  ///< per-rank, survives build_nodes
  std::shared_ptr<const CollectivePlan> plan_;    ///< what plan() returns
  /// The plan reduce() replays: plan_, or the private plan of the last
  /// reduce_with_config(). Per-rank introspection reads it too.
  std::shared_ptr<const CollectivePlan> active_;
  bool combined_ = false;  ///< active_ came from reduce_with_config()
  ReduceExecutor<V, Op, Engine> executor_;
};

}  // namespace kylix
