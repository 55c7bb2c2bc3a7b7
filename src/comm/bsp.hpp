// The deterministic bulk-synchronous engine.
//
// One round = one communication layer of one phase: every alive node
// produces its outgoing letters, the engine applies failure drops and
// records trace/timing, then every alive node consumes its inbox (sorted by
// source rank, so results are independent of delivery order — the same
// property the threaded engine guarantees by sorting after collecting).
//
// Node algorithms are expressed as produce/expected/consume callbacks, which
// lets this engine, the replication wrapper, and the threaded engine drive
// the *same* algorithm code (DESIGN.md decision 3).
#pragma once

#include <algorithm>
#include <vector>

#include "cluster/failure.hpp"
#include "cluster/timing.hpp"
#include "cluster/trace.hpp"
#include "comm/delivery.hpp"
#include "comm/fault_channel.hpp"
#include "comm/packet.hpp"
#include "common/check.hpp"
#include "obs/observer.hpp"

namespace kylix {

/// Engine concept shared by BspEngine / ReplicatedBsp / ThreadedBsp:
///   rank_t num_ranks() const;
///   round(phase, layer, produce, expected, consume);
/// where, for each alive rank r,
///   produce(r)  -> std::vector<Letter<V>>   letters to send (self allowed)
///   expected(r) -> std::vector<rank_t>      ranks r awaits a letter from
///   consume(r, std::vector<Letter<V>>&&)    inbox sorted by src
template <typename V>
class BspEngine {
 public:
  /// All observer pointers are optional and not owned.
  BspEngine(rank_t num_nodes, const FailureModel* failures = nullptr,
            Trace* trace = nullptr, TimingAccumulator* timing = nullptr)
      : num_nodes_(num_nodes),
        failures_(failures),
        trace_(trace),
        timing_(timing) {
    KYLIX_CHECK(num_nodes >= 1);
    KYLIX_CHECK_MSG(failures == nullptr || failures->num_nodes() >= num_nodes,
                    "FailureModel covers fewer ranks than the engine");
  }

  [[nodiscard]] rank_t num_ranks() const { return num_nodes_; }

  [[nodiscard]] bool is_dead(rank_t rank) const {
    return failures_ != nullptr && failures_->is_dead(rank);
  }

  /// Elastic membership: an unreplicated engine with any dead rank can only
  /// complete in degraded mode — there is no replica to recover the dead
  /// rank's exclusive keys from, so surviving nodes resolve them to the
  /// reduction identity (core/degraded.hpp) instead of aborting
  /// finish_configure(). Lets survivors re-plan around confirmed deaths.
  [[nodiscard]] bool has_failed() const {
    return failures_ != nullptr && failures_->num_dead() > 0;
  }
  [[nodiscard]] bool degraded_allowed() const { return true; }

  /// Telemetry hook (src/obs); optional and not owned, like trace/timing.
  void set_observer(EngineObserver* observer) { observer_ = observer; }

  /// Attach a chaos-engine fault channel (optional, not owned, one engine
  /// per channel). When the engine has no FailureModel of its own it adopts
  /// the plan's, so scripted crashes take effect without extra plumbing.
  void set_fault_channel(FaultChannel<V>* channel) {
    channel_ = channel;
    if (channel_ != nullptr && failures_ == nullptr) {
      failures_ = &channel_->plan().failures();
    }
    KYLIX_CHECK_MSG(
        channel_ == nullptr ||
            channel_->plan().num_nodes() >= num_nodes_,
        "FaultPlan covers fewer ranks than the engine");
  }

  /// Messages transmitted to dead destinations (sender paid, nothing
  /// arrived) since construction.
  [[nodiscard]] std::uint64_t dropped_messages() const { return dropped_; }

  /// Attribute modeled local compute to a rank within a round.
  void charge_compute(Phase phase, std::uint16_t layer, rank_t rank,
                      double seconds) {
    if (timing_ != nullptr) timing_->on_compute(phase, layer, rank, seconds);
  }

  /// Attribute modeled intra-node (shared-memory tier) time to a rank.
  void charge_intra(Phase phase, rank_t rank, double seconds) {
    if (timing_ != nullptr) timing_->on_intra(phase, rank, seconds);
  }

  /// Intra-node stage of a hierarchical topology (DESIGN §13): run
  /// `fn(host)` for every host. No letters, no trace/observer events — the
  /// leader reduces directly from co-located peer buffers (single copy), so
  /// there is nothing on the wire to record. fn must skip dead ranks itself
  /// (it sees the member list; the engine only sees hosts here).
  template <typename Fn>
  void intra_round(Phase phase, rank_t num_hosts, Fn&& fn) {
    (void)phase;
    for (rank_t h = 0; h < num_hosts; ++h) fn(h);
  }

  template <typename ProduceFn, typename ExpectedFn, typename ConsumeFn>
  void round(Phase phase, std::uint16_t layer, ProduceFn&& produce,
             ExpectedFn&& expected, ConsumeFn&& consume) {
    // The fault plan's scripted crashes fire first, so a node killed "at"
    // this round neither produces nor receives in it.
    if (channel_ != nullptr) channel_->begin_round(phase, layer);
    if (observer_ != nullptr) observer_->on_round_begin(phase, layer);
    // Inboxes persist across rounds: clear() keeps both the outer vector's
    // capacity and each inbox's letter-shell capacity, so steady-state
    // rounds perform no heap allocation here.
    if (inboxes_.size() < num_nodes_) inboxes_.resize(num_nodes_);
    for (auto& inbox : inboxes_) inbox.clear();
    const LetterDelivery<V> wire{failures_, trace_,    timing_,
                                 observer_, channel_, &dropped_};
    for (rank_t rank = 0; rank < num_nodes_; ++rank) {
      if (is_dead(rank)) continue;
      for (Letter<V>& letter : produce(rank)) {
        KYLIX_DCHECK(letter.src == rank);
        KYLIX_CHECK_MSG(letter.dst < num_nodes_, "letter to invalid rank");
        wire.deliver(phase, layer, std::move(letter), inboxes_);
      }
    }
    if (channel_ != nullptr) wire.drain_due(phase, layer, inboxes_);
    for (rank_t rank = 0; rank < num_nodes_; ++rank) {
      if (is_dead(rank)) continue;
      auto& inbox = inboxes_[rank];
      std::sort(inbox.begin(), inbox.end(), letter_before<V>);
#ifndef NDEBUG
      if (!inbox.empty()) {
        // Sanity: only expected senders may appear. Sort a copy once and
        // binary-search instead of a linear scan per letter.
        std::vector<rank_t> senders(expected(rank).begin(),
                                    expected(rank).end());
        std::sort(senders.begin(), senders.end());
        for (const Letter<V>& letter : inbox) {
          KYLIX_DCHECK(
              std::binary_search(senders.begin(), senders.end(), letter.src));
        }
      }
#else
      (void)expected;
#endif
      consume(rank, std::move(inbox));
    }
    if (observer_ != nullptr) observer_->on_round_end(phase, layer);
  }

 private:
  rank_t num_nodes_;
  const FailureModel* failures_;
  Trace* trace_;
  TimingAccumulator* timing_;
  EngineObserver* observer_ = nullptr;
  FaultChannel<V>* channel_ = nullptr;
  std::uint64_t dropped_ = 0;
  std::vector<std::vector<Letter<V>>> inboxes_;  ///< reused across rounds
};

}  // namespace kylix
