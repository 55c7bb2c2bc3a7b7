// The bulk-synchronous simulation engine.
//
// One round = one communication layer of one phase (§III–IV): every alive
// node produces its outgoing letters, the engine charges them, applies
// failure drops and faults through the shared wire core (comm/delivery.hpp),
// then every alive node consumes its inbox sorted by source rank — so
// results never depend on delivery order. BspEngine (comm/bsp.hpp) is this
// engine at one thread: the deterministic reference every other engine is
// tested against.
//
// The two embarrassingly-parallel halves of a round — every rank's produce
// and every rank's consume — run across a persistent ThreadPool (inline at
// one thread). The sequential parts that define observable order (trace
// events, modeled send/receive timing, failure drops, the fault plan's RNG)
// stay on the calling thread, so results, traces, and timing reports are
// bit-identical at every thread count:
//
//   1. Parallel produce: rank r's letters are staged into outboxes_[r] in
//      production order. Workers touch only their own rank's node.
//   2. Sequential delivery: outboxes are drained in (rank, production)
//      order through LetterDelivery, appending to the destination inboxes.
//   3. Parallel consume: each rank sorts its inbox by source and consumes
//      it. charge_compute() calls made by consumers land in per-rank buffers
//      (no contention: one consume per rank) and are flushed to the timing
//      accumulator in ascending rank order after the batch, so the per-slot
//      accumulation order (floating-point addition order included) does not
//      depend on the thread count.
//
// Inboxes and outboxes persist across rounds, so the steady-state letter
// recycling economy of the node layer is preserved: shells keep their
// capacity, and rounds allocate nothing once warm.
//
// Scaling: the pool claims contiguous rank shards (one atomic per shard, not
// per rank), debug sender checks reuse per-worker scratch indexed by
// ThreadPool::worker_id(), and pin_workers() optionally binds workers to
// CPUs so a rank's node state keeps its cache home across rounds. The
// hierarchical intra-node stage (intra_round) runs hosts across the pool —
// hosts are independent by construction (each leader touches only its own
// members' buffers, and the timing accumulator preallocates distinct
// per-rank slots), so no buffering or locking is needed there.
//
// Engine concept shared by this engine, ThreadedBsp and ReplicatedBsp (node
// algorithms are produce/expected/consume callbacks, so every engine drives
// the *same* algorithm code — DESIGN.md decision 3):
//   rank_t num_ranks() const;
//   round(phase, layer, produce, expected, consume);
// where, for each alive rank r,
//   produce(r)  -> std::vector<Letter<V>>   letters to send (self allowed)
//   expected(r) -> std::vector<rank_t>      ranks r awaits a letter from
//   consume(r, std::vector<Letter<V>>&&)    inbox sorted by src
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cluster/failure.hpp"
#include "cluster/timing.hpp"
#include "cluster/trace.hpp"
#include "comm/delivery.hpp"
#include "comm/fault_channel.hpp"
#include "comm/packet.hpp"
#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "obs/observer.hpp"

namespace kylix {

template <typename V>
class ParallelBspEngine {
 public:
  /// `threads` counts the calling thread (0 = hardware concurrency); all
  /// observer pointers are optional and not owned.
  explicit ParallelBspEngine(rank_t num_nodes, unsigned threads = 0,
                             const FailureModel* failures = nullptr,
                             Trace* trace = nullptr,
                             TimingAccumulator* timing = nullptr)
      : num_nodes_(num_nodes),
        pool_(threads),
        failures_(failures),
        trace_(trace),
        timing_(timing),
        outboxes_(num_nodes),
        inboxes_(num_nodes),
        pending_compute_(num_nodes),
        debug_senders_(pool_.num_threads()) {
    KYLIX_CHECK(num_nodes >= 1);
    KYLIX_CHECK_MSG(failures == nullptr || failures->num_nodes() >= num_nodes,
                    "FailureModel covers fewer ranks than the engine");
  }

  [[nodiscard]] rank_t num_ranks() const { return num_nodes_; }
  [[nodiscard]] unsigned num_threads() const { return pool_.num_threads(); }

  /// Affinity-aware placement: bind each pool worker to a CPU so rank
  /// shards keep their cache home across rounds (Linux; no-op elsewhere).
  void pin_workers() { pool_.pin_workers(); }

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
  /// Hooks fire from the sequential half of the round, so observers see the
  /// same event order at every thread count.
  void set_observer(EngineObserver* observer) { observer_ = observer; }

  /// Attach a chaos-engine fault channel (optional, not owned, one engine
  /// per channel). When the engine has no FailureModel of its own it adopts
  /// the plan's, so scripted crashes take effect without extra plumbing.
  /// Classification happens in the sequential delivery stage, so the plan's
  /// RNG is consumed in the same order at every thread count.
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

  /// Replace the FailureModel (optional, not owned): an adopted plan's
  /// model outlives set_fault_channel(nullptr), so a driver that reuses the
  /// engine across fault plans drops it here.
  void set_failures(const FailureModel* failures) { failures_ = failures; }

  /// Messages transmitted to dead destinations (sender paid, nothing
  /// arrived) since construction.
  [[nodiscard]] std::uint64_t dropped_messages() const { return dropped_; }

  /// During the parallel consume half this buffers per rank (the replay's
  /// bottom-gather charge included: it rides the last down consume);
  /// outside a round (e.g. the gather of a replay with no down round) it
  /// forwards directly to the accumulator and the observer.
  void charge_compute(Phase phase, std::uint16_t layer, rank_t rank,
                      double seconds) {
    if (collecting_) {
      pending_compute_[rank].push_back(ComputeEvent{phase, layer, seconds});
    } else {
      emit_compute(phase, layer, rank, seconds);
    }
  }

  /// Intra-tier charges always forward directly: the accumulator holds
  /// preallocated per-rank slots and each host's ranks are charged by
  /// exactly one intra_round worker, so concurrent charges never alias.
  void charge_intra(Phase phase, rank_t rank, double seconds) {
    if (timing_ != nullptr) timing_->on_intra(phase, rank, seconds);
  }

  /// Intra-node stage of a hierarchical topology: hosts are mutually
  /// independent (a leader reduces only from its own members' buffers), so
  /// they run across the pool. No letters, trace, or observer events — the
  /// shared-memory tier has nothing on the wire to record.
  template <typename Fn>
  void intra_round(Phase phase, rank_t num_hosts, Fn&& fn) {
    (void)phase;
    pool_.parallel_for(num_hosts,
                       [&](std::size_t h) { fn(static_cast<rank_t>(h)); });
  }

  template <typename ProduceFn, typename ExpectedFn, typename ConsumeFn>
  void round(Phase phase, std::uint16_t layer, ProduceFn&& produce,
             ExpectedFn&& expected, ConsumeFn&& consume) {
    // The fault plan's scripted crashes fire first, so a node killed "at"
    // this round neither produces nor receives in it.
    if (channel_ != nullptr) channel_->begin_round(phase, layer);
    if (observer_ != nullptr) observer_->on_round_begin(phase, layer);
    // 1. Parallel produce into per-rank staging outboxes.
    pool_.parallel_for(num_nodes_, [&](std::size_t r) {
      const rank_t rank = static_cast<rank_t>(r);
      auto& outbox = outboxes_[rank];
      outbox.clear();
      if (is_dead(rank)) return;
      for (Letter<V>& letter : produce(rank)) {
        KYLIX_DCHECK(letter.src == rank);
        KYLIX_CHECK_MSG(letter.dst < num_nodes_, "letter to invalid rank");
        outbox.push_back(std::move(letter));
      }
    });

    // 2. Sequential delivery in (rank, production) order, so traces and
    // modeled timing do not depend on the thread count.
    // The staged outboxes give the exact round size up front, so the trace
    // can reserve once instead of growing mid-round.
    if (trace_ != nullptr) {
      std::size_t staged = 0;
      for (const auto& outbox : outboxes_) staged += outbox.size();
      trace_->reserve(staged);
    }
    for (auto& inbox : inboxes_) inbox.clear();
    const LetterDelivery<V> wire{failures_, trace_,    timing_,
                                 observer_, channel_, &dropped_};
    for (rank_t rank = 0; rank < num_nodes_; ++rank) {
      for (Letter<V>& letter : outboxes_[rank]) {
        wire.deliver(phase, layer, std::move(letter), inboxes_);
      }
    }
    if (channel_ != nullptr) wire.drain_due(phase, layer, inboxes_);

    // 3. Parallel consume; compute charges buffer per rank (one consumer
    // per rank, so the buffers are contention-free).
    collecting_ = timing_ != nullptr || observer_ != nullptr;
    pool_.parallel_for(num_nodes_, [&](std::size_t r) {
      const rank_t rank = static_cast<rank_t>(r);
      if (is_dead(rank)) return;
      auto& inbox = inboxes_[rank];
      std::sort(inbox.begin(), inbox.end(), letter_before<V>);
#ifndef NDEBUG
      if (!inbox.empty()) {
        // Sanity: only expected senders may appear (sorted + binary
        // search). Per-worker scratch: no allocation once warm, no locks.
        auto& senders = debug_senders_[ThreadPool::worker_id()];
        senders.assign(expected(rank).begin(), expected(rank).end());
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
    });
    collecting_ = false;

    // Flush buffered charges in ascending rank order: the per-slot
    // accumulation order of a sequential consume loop.
    for (rank_t rank = 0; rank < num_nodes_; ++rank) {
      for (const ComputeEvent& e : pending_compute_[rank]) {
        emit_compute(e.phase, e.layer, rank, e.seconds);
      }
      pending_compute_[rank].clear();
    }
    if (observer_ != nullptr) observer_->on_round_end(phase, layer);
  }

 private:
  struct ComputeEvent {
    Phase phase;
    std::uint16_t layer;
    double seconds;
  };

  void emit_compute(Phase phase, std::uint16_t layer, rank_t rank,
                    double seconds) {
    if (timing_ != nullptr) timing_->on_compute(phase, layer, rank, seconds);
    if (observer_ != nullptr) {
      observer_->on_compute(phase, layer, rank, seconds);
    }
  }

  rank_t num_nodes_;
  ThreadPool pool_;
  const FailureModel* failures_;
  Trace* trace_;
  TimingAccumulator* timing_;
  EngineObserver* observer_ = nullptr;
  FaultChannel<V>* channel_ = nullptr;
  std::uint64_t dropped_ = 0;

  std::vector<std::vector<Letter<V>>> outboxes_;  ///< staged by produce
  std::vector<std::vector<Letter<V>>> inboxes_;   ///< reused across rounds
  std::vector<std::vector<ComputeEvent>> pending_compute_;
  std::vector<std::vector<rank_t>> debug_senders_;  ///< per-worker scratch
  bool collecting_ = false;  ///< true only during the consume batch
};

}  // namespace kylix
