// The concurrent engine: one host thread per simulated machine.
//
// Same round() contract as ParallelBspEngine, but every node runs its
// produce/send/receive/consume cycle on its own thread with blocking
// mailboxes — real concurrency, real interleavings, opportunistic message
// arrival (§VI-B). Received letters are sorted by source before consume, so
// results are bit-identical to the sequential engine regardless of arrival
// order (asserted by tests/core, which run both engines on the same inputs).
//
// Sends go through the shared wire core (comm/delivery.hpp): each worker
// calls LetterDelivery::admit under the observer mutex, because the trace,
// the timing accumulator, the observer and the fault plan's RNG are not
// thread-safe. The plan's RNG is consumed in whatever order threads reach
// it, so fault *placement* is scheduling-dependent here (unlike the
// sequential engine) while fault *semantics* are identical. Due delayed
// letters are merged by each destination's worker through
// LetterDelivery::redeliver.
//
// Ranks run on a ThreadPool with exactly num_ranks() threads, the caller
// included, so every index of a round's batch is one rank. Deadlock freedom
// rests on that count: a rank blocked in Mailbox::take holds at most one
// index, and with as many threads as indices each claim takes exactly one,
// so whenever an index is still unclaimed some thread is free to claim it —
// every sender a blocked receiver waits on does run.
//
// Failures are supported (dead nodes neither run nor receive); replication
// racing at the wire level is exercised by the Mailbox::take_any unit tests
// and the sequential ReplicatedBsp — this engine intentionally stays the
// minimal concurrent counterpart of the sequential engine.
#pragma once

#include <algorithm>
#include <mutex>
#include <vector>

#include "cluster/failure.hpp"
#include "cluster/timing.hpp"
#include "cluster/trace.hpp"
#include "comm/delivery.hpp"
#include "comm/fault_channel.hpp"
#include "comm/mailbox.hpp"
#include "comm/packet.hpp"
#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "obs/observer.hpp"

namespace kylix {

template <typename V>
class ThreadedBsp {
 public:
  ThreadedBsp(rank_t num_nodes, const FailureModel* failures = nullptr,
              Trace* trace = nullptr, TimingAccumulator* timing = nullptr)
      : num_nodes_(checked_ranks(num_nodes)),
        failures_(failures),
        trace_(trace),
        timing_(timing),
        mailboxes_(num_nodes),
        due_by_rank_(num_nodes),
        pool_(num_nodes) {
    KYLIX_CHECK_MSG(failures == nullptr || failures->num_nodes() >= num_nodes,
                    "FailureModel covers fewer ranks than the engine");
  }

  [[nodiscard]] rank_t num_ranks() const { return num_nodes_; }

  [[nodiscard]] bool is_dead(rank_t rank) const {
    return failures_ != nullptr && failures_->is_dead(rank);
  }

  /// Degraded completion around dead ranks; see
  /// ParallelBspEngine::has_failed().
  [[nodiscard]] bool has_failed() const {
    return failures_ != nullptr && failures_->num_dead() > 0;
  }
  [[nodiscard]] bool degraded_allowed() const { return true; }

  /// Telemetry hook (src/obs); optional, not owned. on_message/on_drop/
  /// on_fault/on_redelivery fire from worker threads under the observer
  /// mutex; round begin/end fire on the calling thread.
  void set_observer(EngineObserver* observer) { observer_ = observer; }

  /// Attach a chaos-engine fault channel (optional, not owned). Dropped and
  /// delayed copies become tombstone letters so blocking receives still
  /// unblock.
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

  /// Messages transmitted to dead destinations since construction.
  [[nodiscard]] std::uint64_t dropped_messages() const {
    std::lock_guard<std::mutex> lock(observer_mutex_);
    return dropped_;
  }

  /// Attribute modeled local compute to a rank within a round (thread-safe).
  void charge_compute(Phase phase, std::uint16_t layer, rank_t rank,
                      double seconds) {
    if (timing_ == nullptr) return;
    std::lock_guard<std::mutex> lock(observer_mutex_);
    timing_->on_compute(phase, layer, rank, seconds);
  }

  /// Attribute modeled intra-node (shared-memory tier) time to a rank.
  /// Called from intra_round, which runs on the calling thread here, so no
  /// lock is needed (the pool's workers are parked between rounds).
  void charge_intra(Phase phase, rank_t rank, double seconds) {
    if (timing_ != nullptr) timing_->on_intra(phase, rank, seconds);
  }

  /// Intra-node stage of a hierarchical topology: runs sequentially on the
  /// calling thread. The per-rank threads model the *wire*, and the
  /// shared-memory tier has no wire traffic to interleave — a leader reads
  /// its co-located members' buffers directly (single copy, no Letters).
  template <typename Fn>
  void intra_round(Phase phase, rank_t num_hosts, Fn&& fn) {
    (void)phase;
    for (rank_t h = 0; h < num_hosts; ++h) fn(h);
  }

  template <typename ProduceFn, typename ExpectedFn, typename ConsumeFn>
  void round(Phase phase, std::uint16_t layer, ProduceFn&& produce,
             ExpectedFn&& expected, ConsumeFn&& consume) {
    // Scripted crashes fire on the calling thread before any rank runs, so
    // is_dead() is stable for the whole round.
    if (channel_ != nullptr) channel_->begin_round(phase, layer);
    if (observer_ != nullptr) observer_->on_round_begin(phase, layer);
    const LetterDelivery<V> wire{failures_, trace_,    timing_,
                                 observer_, channel_, &dropped_};
    if (channel_ != nullptr) {
      // Stage due delayed letters per destination rank; the pool's batch
      // handshake publishes the staging, and each worker drains only its
      // own slot.
      for (Letter<V>& letter : channel_->due()) {
        if (letter.dst >= num_nodes_ || is_dead(letter.dst)) {
          wire.discard(phase, layer, letter);
        } else {
          due_by_rank_[letter.dst].push_back(std::move(letter));
        }
      }
      channel_->due().clear();
    }
    try {
      run_ranks(wire, phase, layer, produce, expected, consume);
    } catch (...) {
      // A rank that threw left letters no one will take; drop them so the
      // next round cannot consume this round's data.
      for (auto& mailbox : mailboxes_) mailbox.reset();
      for (auto& due : due_by_rank_) due.clear();
      throw;
    }
    if (observer_ != nullptr) observer_->on_round_end(phase, layer);
  }

 private:
  /// ThreadPool(0) would mean hardware concurrency, so the rank count is
  /// checked before the pool is built.
  static rank_t checked_ranks(rank_t num_nodes) {
    KYLIX_CHECK(num_nodes >= 1);
    return num_nodes;
  }

  /// One batch on the pool: every live rank produces and sends, takes one
  /// letter (or one edge's chunks) per live expected sender, merges its due
  /// delayed letters, and consumes its inbox sorted by source.
  template <typename ProduceFn, typename ExpectedFn, typename ConsumeFn>
  void run_ranks(const LetterDelivery<V>& wire, Phase phase,
                 std::uint16_t layer, ProduceFn& produce,
                 ExpectedFn& expected, ConsumeFn& consume) {
    pool_.parallel_for(num_nodes_, [&](std::size_t r) {
      const rank_t rank = static_cast<rank_t>(r);
      if (is_dead(rank)) return;
      for (Letter<V>& letter : produce(rank)) {
        KYLIX_DCHECK(letter.src == rank);
        send(wire, phase, layer, std::move(letter));
      }
      std::vector<Letter<V>> inbox;
      for (rank_t src : expected(rank)) {
        if (is_dead(src)) continue;  // an unreplicated dead sender: no letter
        // A streamed edge carries chunk_count letters; how many is learned
        // from the first arrival (every chunk — tombstones included —
        // carries the full framing), so the receiver keeps taking until the
        // edge is drained. Letter-at-once edges degenerate to one take.
        std::uint32_t want = 1;
        for (std::uint32_t got = 0; got < want; ++got) {
          Letter<V> letter = mailboxes_[rank].take(src);
          want = std::max(want,
                          std::max<std::uint32_t>(
                              1, letter.packet.chunk_count));
          // Tombstones stand in for dropped/delayed copies (the sender
          // still paid); they only exist to unblock this take.
          if (!letter.faulted) inbox.push_back(std::move(letter));
        }
      }
      auto& due = due_by_rank_[rank];
      if (!due.empty()) {
        // The channel's counters are no more thread-safe than the plan.
        std::lock_guard<std::mutex> lock(observer_mutex_);
        for (Letter<V>& letter : due) {
          wire.redeliver(phase, layer, std::move(letter), inbox);
        }
        due.clear();
      }
      std::sort(inbox.begin(), inbox.end(), letter_before<V>);
      consume(rank, std::move(inbox));
    });
  }

  /// Put one produced letter on the wire. A letter that does not travel on
  /// (kDrop, or stashed by kDelay) still leaves a tombstone in a live
  /// destination's mailbox, because that receiver blocks on take(src); the
  /// tombstone keeps the chunk framing so the receiver still counts it
  /// toward the edge's chunk_count letters.
  void send(const LetterDelivery<V>& wire, Phase phase, std::uint16_t layer,
            Letter<V>&& letter) {
    KYLIX_CHECK_MSG(letter.dst < num_nodes_, "letter to invalid rank");
    Letter<V> tombstone;  // framing only: kDelay moves the letter out
    tombstone.src = letter.src;
    tombstone.dst = letter.dst;
    tombstone.faulted = true;
    tombstone.packet.chunk_index = letter.packet.chunk_index;
    tombstone.packet.chunk_count = letter.packet.chunk_count;
    bool admitted = false;
    {
      std::lock_guard<std::mutex> lock(observer_mutex_);
      admitted = wire.admit(phase, layer, letter);
    }
    if (admitted) {
      mailboxes_[tombstone.dst].put(std::move(letter));
    } else if (!is_dead(tombstone.dst)) {
      mailboxes_[tombstone.dst].put(std::move(tombstone));
    }
  }

  rank_t num_nodes_;
  const FailureModel* failures_;
  Trace* trace_;
  TimingAccumulator* timing_;
  EngineObserver* observer_ = nullptr;
  FaultChannel<V>* channel_ = nullptr;
  /// Serializes trace, timing, observer, fault channel and dropped_.
  mutable std::mutex observer_mutex_;
  std::uint64_t dropped_ = 0;

  std::vector<Mailbox<V>> mailboxes_;
  /// Delayed letters due this round, staged per destination by the calling
  /// thread before the batch starts; each worker drains only its own slot.
  std::vector<std::vector<Letter<V>>> due_by_rank_;
  ThreadPool pool_;  ///< last member: its workers stop before the rest goes
};

}  // namespace kylix
