// LetterDelivery — the one wire core every letter engine delivers through.
//
// This is the single definition of what happens to a sent letter: charge
// the send, drop a letter to a dead destination (the sender already paid),
// let the FaultChannel classify it (a duplicate is charged twice and
// delivered once), and otherwise pass it on (admit). A delayed letter that
// falls due is merged into its destination's inbox unless a fresh copy of
// the same (sender, chunk) slot already arrived there (redeliver).
//
// ParallelBspEngine (and BspEngine, its one-thread form) admits letters one
// at a time on the calling thread in (sender rank, production) order, so
// traces, modeled timing and the fault plan's RNG advance identically at any
// thread count (deliver / drain_due). ThreadedBsp calls admit from its rank
// workers under its observer mutex and redeliver from each rank's worker;
// the step is the same, only the order is the scheduler's.
//
// The struct only borrows the engine's sinks; every pointer is optional
// except `dropped`.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cluster/failure.hpp"
#include "cluster/timing.hpp"
#include "cluster/trace.hpp"
#include "comm/fault_channel.hpp"
#include "comm/packet.hpp"
#include "obs/observer.hpp"

namespace kylix {

template <typename V>
struct LetterDelivery {
  const FailureModel* failures = nullptr;
  Trace* trace = nullptr;
  TimingAccumulator* timing = nullptr;
  EngineObserver* observer = nullptr;
  FaultChannel<V>* channel = nullptr;
  std::uint64_t* dropped = nullptr;  ///< the engine's dead-destination count

  [[nodiscard]] bool dead(rank_t rank) const {
    return failures != nullptr && failures->is_dead(rank);
  }

  /// Charge one sent letter and decide whether it travels on. False when it
  /// is lost (dead destination, kDrop) or stashed by the channel (kDelay,
  /// which moves the letter out); the caller keeps the letter on true.
  [[nodiscard]] bool admit(Phase phase, std::uint16_t layer,
                           Letter<V>& letter) const {
    const MsgEvent event = event_of(phase, layer, letter);
    charge(event);
    // A send to a dead node costs the sender (charged above) but never
    // arrives.
    if (dead(letter.dst)) {
      ++*dropped;
      if (observer != nullptr) observer->on_drop(event);
      return false;
    }
    if (channel != nullptr) {
      const FaultAction action = channel->route(phase, layer, letter);
      if (action != FaultAction::kDeliver) {
        if (observer != nullptr) observer->on_fault(event, action);
        if (action != FaultAction::kDuplicate) {
          return false;  // kDrop is lost; kDelay is stashed in the channel.
        }
        // The wire carried the letter twice; charge the second copy.
        charge(event);
      }
    }
    return true;
  }

  /// Admit one letter and append it to inboxes[dst] if it travels on.
  void deliver(Phase phase, std::uint16_t layer, Letter<V>&& letter,
               std::vector<std::vector<Letter<V>>>& inboxes) const {
    if (admit(phase, layer, letter)) {
      inboxes[letter.dst].push_back(std::move(letter));
    }
  }

  /// Merge one due delayed letter into its live destination's inbox. It is
  /// stale when a fresh letter for the same (sender, chunk) slot already
  /// arrived this round — sibling chunks of one logical letter never
  /// supersede each other.
  void redeliver(Phase phase, std::uint16_t layer, Letter<V>&& letter,
                 std::vector<Letter<V>>& inbox) const {
    const bool superseded =
        std::any_of(inbox.begin(), inbox.end(), [&](const Letter<V>& l) {
          return same_slot(l, letter);
        });
    if (superseded) {
      discard(phase, layer, letter);
      return;
    }
    const MsgEvent event = event_of(phase, layer, letter);
    inbox.push_back(std::move(letter));
    channel->note_redelivered();
    if (observer != nullptr) observer->on_redelivery(event, false);
  }

  /// Count one due delayed letter stale without delivering it.
  void discard(Phase phase, std::uint16_t layer,
               const Letter<V>& letter) const {
    channel->note_stale();
    if (observer != nullptr) {
      observer->on_redelivery(event_of(phase, layer, letter), true);
    }
  }

  /// Redeliver every delayed letter due this round into `inboxes`; letters
  /// whose destination died meanwhile are discarded as stale.
  void drain_due(Phase phase, std::uint16_t layer,
                 std::vector<std::vector<Letter<V>>>& inboxes) const {
    for (Letter<V>& letter : channel->due()) {
      if (letter.dst >= inboxes.size() || dead(letter.dst)) {
        discard(phase, layer, letter);
      } else {
        redeliver(phase, layer, std::move(letter), inboxes[letter.dst]);
      }
    }
    channel->due().clear();
  }

 private:
  [[nodiscard]] static MsgEvent event_of(Phase phase, std::uint16_t layer,
                                         const Letter<V>& letter) {
    return MsgEvent{phase, layer, letter.src, letter.dst,
                    letter.packet.wire_bytes()};
  }

  void charge(const MsgEvent& event) const {
    if (trace != nullptr) trace->add(event);
    if (timing != nullptr) timing->on_message(event);
    if (observer != nullptr) observer->on_message(event);
  }
};

}  // namespace kylix
