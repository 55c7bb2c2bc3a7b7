// LetterDelivery — the sequential delivery step shared by BspEngine and
// ParallelBspEngine.
//
// Both engines deliver letters one at a time on the calling thread, in
// (sender rank, production) order, so traces, modeled timing, and the fault
// plan's RNG advance identically. This is the one definition of that step:
// charge the send, drop a letter to a dead destination (the sender already
// paid), let the FaultChannel classify it (a duplicate is charged twice and
// delivered once), and append it to the destination inbox. drain_due() then
// redelivers the channel's delayed letters that fell due this round.
//
// The struct only borrows the engine's sinks for one round; every pointer
// is optional except `dropped`.
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

  /// Charge one sent letter and deliver it into inboxes[dst], unless it is
  /// lost (dead destination, kDrop) or stashed by the channel (kDelay).
  void deliver(Phase phase, std::uint16_t layer, Letter<V>&& letter,
               std::vector<std::vector<Letter<V>>>& inboxes) const {
    const MsgEvent event{phase, layer, letter.src, letter.dst,
                         letter.packet.wire_bytes()};
    charge(event);
    // A send to a dead node costs the sender (charged above) but never
    // arrives.
    if (dead(letter.dst)) {
      ++*dropped;
      if (observer != nullptr) observer->on_drop(event);
      return;
    }
    if (channel != nullptr) {
      const FaultAction action = channel->route(phase, layer, letter);
      if (action != FaultAction::kDeliver) {
        if (observer != nullptr) observer->on_fault(event, action);
        if (action != FaultAction::kDuplicate) {
          return;  // kDrop is lost; kDelay is stashed in the channel.
        }
        // The wire carried the letter twice; charge the second copy.
        charge(event);
      }
    }
    inboxes[letter.dst].push_back(std::move(letter));
  }

  /// Move delayed letters that are due this round into their inboxes. A
  /// letter is discarded as stale when its destination died meanwhile or a
  /// fresh letter for the same (sender, chunk) slot already arrived this
  /// round — sibling chunks of the same logical letter never supersede.
  void drain_due(Phase phase, std::uint16_t layer,
                 std::vector<std::vector<Letter<V>>>& inboxes) const {
    for (Letter<V>& letter : channel->due()) {
      const MsgEvent event{phase, layer, letter.src, letter.dst,
                           letter.packet.wire_bytes()};
      if (letter.dst >= inboxes.size() || dead(letter.dst)) {
        channel->note_stale();
        if (observer != nullptr) observer->on_redelivery(event, true);
        continue;
      }
      auto& inbox = inboxes[letter.dst];
      const bool superseded =
          std::any_of(inbox.begin(), inbox.end(), [&](const Letter<V>& l) {
            return same_slot(l, letter);
          });
      if (superseded) {
        channel->note_stale();
        if (observer != nullptr) observer->on_redelivery(event, true);
        continue;
      }
      inbox.push_back(std::move(letter));
      channel->note_redelivered();
      if (observer != nullptr) observer->on_redelivery(event, false);
    }
    channel->due().clear();
  }

 private:
  void charge(const MsgEvent& event) const {
    if (trace != nullptr) trace->add(event);
    if (timing != nullptr) timing->on_message(event);
    if (observer != nullptr) observer->on_message(event);
  }
};

}  // namespace kylix
