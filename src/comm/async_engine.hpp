// The vocabulary of the AsyncExecutor's modeled schedule (DESIGN §11):
//
//   AsyncSlots   the reduce's 2l rounds in protocol order, one slot each;
//   NicTimeline  one rank's modeled send NIC as gap-filling busy intervals.
//
// Streams replay through the one ReduceExecutor, where LetterDelivery
// (comm/delivery.hpp) decides each letter's fate; the executor records the
// letters and schedules them on these timelines. A faulted stream replays
// under its own FaultChannel, which dies with the stream: a kDelay letter
// (redelivered only at a later round with the same {phase, layer}, which
// never recurs within one reduce) is paid for by its sender, never
// arrives, and never leaks into the next stream.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "cluster/trace.hpp"  // Phase

namespace kylix {

/// Slot arithmetic of one reduce's rounds in protocol order:
/// slot i-1   <- {kReduceDown, layer i},   i in [1, l]
/// slot 2l-i  <- {kReduceUp,   layer i},   i in [1, l]
struct AsyncSlots {
  static constexpr std::size_t count(std::uint16_t layers) {
    return 2u * std::size_t{layers};
  }
  static constexpr std::size_t index(Phase phase, std::uint16_t layer,
                                     std::uint16_t layers) {
    return phase == Phase::kReduceDown ? std::size_t{layer} - 1u
                                       : 2u * std::size_t{layers} - layer;
  }
};

/// One modeled NIC direction as a work-conserving timeline of busy
/// intervals. A scalar free-clock NIC commits wire time in *claim* order —
/// which is node-step order, not virtual-time order — so one lane's burst
/// fences off wire time that another lane's earlier-in-virtual-time letter
/// could have used, and the in-flight streams convoy into slot waves that
/// leave the wire idle while every lane computes. First-fit gap claiming
/// models the NIC real hardware gives k independent send queues: a letter
/// departs in the earliest idle interval at or after its send time, no
/// matter which order the simulator happened to discover the sends in.
struct NicTimeline {
  /// Sorted, disjoint busy intervals [start, end).
  std::vector<std::pair<double, double>> busy;

  void clear() { busy.clear(); }

  /// Occupy the earliest `duration`-long idle window starting at or after
  /// `t`; returns the chosen start time.
  double claim(double t, double duration) {
    auto it = std::upper_bound(
        busy.begin(), busy.end(), t,
        [](double v, const std::pair<double, double>& iv) {
          return v < iv.second;
        });
    // `it` is the first interval ending after t: the candidate gap starts
    // at max(t, previous end) and must reach the next interval's start.
    double start = t;
    while (it != busy.end()) {
      if (start + duration <= it->first) break;  // fits before this interval
      start = std::max(start, it->second);
      ++it;
    }
    busy.insert(it, {start, start + duration});
    return start;
  }
};

}  // namespace kylix
