// AsyncNode — a resumable per-rank replay state machine (DESIGN §11).
//
// The round-barriered drivers call one produce/consume pair per rank per
// round and rely on the engine's barrier to know every input has arrived.
// AsyncNode inverts that: each node owns a tiny program counter over the
// reduce's 2l communication slots ({scatter-reduce down layers 1..l, then
// allgather up layers l..1}) and exposes step(), which advances as far as
// arrived letters allow and *suspends* when its current slot's inbox is
// incomplete. The driver re-steps a node whenever new letters complete the
// slot it is parked on, so many sequence-tagged streams interleave over the
// same channels with no global barrier anywhere.
//
// The control flow uses the save-state / goto-phase continuation idiom of
// non-blocking collective schedules (a switch dispatching on the saved
// phase into a straight-line body; suspending saves the phase and returns,
// resuming jumps back to exactly where the node blocked). The kernel calls
// themselves are the shared ReplayOps (core/replay_node.hpp) — the same
// functions the serial executor runs in the same per-consume order, so an
// async stream's results are bit-identical to a serial replay of the same
// plan by construction.
//
// The Port concept supplies the node's environment (mailboxes, liveness,
// send): see core/async_executor.hpp for the driver-side implementation.
//
//   bool  alive(slot)              node may act in this slot (fault script)
//   void  send(slot, letters&)     route one produced batch (letters keep
//                                  their shells; values move to mailboxes)
//   bool  inbox_complete(slot)     every expected letter has arrived
//   std::vector<Letter<V>>& take_inbox(slot)   sorted by letter_before
//   void  consumed(slot)           post-consume hook (compute charge,
//                                  spent-buffer return)
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "core/replay_node.hpp"

namespace kylix {

/// Slot arithmetic shared by the node, the engine's mailboxes, and the
/// fault-script precompute: the reduce's rounds in protocol order are
/// slot i-1   <- {kReduceDown, layer i},   i in [1, l]
/// slot 2l-i  <- {kReduceUp,   layer i},   i in [1, l]
struct AsyncSlots {
  static constexpr std::size_t count(std::uint16_t layers) {
    return 2u * std::size_t{layers};
  }
  static constexpr Phase phase(std::size_t slot, std::uint16_t layers) {
    return slot < layers ? Phase::kReduceDown : Phase::kReduceUp;
  }
  static constexpr std::uint16_t layer(std::size_t slot,
                                       std::uint16_t layers) {
    return slot < layers
               ? static_cast<std::uint16_t>(slot + 1)
               : static_cast<std::uint16_t>(2u * layers - slot);
  }
};

template <typename V, typename Op = OpSum>
class AsyncNode {
 public:
  enum class NodePhase : std::uint8_t {
    kDownProduce = 0,  ///< about to emit this layer's scatter-reduce letters
    kDownWait = 1,     ///< parked on an incomplete scatter-reduce inbox
    kUpProduce = 2,    ///< about to emit this layer's allgather letters
    kUpWait = 3,       ///< parked on an incomplete allgather inbox
    kDone = 4,         ///< finished (or dead); result in scratch.vin
  };

  /// Rebind this node to a (stream, rank) replay. The caller has already
  /// handed the rank's contribution over as scratch->v (ReplayOps::load_input
  /// adopts the submitted vector; nothing is copied) and cleared
  /// scratch->stream.
  void reset(const ReplayContext* ctx, rank_t rank,
             ReplayScratch<V>* scratch) {
    ctx_ = ctx;
    rank_ = rank;
    scratch_ = scratch;
    layers_ = ctx->plan->topology().num_layers();
    layer_ = 1;
    phase_ = NodePhase::kDownProduce;
    dead_ = false;
  }

  [[nodiscard]] bool done() const { return phase_ == NodePhase::kDone; }
  /// Died mid-stream (fault script); the result is empty, like the
  /// barriered engines' dead-rank handling.
  [[nodiscard]] bool dead() const { return dead_; }
  [[nodiscard]] rank_t rank() const { return rank_; }
  /// The slot this node acts in next (valid while !done()).
  [[nodiscard]] std::size_t slot() const {
    return phase_ <= NodePhase::kDownWait
               ? std::size_t{layer_} - 1
               : 2u * std::size_t{layers_} - layer_;
  }

  /// Advance until blocked or finished. Returns true when the node is done
  /// (the driver retires it); false means it is parked on slot() awaiting
  /// letters. Mirrors the barriered protocol exactly, including the
  /// liveness checks: a rank dead at a round neither produces nor consumes
  /// in it, and begin_up runs right after the last down consume — before
  /// the first up round's crashes can fire.
  template <typename Port>
  bool step(Port& port) {
// Continuation plumbing: suspending saves the phase and returns to the
// driver; transitions save and jump. Expanded inline (not hidden behind a
// conditional in the body) so each label reads as one protocol phase.
#define KYLIX_NODE_SAVE_STATE(p) \
  do {                           \
    phase_ = NodePhase::p;       \
    return false;                \
  } while (0)
#define KYLIX_NODE_GOTO_PHASE(p) \
  do {                           \
    phase_ = NodePhase::p;       \
    goto label_##p;              \
  } while (0)

    switch (phase_) {
      case NodePhase::kDownProduce:
        goto label_kDownProduce;
      case NodePhase::kDownWait:
        goto label_kDownWait;
      case NodePhase::kUpProduce:
        goto label_kUpProduce;
      case NodePhase::kUpWait:
        goto label_kUpWait;
      case NodePhase::kDone:
        return true;
    }

  label_kDownProduce:
    if (!port.alive(slot())) return finish_dead();
    port.send(slot(), Ops::down_produce(*ctx_, *scratch_, rank_, layer_));
  label_kDownWait:
    if (!port.inbox_complete(slot())) KYLIX_NODE_SAVE_STATE(kDownWait);
    Ops::down_consume(*ctx_, *scratch_, rank_, layer_,
                      std::move(port.take_inbox(slot())));
    port.consumed(slot());
    if (layer_ == layers_) {
      // The bottom gather belongs to the last down round: it must run even
      // when the rank dies at the first up round (the barriered drivers
      // gather before that round's crash events fire).
      Ops::begin_up(*ctx_, *scratch_, rank_);
      port.consumed(slot());  // charge the gather to the same slot
      KYLIX_NODE_GOTO_PHASE(kUpProduce);
    }
    ++layer_;
    KYLIX_NODE_GOTO_PHASE(kDownProduce);

  label_kUpProduce:
    if (!port.alive(slot())) return finish_dead();
    port.send(slot(), Ops::up_produce(*ctx_, *scratch_, rank_, layer_));
  label_kUpWait:
    if (!port.inbox_complete(slot())) KYLIX_NODE_SAVE_STATE(kUpWait);
    Ops::up_consume(*ctx_, *scratch_, rank_, layer_,
                    std::move(port.take_inbox(slot())));
    port.consumed(slot());
    if (layer_ == 1) {
      phase_ = NodePhase::kDone;
      return true;
    }
    --layer_;
    KYLIX_NODE_GOTO_PHASE(kUpProduce);

#undef KYLIX_NODE_SAVE_STATE
#undef KYLIX_NODE_GOTO_PHASE
  }

 private:
  using Ops = ReplayOps<V, Op>;

  bool finish_dead() {
    phase_ = NodePhase::kDone;
    dead_ = true;
    return true;
  }

  const ReplayContext* ctx_ = nullptr;
  ReplayScratch<V>* scratch_ = nullptr;
  rank_t rank_ = 0;
  std::uint16_t layers_ = 0;
  std::uint16_t layer_ = 1;
  NodePhase phase_ = NodePhase::kDone;
  bool dead_ = false;
};

}  // namespace kylix
