// AsyncExecutor — many in-flight plan replays as a modeled overlap
// (DESIGN §11).
//
// Overlap is a timing phenomenon, so drain() runs no second runtime. It
// records, then schedules. Record: the streams submitted since the last
// drain replay in submit order through one owned ReduceExecutor on one
// owned ParallelBspEngine, each faulted stream under its own FaultChannel
// that dies with it; an engine observer forwards every hook to
// Options::observer and records each letter's destination, wire bytes and
// fate per (slot, src), each rank's liveness per slot, and each compute
// charge. Schedule: an event loop over a min-heap of (modeled time, lane,
// rank) runs those records on the modeled clock, `window` streams at a
// time, over per-rank gap-filling NIC timelines shared by every lane, with
// per-lane compute and paced admissions. Without a NetworkModel every
// modeled time reads 0; with one, the clock runs on across drains until
// reset(). A warm batch allocates only the m + 1 result buffers per stream
// that leave with the caller (tests/core/alloc_test).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "cluster/fault_plan.hpp"
#include "cluster/netmodel.hpp"
#include "comm/async_engine.hpp"
#include "comm/fault_channel.hpp"
#include "comm/packet.hpp"
#include "comm/parallel.hpp"
#include "core/degraded.hpp"
#include "core/executor.hpp"
#include "core/plan.hpp"
#include "obs/flight_recorder.hpp"  // header-only; no kylix_obs link needed
#include "obs/observer.hpp"
#include "sparse/ops.hpp"

namespace kylix {

template <typename V, typename Op = OpSum>
class AsyncExecutor {
 public:
  struct Options {
    std::uint32_t window = 4;   ///< max concurrent in-flight streams (lanes)
    std::uint32_t stride = 1;   ///< payloads per key, interleaved key-major
    bool streaming = false;     ///< chunked letters (plan's chunk_bytes)
    std::uint64_t chunk_bytes_override = 0;
    const NetworkModel* network = nullptr;  ///< modeled clock
    const ComputeModel* compute = nullptr;  ///< per-consume compute charge
    EngineObserver* observer = nullptr;     ///< every replay's engine hooks
    obs::FlightRecorder* recorder = nullptr;  ///< stream admit/complete marks
  };

  AsyncExecutor() = default;
  // The owned engine holds the address of this executor's observer.
  AsyncExecutor(const AsyncExecutor&) = delete;
  AsyncExecutor& operator=(const AsyncExecutor&) = delete;

  /// Bind a compiled plan (shared with the plan cache) and freeze the run
  /// options. Rebinding keeps the warmed replay buffers when the plan shape
  /// allows it; submitted streams must be drained first.
  void bind(std::shared_ptr<const CollectivePlan> plan, const Options& opts) {
    KYLIX_CHECK(plan != nullptr);
    KYLIX_CHECK_MSG(plan->any_configured(),
                    "plan holds no configured rank to replay");
    KYLIX_CHECK_MSG(!plan->hierarchical(),
                    "async replay supports flat plans only (the intra-node "
                    "stage is a round barrier; see DESIGN §13)");
    KYLIX_CHECK(opts.window >= 1 && opts.stride >= 1);
    KYLIX_CHECK_MSG(active_streams_ == 0, "bind while streams in flight");
    plan_ = std::move(plan);
    opts_ = opts;
    layers_ = plan_->topology().num_layers();
    slots_ = AsyncSlots::count(layers_);
    const rank_t m = plan_->num_ranks();
    if (engine_ == nullptr || engine_->num_ranks() != m) {
      engine_ = std::make_unique<ParallelBspEngine<V>>(m);
    }
    tap_.owner = this;
    engine_->set_observer(&tap_);
    replay_.bind(engine_.get(), plan_, modeled() ? opts_.compute : nullptr);
    replay_.set_streaming(opts_.streaming);
    replay_.set_chunk_bytes_override(opts_.chunk_bytes_override);
    chunk_positions_ = replay_.chunk_positions(opts_.stride);
    lanes_.resize(opts_.window);
    for (Lane& lane : lanes_) {
      lane.nodes.resize(m);
      lane.boxes.resize(slots_ * m);
    }
    tx_line_.resize(m);
    pace_ = modeled() ? admission_pace() : 0.0;
    heap_.reserve(std::size_t{opts_.window} * m * (slots_ + 1));
    reset();
  }

  [[nodiscard]] bool bound() const { return plan_ != nullptr; }
  [[nodiscard]] const std::shared_ptr<const CollectivePlan>& plan() const {
    return plan_;
  }

  /// Membership epoch stamped on subsequent submissions (elastic
  /// membership, core/epoch_manager.hpp). The manager drains submitted
  /// streams at the round barrier, rebinds the healed plan, then advances
  /// this — so every stream completes against the plan of the epoch it was
  /// submitted under (the executor's shared_ptr keeps an old-epoch plan
  /// alive even after the PlanCache evicts it).
  void set_epoch(std::uint64_t epoch) { epoch_ = epoch; }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  /// The membership epoch stream `tag` was submitted under.
  [[nodiscard]] std::uint64_t stream_epoch(std::uint32_t tag) const {
    return streams_[tag - stream_base_].epoch;
  }

  /// Submit one reduce as a new stream; returns its sequence tag. The
  /// stream replays at the next drain(), in submit order. `faults`
  /// (optional, not owned, must outlive drain()) is this stream's private
  /// fault schedule, consumed by its replay — hand each stream its own
  /// identically-seeded plan when comparing against a serial oracle.
  std::uint32_t submit(std::vector<std::vector<V>> out_values,
                       FaultPlan* faults = nullptr) {
    KYLIX_CHECK(bound());
    KYLIX_CHECK(out_values.size() == plan_->num_ranks());
    for (rank_t r = 0; r < plan_->num_ranks(); ++r) {
      const RankPlan& rp = plan_->rank_plan(r);
      if (!rp.configured) {
        // Same contract as the serial executor: a rank the plan does not
        // cover may only replay while dead.
        KYLIX_CHECK_MSG(faults != nullptr && faults->failures().is_dead(r),
                        "alive rank not covered by the bound plan");
        continue;
      }
      KYLIX_CHECK_MSG(out_values[r].size() == rp.out0_size * opts_.stride,
                      "contribution length does not match plan out set");
    }
    const std::uint32_t tag = next_stream_++;
    if (streams_.size() <= stream_count_) streams_.resize(stream_count_ + 1);
    Stream& st = streams_[stream_count_++];
    st.values = std::move(out_values);
    st.fault_plan = faults;
    st.done = st.taken = false;
    st.faults = FaultStats{};
    st.epoch = epoch_;
    ++active_streams_;
    return tag;
  }

  /// Replay every submitted stream, then schedule the batch on the modeled
  /// clock.
  void drain() {
    if (active_streams_ == 0) return;
    const std::size_t first = stream_count_ - active_streams_;
    for (std::size_t i = first; i < stream_count_; ++i) replay(streams_[i]);
    schedule(first);
    KYLIX_CHECK(active_streams_ == 0);
  }

  /// Move stream `tag`'s per-rank results out (empty vectors for ranks dead
  /// or unconfigured at completion). Valid once after drain().
  [[nodiscard]] std::vector<std::vector<V>> take_result(std::uint32_t tag) {
    KYLIX_CHECK_MSG(tag - stream_base_ < stream_count_, "unknown stream tag");
    Stream& st = streams_[tag - stream_base_];
    KYLIX_CHECK_MSG(st.done && !st.taken, "stream not completed or taken");
    st.taken = true;
    return std::move(st.values);
  }

  /// Modeled completion latency of stream `tag` in seconds (admission to
  /// last node retiring); 0 without a NetworkModel.
  [[nodiscard]] double completion_seconds(std::uint32_t tag) const {
    const Stream& st = streams_[tag - stream_base_];
    return st.finish_time - st.admit_time;
  }
  /// Modeled end of the whole batch (max stream finish time).
  [[nodiscard]] double makespan_seconds() const { return makespan_; }
  /// Completion latencies of the batch in completion order — feed these to
  /// an obs::Histogram for the p50/p99 machinery.
  [[nodiscard]] const std::vector<double>& completion_latencies() const {
    return latencies_;
  }
  /// Peak modeled per-rank resource occupancy this batch: how busy the
  /// busiest NIC direction and compute clock were. busy / makespan is the
  /// utilization the async-overlap bench reports; the max over the three
  /// is the lower bound no schedule can beat.
  [[nodiscard]] double max_tx_busy_seconds() const {
    return *std::max_element(tx_busy_.begin(), tx_busy_.end());
  }
  [[nodiscard]] double max_rx_busy_seconds() const {
    return *std::max_element(rx_busy_.begin(), rx_busy_.end());
  }
  [[nodiscard]] double max_cpu_busy_seconds() const {
    return *std::max_element(cpu_busy_.begin(), cpu_busy_.end());
  }
  /// The admission initiation interval bind() derived from the plan (0
  /// without a modeled clock).
  [[nodiscard]] double admission_pace_seconds() const { return pace_; }

  [[nodiscard]] const StreamStats& stream_stats(std::uint32_t tag) const {
    return streams_[tag - stream_base_].stats;
  }
  /// The stream's fault-plan counters after its replay.
  [[nodiscard]] const FaultStats& fault_stats(std::uint32_t tag) const {
    return streams_[tag - stream_base_].faults;
  }

  /// Per-stream completion report. Plain-channel semantics, exactly like
  /// the serial executor on the non-chaos engines: faults degrade
  /// individual ranks (empty results), never whole replica groups, so the
  /// run is exact for every surviving rank.
  [[nodiscard]] DegradedReport degraded_report(std::uint32_t tag) const {
    (void)tag;
    return DegradedReport{};
  }

  /// Forget completed streams and restart the modeled clock at zero. Keeps
  /// every warmed buffer (replay pools, records, lanes, stream slots), so
  /// the next batch replays allocation-free.
  void reset() {
    KYLIX_CHECK_MSG(active_streams_ == 0, "reset while streams in flight");
    stream_base_ = next_stream_;
    stream_count_ = 0;
    latencies_.clear();
    makespan_ = 0;
    next_admit_ = 0;
    const rank_t m = plan_->num_ranks();
    for (NicTimeline& line : tx_line_) line.clear();
    tx_busy_.assign(m, 0.0);
    rx_busy_.assign(m, 0.0);
    cpu_busy_.assign(m, 0.0);
  }

 private:
  /// One recorded letter of a (slot, src) batch, in production order.
  struct LetterRecord {
    rank_t dst = 0;
    std::uint8_t copies = 1;  ///< wire copies charged: 2 for a duplicate
    bool arrives = true;      ///< false: dead destination, dropped, delayed
    std::uint64_t bytes = 0;
  };

  /// What one stream's replay left for the schedule; per-slot tables are
  /// indexed [slot * m + rank].
  struct StreamRecord {
    std::vector<std::vector<LetterRecord>> letters;  ///< per (slot, src)
    std::vector<std::uint32_t> expected;  ///< letters arriving per (slot, dst)
    std::vector<std::uint8_t> alive;      ///< rank acts in the slot
    std::vector<std::vector<double>> charges;  ///< per rank, charge order
  };

  struct Stream {
    std::vector<std::vector<V>> values;  ///< submitted; the results after
    FaultPlan* fault_plan = nullptr;
    StreamRecord record;
    StreamStats stats;
    FaultStats faults;
    double admit_time = 0;
    double finish_time = 0;
    std::uint64_t epoch = 0;  ///< membership epoch at submit()
    bool done = false;
    bool taken = false;
  };

  /// One rank of one admitted stream on the modeled clock.
  struct Node {
    double clock = 0;      ///< modeled "now"
    std::size_t slot = 0;  ///< the slot it acts in next
    bool sent = false;     ///< this slot's letters are on the wire
    bool parked = false;   ///< waiting for this slot's box to fill
  };

  struct Box {
    std::uint32_t arrived = 0;
    double ready_time = 0;  ///< latest arrival so far
  };

  struct Lane {
    std::vector<Node> nodes;  ///< per rank
    std::vector<Box> boxes;   ///< [slot * m + rank]
    Stream* stream = nullptr;
    rank_t done_nodes = 0;
  };

  /// Heap entry: earliest modeled time wins; (lane, rank) tie-break keeps
  /// the unmodeled (all-zero times) schedule deterministic too.
  struct Ready {
    double t = 0;
    std::uint32_t lane = 0;
    rank_t rank = 0;
    [[nodiscard]] bool operator>(const Ready& o) const {
      return std::tie(t, lane, rank) > std::tie(o.t, o.lane, o.rank);
    }
  };

  /// The replays' engine observer (driving thread only): forwards every
  /// hook to Options::observer and records the stream being replayed.
  struct Tap final : EngineObserver {
    AsyncExecutor* owner = nullptr;
    StreamRecord* rec = nullptr;
    LetterRecord* last = nullptr;  ///< the letter on_drop/on_fault refer to
    bool skip_message = false;     ///< the second charge of a duplicate

    [[nodiscard]] EngineObserver* next() const {
      return owner->opts_.observer;
    }
    [[nodiscard]] std::size_t cell(Phase phase, std::uint16_t layer,
                                   rank_t r) const {
      const std::size_t t = AsyncSlots::index(phase, layer, owner->layers_);
      return t * owner->plan_->num_ranks() + r;
    }

    void open(StreamRecord& record) {
      const rank_t m = owner->plan_->num_ranks();
      rec = &record;
      skip_message = false;
      rec->letters.resize(owner->slots_ * m);
      for (auto& batch : rec->letters) batch.clear();
      rec->expected.assign(owner->slots_ * m, 0);
      rec->alive.assign(owner->slots_ * m, 0);
      rec->charges.resize(m);
      for (auto& c : rec->charges) c.clear();
    }

    void on_round_begin(Phase phase, std::uint16_t layer) override {
      const rank_t m = owner->plan_->num_ranks();
      for (rank_t r = 0; r < m; ++r) {
        const std::size_t c = cell(phase, layer, r);
        const bool alive = owner->plan_->rank_plan(r).configured &&
                           !owner->engine_->is_dead(r);
        // A revived rank has no replay state to rejoin with.
        KYLIX_CHECK_MSG(!alive || c < m || rec->alive[c - m] != 0,
                        "async streams do not support mid-stream revival");
        rec->alive[c] = alive ? 1 : 0;
      }
      if (next() != nullptr) next()->on_round_begin(phase, layer);
    }
    void on_message(const MsgEvent& e) override {
      if (skip_message) {
        skip_message = false;
      } else {
        auto& batch = rec->letters[cell(e.phase, e.layer, e.src)];
        last = &batch.emplace_back(LetterRecord{e.dst, 1, true, e.bytes});
        ++rec->expected[cell(e.phase, e.layer, e.dst)];
      }
      if (next() != nullptr) next()->on_message(e);
    }
    void on_drop(const MsgEvent& e) override {
      lose(e);
      if (next() != nullptr) next()->on_drop(e);
    }
    void on_fault(const MsgEvent& e, FaultAction action) override {
      if (action == FaultAction::kDuplicate) {
        last->copies = 2;
        skip_message = true;
      } else if (action != FaultAction::kDeliver) {
        lose(e);  // kDrop, or kDelay: never redelivered within the stream
      }
      if (next() != nullptr) next()->on_fault(e, action);
    }
    void on_compute(Phase phase, std::uint16_t layer, rank_t rank,
                    double seconds) override {
      rec->charges[rank].push_back(seconds);
      if (next() != nullptr) next()->on_compute(phase, layer, rank, seconds);
    }
    void on_recovery(const RecoveryEvent& e) override {
      if (next() != nullptr) next()->on_recovery(e);
    }
    void on_redelivery(const MsgEvent& e, bool stale) override {
      if (next() != nullptr) next()->on_redelivery(e, stale);
    }
    void on_round_end(Phase phase, std::uint16_t layer) override {
      if (next() != nullptr) next()->on_round_end(phase, layer);
    }

    /// The last letter never arrives: the sender paid, the box expects
    /// one letter less.
    void lose(const MsgEvent& e) {
      last->arrives = false;
      --rec->expected[cell(e.phase, e.layer, e.dst)];
    }
  };

  /// Detaches a stream's FaultChannel, and the failure model the engine
  /// adopted from its plan, even if the replay throws: the channel dies
  /// with the stream and the next stream starts with every rank alive.
  struct ChannelScope {
    ParallelBspEngine<V>* engine;
    ~ChannelScope() {
      engine->set_fault_channel(nullptr);
      engine->set_failures(nullptr);
    }
  };

  [[nodiscard]] bool modeled() const { return opts_.network != nullptr; }

  /// Replay one stream through the serial executor and keep its record.
  void replay(Stream& st) {
    std::optional<FaultChannel<V>> channel;
    const ChannelScope scope{engine_.get()};  // detaches before channel dies
    if (st.fault_plan != nullptr) {
      engine_->set_fault_channel(&channel.emplace(st.fault_plan));
    }
    tap_.open(st.record);
    st.values = replay_.reduce_strided(std::move(st.values), opts_.stride);
    st.stats = replay_.stream_stats();
    if (st.fault_plan != nullptr) st.faults = st.fault_plan->stats();
    st.fault_plan = nullptr;
  }

  /// The pipeline initiation interval: the modeled tx occupancy one clean
  /// stream puts on its busiest NIC in one slot. Admitting faster cannot
  /// raise throughput but convoys the lanes into slot waves that think (and
  /// idle the NICs) at the same time; pacing staggers them into a pipeline.
  [[nodiscard]] double admission_pace() const {
    const rank_t m = plan_->num_ranks();
    const ReplayContext ctx{plan_.get(), opts_.stride, chunk_positions_};
    double pace = 0;
    std::vector<double> tx(m, 0.0);
    for (std::size_t t = 0; t < slots_; ++t) {
      std::fill(tx.begin(), tx.end(), 0.0);
      const bool down = t < layers_;
      const std::size_t layer = down ? t + 1 : 2 * std::size_t{layers_} - t;
      for (rank_t q = 0; q < m; ++q) {
        if (!plan_->rank_plan(q).configured) continue;
        const PlanLayer& cfg = plan_->rank_plan(q).layers[layer - 1];
        for (std::uint32_t d = 0; d < cfg.group.size(); ++d) {
          if (cfg.group[d] == q) continue;  // loopback never hits the NIC
          const std::size_t piece =
              down ? cfg.out_split[d + 1] - cfg.out_split[d]
                   : cfg.in_maps[d].size();
          const std::uint32_t chunks =
              ReplayOps<V, Op>::chunks_for(ctx, piece);
          for (std::uint32_t c = 0; c < chunks; ++c) {
            const std::size_t positions =
                chunks == 1 ? piece
                            : std::min(chunk_positions_,
                                       piece - c * chunk_positions_);
            const std::uint64_t payload =
                sizeof(V) * std::uint64_t{positions} * opts_.stride;
            const std::uint64_t bytes =
                wire_frames(payload) * kPacketHeaderBytes + payload;
            tx[q] += opts_.network->stack_overhead_s +
                     static_cast<double>(bytes) /
                         opts_.network->bandwidth_bytes_per_s;
          }
        }
      }
      pace = std::max(pace, *std::max_element(tx.begin(), tx.end()));
    }
    return pace;
  }

  /// Run the modeled schedule of the streams from `first` on, just
  /// replayed: the first `window` are admitted at once in submit order, the
  /// rest as lanes free up.
  void schedule(std::size_t first) {
    next_pending_ = first;
    for (std::uint32_t lane = 0;
         lane < lanes_.size() && next_pending_ < stream_count_; ++lane) {
      admit(lane, /*now=*/0.0);
    }
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      const Ready item = heap_.back();
      heap_.pop_back();
      step(item.lane, item.rank);
    }
  }

  /// Admit the next pending stream to `lane_id` at modeled time `now`.
  void admit(std::uint32_t lane_id, double now) {
    now = std::max(now, next_admit_);
    next_admit_ = now + pace_;
    const std::size_t index = next_pending_++;
    Lane& lane = lanes_[lane_id];
    Stream& st = streams_[index];
    lane.stream = &st;
    lane.done_nodes = 0;
    st.admit_time = now;
    st.finish_time = now;
    std::fill(lane.boxes.begin(), lane.boxes.end(), Box{});
    const rank_t m = plan_->num_ranks();
    for (rank_t r = 0; r < m; ++r) {
      lane.nodes[r] = Node{now};
      push_ready({now, lane_id, r});
    }
    mark(obs::FlightEventKind::kStreamAdmit, st,
         static_cast<double>(st.epoch));
  }

  /// A stream admit (value: its epoch) or complete (value: its latency)
  /// mark in the flight recorder, tagged with the plan fingerprint.
  void mark(obs::FlightEventKind kind, const Stream& st, double value) {
    if (opts_.recorder == nullptr) return;
    obs::FlightEvent e;
    e.kind = kind;
    e.code = stream_base_ + static_cast<std::uint32_t>(&st - streams_.data());
    e.value = value;
    e.bytes = plan_->fingerprint();
    opts_.recorder->record(e);
  }

  void push_ready(Ready item) {
    heap_.push_back(item);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  }

  /// Advance one node as far as its arrived letters allow: send the slot's
  /// recorded letters, wait for the slot's box, charge the recorded
  /// compute, repeat. Retires it when it finishes or its rank is dead.
  void step(std::uint32_t lane_id, rank_t rank) {
    Lane& lane = lanes_[lane_id];
    Node& node = lane.nodes[rank];
    const StreamRecord& rec = lane.stream->record;
    const rank_t m = plan_->num_ranks();
    double now = node.clock;
    while (node.slot < slots_) {
      const std::size_t cell = node.slot * m + rank;
      if (!node.sent) {
        if (rec.alive[cell] == 0) break;  // dead: neither sends nor consumes
        send(lane, lane_id, rec, node.slot, rank, now);
        node.sent = true;
      }
      const Box& box = lane.boxes[cell];
      if (box.arrived != rec.expected[cell]) {
        node.clock = now;
        node.parked = true;
        return;
      }
      if (modeled()) {
        // Charge k of a rank belongs to slot k, except that the bottom
        // gather's charge (k = l) follows the last down consume's and is a
        // second addition to that slot.
        const std::vector<double>& charges = rec.charges[rank];
        const std::size_t k = node.slot < layers_ ? node.slot : node.slot + 1;
        const auto charge = [&](std::size_t i) {
          return i < charges.size() ? charges[i] : 0.0;
        };
        now = consume(rank, now, box.ready_time, charge(k));
        if (k + 1 == layers_) {
          now = consume(rank, now, box.ready_time, charge(layers_));
        }
      }
      node.sent = false;
      ++node.slot;
    }
    node.clock = now;
    retire(lane_id, rank);
  }

  /// Compute serializes within a stream (the node clock carries it), not
  /// across lanes: each in-flight stream has its own core.
  double consume(rank_t rank, double now, double arrived, double cost) {
    const double start = std::max(now, arrived);
    cpu_busy_[rank] += cost;
    return start + cost;
  }

  /// Put (slot, src)'s recorded letters on the wire at modeled `now`. The
  /// NIC serializes stack traversal + serialization; handshake and
  /// propagation ride as thread-hideable latency.
  void send(Lane& lane, std::uint32_t lane_id, const StreamRecord& rec,
            std::size_t slot, rank_t src, double now) {
    const rank_t m = plan_->num_ranks();
    const NetworkModel* net = opts_.network;
    for (const LetterRecord& letter : rec.letters[slot * m + src]) {
      const bool wire = net != nullptr && letter.dst != src;
      double arrival = now;
      double transfer = 0;
      if (wire) {
        const double copies = letter.copies;  // 1.0 or 2.0, exactly
        transfer = copies * static_cast<double>(letter.bytes) /
                   net->bandwidth_bytes_per_s;
        const double duration = copies * net->stack_overhead_s + transfer;
        const double start = tx_line_[src].claim(now, duration);
        tx_busy_[src] += duration;
        arrival = start + duration + net->handshake_latency_s +
                  net->base_latency_s;
      }
      if (!letter.arrives) continue;  // the sender paid; nothing arrives
      // Receive time is accounted, not serialized (no false rx FIFO).
      if (wire) rx_busy_[letter.dst] += transfer;
      const std::size_t cell = slot * m + letter.dst;
      Box& box = lane.boxes[cell];
      box.ready_time = std::max(box.ready_time, arrival);
      if (++box.arrived == rec.expected[cell]) {
        Node& dst = lane.nodes[letter.dst];
        if (dst.parked && dst.slot == slot) {
          dst.parked = false;
          push_ready({std::max(box.ready_time, dst.clock), lane_id,
                      letter.dst});
        }
      }
    }
  }

  /// Node finished (or died). When it is the lane's last, complete the
  /// stream and hand the lane to the next pending stream.
  void retire(std::uint32_t lane_id, rank_t rank) {
    Lane& lane = lanes_[lane_id];
    Stream& st = *lane.stream;
    st.finish_time = std::max(st.finish_time, lane.nodes[rank].clock);
    if (++lane.done_nodes < plan_->num_ranks()) return;
    st.done = true;
    makespan_ = std::max(makespan_, st.finish_time);
    latencies_.push_back(st.finish_time - st.admit_time);
    mark(obs::FlightEventKind::kStreamComplete, st,
         st.finish_time - st.admit_time);
    --active_streams_;
    if (next_pending_ < stream_count_) admit(lane_id, st.finish_time);
  }

  std::shared_ptr<const CollectivePlan> plan_;
  Options opts_;
  std::uint16_t layers_ = 0;
  std::size_t slots_ = 0;
  std::size_t chunk_positions_ = 0;  ///< chunk length in key positions

  std::unique_ptr<ParallelBspEngine<V>> engine_;
  ReduceExecutor<V, Op, ParallelBspEngine<V>> replay_;
  Tap tap_;

  std::vector<Lane> lanes_;
  std::vector<NicTimeline> tx_line_;  ///< per-rank NIC send timeline
  std::vector<double> tx_busy_;       ///< per-rank accumulated send time
  std::vector<double> rx_busy_;       ///< per-rank accumulated receive time
  std::vector<double> cpu_busy_;      ///< per-rank accumulated compute
  std::vector<Ready> heap_;           ///< min-heap via push_heap/pop_heap

  /// Stream table: slot i holds tag stream_base_ + i; reset() rebases and
  /// reuses the slots (and their vectors' capacity) for the next batch.
  std::vector<Stream> streams_;
  std::uint32_t stream_base_ = 0;
  std::size_t stream_count_ = 0;
  std::uint32_t next_stream_ = 0;
  std::size_t active_streams_ = 0;  ///< submitted, not yet completed
  std::size_t next_pending_ = 0;    ///< next stream index to admit
  std::vector<double> latencies_;
  double makespan_ = 0;
  double pace_ = 0;        ///< admission initiation interval (modeled s)
  double next_admit_ = 0;  ///< earliest modeled time the next admit may use
  std::uint64_t epoch_ = 0;  ///< membership epoch for new submissions
};

}  // namespace kylix
