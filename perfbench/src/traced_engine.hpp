// Benchmark-side round tracing.
//
// TracedEngine implements the engine interface SparseAllreduce calls and
// forwards every call to a ParallelBspEngine. Inside round() it wraps the
// produce and consume callbacks with per-rank timers, so each round yields
// measured spans without touching the library: the round's wall time, the
// serial delivery gap between the last produce returning and the first
// consume starting, summed produce/consume busy time, and the consume skew
// (max rank / mean rank). Spans are kept in memory and summarized when the
// run ends.
//
// WireObserver is the async counterpart: the AsyncExecutor has no engine to
// wrap, so bytes and messages come through Options::observer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// Measured summary of one engine round.
struct RoundSample {
  kylix::Phase phase = kylix::Phase::kConfig;
  std::uint16_t layer = 0;
  double round_s = 0;
  double deliver_s = 0;
  double produce_busy_s = 0;
  double consume_busy_s = 0;
  double consume_skew = 0;
};

class RoundLog {
 public:
  explicit RoundLog(rank_t ranks) : spans_(ranks) {}

  struct Span {
    Clock::time_point produce_begin{}, produce_end{};
    Clock::time_point consume_begin{}, consume_end{};
    bool produced = false;
    bool consumed = false;
  };

  /// Per-rank slots of the round in flight; each engine worker writes only
  /// the slots of the ranks it runs.
  [[nodiscard]] Span& span(rank_t rank) { return spans_[rank]; }

  void open_round() {
    for (Span& s : spans_) s.produced = s.consumed = false;
  }

  void close_round(kylix::Phase phase, std::uint16_t layer,
                   Clock::time_point begin, Clock::time_point end) {
    RoundSample out;
    out.phase = phase;
    out.layer = layer;
    out.round_s = seconds_between(begin, end);
    Clock::time_point last_produce = begin;
    Clock::time_point first_consume = end;
    double consume_max = 0;
    std::size_t consumers = 0;
    for (const Span& s : spans_) {
      if (s.produced) {
        out.produce_busy_s += seconds_between(s.produce_begin, s.produce_end);
        last_produce = std::max(last_produce, s.produce_end);
      }
      if (s.consumed) {
        const double c = seconds_between(s.consume_begin, s.consume_end);
        out.consume_busy_s += c;
        consume_max = std::max(consume_max, c);
        first_consume = std::min(first_consume, s.consume_begin);
        ++consumers;
      }
    }
    out.deliver_s = std::max(0.0, seconds_between(last_produce, first_consume));
    const double consume_mean =
        consumers > 0 ? out.consume_busy_s / static_cast<double>(consumers)
                      : 0;
    out.consume_skew = consume_mean > 0 ? consume_max / consume_mean : 0;
    samples_.push_back(out);
  }

  [[nodiscard]] const std::vector<RoundSample>& samples() const {
    return samples_;
  }
  void clear() { samples_.clear(); }

 private:
  std::vector<Span> spans_;
  std::vector<RoundSample> samples_;
};

template <typename V>
class TracedEngine {
 public:
  TracedEngine(kylix::ParallelBspEngine<V>* inner, RoundLog* log)
      : inner_(inner), log_(log) {}

  [[nodiscard]] rank_t num_ranks() const { return inner_->num_ranks(); }
  [[nodiscard]] bool is_dead(rank_t rank) const {
    return inner_->is_dead(rank);
  }
  [[nodiscard]] bool has_failed() const { return inner_->has_failed(); }
  [[nodiscard]] bool degraded_allowed() const {
    return inner_->degraded_allowed();
  }
  void charge_compute(kylix::Phase phase, std::uint16_t layer, rank_t rank,
                      double seconds) {
    inner_->charge_compute(phase, layer, rank, seconds);
  }
  void charge_intra(kylix::Phase phase, rank_t rank, double seconds) {
    inner_->charge_intra(phase, rank, seconds);
  }
  template <typename Fn>
  void intra_round(kylix::Phase phase, rank_t num_hosts, Fn&& fn) {
    inner_->intra_round(phase, num_hosts, std::forward<Fn>(fn));
  }

  template <typename ProduceFn, typename ExpectedFn, typename ConsumeFn>
  void round(kylix::Phase phase, std::uint16_t layer, ProduceFn&& produce,
             ExpectedFn&& expected, ConsumeFn&& consume) {
    log_->open_round();
    const Clock::time_point begin = Clock::now();
    inner_->round(
        phase, layer,
        [&](rank_t r) -> decltype(auto) {
          RoundLog::Span& s = log_->span(r);
          s.produce_begin = Clock::now();
          decltype(auto) letters = produce(r);
          s.produce_end = Clock::now();
          s.produced = true;
          return letters;
        },
        expected,
        [&](rank_t r, std::vector<kylix::Letter<V>>&& inbox) {
          RoundLog::Span& s = log_->span(r);
          s.consume_begin = Clock::now();
          consume(r, std::move(inbox));
          s.consume_end = Clock::now();
          s.consumed = true;
        });
    log_->close_round(phase, layer, begin, Clock::now());
  }

 private:
  kylix::ParallelBspEngine<V>* inner_;
  RoundLog* log_;
};

/// Wire bytes per (phase, layer) and message count, from engine or async
/// executor message hooks.
class WireObserver : public kylix::EngineObserver {
 public:
  void on_message(const kylix::MsgEvent& event) override {
    if (event.layer >= 1 && event.layer <= kMaxLayers) {
      bytes_[static_cast<std::size_t>(event.phase)][event.layer - 1] +=
          event.bytes;
    }
    ++messages_;
  }
  [[nodiscard]] std::uint64_t bytes(kylix::Phase phase,
                                    std::uint16_t layer) const {
    return bytes_[static_cast<std::size_t>(phase)][layer - 1];
  }
  [[nodiscard]] std::uint64_t messages() const { return messages_; }

 private:
  std::uint64_t bytes_[3][kMaxLayers] = {};
  std::uint64_t messages_ = 0;
};

/// Per-(phase, layer) medians of the traced rounds as comm.* / core.*
/// metrics.
void report_rounds(const RoundLog& log, Report& report);

}  // namespace perfbench
