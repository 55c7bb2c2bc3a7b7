// A synthetic engine workload for round-level parity tests: rank r sends
// (r+1)%m and (r+3)%m a packet of 4 + r values; consumers sum what they
// receive and charge compute proportional to the received element count.
// `passes` repeats the three kReduceDown layers, so a letter delayed by one
// pass falls due in the next round with the same {phase, layer} signature.
#pragma once

#include <cstdint>
#include <vector>

#include "comm/packet.hpp"

namespace kylix::testing {

template <typename E>
std::vector<float> run_synthetic_rounds(E& engine, rank_t m, int passes = 1) {
  std::vector<float> state(m, 0.0f);
  std::vector<std::vector<Letter<float>>> outboxes(m);
  std::vector<std::vector<rank_t>> groups(m);
  for (rank_t r = 0; r < m; ++r) {
    groups[r] = {static_cast<rank_t>((r + m - 1) % m),
                 static_cast<rank_t>((r + m - 3) % m)};
  }
  for (int pass = 0; pass < passes; ++pass) {
    for (std::uint16_t layer = 1; layer <= 3; ++layer) {
      engine.round(
          Phase::kReduceDown, layer,
          [&](rank_t r) -> std::vector<Letter<float>>& {
            auto& out = outboxes[r];
            out.clear();
            for (rank_t offset : {rank_t{1}, rank_t{3}}) {
              Letter<float> letter;
              letter.src = r;
              letter.dst = static_cast<rank_t>((r + offset) % m);
              for (rank_t v = 0; v < 4 + r; ++v) {
                letter.packet.values.push_back(
                    static_cast<float>(r * 100 + layer * 10 + v));
              }
              out.push_back(std::move(letter));
            }
            return out;
          },
          [&](rank_t r) -> const std::vector<rank_t>& { return groups[r]; },
          [&](rank_t r, std::vector<Letter<float>>&& inbox) {
            std::size_t elements = 0;
            for (const Letter<float>& letter : inbox) {
              for (float v : letter.packet.values) state[r] += v;
              elements += letter.packet.values.size();
            }
            engine.charge_compute(Phase::kReduceDown, layer, r,
                                  1e-7 * static_cast<double>(elements));
          });
    }
  }
  return state;
}

}  // namespace kylix::testing
