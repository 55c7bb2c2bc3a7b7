// Seeded input generation. Everything the library receives is produced
// here from --seed before any timer starts; generation itself is never
// timed.
#pragma once

#include <cstdint>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// Per-machine key sets of a partitioned power-law graph, PageRank-style:
/// in = local sources (requested), out = sources ∪ destinations
/// (contributed).
struct GraphSets {
  std::vector<KeySet> in_sets;
  std::vector<KeySet> out_sets;
  double density = 0;  ///< mean destination-set density per machine
};

/// `preset` is "twitter" or "yahoo" (the library's twitter_like /
/// yahoo_like specs). The seed drives graph generation and the random edge
/// partition.
[[nodiscard]] GraphSets make_graph_sets(const char* preset,
                                        std::uint64_t seed, rank_t machines,
                                        std::uint64_t vertices);

/// A pool of minibatch steps. Entry k is step k+1: machine r requests the
/// features of its batch k+1 and contributes batch k+1 ∪ batch k, so every
/// requested key has a contributor.
struct MinibatchPool {
  std::vector<std::vector<KeySet>> in_sets;   ///< [entry][machine]
  std::vector<std::vector<KeySet>> out_sets;  ///< [entry][machine]
  std::vector<std::vector<key_t>> raw_keys;   ///< entry 0's hashed draws
  double out_density = 0;                     ///< mean |out| / features
};

/// Each machine draws `draws` Zipf(`alpha`) features over `features` per
/// batch; machines draw in parallel from independent seeded streams.
[[nodiscard]] MinibatchPool make_minibatch_pool(std::uint64_t seed,
                                                rank_t machines,
                                                std::uint64_t features,
                                                std::uint32_t draws,
                                                double alpha,
                                                std::size_t entries);

}  // namespace perfbench
