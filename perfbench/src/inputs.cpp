#include "inputs.hpp"

#include <algorithm>
#include <string>
#include <thread>

namespace perfbench {
namespace {

/// Runs fn(i) for i in [0, n) on up to 4 threads (generation only).
template <typename Fn>
void parallel_for(std::size_t n, Fn&& fn) {
  const std::size_t workers = std::min<std::size_t>(4, n);
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      for (std::size_t i = w; i < n; i += workers) fn(i);
    });
  }
  for (std::thread& t : threads) t.join();
}

}  // namespace

GraphSets make_graph_sets(const char* preset, std::uint64_t seed,
                          rank_t machines, std::uint64_t vertices) {
  const bool twitter = std::string(preset) == "twitter";
  const kylix::GraphSpec spec =
      twitter ? kylix::twitter_like(vertices) : kylix::yahoo_like(vertices);
  // The preset's edges are iid draws, so four independently seeded chunks
  // of a quarter of the edges each are the same graph distribution,
  // generated in parallel.
  constexpr std::size_t kChunks = 4;
  std::vector<std::vector<kylix::Edge>> chunks(kChunks);
  parallel_for(kChunks, [&](std::size_t c) {
    kylix::GraphSpec part = spec;
    part.num_edges = spec.num_edges * (c + 1) / kChunks -
                     spec.num_edges * c / kChunks;
    part.seed = kylix::mix64(seed ^ spec.seed ^ (c << 32));
    chunks[c] = kylix::generate_zipf_graph(part);
  });
  std::vector<kylix::Edge> edges;
  edges.reserve(spec.num_edges);
  for (const std::vector<kylix::Edge>& chunk : chunks) {
    edges.insert(edges.end(), chunk.begin(), chunk.end());
  }
  chunks.clear();
  const std::vector<std::vector<kylix::Edge>> parts =
      kylix::random_edge_partition(edges, machines,
                                   kylix::mix64(seed ^ spec.seed) + 1);
  GraphSets g;
  g.in_sets.resize(machines);
  g.out_sets.resize(machines);
  std::vector<double> density(machines, 0.0);
  parallel_for(machines, [&](std::size_t r) {
    const kylix::LocalGraph local{std::span<const kylix::Edge>(parts[r])};
    kylix::UnionResult u = kylix::merge_union(local.sources().keys(),
                                              local.destinations().keys());
    g.in_sets[r] = local.sources();
    g.out_sets[r] = KeySet::from_sorted_keys(std::move(u.keys));
    density[r] = static_cast<double>(local.destinations().size()) /
                 static_cast<double>(vertices);
  });
  for (const double d : density) g.density += d / machines;
  return g;
}

MinibatchPool make_minibatch_pool(std::uint64_t seed, rank_t machines,
                                  std::uint64_t features, std::uint32_t draws,
                                  double alpha, std::size_t entries) {
  const kylix::ZipfSampler zipf(features, alpha);
  // batches[b][r]: machine r's batch b, as hashed keys with duplicates.
  std::vector<std::vector<std::vector<key_t>>> batches(
      entries + 1, std::vector<std::vector<key_t>>(machines));
  parallel_for((entries + 1) * machines, [&](std::size_t i) {
    kylix::Rng rng(kylix::mix64(seed * 0x9e3779b97f4a7c15ULL + i));
    std::vector<key_t>& keys = batches[i / machines][i % machines];
    keys.resize(draws);
    for (key_t& k : keys) k = kylix::hash_index(zipf(rng) - 1);
  });
  MinibatchPool pool;
  pool.in_sets.resize(entries);
  pool.out_sets.resize(entries);
  std::vector<std::vector<KeySet>> sets(entries + 1,
                                        std::vector<KeySet>(machines));
  parallel_for((entries + 1) * machines, [&](std::size_t i) {
    std::vector<key_t> keys = batches[i / machines][i % machines];
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    sets[i / machines][i % machines] = KeySet::from_sorted_keys(std::move(keys));
  });
  double out_total = 0;
  for (std::size_t e = 0; e < entries; ++e) {
    pool.in_sets[e] = sets[e + 1];
    pool.out_sets[e].resize(machines);
    for (rank_t r = 0; r < machines; ++r) {
      kylix::UnionResult u =
          kylix::merge_union(sets[e + 1][r].keys(), sets[e][r].keys());
      pool.out_sets[e][r] = KeySet::from_sorted_keys(std::move(u.keys));
      out_total += static_cast<double>(pool.out_sets[e][r].size());
    }
  }
  pool.out_density = out_total / static_cast<double>(entries * machines) /
                     static_cast<double>(features);
  pool.raw_keys = std::move(batches[1]);
  return pool;
}

}  // namespace perfbench
