#include "sparse/merge.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/check.hpp"

namespace kylix {

namespace {

/// Append src[lo, hi) to the union in one bulk copy (vector::insert lowers
/// to memmove) and fill the matching map entries with consecutive union
/// positions — the memcpy-tail form of "everything left comes from one side".
void bulk_take(std::span<const key_t> src, std::size_t lo, std::size_t hi,
               std::vector<key_t>& keys, PosMap& map) {
  auto out = static_cast<pos_t>(keys.size());
  keys.insert(keys.end(), src.begin() + static_cast<std::ptrdiff_t>(lo),
              src.begin() + static_cast<std::ptrdiff_t>(hi));
  for (std::size_t p = lo; p < hi; ++p) map[p] = out++;
}

/// First index >= `from` with a[idx] >= key: exponential probe to bracket
/// the answer in a window of size <= 2^ceil(log gap), then binary search
/// only that window. O(log gap) instead of O(log n) per probe, and O(1)
/// when the next short-side key is nearby.
std::size_t gallop(std::span<const key_t> a, std::size_t from, key_t key) {
  if (from >= a.size() || a[from] >= key) return from;
  std::size_t offset = 1;
  while (from + offset < a.size() && a[from + offset] < key) offset <<= 1;
  const auto lo = a.begin() + static_cast<std::ptrdiff_t>(from + (offset >> 1));
  const auto hi = a.begin() + static_cast<std::ptrdiff_t>(
                                  std::min(from + offset, a.size()));
  return static_cast<std::size_t>(std::lower_bound(lo, hi, key) - a.begin());
}

/// Skewed-size union: for each key of the short side, gallop over the long
/// side and bulk-copy the keys it skips. Total cost O(short * log(long/short)
/// + long/memcpy-speed) instead of a compare+branch per long element.
void gallop_union(std::span<const key_t> lng, std::span<const key_t> shrt,
                  std::vector<key_t>& keys, PosMap& map_long,
                  PosMap& map_short) {
  std::size_t i = 0;
  for (std::size_t j = 0; j < shrt.size(); ++j) {
    const std::size_t idx = gallop(lng, i, shrt[j]);
    bulk_take(lng, i, idx, keys, map_long);
    i = idx;
    const auto out = static_cast<pos_t>(keys.size());
    if (i < lng.size() && lng[i] == shrt[j]) {
      keys.push_back(lng[i]);
      map_long[i++] = out;
    } else {
      keys.push_back(shrt[j]);
    }
    map_short[j] = out;
  }
  bulk_take(lng, i, lng.size(), keys, map_long);
}

}  // namespace

void merge_union_into(std::span<const key_t> a, std::span<const key_t> b,
                      std::vector<key_t>& keys, PosMap& map_a, PosMap& map_b) {
  const std::size_t na = a.size();
  const std::size_t nb = b.size();
  keys.clear();
  keys.reserve(na + nb);
  map_a.resize(na);
  map_b.resize(nb);

  if (na >= kGallopRatio * nb) {
    gallop_union(a, b, keys, map_a, map_b);
    return;
  }
  if (nb >= kGallopRatio * na) {
    gallop_union(b, a, keys, map_b, map_a);
    return;
  }

  // Select loop: every step emits the smaller head and stores its union
  // position into BOTH maps, then advances whichever side(s) held it. A
  // store made before its index advances is overwritten by the step that
  // does advance it, so every entry ends correct, with no data-dependent
  // branch. A block of min(remaining a, remaining b) steps can exhaust
  // neither side (each step advances at least one index), so it runs
  // without bounds checks into a key buffer grown by exactly that block.
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t n = 0;
  pos_t* const ma = map_a.data();
  pos_t* const mb = map_b.data();
  while (i < na && j < nb) {
    const std::size_t block = std::min(na - i, nb - j);
    keys.resize(n + block);
    key_t* const out = keys.data();
    for (const std::size_t end = n + block; n < end; ++n) {
      const key_t x = a[i];
      const key_t y = b[j];
      out[n] = x <= y ? x : y;
      ma[i] = static_cast<pos_t>(n);
      mb[j] = static_cast<pos_t>(n);
      i += static_cast<std::size_t>(x <= y);
      j += static_cast<std::size_t>(y <= x);
    }
  }
  // One side is exhausted: the other tail transfers as a single bulk copy.
  bulk_take(a, i, na, keys, map_a);
  bulk_take(b, j, nb, keys, map_b);
}

UnionResult merge_union(std::span<const key_t> a, std::span<const key_t> b) {
  UnionResult result;
  result.maps.assign(2, {});
  merge_union_into(a, b, result.keys, result.maps[0], result.maps[1]);
  return result;
}

namespace {

void identity_map(PosMap& map, std::size_t n) {
  map.resize(n);
  for (std::size_t p = 0; p < n; ++p) map[p] = static_cast<pos_t>(p);
}

}  // namespace

void tree_merge_into(std::span<const std::span<const key_t>> inputs,
                     UnionResult& out, MergeScratch& scratch) {
  const std::size_t k = inputs.size();
  out.maps.resize(k);
  if (k == 0) {
    out.keys.clear();
    return;
  }
  if (k == 1) {
    out.keys.assign(inputs[0].begin(), inputs[0].end());
    identity_map(out.maps[0], inputs[0].size());
    return;
  }

  // Level 0: 2-way merge adjacent input pairs; the pair maps ARE the leaf
  // maps at this level, so write them straight into the output slots. (Not
  // via map_a/map_b + swap: that would rotate buffers between the output
  // and the scratch on every call, so warm capacities never settle.)
  auto& runs0 = scratch.runs[0];
  const std::size_t nruns0 = (k + 1) / 2;
  if (runs0.size() < nruns0) runs0.resize(nruns0);
  for (std::size_t j = 0; j < k / 2; ++j) {
    merge_union_into(inputs[2 * j], inputs[2 * j + 1], runs0[j],
                     out.maps[2 * j], out.maps[2 * j + 1]);
  }
  if (k % 2 == 1) {
    runs0[nruns0 - 1].assign(inputs[k - 1].begin(), inputs[k - 1].end());
    identity_map(out.maps[k - 1], inputs[k - 1].size());
  }

  // Upper levels: ping-pong runs between the two arenas, composing every
  // affected leaf map with its side's 2-way map. Run j at the level with
  // `leaf_span` leaves per run covers leaves [j·leaf_span, (j+1)·leaf_span).
  std::size_t count = nruns0;
  std::size_t level = 0;
  while (count > 1) {
    auto& cur = scratch.runs[level & 1];
    auto& nxt = scratch.runs[(level + 1) & 1];
    const std::size_t nnext = (count + 1) / 2;
    if (nxt.size() < nnext) nxt.resize(nnext);
    const std::size_t leaf_span = std::size_t{1} << (level + 1);
    for (std::size_t j = 0; j < count / 2; ++j) {
      merge_union_into(cur[2 * j], cur[2 * j + 1], nxt[j], scratch.map_a,
                       scratch.map_b);
      const std::size_t a_lo = 2 * j * leaf_span;
      const std::size_t a_hi = std::min(a_lo + leaf_span, k);
      const std::size_t b_hi = std::min(a_hi + leaf_span, k);
      for (std::size_t leaf = a_lo; leaf < a_hi; ++leaf) {
        for (pos_t& p : out.maps[leaf]) p = scratch.map_a[p];
      }
      for (std::size_t leaf = a_hi; leaf < b_hi; ++leaf) {
        for (pos_t& p : out.maps[leaf]) p = scratch.map_b[p];
      }
    }
    // An odd trailing run passes through unchanged (its leaf maps already
    // address its keys); swap keeps both buffers inside the scratch.
    if (count % 2 == 1) std::swap(nxt[nnext - 1], cur[count - 1]);
    count = nnext;
    ++level;
  }
  std::swap(out.keys, scratch.runs[level & 1][0]);
}

UnionResult tree_merge(std::span<const std::span<const key_t>> inputs) {
  UnionResult out;
  MergeScratch scratch;
  tree_merge_into(inputs, out, scratch);
  return out;
}

UnionResult tree_merge(const std::vector<std::vector<key_t>>& inputs) {
  std::vector<std::span<const key_t>> spans(inputs.begin(), inputs.end());
  return tree_merge(spans);
}

UnionResult hash_union(std::span<const std::span<const key_t>> inputs) {
  UnionResult result;
  std::unordered_map<key_t, pos_t> positions;
  std::size_t total = 0;
  for (const auto& in : inputs) total += in.size();
  positions.reserve(total);
  result.maps.reserve(inputs.size());
  for (const auto& in : inputs) {
    PosMap map(in.size());
    for (std::size_t p = 0; p < in.size(); ++p) {
      const auto [it, inserted] = positions.try_emplace(
          in[p], static_cast<pos_t>(result.keys.size()));
      if (inserted) result.keys.push_back(in[p]);
      map[p] = it->second;
    }
    result.maps.push_back(std::move(map));
  }
  return result;
}

}  // namespace kylix
