#include "sparse/kernels/radix_sort.hpp"

#include <algorithm>
#include <array>
#include <cstring>

namespace kylix::kernels {

namespace {

constexpr std::size_t kRadixBits = 8;
constexpr std::size_t kBuckets = std::size_t{1} << kRadixBits;
constexpr std::size_t kPasses = 64 / kRadixBits;
/// Below this many keys, std::sort beats the 8-pass LSD radix sort
/// (histogram + ping-pong setup dominates at small n).
constexpr std::size_t kRadixMinKeys = 512;

/// Standard stable LSD distribution pass: src -> dst ordered by the digit at
/// `shift`, using the precomputed histogram `count`.
void distribute(const key_t* src, key_t* dst, std::size_t n,
                unsigned shift, const std::size_t* count) {
  std::array<std::size_t, kBuckets> offset;
  std::size_t sum = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    offset[b] = sum;
    sum += count[b];
  }
  for (std::size_t i = 0; i < n; ++i) {
    const key_t x = src[i];
    dst[offset[(x >> shift) & (kBuckets - 1)]++] = x;
  }
}

/// Final distribution pass with fused dedup. The input is already sorted by
/// every other (non-trivial) digit, so within one output bucket writes land
/// in ascending key order and a duplicate always equals the last key written
/// to its bucket. Skips leave gaps between buckets; the caller compacts in
/// bucket order when any were seen. Returns the deduped size.
std::size_t distribute_dedup(const key_t* src, key_t* dst, std::size_t n,
                             unsigned shift, const std::size_t* count) {
  std::array<std::size_t, kBuckets> start;
  std::array<std::size_t, kBuckets> offset;
  std::size_t sum = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    start[b] = sum;
    offset[b] = sum;
    sum += count[b];
  }
  bool any_dup = false;
  for (std::size_t i = 0; i < n; ++i) {
    const key_t x = src[i];
    const std::size_t b = (x >> shift) & (kBuckets - 1);
    if (offset[b] != start[b] && dst[offset[b] - 1] == x) {
      any_dup = true;
      continue;
    }
    dst[offset[b]++] = x;
  }
  if (!any_dup) return n;
  // Close the inter-bucket gaps: slide each bucket's deduped run down, in
  // bucket order (moves only overlap forward, so memmove is safe).
  std::size_t write = offset[0] - start[0];
  for (std::size_t b = 1; b < kBuckets; ++b) {
    const std::size_t len = offset[b] - start[b];
    if (len != 0 && write != start[b]) {
      std::memmove(dst + write, dst + start[b], len * sizeof(key_t));
    }
    write += len;
  }
  return write;
}

}  // namespace

void radix_sort_dedup(std::vector<key_t>& keys, std::vector<key_t>& scratch) {
  const std::size_t n = keys.size();
  if (n < kRadixMinKeys) {
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    return;
  }
  if (scratch.size() < n) scratch.resize(n);

  // One streaming pass builds all eight digit histograms.
  static_assert(kPasses == 8);
  std::array<std::array<std::size_t, kBuckets>, kPasses> counts{};
  for (const key_t x : keys) {
    for (std::size_t pass = 0; pass < kPasses; ++pass) {
      ++counts[pass][(x >> (pass * kRadixBits)) & (kBuckets - 1)];
    }
  }

  // A pass whose digit is constant across all keys reorders nothing: skip
  // it. (The constant digit still participates in the sort order trivially,
  // which is what makes the fused dedup below correct even with skips.)
  std::array<std::size_t, kPasses> live{};
  std::size_t num_live = 0;
  for (std::size_t pass = 0; pass < kPasses; ++pass) {
    const auto& c = counts[pass];
    if (std::none_of(c.begin(), c.end(),
                     [n](std::size_t v) { return v == n; })) {
      live[num_live++] = pass;
    }
  }
  if (num_live == 0) {
    // Every digit constant: all keys are equal.
    keys.resize(n == 0 ? 0 : 1);
    return;
  }

  key_t* bufs[2] = {keys.data(), scratch.data()};
  std::size_t src = 0;
  for (std::size_t i = 0; i + 1 < num_live; ++i) {
    const std::size_t pass = live[i];
    distribute(bufs[src], bufs[1 - src], n,
               static_cast<unsigned>(pass * kRadixBits),
               counts[pass].data());
    src = 1 - src;
  }
  const std::size_t last = live[num_live - 1];
  const std::size_t unique = distribute_dedup(
      bufs[src], bufs[1 - src], n, static_cast<unsigned>(last * kRadixBits),
      counts[last].data());
  if (1 - src != 0) keys.swap(scratch);  // result landed in the scratch
  keys.resize(unique);
}

void radix_sort_dedup(std::vector<key_t>& keys) {
  thread_local std::vector<key_t> scratch;
  radix_sort_dedup(keys, scratch);
}

}  // namespace kylix::kernels
