// HashPage: the PageStore's 64-bit content hash over one 4 KiB page. Internal
// to the store (page_store.cc keys its dedup index with it); a header of its
// own only so tests and microbenchmarks can pin its distribution and cost.
//
// Eight independent lanes each run the same xor-multiply-shift step over
// every eighth word, and the lanes fold into one value at the end. A single
// serial chain over 512 words is latency-bound on the multiplier (~1.27 µs
// per page at -O2 on a 2.0 GHz Xeon VM); eight chains keep it busy (~0.33 µs
// there, bench_pagemap's BM_PageHash). The lanes are spelled out as eight
// locals rather than a lane array: gcc at -O2 keeps a loop over an array in
// memory, which measured ~0.55 µs on the same host.
//
// Collisions are tolerated — the index confirms every candidate with a full
// memcmp — so speed matters more than distribution tails. Every step is a
// bijection of the lane state for a fixed word, and of the word for a fixed
// state, so pages that differ in exactly one word always hash differently.
// The top bits select the shard, the low bits the index slot; the final
// avalanche spreads every lane into both.

#ifndef LWSNAP_SRC_SNAPSHOT_PAGE_HASH_H_
#define LWSNAP_SRC_SNAPSHOT_PAGE_HASH_H_

#include <cstdint>
#include <cstring>

#include "src/snapshot/page_store.h"

namespace lw {
namespace internal {

inline uint64_t MixWord(uint64_t h, uint64_t w) {
  h ^= w;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return h;
}

inline uint64_t LoadWord(const uint8_t* p) {
  uint64_t w;
  std::memcpy(&w, p, 8);
  return w;
}

inline uint64_t HashPage(const void* src) {
  static_assert(kPageSize % 64 == 0, "a page must be a whole number of 8-word rows");
  const uint8_t* p = static_cast<const uint8_t*>(src);
  // Distinct lane seeds: swapping two lanes' word streams changes the hash.
  uint64_t h0 = 0x9e3779b97f4a7c15ull;
  uint64_t h1 = 0xbf58476d1ce4e5b9ull;
  uint64_t h2 = 0x94d049bb133111ebull;
  uint64_t h3 = 0xc2b2ae3d27d4eb4full;
  uint64_t h4 = 0x165667b19e3779f9ull;
  uint64_t h5 = 0x27d4eb2f165667c5ull;
  uint64_t h6 = 0xd6e8feb86659fd93ull;
  uint64_t h7 = 0xa0761d6478bd642full;
  for (size_t i = 0; i < kPageSize; i += 64) {
    h0 = MixWord(h0, LoadWord(p + i));
    h1 = MixWord(h1, LoadWord(p + i + 8));
    h2 = MixWord(h2, LoadWord(p + i + 16));
    h3 = MixWord(h3, LoadWord(p + i + 24));
    h4 = MixWord(h4, LoadWord(p + i + 32));
    h5 = MixWord(h5, LoadWord(p + i + 40));
    h6 = MixWord(h6, LoadWord(p + i + 48));
    h7 = MixWord(h7, LoadWord(p + i + 56));
  }
  // Fold in lane order (order-dependent), then an fmix64-style avalanche.
  uint64_t h = MixWord(h0, h1);
  h = MixWord(h, h2);
  h = MixWord(h, h3);
  h = MixWord(h, h4);
  h = MixWord(h, h5);
  h = MixWord(h, h6);
  h = MixWord(h, h7);
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 29;
  return h;
}

// Top hash bits pick the shard (low bits pick the slot within its index).
inline uint32_t ShardOfHash(uint64_t hash) {
  if constexpr (kPageStoreShardBits == 0) {
    return 0;
  }
  return static_cast<uint32_t>(hash >> (64 - kPageStoreShardBits)) & (kPageStoreShards - 1);
}

}  // namespace internal
}  // namespace lw

#endif  // LWSNAP_SRC_SNAPSHOT_PAGE_HASH_H_
