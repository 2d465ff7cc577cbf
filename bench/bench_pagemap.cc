// E7 — the parent-relationship encoding ablation (§3.1):
//
//   "Each partial candidate also has an immutable relationship with its
//    parent, which can be leveraged to encode the state in a space-efficient
//    manner."
//
// Measures the radix PageMap across snapshot-tree shapes:
//
//   Share/dirty   — publishing a snapshot's map: O(1) root copy after
//                   O(dirty) path copies during the mutation phase
//   Diff/dirty    — restore-time page diff between sibling snapshots
//                   (skips shared subtrees)
//   TreeBytes     — map structure bytes across a 256-snapshot chain
//
// and the per-page costs a snapshot pays on its publish path (ungated: they
// explain the end-to-end figures, they do not gate them):
//
//   PageHash              — the store's content hash over one 4 KiB page
//   PublishUnique         — PageStore::Publish of never-seen content: zero
//                           probe + hash + index miss + blob copy + insert
//   PageMapSet/shared     — a point update right after the map was shared
//                           (the first write after a checkpoint: full spine
//                           copy)
//   PageMapSet/unique     — a point update on a map that owns its spine
//                           (in place, no node allocated)
//
// DESIGN.md's E7 section records the flat-vs-radix ablation behind the choice.

#include <benchmark/benchmark.h>

#include <cstring>
#include <unordered_set>
#include <vector>

#include "src/snapshot/page_hash.h"
#include "src/snapshot/page_map.h"
#include "src/snapshot/page_store.h"
#include "src/util/rng.h"

namespace {

constexpr uint32_t kPages = 16384;  // a 64 MiB arena's worth of 4 KiB pages

lw::PageMap MakeBase(lw::PageStore* store) {
  lw::PageMap map(kPages);
  lw::PageRef zero = store->ZeroPage();
  for (uint32_t page = 0; page < kPages; ++page) {
    map.Set(page, zero);
  }
  return map;
}

void BM_Share(benchmark::State& state) {
  uint32_t dirty = static_cast<uint32_t>(state.range(0));
  lw::PageStore store;
  lw::PageMap base = MakeBase(&store);
  uint8_t page_bytes[lw::kPageSize] = {1};
  lw::Rng rng(7);

  for (auto _ : state) {
    // One snapshot step: dirty `dirty` random pages in a working copy, then
    // publish (share) the result the way the session does.
    lw::PageMap working = base;
    for (uint32_t i = 0; i < dirty; ++i) {
      working.Set(rng.Next() % kPages, store.Publish(page_bytes));
    }
    lw::PageMap published = working;  // the share
    benchmark::DoNotOptimize(published.Peek(0));
  }
}
BENCHMARK(BM_Share)->Arg(1)->Arg(64)->Arg(4096);

void BM_Diff(benchmark::State& state) {
  uint32_t dirty = static_cast<uint32_t>(state.range(0));
  lw::PageStore store;
  lw::PageMap base = MakeBase(&store);
  uint8_t page_bytes[lw::kPageSize] = {1};
  lw::Rng rng(8);

  lw::PageMap sibling = base;
  for (uint32_t i = 0; i < dirty; ++i) {
    sibling.Set(rng.Next() % kPages, store.Publish(page_bytes));
  }

  uint64_t differing = 0;
  for (auto _ : state) {
    differing = 0;
    base.Diff(sibling, [&differing](uint32_t, const lw::PageRef&, const lw::PageRef&) {
      ++differing;
    });
    benchmark::DoNotOptimize(differing);
  }
  state.counters["differing_pages"] = static_cast<double>(differing);
}
BENCHMARK(BM_Diff)->Arg(1)->Arg(64)->Arg(4096);

// Retained-structure bytes across a chain of snapshots, each dirtying 16 pages:
// consecutive maps share every spine they did not touch.
void BM_TreeBytes(benchmark::State& state) {
  lw::PageStore store;
  uint8_t page_bytes[lw::kPageSize] = {1};
  lw::Rng rng(9);

  size_t retained = 0;
  for (auto _ : state) {
    std::vector<lw::PageMap> chain;
    lw::PageMap working = MakeBase(&store);
    for (int snapshot = 0; snapshot < 256; ++snapshot) {
      for (int i = 0; i < 16; ++i) {
        working.Set(rng.Next() % kPages, store.Publish(page_bytes));
      }
      chain.push_back(working);
    }
    retained = 0;
    std::unordered_set<const void*> seen;  // dedupes nodes shared across maps
    for (const lw::PageMap& map : chain) {
      retained += map.UniqueStructureBytes(&seen);
    }
    benchmark::DoNotOptimize(retained);
  }
  state.counters["retained_map_bytes"] = static_cast<double>(retained);
}
BENCHMARK(BM_TreeBytes)->Unit(benchmark::kMillisecond);

void FillRandom(uint8_t* page, lw::Rng* rng) {
  for (size_t i = 0; i < lw::kPageSize; i += 8) {
    uint64_t word = rng->Next();
    std::memcpy(page + i, &word, 8);
  }
}

void BM_PageHash(benchmark::State& state) {
  lw::Rng rng(10);
  alignas(64) uint8_t page[lw::kPageSize];
  FillRandom(page, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(page);
    benchmark::DoNotOptimize(lw::internal::HashPage(page));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * lw::kPageSize));
}
BENCHMARK(BM_PageHash);

void BM_PublishUnique(benchmark::State& state) {
  lw::PageStore store;
  lw::Rng rng(11);
  alignas(64) uint8_t page[lw::kPageSize];
  FillRandom(page, &rng);
  constexpr size_t kBatch = 4096;  // refs held before an untimed batch release
  std::vector<lw::PageRef> held;
  held.reserve(kBatch);
  uint64_t serial = 0;
  for (auto _ : state) {
    ++serial;
    std::memcpy(page, &serial, sizeof(serial));  // never-seen content
    held.push_back(store.Publish(page));
    if (held.size() == kBatch) {
      state.PauseTiming();
      store.ReleaseBatch(held);
      held.clear();
      state.ResumeTiming();
    }
  }
  store.ReleaseBatch(held);
}
BENCHMARK(BM_PublishUnique);

void BM_PageMapSet(benchmark::State& state, bool shared) {
  lw::PageStore store;
  lw::PageMap map = MakeBase(&store);
  uint8_t page_bytes[lw::kPageSize] = {1};
  const lw::PageRef values[2] = {store.ZeroPage(), store.Publish(page_bytes)};
  lw::Rng rng(12);
  lw::PageMap snapshot(kPages);
  uint32_t flip = 0;
  for (auto _ : state) {
    if (shared) {
      snapshot = map;  // a checkpoint shares the map; the previous one dies
    }
    map.Set(static_cast<uint32_t>(rng.Next() % kPages), values[++flip & 1]);
  }
  benchmark::DoNotOptimize(map.Peek(0));
}
BENCHMARK_CAPTURE(BM_PageMapSet, shared, true);
BENCHMARK_CAPTURE(BM_PageMapSet, unique, false);

}  // namespace

BENCHMARK_MAIN();
