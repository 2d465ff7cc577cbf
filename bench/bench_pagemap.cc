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
// DESIGN.md's E7 section records the flat-vs-radix ablation behind the choice.

#include <benchmark/benchmark.h>

#include <unordered_set>
#include <vector>

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
    benchmark::DoNotOptimize(published.Get(0));
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

}  // namespace

BENCHMARK_MAIN();
