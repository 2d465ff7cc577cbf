// Unit and property tests for src/util: Status/Result, Rng, AllocHooks,
// Vec, and the persistent radix map (the snapshot page-map substrate).

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <unordered_set>
#include <vector>

#include "src/util/alloc_hooks.h"
#include "src/util/radix_map.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/vec.h"

namespace lw {
namespace {

// --- Status / Result ---------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing thing");
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kInternal); ++c) {
    EXPECT_STRNE(ErrorCodeName(static_cast<ErrorCode>(c)), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status(ErrorCode::kIoError, "disk on fire");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kIoError);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

// --- Rng ----------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.Next() == b.Next() ? 1 : 0;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, BelowStaysInBounds) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.Below(bound), bound);
    }
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.Range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

// --- AllocHooks / Vec -----------------------------------------------------------

TEST(AllocHooksTest, DefaultIsMalloc) {
  const AllocHooks& hooks = CurrentAllocHooks();
  void* p = hooks.alloc(hooks.ctx, 64);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xab, 64);
  hooks.dealloc(hooks.ctx, p, 64);
}

struct CountingAlloc {
  size_t allocs = 0;
  size_t deallocs = 0;

  static void* Alloc(void* ctx, size_t bytes) {
    ++static_cast<CountingAlloc*>(ctx)->allocs;
    return std::malloc(bytes);
  }
  static void Dealloc(void* ctx, void* p, size_t /*bytes*/) {
    ++static_cast<CountingAlloc*>(ctx)->deallocs;
    std::free(p);
  }
  AllocHooks hooks() { return AllocHooks{&Alloc, &Dealloc, this}; }
};

TEST(AllocHooksTest, ScopedInstallAndRestore) {
  CountingAlloc counter;
  {
    ScopedAllocHooks scoped(counter.hooks());
    const AllocHooks& hooks = CurrentAllocHooks();
    void* p = hooks.alloc(hooks.ctx, 16);
    hooks.dealloc(hooks.ctx, p, 16);
  }
  EXPECT_EQ(counter.allocs, 1u);
  EXPECT_EQ(counter.deallocs, 1u);
  EXPECT_EQ(CurrentAllocHooks().alloc, MallocHooks().alloc);
}

TEST(VecTest, PushPopIndex) {
  Vec<int> v;
  for (int i = 0; i < 100; ++i) {
    v.push_back(i);
  }
  EXPECT_EQ(v.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(v[static_cast<size_t>(i)], i);
  }
  v.pop_back();
  EXPECT_EQ(v.size(), 99u);
  EXPECT_EQ(v.back(), 98);
}

TEST(VecTest, VecCapturesHooksAtConstruction) {
  CountingAlloc counter;
  Vec<int> v = [&counter] {
    ScopedAllocHooks scoped(counter.hooks());
    Vec<int> inner;
    inner.push_back(1);
    return inner;
  }();
  // Growth after the scope must still use the captured hooks.
  for (int i = 0; i < 1000; ++i) {
    v.push_back(i);
  }
  EXPECT_GT(counter.allocs, 1u);
}

TEST(VecTest, NonTrivialElements) {
  Vec<std::string> v;
  for (int i = 0; i < 50; ++i) {
    v.emplace_back("value-" + std::to_string(i));
  }
  Vec<std::string> copy = v;
  EXPECT_EQ(copy.size(), 50u);
  EXPECT_EQ(copy[49], "value-49");
  Vec<std::string> moved = std::move(v);
  EXPECT_EQ(moved[0], "value-0");
  EXPECT_EQ(v.size(), 0u);  // NOLINT(bugprone-use-after-move): moved-from is empty by contract
}

TEST(VecTest, ResizeGrowsAndShrinks) {
  Vec<int> v;
  v.resize(10, 7);
  EXPECT_EQ(v.size(), 10u);
  EXPECT_EQ(v[9], 7);
  v.resize(3);
  EXPECT_EQ(v.size(), 3u);
  v.resize(20, -1);
  EXPECT_EQ(v[3], -1);
}

TEST(VecTest, SwapRemove) {
  Vec<int> v{1, 2, 3, 4};
  v.SwapRemove(0);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 4);
}

TEST(VecTest, Equality) {
  Vec<int> a{1, 2, 3};
  Vec<int> b{1, 2, 3};
  Vec<int> c{1, 2};
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

// --- PersistentRadixMap ---------------------------------------------------------

TEST(RadixMapTest, EmptyReturnsDefault) {
  PersistentRadixMap<int> m(1000);
  EXPECT_EQ(m.Peek(0), 0);
  EXPECT_EQ(m.Peek(999), 0);
}

TEST(RadixMapTest, SetGetRoundTrip) {
  PersistentRadixMap<int> m(4096);
  m.Set(0, 10);
  m.Set(17, 20);
  m.Set(4095, 30);
  EXPECT_EQ(m.Peek(0), 10);
  EXPECT_EQ(m.Peek(17), 20);
  EXPECT_EQ(m.Peek(4095), 30);
  EXPECT_EQ(m.Peek(1), 0);
}

TEST(RadixMapTest, CopyIsIndependent) {
  PersistentRadixMap<int> a(256);
  a.Set(5, 1);
  PersistentRadixMap<int> b = a;  // O(1) structural share
  b.Set(5, 2);
  b.Set(6, 3);
  EXPECT_EQ(a.Peek(5), 1);
  EXPECT_EQ(a.Peek(6), 0);
  EXPECT_EQ(b.Peek(5), 2);
  EXPECT_EQ(b.Peek(6), 3);
}

TEST(RadixMapTest, DiffSkipsSharedAndFindsChanges) {
  PersistentRadixMap<int> a(65536);
  for (uint32_t k = 0; k < 1000; ++k) {
    a.Set(k * 64, static_cast<int>(k + 1));
  }
  PersistentRadixMap<int> b = a;
  b.Set(64, -1);
  b.Set(40000, -2);

  std::map<uint32_t, std::pair<int, int>> diffs;
  a.Diff(b, [&diffs](uint32_t k, int av, int bv) { diffs[k] = {av, bv}; });
  ASSERT_EQ(diffs.size(), 2u);
  EXPECT_EQ(diffs[64], (std::pair<int, int>{2, -1}));
  EXPECT_EQ(diffs[40000], (std::pair<int, int>{626, -2}));  // 40000 = 625*64, set to 626
}

TEST(RadixMapTest, DiffAgainstEmpty) {
  PersistentRadixMap<int> empty(512);
  PersistentRadixMap<int> m(512);
  m.Set(100, 42);
  int count = 0;
  empty.Diff(m, [&count](uint32_t k, int av, int bv) {
    EXPECT_EQ(k, 100u);
    EXPECT_EQ(av, 0);
    EXPECT_EQ(bv, 42);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(RadixMapTest, ForEachVisitsNonDefault) {
  PersistentRadixMap<int> m(4096);
  std::set<uint32_t> keys{3, 500, 1023, 4000};
  for (uint32_t k : keys) {
    m.Set(k, 1);
  }
  std::set<uint32_t> seen;
  m.ForEach([&seen](uint32_t k, int v) {
    EXPECT_EQ(v, 1);
    seen.insert(k);
  });
  EXPECT_EQ(seen, keys);
}

// Property test: the radix map behaves exactly like std::map under a random
// workload of sets, copies, and diffs.
class RadixMapPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RadixMapPropertyTest, MatchesModelUnderRandomOps) {
  Rng rng(GetParam());
  const uint32_t capacity = 16384;
  PersistentRadixMap<int> subject(capacity);
  std::map<uint32_t, int> model;

  std::vector<std::pair<PersistentRadixMap<int>, std::map<uint32_t, int>>> saved;
  for (int op = 0; op < 3000; ++op) {
    uint32_t key = static_cast<uint32_t>(rng.Below(capacity));
    int action = static_cast<int>(rng.Below(10));
    if (action < 7) {
      int value = static_cast<int>(rng.Below(1000)) + 1;
      subject.Set(key, value);
      model[key] = value;
    } else if (action == 7) {
      saved.emplace_back(subject, model);  // snapshot
    } else if (action == 8 && !saved.empty()) {
      size_t i = static_cast<size_t>(rng.Below(saved.size()));
      subject = saved[i].first;  // restore
      model = saved[i].second;
    } else {
      auto it = model.find(key);
      EXPECT_EQ(subject.Peek(key), it == model.end() ? 0 : it->second);
    }
  }
  // Full sweep at the end.
  for (uint32_t k = 0; k < capacity; k += 7) {
    auto it = model.find(k);
    EXPECT_EQ(subject.Peek(k), it == model.end() ? 0 : it->second);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RadixMapPropertyTest, ::testing::Values(1, 2, 3, 4, 5));

// Every node reachable from `map`. CountUniqueNodes prunes at nodes already in
// the set, so each set is filled from empty: an in-place update can hang new
// nodes below a node some earlier walk already saw.
std::unordered_set<const void*> NodesOf(const PersistentRadixMap<int>& map) {
  std::unordered_set<const void*> nodes;
  map.CountUniqueNodes(&nodes);
  return nodes;
}

size_t CountNotIn(const std::unordered_set<const void*>& nodes,
                  const std::unordered_set<const void*>& old_nodes) {
  size_t count = 0;
  for (const void* node : nodes) {
    count += old_nodes.count(node) == 0 ? 1 : 0;
  }
  return count;
}

// Property test for copy-only-when-shared updates: a pool of maps that are
// copied, updated, released and diffed at random, each checked against a flat
// std::vector model after every operation (so an in-place update leaking into
// an earlier copy is caught at once). Node allocation is pinned through
// CountUniqueNodes: an update on a map whose root is shared copies exactly
// `height` nodes; one on a map sharing no node with any other live map
// allocates none.
class RadixMapOwnershipTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RadixMapOwnershipTest, CopiesMatchModelAndOnlySharedSpinesAreCopied) {
  Rng rng(GetParam());
  constexpr uint32_t kCapacity = 1024;  // 16^2 < 1024 <= 16^3: height 3
  constexpr size_t kHeight = 3;
  constexpr size_t kMaxMaps = 8;
  struct Entry {
    PersistentRadixMap<int> map{kCapacity};
    std::vector<int> model = std::vector<int>(kCapacity, 0);
  };
  std::vector<Entry> pool(1);
  for (uint32_t k = 0; k < kCapacity; ++k) {  // every path exists from here on
    pool[0].map.Set(k, static_cast<int>(k) + 1);
    pool[0].model[k] = static_cast<int>(k) + 1;
  }

  int shared_root_sets = 0;
  int exclusive_sets = 0;
  for (int op = 0; op < 1500; ++op) {
    const size_t i = static_cast<size_t>(rng.Below(pool.size()));
    const int action = static_cast<int>(rng.Below(20));
    if (action < 3 && pool.size() < kMaxMaps) {
      pool.push_back(pool[i]);  // O(1) share
    } else if (action < 6 && pool.size() > 1) {
      std::vector<int> drain;
      pool[i].map.ReleaseInto(&drain);
      for (uint32_t k = 0; k < kCapacity; ++k) {
        ASSERT_EQ(pool[i].map.Peek(k), 0);
      }
      ASSERT_LE(drain.size(), kCapacity);  // never more values than the map held
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (action < 8) {
      const size_t j = static_cast<size_t>(rng.Below(pool.size()));
      std::set<uint32_t> diffs;
      pool[i].map.Diff(pool[j].map, [&](uint32_t k, int mine, int theirs) {
        EXPECT_EQ(mine, pool[i].model[k]);
        EXPECT_EQ(theirs, pool[j].model[k]);
        diffs.insert(k);
      });
      for (uint32_t k = 0; k < kCapacity; ++k) {
        ASSERT_EQ(diffs.count(k) != 0, pool[i].model[k] != pool[j].model[k]) << "key " << k;
      }
    } else {
      const uint32_t key = static_cast<uint32_t>(rng.Below(kCapacity));
      const int value = static_cast<int>(rng.Below(1000)) + 1;
      bool root_shared = false;
      std::unordered_set<const void*> others;
      for (size_t j = 0; j < pool.size(); ++j) {
        if (j != i) {
          root_shared = root_shared || pool[j].map.RootEquals(pool[i].map);
          pool[j].map.CountUniqueNodes(&others);
        }
      }
      const std::unordered_set<const void*> before = NodesOf(pool[i].map);
      const bool exclusive = CountNotIn(before, others) == before.size();
      pool[i].map.Set(key, value);
      pool[i].model[key] = value;
      const size_t allocated = CountNotIn(NodesOf(pool[i].map), before);
      ASSERT_LE(allocated, kHeight);
      if (root_shared) {
        ASSERT_EQ(allocated, kHeight);
        ++shared_root_sets;
      }
      if (exclusive) {
        ASSERT_EQ(allocated, 0u);
        ++exclusive_sets;
      }
    }
    // Every live map — in particular every earlier copy — still matches its
    // model after whatever happened to its siblings.
    for (const Entry& entry : pool) {
      for (uint32_t k = 0; k < kCapacity; ++k) {
        ASSERT_EQ(entry.map.Peek(k), entry.model[k]) << "op " << op << " key " << k;
      }
    }
  }
  EXPECT_GT(shared_root_sets, 0);
  EXPECT_GT(exclusive_sets, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RadixMapOwnershipTest, ::testing::Values(11, 12, 13, 14, 15));

TEST(RadixMapTest, UpdateCopiesOnlyTheSharedPartOfTheSpine) {
  PersistentRadixMap<int> m(4096);  // height 3
  for (uint32_t k = 0; k < 4096; ++k) {
    m.Set(k, 1);
  }
  PersistentRadixMap<int> parent = m;
  std::unordered_set<const void*> nodes = NodesOf(m);
  m.Set(5, 2);  // root shared: the whole spine is copied
  EXPECT_EQ(CountNotIn(NodesOf(m), nodes), 3u);
  nodes = NodesOf(m);
  m.Set(6, 3);  // same leaf, now owned: in place
  EXPECT_EQ(CountNotIn(NodesOf(m), nodes), 0u);
  m.Set(4000, 4);  // owned root, shared interior and leaf below it
  EXPECT_EQ(CountNotIn(NodesOf(m), nodes), 2u);
  EXPECT_EQ(parent.Peek(5), 1);
  EXPECT_EQ(parent.Peek(6), 1);
  EXPECT_EQ(parent.Peek(4000), 1);
  EXPECT_EQ(m.Peek(5), 2);
  EXPECT_EQ(m.Peek(6), 3);
  EXPECT_EQ(m.Peek(4000), 4);
}

}  // namespace
}  // namespace lw
