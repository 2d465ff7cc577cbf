// O(spine) snapshot release with shard-batched blob reclamation:
//   * store-level parity — ReleaseBatch leaves the store (live/free blob and
//     byte counters) bit-identical to releasing the same refs one by one;
//   * exact lock accounting — a batch with dying refs spread over S distinct
//     shards takes exactly S shard-lock holds (asserted via PageRef::shard());
//   * spine-only descent — releasing a map that shares all but D pages with a
//     live sibling visits O(D · height) radix nodes and never descends a
//     shared subtree;
//   * session-level residency — after a checkpoint release storm the store
//     holds exactly the distinct blobs the session still references (the
//     engine's current map) plus the canonical zero blob, for every engine;
//   * self-releasing maps — a released ancestor pins nothing its descendants'
//     maps do not, a deep released chain dies without recursion, and the
//     deaths of a DFS or SM-A* search (backtracking, frontier eviction) go
//     through ReleaseBatch;
//   * concurrency — sessions on different threads batching releases into one
//     shared store never corrupt it.

#include <gtest/gtest.h>

#include <pthread.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/backtrack.h"
#include "src/snapshot/soft_dirty.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer) && !defined(__SANITIZE_THREAD__)
#define __SANITIZE_THREAD__ 1
#endif
#endif

namespace lw {
namespace {

bool SkipForMode(SnapshotMode mode, const char** reason) {
#ifdef __SANITIZE_THREAD__
  // kAdaptive may arm the CoW mechanism, so it carries the same TSan conflict.
  if (mode == SnapshotMode::kCow || mode == SnapshotMode::kAdaptive) {
    *reason = "CoW SIGSEGV protocol conflicts with TSan signal interposition";
    return true;
  }
#endif
  if (mode == SnapshotMode::kSoftDirty && !SoftDirtyTracker::Supported()) {
    *reason = "soft-dirty unavailable on this kernel";
    return true;
  }
  (void)reason;
  return false;
}

// Deterministic distinct page content: (salt, i) is written verbatim into the
// page, so no two pairs collide — each publish mints its own blob (never a
// dedup hit) and no page is all-zero.
void FillPage(uint8_t* buf, uint32_t salt, uint32_t i) {
  for (size_t b = 0; b < kPageSize; ++b) {
    buf[b] = static_cast<uint8_t>((salt * 131 + b * 13) | 1);
  }
  std::memcpy(buf, &salt, sizeof(salt));
  std::memcpy(buf + sizeof(salt), &i, sizeof(i));
}

// --- Store-level parity ----------------------------------------------------------

// The same publish-then-release script against two stores — one releasing
// per-ref (destructor cascade), one through ReleaseBatch — must end with
// identical residency counters: the batch changes lock traffic, nothing else.
TEST(ReleaseBatchStoreTest, BatchedEndStateMatchesPerRef) {
  PageStore per_ref_store;
  PageStore batched_store;
  uint8_t buf[kPageSize];

  auto publish = [&buf](PageStore& store, std::vector<PageRef>* refs,
                        std::vector<PageRef>* keep) {
    for (uint32_t i = 0; i < 96; ++i) {
      FillPage(buf, 1, i);
      refs->push_back(store.Publish(buf));
    }
    // A slice stays alive through copies: those blobs must survive the release.
    for (size_t i = 0; i < 12; ++i) {
      keep->push_back((*refs)[i]);
    }
  };

  std::vector<PageRef> a_refs, a_keep, b_refs, b_keep;
  publish(per_ref_store, &a_refs, &a_keep);
  publish(batched_store, &b_refs, &b_keep);

  a_refs.clear();  // per-ref: each destructor takes its shard lock on its own
  batched_store.ReleaseBatch(b_refs);
  EXPECT_TRUE(b_refs.empty());

  const PageStore::Stats a = per_ref_store.stats();
  const PageStore::Stats b = batched_store.stats();
  EXPECT_EQ(a.live_blobs, b.live_blobs);
  EXPECT_EQ(a.free_blobs, b.free_blobs);
  EXPECT_EQ(a.live_bytes, b.live_bytes);
  EXPECT_EQ(a.free_bytes, b.free_bytes);
  EXPECT_EQ(a.total_published, b.total_published);
  EXPECT_EQ(b.live_blobs, 12u);
  EXPECT_EQ(b.free_blobs, 96u - 12u);
  // Only the batched store paid batch counters; the per-ref one paid none.
  EXPECT_EQ(a.release_batches, 0u);
  EXPECT_EQ(b.release_batches, 1u);
  EXPECT_EQ(b.blobs_recycled_batched, 96u - 12u);
  // Spill is disabled on both stores: neither release path may touch the spill
  // tier, so every spill counter is exactly zero.
  EXPECT_EQ(a.spills, 0u);
  EXPECT_EQ(a.spilled_blobs, 0u);
  EXPECT_EQ(b.spills, 0u);
  EXPECT_EQ(b.spilled_blobs, 0u);
  EXPECT_EQ(b.spill_bytes, 0u);
  EXPECT_EQ(b.faultbacks, 0u);

  // Republish the same content: recycled payloads must serve cleanly.
  for (uint32_t i = 20; i < 40; ++i) {
    FillPage(buf, 1, i);
    PageRef ref = batched_store.Publish(buf);
    EXPECT_TRUE(ref.valid());
    EXPECT_TRUE(ref.EqualsPage(buf));
  }
}

TEST(ReleaseBatchStoreTest, ShardLockCountMatchesDistinctDyingShards) {
  PageStore store;
  uint8_t buf[kPageSize];
  std::vector<PageRef> refs;
  for (uint32_t i = 0; i < 64; ++i) {
    FillPage(buf, 2, i);
    refs.push_back(store.Publish(buf));
  }
  // Pin the first 8: their refcounts stay above zero, so they neither die nor
  // contribute a shard-lock hold.
  std::vector<PageRef> keep(refs.begin(), refs.begin() + 8);

  std::set<uint32_t> dying_shards;
  for (size_t i = 8; i < refs.size(); ++i) {
    dying_shards.insert(refs[i].shard());
  }

  const PageStore::Stats before = store.stats();
  store.ReleaseBatch(refs);
  const PageStore::Stats after = store.stats();
  EXPECT_EQ(after.release_batches - before.release_batches, 1u);
  EXPECT_EQ(after.blobs_recycled_batched - before.blobs_recycled_batched, 64u - 8u);
  EXPECT_EQ(after.release_shard_locks - before.release_shard_locks, dying_shards.size());
  EXPECT_LE(dying_shards.size(), kPageStoreShards);

  // A batch with no dying blobs takes no shard lock at all.
  std::vector<PageRef> copies(keep.begin(), keep.end());
  const PageStore::Stats mid = store.stats();
  store.ReleaseBatch(copies);
  const PageStore::Stats end = store.stats();
  EXPECT_EQ(end.release_shard_locks - mid.release_shard_locks, 0u);
  EXPECT_EQ(end.blobs_recycled_batched - mid.blobs_recycled_batched, 0u);
}

// --- Spine-only descent ----------------------------------------------------------

// Release of a radix map sharing all but D pages with a live sibling must
// visit only the uniquely-owned spine: ≤ 1 + D · height nodes, with every
// shared subtree dropped by a single refcount decrement. The sibling and the
// store survive untouched.
TEST(ReleaseBatchRadixTest, SharedSubtreesAreNeverDescended) {
  PageStore store;
  constexpr uint32_t kPages = 4096;  // height 3 at 4 bits/level
  constexpr int kHeight = 3;
  uint8_t buf[kPageSize];

  PageMap base(kPages);
  for (uint32_t page = 0; page < kPages; ++page) {
    FillPage(buf, 3, page);
    base.Set(page, store.Publish(buf));
  }
  ASSERT_EQ(store.stats().live_blobs, kPages);

  PageMap child = base;  // O(1) structural share
  const uint32_t divergent[] = {7, 1000, 1001, 2048, 4095};
  constexpr size_t kD = sizeof(divergent) / sizeof(divergent[0]);
  for (uint32_t page : divergent) {
    FillPage(buf, 4, page);
    child.Set(page, store.Publish(buf));
  }

  std::vector<PageRef> drain;
  const size_t visited = child.ReleaseInto(&drain);
  // Owned spine only: the D path copies (≤ height nodes each, root shared
  // among them) — a full-tree walk would visit ~4369 nodes.
  EXPECT_LE(visited, 1 + kD * kHeight);
  EXPECT_GE(visited, static_cast<size_t>(kHeight));
  // Every copied leaf contributes its full 16-slot run of refs.
  EXPECT_GE(drain.size(), kD);
  EXPECT_LE(drain.size(), kD * 16);

  store.ReleaseBatch(drain);
  // The D divergent blobs died (their only refs were the child's); everything
  // the base holds is untouched and readable.
  EXPECT_EQ(store.stats().live_blobs, kPages);
  for (uint32_t page : {7u, 1000u, 2048u, 4095u, 0u, 555u}) {
    FillPage(buf, 3, page);
    const PageRef& ref = base.Peek(page);
    ASSERT_TRUE(ref.valid());
    EXPECT_TRUE(ref.EqualsPage(buf)) << "base page " << page << " corrupted by child release";
  }
}

// --- Session-level parity across engines -----------------------------------------

BacktrackSession* Session() { return static_cast<BacktrackSession*>(CurrentExecutor()); }

// Distinct blobs referenced by `maps`, plus the store's canonical zero blob:
// the live_blobs a store must report when those maps are all that is left.
uint64_t HeldBlobs(PageStore& store, std::initializer_list<const PageMap*> maps) {
  const PageRef zero = store.ZeroPage();
  std::vector<const PageRef*> held = {&zero};
  for (const PageMap* map : maps) {
    for (uint32_t page = 0; page < map->num_pages(); ++page) {
      const PageRef& ref = map->Peek(page);
      bool seen = !ref.valid();
      for (size_t i = 0; i < held.size() && !seen; ++i) {
        seen = *held[i] == ref;
      }
      if (!seen) {
        held.push_back(&ref);
      }
    }
  }
  return held.size();
}

constexpr uint32_t kStormPages = 24;

struct StormScratch {
  char mailbox[32];
  uint8_t* buf;
  int round;
};

// Each resume dirties a sliding window of pages, so consecutive checkpoints
// share all but a small delta — the shape a release storm reclaims.
void StormGuest(void*) {
  auto* scratch = GuestNew<StormScratch>(Session()->heap());
  scratch->buf = static_cast<uint8_t*>(
      Session()->heap()->Alloc(static_cast<size_t>(kStormPages) * kPageSize));
  scratch->round = 0;
  std::memset(scratch->buf, 0xA1, static_cast<size_t>(kStormPages) * kPageSize);
  for (;;) {
    std::snprintf(scratch->mailbox, sizeof(scratch->mailbox), "r=%d", scratch->round);
    size_t len = sys_yield(scratch->mailbox, sizeof(scratch->mailbox));
    if (len == 0) {
      return;
    }
    scratch->round += std::atoi(scratch->mailbox);
    for (uint32_t i = 0; i < 4; ++i) {
      uint32_t page = (static_cast<uint32_t>(scratch->round) * 4 + i) % kStormPages;
      std::memset(scratch->buf + static_cast<size_t>(page) * kPageSize,
                  (scratch->round * 31 + static_cast<int>(i)) & 0xFF, kPageSize);
    }
  }
}

struct StormRun {
  PageStore::Stats store;
  SessionStats session;
  uint64_t held_blobs = 0;  // distinct blobs the session still references, plus the zero blob
};

StormRun RunCheckpointStorm(SnapshotMode mode) {
  SessionOptions options;
  options.arena_bytes = 8ull << 20;
  options.guest_stack_bytes = 256 * 1024;
  options.snapshot_mode = mode;
  options.output = [](std::string_view) {};
  auto store = std::make_shared<PageStore>();
  options.store = store;

  StormRun run;
  {
    BacktrackSession session(options);
    EXPECT_TRUE(session.Run(&StormGuest, nullptr).ok());
    auto tokens = session.TakeNewCheckpoints();
    EXPECT_EQ(tokens.size(), 1u);
    Checkpoint root = std::move(tokens[0]);
    // Star shape: every sibling forks from the same root, sharing all pages
    // but its own small dirty delta — so releasing a sibling kills its delta
    // blobs.
    std::vector<Checkpoint> siblings;
    for (int i = 0; i < 16; ++i) {
      // Distinct increments → distinct rounds → every sibling's dirty delta is
      // unique content (its blobs die with its release, not via dedup peers).
      const std::string msg = std::to_string(i + 1);
      EXPECT_TRUE(session.Resume(root, msg.c_str(), msg.size() + 1).ok());
      auto next = session.TakeNewCheckpoints();
      EXPECT_EQ(next.size(), 1u);
      siblings.push_back(std::move(next[0]));
    }
    // Release storm: all siblings, then the root.
    while (!siblings.empty()) {
      EXPECT_TRUE(session.ReleaseCheckpoint(siblings.back()).ok());
      siblings.pop_back();
    }
    EXPECT_TRUE(session.ReleaseCheckpoint(root).ok());
    run.session = session.stats();
    run.store = store->stats();
    // With every checkpoint handle gone, the page refs left are the live
    // arena's (the engine's current map) and the store's own zero blob.
    run.held_blobs = HeldBlobs(*store, {&session.engine().current_map()});
  }
  return run;
}

class ReleaseStormParityTest : public ::testing::TestWithParam<SnapshotMode> {};

TEST_P(ReleaseStormParityTest, ResidencyMatchesHeldMapsAfterStorm) {
  const char* reason = nullptr;
  if (SkipForMode(GetParam(), &reason)) {
    GTEST_SKIP() << reason;
  }
  const StormRun run = RunCheckpointStorm(GetParam());
  EXPECT_EQ(run.session.checkpoints, 17u);  // the root plus 16 siblings
  EXPECT_EQ(run.session.resumes, 16u);

  // End-state residency is exactly what the session still references: the
  // batches recycled every blob no longer reachable, and nothing else. No budget ran, so every live
  // and every free blob keeps a raw payload.
  const uint64_t per_blob = sizeof(internal::PageBlob) + kPageSize;
  EXPECT_EQ(run.store.live_blobs, run.held_blobs);
  EXPECT_EQ(run.store.live_bytes, run.held_blobs * per_blob);
  EXPECT_GT(run.store.free_blobs, 0u);
  EXPECT_EQ(run.store.free_bytes, run.store.free_blobs * per_blob);

  // Releases went through ReleaseBatch, and the session mirrored its
  // counters.
  EXPECT_GT(run.store.release_batches, 0u);
  EXPECT_GT(run.store.blobs_recycled_batched, 0u);
  EXPECT_LE(run.store.release_shard_locks, run.store.release_batches * kPageStoreShards);
  EXPECT_EQ(run.session.release_batches, run.store.release_batches);
  EXPECT_EQ(run.session.blobs_recycled_batched, run.store.blobs_recycled_batched);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, ReleaseStormParityTest,
                         ::testing::Values(SnapshotMode::kCow, SnapshotMode::kFullCopy,
                                           SnapshotMode::kIncremental, SnapshotMode::kSoftDirty,
                                           SnapshotMode::kAdaptive),
                         [](const ::testing::TestParamInfo<SnapshotMode>& info) {
                           return SnapshotModeName(info.param);
                         });

// --- Self-releasing maps: chains and searches --------------------------------------

SessionOptions FaultFreeOptions(std::shared_ptr<PageStore> store) {
  SessionOptions options;
  options.arena_bytes = 1ull << 20;
  options.guest_stack_bytes = 64 * 1024;
  // Fault-free engine: safe under TSan and off the main thread.
  options.snapshot_mode = SnapshotMode::kIncremental;
  options.store = std::move(store);
  options.output = [](std::string_view) {};
  return options;
}

// Extends a linear chain `length` checkpoints past the root, releasing each
// parent once its child exists (the extend-then-release-parent shape of a
// checkpointed client). Returns the root and the leaf.
std::pair<Checkpoint, Checkpoint> ExtendChain(BacktrackSession* session, int length,
                                              bool keep_root) {
  EXPECT_TRUE(session->Run(&StormGuest, nullptr).ok());
  auto tokens = session->TakeNewCheckpoints();
  EXPECT_EQ(tokens.size(), 1u);
  Checkpoint root = std::move(tokens[0]);
  Checkpoint leaf = root.Clone();
  for (int i = 0; i < length; ++i) {
    EXPECT_TRUE(session->Resume(leaf, "1", 2).ok());
    auto next = session->TakeNewCheckpoints();
    EXPECT_EQ(next.size(), 1u);
    EXPECT_TRUE(session->ReleaseCheckpoint(leaf).ok());
    leaf = std::move(next[0]);
  }
  if (!keep_root) {
    EXPECT_TRUE(session->ReleaseCheckpoint(root).ok());
  }
  return {std::move(root), std::move(leaf)};
}

// A released ancestor keeps only what its descendants' maps still share: with
// every handle but the leaf released, the store holds the leaf's blobs, the
// live arena's, and the zero blob — not every ancestor's whole page image.
TEST(SelfReleasingMapTest, ReleasedLinearChainPinsOnlyTheLeaf) {
  auto store = std::make_shared<PageStore>();
  BacktrackSession session(FaultFreeOptions(store));
  auto [root, leaf] = ExtendChain(&session, 64, /*keep_root=*/false);
  // The last drive captured the leaf, so the live arena's map is the leaf's.
  const PageMap leaf_map = session.engine().current_map();
  EXPECT_EQ(store->stats().live_blobs,
            HeldBlobs(*store, {&leaf_map, &session.engine().current_map()}));
}

// Runs `body` on a thread with a `stack_bytes` stack and joins it.
void RunOnSmallStack(size_t stack_bytes, std::function<void()> body) {
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, stack_bytes), 0);
  pthread_t thread;
  auto trampoline = [](void* arg) -> void* {
    (*static_cast<std::function<void()>*>(arg))();
    return nullptr;
  };
  ASSERT_EQ(pthread_create(&thread, &attr, trampoline, &body), 0);
  pthread_attr_destroy(&attr);
  ASSERT_EQ(pthread_join(thread, nullptr), 0);
}

// A snapshot holds no link to its parent, so a long released chain dies one
// map at a time: tearing it down by resuming the root must not recurse once
// per ancestor. When snapshots chained to their parents by shared_ptr, that
// teardown overflowed a 256 KiB stack from about 5500 links on (x86-64,
// -O2); 16000 leaves a margin for leaner frames.
TEST(SelfReleasingMapTest, DeepReleasedChainDiesWithoutRecursion) {
  constexpr int kChain = 16000;
  RunOnSmallStack(256 * 1024, [] {
    auto store = std::make_shared<PageStore>();
    BacktrackSession session(FaultFreeOptions(store));
    auto [root, leaf] = ExtendChain(&session, kChain, /*keep_root=*/true);
    EXPECT_TRUE(session.ReleaseCheckpoint(leaf).ok());
    // An empty message makes the guest return; the live arena then still maps
    // the root's image, which is all that is left.
    EXPECT_TRUE(session.Resume(root, nullptr, 0).ok());
    EXPECT_EQ(store->stats().live_blobs, HeldBlobs(*store, {&session.engine().current_map()}));
  });
}

constexpr int kQueens = 8;

// Enumerates every 8-queens placement depth first; each placement dirties one
// trail page per column, so backtracking past a column kills real blobs.
void QueensGuest(void*) {
  struct Board {
    int row[kQueens];
    int ld[2 * kQueens];
    int rd[2 * kQueens];
  };
  auto* board = GuestNew<Board>(Session()->heap());
  std::memset(board, 0, sizeof(Board));
  auto* trail = static_cast<uint8_t*>(Session()->heap()->Alloc(kQueens * kPageSize));
  if (sys_guess_strategy(StrategyKind::kDfs)) {
    for (int c = 0; c < kQueens; ++c) {
      const int r = sys_guess(kQueens);
      if (board->row[r] || board->ld[r + c] || board->rd[kQueens + r - c]) {
        sys_guess_fail();
      }
      board->row[r] = board->ld[r + c] = board->rd[kQueens + r - c] = 1;
      std::memset(trail + static_cast<size_t>(c) * kPageSize, c * kQueens + r + 1, kPageSize);
    }
    sys_note_solution();
    sys_guess_fail();
  }
}

// SM-A* over a 3-way tree, four levels deep, with path-unique page writes; a
// frontier capped at 4 entries evicts inside every overflowing push.
void SmaStarGuest(void*) {
  auto* buffer = static_cast<uint8_t*>(Session()->heap()->Alloc(4 * kPageSize));
  if (sys_guess_strategy(StrategyKind::kSmaStar)) {
    uint8_t sig = 0;
    for (int d = 0; d < 4; ++d) {
      GuessCost costs[3] = {{d * 1.0, 3.0 - d}, {d * 1.0, 2.0}, {d * 1.0, 1.0}};
      const int pick = sys_guess_weighted(3, costs);
      sig = static_cast<uint8_t>(sig * 3 + pick + 1);
      std::memset(buffer + static_cast<size_t>(d) * kPageSize, sig, kPageSize);
    }
    sys_guess_fail();
  }
}

// Backtracking and frontier eviction drop snapshots by plain assignment or
// erase; their maps still return their pages through ReleaseBatch, and once
// the run ends nothing but the live arena's map is left.
TEST(SelfReleasingMapTest, SearchDeathsReleaseThroughBatches) {
  for (StrategyKind kind : {StrategyKind::kDfs, StrategyKind::kSmaStar}) {
    SCOPED_TRACE(kind == StrategyKind::kDfs ? "dfs queens" : "sm-a* max_frontier");
    auto store = std::make_shared<PageStore>();  // this session's alone
    SessionOptions options = FaultFreeOptions(store);
    options.strategy.kind = kind;
    options.strategy.max_frontier = 4;  // read by SM-A* only
    BacktrackSession session(options);
    ASSERT_TRUE(
        session.Run(kind == StrategyKind::kDfs ? &QueensGuest : &SmaStarGuest, nullptr).ok());
    if (kind == StrategyKind::kDfs) {
      EXPECT_EQ(session.stats().solutions, 92u);
    }
    EXPECT_GT(store->stats().release_batches, 0u);
    EXPECT_EQ(store->stats().live_blobs, HeldBlobs(*store, {&session.engine().current_map()}));
  }
}

// Sessions on different worker threads run checkpoint storms against one
// shared store, each draining its releases through ReleaseBatch. The store's
// refcount invariant must hold throughout: after every session dies, only the
// canonical zero page (the store's own pin) may remain live.
TEST(ReleaseBatchConcurrencyTest, ConcurrentSessionStormsSharedStore) {
  auto store = std::make_shared<PageStore>();
  constexpr int kSessions = 4;
  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (int t = 0; t < kSessions; ++t) {
    threads.emplace_back([store] {
      SessionOptions options;
      options.arena_bytes = 8ull << 20;
      options.guest_stack_bytes = 256 * 1024;
      // Fault-free engine: safe under TSan and off the main thread.
      options.snapshot_mode = SnapshotMode::kIncremental;
      options.store = store;
      options.output = [](std::string_view) {};
      BacktrackSession session(options);
      ASSERT_TRUE(session.Run(&StormGuest, nullptr).ok());
      auto tokens = session.TakeNewCheckpoints();
      ASSERT_EQ(tokens.size(), 1u);
      std::vector<Checkpoint> chain;
      chain.push_back(std::move(tokens[0]));
      for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(session.Resume(chain.back(), "1", 2).ok());
        auto next = session.TakeNewCheckpoints();
        ASSERT_EQ(next.size(), 1u);
        chain.push_back(std::move(next[0]));
      }
      // Half released explicitly mid-life, half dropped with the session (the
      // destructor reclaims them through the same batch path).
      for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(session.ReleaseCheckpoint(chain[static_cast<size_t>(i) * 2]).ok());
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  const PageStore::Stats stats = store->stats();
  EXPECT_LE(stats.live_blobs, 1u);  // only the store's pinned zero page
  EXPECT_GT(stats.release_batches, 0u);
  EXPECT_GT(stats.blobs_recycled_batched, 0u);
}

}  // namespace
}  // namespace lw
