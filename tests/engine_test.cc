// Tests for the SnapshotEngine layer: direct (session-less) materialize/
// restore round trips for every SnapshotMode, a golden script checked after
// every restore against a flat reference model with its counters pinned, the
// incremental mode's delta accounting, CoW restore syscall coalescing, serial
// queens/restore parity, and zero-page dedup in the PageStore (blob identity,
// refcounts, StructureBytes/bytes_live accounting).

#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/arena.h"
#include "src/core/backtrack.h"
#include "src/snapshot/engine.h"
#include "src/snapshot/page_store.h"
#include "src/snapshot/soft_dirty.h"
#include "src/util/rng.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer) && !defined(__SANITIZE_THREAD__)
#define __SANITIZE_THREAD__ 1
#endif
#endif

namespace lw {
namespace {

GuestArena::Layout SmallLayout() {
  GuestArena::Layout layout;
  layout.arena_bytes = 2ull << 20;
  layout.stack_bytes = 256 * 1024;
  layout.guard_bytes = 16 * kPageSize;
  return layout;
}

SnapshotEngine::Env MakeEnv(GuestArena* arena, PageStore* store, SnapshotEngineStats* stats,
                            SnapshotMode mode) {
  SnapshotEngine::Env env;
  env.arena = arena;
  env.store = store;
  env.stats = stats;
  env.hot_page_limit = mode == SnapshotMode::kCow ? 64 : 0;
  return env;
}

std::string ModeParamName(const ::testing::TestParamInfo<SnapshotMode>& param) {
  return SnapshotModeName(param.param);
}

const auto kAllModes =
    ::testing::Values(SnapshotMode::kCow, SnapshotMode::kFullCopy, SnapshotMode::kIncremental,
                      SnapshotMode::kSoftDirty, SnapshotMode::kAdaptive);

// --- Round trips, identically for every backend ----------------------------------

class EngineRoundTripTest : public ::testing::TestWithParam<SnapshotMode> {};

TEST_P(EngineRoundTripTest, MaterializeRestoreRoundTrip) {
  if (GetParam() == SnapshotMode::kSoftDirty && !SoftDirtyTracker::Supported()) {
    GTEST_SKIP() << "soft-dirty unavailable: " << SoftDirtyTracker::Probe().ToString();
  }
  GuestArena arena(SmallLayout());
  PageStore store;
  SnapshotEngineStats stats;
  {
    auto engine = MakeSnapshotEngine(GetParam(), MakeEnv(&arena, &store, &stats, GetParam()));
    ASSERT_EQ(engine->mode(), GetParam());

    Snapshot snap_a;
    Snapshot snap_b;

    // State A: three pages with distinct fills.
    std::memset(arena.PageAddr(1), 0xA1, kPageSize);
    std::memset(arena.PageAddr(2), 0xA2, kPageSize);
    std::memset(arena.PageAddr(7), 0xA7, kPageSize);
    engine->Materialize(snap_a);

    // State B: one page changed, one new page touched.
    std::memset(arena.PageAddr(2), 0xB2, kPageSize);
    std::memset(arena.PageAddr(9), 0xB9, kPageSize);
    engine->Materialize(snap_b);

    // Scribble after the snapshot: must be rolled back by any restore.
    std::memset(arena.PageAddr(1), 0xEE, kPageSize);
    std::memset(arena.PageAddr(11), 0xEE, kPageSize);

    engine->Restore(snap_a);
    EXPECT_EQ(arena.PageAddr(1)[0], 0xA1);
    EXPECT_EQ(arena.PageAddr(2)[100], 0xA2);
    EXPECT_EQ(arena.PageAddr(7)[kPageSize - 1], 0xA7);
    EXPECT_EQ(arena.PageAddr(9)[0], 0x00);   // untouched in state A
    EXPECT_EQ(arena.PageAddr(11)[0], 0x00);  // scribble rolled back

    engine->Restore(snap_b);
    EXPECT_EQ(arena.PageAddr(1)[0], 0xA1);
    EXPECT_EQ(arena.PageAddr(2)[100], 0xB2);
    EXPECT_EQ(arena.PageAddr(9)[0], 0xB9);

    EXPECT_GT(engine->StructureBytes(), 0u);
    EXPECT_GT(stats.pages_materialized, 0u);
  }
  // Engine + snapshots dropped every ref; only the store-held canonical zero
  // blob may remain.
  EXPECT_LE(store.stats().live_blobs, 1u);
}

INSTANTIATE_TEST_SUITE_P(Backends, EngineRoundTripTest,
                         ::testing::Values(SnapshotMode::kCow, SnapshotMode::kFullCopy,
                                           SnapshotMode::kIncremental, SnapshotMode::kSoftDirty,
                                           SnapshotMode::kAdaptive),
                         [](const ::testing::TestParamInfo<SnapshotMode>& param) {
                           return std::string(SnapshotModeName(param.param));
                         });

// --- Golden script: reference model + pinned counters ----------------------------
//
// One fixed, seeded script of writes, materializes and restores per mode, over a
// 1 MiB arena. Every write goes to the arena and to a flat byte-vector model;
// every materialize saves a copy of the model; after every restore the whole
// non-guard arena must equal the saved model byte for byte. The script walks a
// hot-page promote → demote → re-promote cycle (CoW) and a burst of wide
// deltas between calm phases (which moves the adaptive mode from faults to
// full and back). At the end every non-timing counter must equal the value
// recorded for that mode.
//
// The arena is small enough that the adaptive cost model never prefers the
// kernel-pagemap mechanism, so its counters do not depend on whether the host
// supports soft-dirty. The soft-dirty mode itself is checked against the model
// only: the kernel decides how precisely it reports the write set.

GuestArena::Layout GoldenLayout() {
  GuestArena::Layout layout;
  layout.arena_bytes = 1ull << 20;
  layout.stack_bytes = 256 * 1024;
  layout.guard_bytes = 16 * kPageSize;
  return layout;
}

std::string CounterFingerprint(const SnapshotEngineStats& s, const PageStore::Stats& store) {
  std::ostringstream out;
  out << "materialized=" << s.pages_materialized << " restored=" << s.pages_restored
      << " hot_promotions=" << s.hot_promotions << " hot_demotions=" << s.hot_demotions
      << " hot_unchanged_skips=" << s.hot_unchanged_skips
      << " zero_dedup=" << store.zero_dedup_hits << " content_dedup=" << store.content_dedup_hits
      << " cross_dedup=" << store.cross_session_dedup_hits
      << " compressed=" << store.compressed_blobs << " scanned=" << s.incr_pages_scanned
      << " copied=" << s.incr_pages_copied << " source=" << DirtySourceName(s.dirty_source)
      << " by_faults=" << s.materializes_by_faults << " by_scan=" << s.materializes_by_scan
      << " by_pagemap=" << s.materializes_by_pagemap << " by_full=" << s.materializes_by_full
      << " pagemap_entries=" << s.pagemap_entries_read
      << " soft_dirty_clears=" << s.soft_dirty_clears
      << " switches=" << s.adaptive_switches << " mprotect=" << s.restore_mprotect_calls
      << " runs=" << s.restore_runs_coalesced << " skipped=" << s.pages_restore_skipped
      << " release_batches=" << store.release_batches
      << " recycled_batched=" << store.blobs_recycled_batched
      << " release_locks=" << store.release_shard_locks << " spilled=" << store.spilled_blobs
      << " spill_bytes=" << store.spill_bytes << " faultbacks=" << store.faultbacks
      << " compacted=" << store.spill_segments_compacted;
  return out.str();
}

// Counters recorded when this script was written; any change to them is a
// change in engine behaviour and must be deliberate.
const char* GoldenCounters(SnapshotMode mode) {
  switch (mode) {
    case SnapshotMode::kCow:
      return "materialized=730 restored=921 hot_promotions=65 "
             "hot_demotions=62 hot_unchanged_skips=980 zero_dedup=31 "
             "content_dedup=418 cross_dedup=0 compressed=0 scanned=0 "
             "copied=0 source=faults by_faults=66 by_scan=0 by_pagemap=0 "
             "by_full=0 pagemap_entries=0 soft_dirty_clears=0 switches=0 "
             "mprotect=614 runs=307 skipped=182 release_batches=0 "
             "recycled_batched=0 release_locks=0 spilled=0 spill_bytes=0 "
             "faultbacks=0 compacted=0";
    case SnapshotMode::kFullCopy:
      return "materialized=15840 restored=6480 hot_promotions=0 "
             "hot_demotions=0 hot_unchanged_skips=0 zero_dedup=13738 "
             "content_dedup=1821 cross_dedup=0 compressed=0 scanned=0 "
             "copied=0 source=full by_faults=0 by_scan=0 by_pagemap=0 "
             "by_full=66 pagemap_entries=0 soft_dirty_clears=0 switches=0 "
             "mprotect=0 runs=0 skipped=0 release_batches=0 "
             "recycled_batched=0 release_locks=0 spilled=0 spill_bytes=0 "
             "faultbacks=0 compacted=0";
    case SnapshotMode::kIncremental:
      return "materialized=699 restored=914 hot_promotions=0 "
             "hot_demotions=0 hot_unchanged_skips=0 zero_dedup=1 "
             "content_dedup=417 cross_dedup=0 compressed=0 scanned=22320 "
             "copied=699 source=scan by_faults=0 by_scan=66 by_pagemap=0 "
             "by_full=0 pagemap_entries=0 soft_dirty_clears=0 switches=0 "
             "mprotect=0 runs=0 skipped=0 release_batches=0 "
             "recycled_batched=0 release_locks=0 spilled=0 spill_bytes=0 "
             "faultbacks=0 compacted=0";
    case SnapshotMode::kSoftDirty:
      return nullptr;  // kernel-dependent; model checks only
    case SnapshotMode::kAdaptive:
      return "materialized=1717 restored=921 hot_promotions=0 "
             "hot_demotions=0 hot_unchanged_skips=0 zero_dedup=356 "
             "content_dedup=1080 cross_dedup=0 compressed=0 scanned=0 "
             "copied=0 source=faults by_faults=60 by_scan=0 by_pagemap=0 "
             "by_full=6 pagemap_entries=0 soft_dirty_clears=0 switches=2 "
             "mprotect=590 runs=295 skipped=0 release_batches=0 "
             "recycled_batched=0 release_locks=0 spilled=0 spill_bytes=0 "
             "faultbacks=0 compacted=0";
  }
  return nullptr;
}

class GoldenScript {
 public:
  explicit GoldenScript(SnapshotMode mode)
      : arena_(GoldenLayout()), model_(static_cast<size_t>(arena_.num_pages()) * kPageSize, 0) {
    for (uint32_t page = 0; page < arena_.num_pages(); ++page) {
      if (!arena_.InGuard(page)) {
        pages_.push_back(page);
      }
    }
    hot_ = pages_[3];
    engine_ = MakeSnapshotEngine(mode, MakeEnv(&arena_, &store_, &stats_, mode));
  }

  ~GoldenScript() {
    snaps_.clear();
    engine_.reset();
  }

  void Run() {
    // Phase 1: the hot page is rewritten before every snapshot (promotion).
    for (int round = 0; round < 8; ++round) {
      Write(hot_, 0, 64, static_cast<uint8_t>(round + 1));
      RandomWrites(2);
      Materialize();
    }
    // Phase 2: a random mix of writes, snapshots and restores.
    for (int step = 0; step < 60; ++step) {
      const uint64_t op = rng_.Below(10);
      if (op < 5) {
        RandomWrites(1 + static_cast<int>(rng_.Below(3)));
        if (rng_.Below(2) == 0) {
          Write(hot_, static_cast<uint32_t>(rng_.Below(64)), 32,
                static_cast<uint8_t>(rng_.Below(256)));
        }
      } else if (op < 8) {
        Materialize();
      } else if (!snaps_.empty()) {
        Restore(rng_.Below(snaps_.size()));
      }
    }
    // Phase 3: the hot page goes quiet for longer than the demotion streak.
    for (int round = 0; round < 20; ++round) {
      RandomWrites(1);
      Materialize();
      if (round % 7 == 6) {
        Restore(snaps_.size() - 1 - rng_.Below(4));
      }
    }
    // Phase 4: wide deltas (half the pages share one fill, so they dedup).
    for (int round = 0; round < 4; ++round) {
      for (int i = 0; i < 150; ++i) {
        const uint32_t page = pages_[(static_cast<size_t>(round) * 37 + i) % pages_.size()];
        const uint8_t fill = i % 2 == 0 ? static_cast<uint8_t>(0x40 + round)
                                        : static_cast<uint8_t>(rng_.Below(256));
        Write(page, 0, kPageSize, fill);
      }
      Materialize();
      if (round % 2 == 1) {
        Restore(rng_.Below(snaps_.size()));
      }
    }
    // Phase 5: calm again — tiny deltas, a zeroed page, an identical rewrite.
    for (int round = 0; round < 12; ++round) {
      RandomWrites(1);
      if (round == 4) {
        Write(pages_[10], 0, kPageSize, 0);
      }
      if (round == 5) {
        Write(pages_[11], 0, 1, model_[static_cast<size_t>(pages_[11]) * kPageSize]);
      }
      Materialize();
      if (round % 3 == 2) {
        Restore(rng_.Below(snaps_.size()));
      }
    }
    // Phase 6: the hot page heats up again (re-promotion after demotion).
    for (int round = 0; round < 6; ++round) {
      Write(hot_, 100, 8, static_cast<uint8_t>(0x90 + round));
      Materialize();
    }
    // Phase 7: scribble-and-restore across the whole snapshot history.
    for (int i = 0; i < 8; ++i) {
      RandomWrites(2);
      Restore(rng_.Below(snaps_.size()));
    }
    ExpectArenaMatchesModel("end");
  }

  const SnapshotEngineStats& stats() const { return stats_; }
  const PageStore& store() const { return store_; }

 private:
  void Write(uint32_t page, uint32_t offset, uint32_t len, uint8_t value) {
    std::memset(arena_.PageAddr(page) + offset, value, len);
    std::memset(&model_[static_cast<size_t>(page) * kPageSize + offset], value, len);
  }

  // Random byte ranges over random non-hot pages; a quarter write zeros.
  void RandomWrites(int count) {
    for (int i = 0; i < count; ++i) {
      uint32_t page = pages_[rng_.Below(pages_.size())];
      if (page == hot_) {
        page = pages_[0];
      }
      const uint32_t offset = static_cast<uint32_t>(rng_.Below(kPageSize));
      const uint32_t len = 1 + static_cast<uint32_t>(rng_.Below(kPageSize - offset));
      const uint8_t value = rng_.Below(4) == 0 ? 0 : static_cast<uint8_t>(1 + rng_.Below(255));
      Write(page, offset, len, value);
    }
  }

  void Materialize() {
    snaps_.emplace_back();
    engine_->Materialize(snaps_.back());
    images_.push_back(model_);
  }

  void Restore(size_t index) {
    engine_->Restore(snaps_[index]);
    model_ = images_[index];
    ExpectArenaMatchesModel("restore");
  }

  void ExpectArenaMatchesModel(const char* where) {
    ++checks_;
    for (uint32_t page : pages_) {
      ASSERT_EQ(std::memcmp(arena_.PageAddr(page), &model_[static_cast<size_t>(page) * kPageSize],
                            kPageSize),
                0)
          << where << " check " << checks_ << ": page " << page << " differs from the model";
    }
  }

  GuestArena arena_;
  PageStore store_;
  SnapshotEngineStats stats_;
  std::unique_ptr<SnapshotEngine> engine_;
  std::vector<uint8_t> model_;
  std::vector<uint32_t> pages_;  // non-guard page indices
  uint32_t hot_ = 0;
  std::deque<Snapshot> snaps_;  // Snapshot is immovable; deque never relocates
  std::vector<std::vector<uint8_t>> images_;
  Rng rng_{20261017};
  int checks_ = 0;
};

class GoldenScriptTest : public ::testing::TestWithParam<SnapshotMode> {};

TEST_P(GoldenScriptTest, RestoresMatchReferenceModelAndCountersMatchGolden) {
  if (GetParam() == SnapshotMode::kSoftDirty && !SoftDirtyTracker::Supported()) {
    GTEST_SKIP() << "soft-dirty unavailable: " << SoftDirtyTracker::Probe().ToString();
  }
  GoldenScript script(GetParam());
  script.Run();
  if (HasFatalFailure()) {
    return;
  }
  const char* golden = GoldenCounters(GetParam());
  if (golden != nullptr) {
    EXPECT_EQ(CounterFingerprint(script.stats(), script.store().stats()), golden);
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, GoldenScriptTest, kAllModes, ModeParamName);

// --- Serial restore script: deterministic bytes and counters -----------------------

SnapshotEngine::Env MakeEnvWithHotLimit(GuestArena* arena, PageStore* store,
                                        SnapshotEngineStats* stats, uint32_t hot_page_limit) {
  SnapshotEngine::Env env;
  env.arena = arena;
  env.store = store;
  env.stats = stats;
  env.hot_page_limit = hot_page_limit;
  env.owner = 1;
  return env;
}

// One round of deterministic page content: a spread of distinct fills plus a
// page repeated across rounds (so restores cross both fresh and deduped blobs).
void WriteRound(GuestArena& arena, int round) {
  for (uint32_t page = 1; page <= 80; ++page) {
    std::memset(arena.PageAddr(page), static_cast<int>((page * 7 + round * 13) & 0xFF),
                kPageSize);
  }
  std::memset(arena.PageAddr(90), 0x55, kPageSize);
  std::memset(arena.PageAddr(92), static_cast<int>(round), kPageSize);
}

// Guest-write stand-in between restores: dirties a few scattered runs so each
// restore has live divergence on top of the map diff.
void Scribble(GuestArena& arena, int salt) {
  for (uint32_t page : {5u, 6u, 7u, 50u, 83u, 84u}) {
    std::memset(arena.PageAddr(page), static_cast<int>((page + salt) & 0xFF), kPageSize);
  }
}

struct RestoreRun {
  std::vector<uint8_t> image;  // non-guard arena bytes after the script
  SnapshotEngineStats stats;
};

// Runs one materialize/scribble/restore script against a fresh arena + store +
// engine.
RestoreRun RunRestoreScript(SnapshotMode mode) {
  PageStore store;
  GuestArena arena(SmallLayout());
  SnapshotEngineStats stats;
  auto engine = MakeSnapshotEngine(mode, MakeEnvWithHotLimit(&arena, &store, &stats, 16));

  std::vector<Snapshot> snaps(6);
  for (int round = 0; round < 6; ++round) {
    WriteRound(arena, round);
    engine->Materialize(snaps[round]);
  }
  // Backtrack shape: live writes, jump down the tree, live writes, jump
  // further down, then forward again — exercising dirty-set restores, map-diff
  // restores, and (CoW) hot-page compares in one script.
  Scribble(arena, 101);
  engine->Restore(snaps[3]);
  Scribble(arena, 202);
  engine->Restore(snaps[1]);
  engine->Restore(snaps[5]);

  RestoreRun run;
  run.stats = stats;
  run.image.reserve(static_cast<size_t>(arena.num_pages()) * kPageSize);
  for (uint32_t page = 0; page < arena.num_pages(); ++page) {
    if (arena.InGuard(page)) {
      continue;  // PROT_NONE forever; never part of any snapshot
    }
    const uint8_t* src = arena.PageAddr(page);
    run.image.insert(run.image.end(), src, src + kPageSize);
  }
  return run;
}

class RestoreParityTest : public ::testing::TestWithParam<SnapshotMode> {};

TEST_P(RestoreParityTest, RepeatedRunsMatchBitForBit) {
#ifdef __SANITIZE_THREAD__
  // kAdaptive may arm the CoW mechanism, so it carries the same TSan conflict.
  if (GetParam() == SnapshotMode::kCow || GetParam() == SnapshotMode::kAdaptive) {
    GTEST_SKIP() << "CoW SIGSEGV protocol conflicts with TSan signal interposition";
  }
#endif
  if (GetParam() == SnapshotMode::kSoftDirty && !SoftDirtyTracker::Supported()) {
    GTEST_SKIP() << "soft-dirty unavailable on this kernel";
  }
  const RestoreRun first = RunRestoreScript(GetParam());
  const RestoreRun second = RunRestoreScript(GetParam());
  ASSERT_EQ(first.image.size(), second.image.size());
  EXPECT_EQ(std::memcmp(first.image.data(), second.image.data(), first.image.size()), 0)
      << "post-restore memory diverged between identical runs";
  EXPECT_EQ(second.stats.pages_restored, first.stats.pages_restored);
  EXPECT_EQ(second.stats.pages_restore_skipped, first.stats.pages_restore_skipped);
  EXPECT_EQ(second.stats.restore_runs_coalesced, first.stats.restore_runs_coalesced);
  EXPECT_EQ(second.stats.restore_mprotect_calls, first.stats.restore_mprotect_calls);
  // Modes that batch protection pay exactly two syscalls per coalesced run;
  // fault-free modes pay none at all.
  EXPECT_LE(first.stats.restore_mprotect_calls, 2 * first.stats.restore_runs_coalesced);
  if (GetParam() == SnapshotMode::kCow) {
    EXPECT_GT(first.stats.restore_runs_coalesced, 0u);
    EXPECT_EQ(first.stats.restore_mprotect_calls, 2 * first.stats.restore_runs_coalesced);
  }
  if (GetParam() == SnapshotMode::kFullCopy || GetParam() == SnapshotMode::kIncremental ||
      GetParam() == SnapshotMode::kSoftDirty) {
    EXPECT_EQ(first.stats.restore_mprotect_calls, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, RestoreParityTest, kAllModes, ModeParamName);

// --- CoW restore syscall coalescing ---------------------------------------------

// A 16-page delta spread over 3 contiguous runs must cost exactly 2·3 mprotect
// calls — the per-page path this replaces paid 2 per page (32). Hot pages are
// disabled so the whole delta goes through the protected-set path.
TEST(CowRestoreCoalescingTest, DeltaOverThreeRunsCostsTwoSyscallsPerRun) {
#ifdef __SANITIZE_THREAD__
  GTEST_SKIP() << "CoW SIGSEGV protocol conflicts with TSan signal interposition";
#endif
  PageStore store;
  GuestArena arena(SmallLayout());
  SnapshotEngineStats stats;
  auto engine =
      MakeSnapshotEngine(SnapshotMode::kCow, MakeEnvWithHotLimit(&arena, &store, &stats, 0));

  Snapshot base;
  engine->Materialize(base);  // all-zero baseline

  std::vector<uint32_t> delta;
  for (uint32_t page = 10; page <= 19; ++page) delta.push_back(page);
  for (uint32_t page = 40; page <= 44; ++page) delta.push_back(page);
  delta.push_back(100);
  for (uint32_t page : delta) {
    std::memset(arena.PageAddr(page), 0xAB, kPageSize);  // faults, marks dirty
  }

  engine->Restore(base);
  EXPECT_EQ(stats.restore_runs_coalesced, 3u);
  EXPECT_EQ(stats.restore_mprotect_calls, 6u);
  EXPECT_EQ(stats.pages_restored, delta.size());
  for (uint32_t page : delta) {
    EXPECT_EQ(arena.PageAddr(page)[0], 0u) << "page " << page << " not rolled back";
  }

  // A restore with nothing to do must not issue any protection syscalls.
  engine->Restore(base);
  EXPECT_EQ(stats.restore_runs_coalesced, 3u);
  EXPECT_EQ(stats.restore_mprotect_calls, 6u);
  EXPECT_EQ(stats.pages_restored, delta.size());
}

// --- End-to-end: 8-queens parity per mode ----------------------------------------

constexpr int kQueensN = 8;
constexpr uint64_t kQueensSolutions = 92;

void QueensGuest(void* arg) {
  int n = *static_cast<int*>(arg);
  auto* session = static_cast<BacktrackSession*>(CurrentExecutor());
  struct Board {
    int row[16];
    int ld[32];
    int rd[32];
  };
  auto* b = GuestNew<Board>(session->heap());
  std::memset(b, 0, sizeof(Board));
  // Page-aligned trail: one full page of placement-derived bytes per column,
  // so every snapshot has a multi-page dirty set.
  auto* raw = static_cast<uint8_t*>(session->heap()->Alloc((16 + 1) * kPageSize));
  auto* trail = reinterpret_cast<uint8_t*>(
      (reinterpret_cast<uintptr_t>(raw) + kPageSize - 1) & ~(kPageSize - 1));
  if (sys_guess_strategy(StrategyKind::kDfs)) {
    for (int c = 0; c < n; ++c) {
      int r = sys_guess(n);
      if (b->row[r] || b->ld[r + c] || b->rd[n + r - c]) {
        sys_guess_fail();
      }
      b->row[r] = 1;
      b->ld[r + c] = 1;
      b->rd[n + r - c] = 1;
      std::memset(trail + static_cast<size_t>(c) * kPageSize, r + 1, kPageSize);
    }
    sys_note_solution();
    sys_guess_fail();
  }
}

class QueensParityTest : public ::testing::TestWithParam<SnapshotMode> {};

TEST_P(QueensParityTest, FindsAll92AndRepeatsItsWork) {
#ifdef __SANITIZE_THREAD__
  // kAdaptive arms the CoW mechanism once the dirty rate settles low, so it
  // carries the same TSan conflict.
  if (GetParam() == SnapshotMode::kCow || GetParam() == SnapshotMode::kAdaptive) {
    GTEST_SKIP() << "CoW SIGSEGV protocol conflicts with TSan signal interposition";
  }
#endif
  if (GetParam() == SnapshotMode::kSoftDirty && !SoftDirtyTracker::Supported()) {
    GTEST_SKIP() << "soft-dirty unavailable: " << SoftDirtyTracker::Probe().ToString();
  }
  uint64_t first_snapshots = 0;
  uint64_t first_pages = 0;
  uint64_t first_restored = 0;
  for (int run = 0; run < 2; ++run) {
    int n = kQueensN;
    SessionOptions options;
    options.arena_bytes = 1ull << 20;
    options.guest_stack_bytes = 256 * 1024;
    options.snapshot_mode = GetParam();
    options.output = [](std::string_view) {};
    BacktrackSession session(options);
    ASSERT_TRUE(session.Run(&QueensGuest, &n).ok()) << "run " << run;
    EXPECT_EQ(session.stats().solutions, kQueensSolutions) << "run " << run;
    // The engine's work must repeat exactly, not just the search result: same
    // snapshots, same pages published, same pages restored.
    if (run == 0) {
      first_snapshots = session.stats().snapshots;
      first_pages = session.stats().pages_materialized;
      first_restored = session.stats().pages_restored;
    } else {
      EXPECT_EQ(session.stats().snapshots, first_snapshots);
      EXPECT_EQ(session.stats().pages_materialized, first_pages);
      EXPECT_EQ(session.stats().pages_restored, first_restored);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, QueensParityTest, kAllModes, ModeParamName);

// --- Incremental mode accounting -------------------------------------------------

TEST(IncrementalEngineTest, CopiesOnlyTheDelta) {
  GuestArena arena(SmallLayout());
  PageStore store;
  SnapshotEngineStats stats;
  {
    auto engine = MakeSnapshotEngine(SnapshotMode::kIncremental,
                                     MakeEnv(&arena, &store, &stats, SnapshotMode::kIncremental));
    Snapshot snap1;
    Snapshot snap2;

    std::memset(arena.PageAddr(3), 0x11, kPageSize);
    std::memset(arena.PageAddr(4), 0x22, kPageSize);
    std::memset(arena.PageAddr(5), 0x33, kPageSize);
    engine->Materialize(snap1);
    EXPECT_EQ(stats.incr_pages_copied, 3u);  // fresh arena: only the touched pages
    EXPECT_EQ(stats.pages_materialized, 3u);

    std::memset(arena.PageAddr(8), 0x44, kPageSize);
    engine->Materialize(snap2);
    EXPECT_EQ(stats.incr_pages_copied, 4u);  // +1: unchanged pages are not re-published

    // The scan visits every non-guard page on each call.
    uint32_t non_guard = 0;
    for (uint32_t p = 0; p < arena.num_pages(); ++p) {
      non_guard += arena.InGuard(p) ? 0 : 1;
    }
    EXPECT_EQ(stats.incr_pages_scanned, 2u * non_guard);

    // Restore to snap1: exactly one page (8) differs from live memory.
    engine->Restore(snap1);
    EXPECT_EQ(stats.pages_restored, 1u);
    EXPECT_EQ(arena.PageAddr(8)[0], 0x00);
    EXPECT_EQ(arena.PageAddr(3)[0], 0x11);
  }
  EXPECT_LE(store.stats().live_blobs, 1u);  // only the store-held zero blob remains
}

TEST(IncrementalEngineTest, TakesNoFaults) {
  GuestArena arena(SmallLayout());
  PageStore store;
  SnapshotEngineStats stats;
  {
    auto engine = MakeSnapshotEngine(SnapshotMode::kIncremental,
                                     MakeEnv(&arena, &store, &stats, SnapshotMode::kIncremental));
    Snapshot snap;
    std::memset(arena.PageAddr(1), 0x55, kPageSize);
    engine->Materialize(snap);
    std::memset(arena.PageAddr(1), 0x66, kPageSize);
    engine->Restore(snap);
    EXPECT_EQ(arena.PageAddr(1)[0], 0x55);
  }
  EXPECT_EQ(arena.cow_faults(), 0u);  // the whole point: no mprotect traffic
  EXPECT_FALSE(arena.cow_enabled());
}

TEST(IncrementalEngineTest, StructureBytesCountsMapAndTracker) {
  GuestArena arena(SmallLayout());
  PageStore store;
  SnapshotEngineStats stats;
  auto engine = MakeSnapshotEngine(SnapshotMode::kIncremental,
                                   MakeEnv(&arena, &store, &stats, SnapshotMode::kIncremental));
  // At least the dense tracker list (4 bytes/page) beyond the map structure.
  EXPECT_GE(engine->StructureBytes(),
            engine->current_map().StructureBytes() + arena.num_pages() * sizeof(uint32_t));
}

TEST(IncrementalEngineTest, ZeroedPagesDedupOnRepublish) {
  GuestArena arena(SmallLayout());
  PageStore store;
  SnapshotEngineStats stats;
  {
    auto engine = MakeSnapshotEngine(SnapshotMode::kIncremental,
                                     MakeEnv(&arena, &store, &stats, SnapshotMode::kIncremental));
    Snapshot snap1;
    Snapshot snap2;
    std::memset(arena.PageAddr(2), 0x77, kPageSize);
    engine->Materialize(snap1);
    uint64_t hits_before = store.stats().zero_dedup_hits;
    std::memset(arena.PageAddr(2), 0x00, kPageSize);  // back to all-zero
    engine->Materialize(snap2);
    // The republished page collapsed to the canonical zero blob.
    EXPECT_EQ(store.stats().zero_dedup_hits, hits_before + 1);
    EXPECT_EQ(snap2.map.Peek(2), store.ZeroPage());
  }
  EXPECT_LE(store.stats().live_blobs, 1u);  // only the store-held zero blob remains
}

// --- Zero-page dedup in the PageStore ----------------------------------------------

TEST(PageStoreDedupTest, PublishOfZeroPageCollapsesToCanonicalBlob) {
  PageStore store;
  std::vector<uint8_t> zeros(kPageSize, 0);
  PageRef canonical = store.ZeroPage();
  uint64_t live_before = store.stats().live_blobs;

  PageRef a = store.Publish(zeros.data());
  PageRef b = store.Publish(zeros.data());
  EXPECT_EQ(a, canonical);  // blob identity, not just content equality
  EXPECT_EQ(b, canonical);
  EXPECT_EQ(store.stats().zero_dedup_hits, 2u);
  EXPECT_EQ(store.stats().live_blobs, live_before);  // no new blobs allocated
}

TEST(PageStoreDedupTest, DedupBumpsRefcountOnCanonicalBlob) {
  PageStore store;
  std::vector<uint8_t> zeros(kPageSize, 0);
  PageRef canonical = store.ZeroPage();
  uint32_t base = canonical.refcount();
  {
    PageRef a = store.Publish(zeros.data());
    EXPECT_EQ(canonical.refcount(), base + 1);
    PageRef b = a;
    EXPECT_EQ(canonical.refcount(), base + 2);
  }
  EXPECT_EQ(canonical.refcount(), base);  // dedup'd refs release like any other
}

TEST(PageStoreDedupTest, NonZeroPagesStillAllocate) {
  PageStore store;
  std::vector<uint8_t> page(kPageSize, 0);
  page[kPageSize - 1] = 1;  // a single trailing nonzero byte defeats dedup
  PageRef a = store.Publish(page.data());
  EXPECT_NE(a, store.ZeroPage());
  EXPECT_EQ(store.stats().zero_dedup_hits, 0u);
  uint8_t last = 0;
  a.ReadBytes(kPageSize - 1, &last, 1);
  EXPECT_EQ(last, 1);
}

TEST(PageStoreDedupTest, DedupKeepsBytesLiveFlat) {
  PageStore store;
  std::vector<uint8_t> zeros(kPageSize, 0);
  PageRef canonical = store.ZeroPage();
  uint64_t bytes_before = store.stats().bytes_live();
  std::vector<PageRef> refs;
  for (int i = 0; i < 1000; ++i) {
    refs.push_back(store.Publish(zeros.data()));
  }
  // A sparse arena's worth of zero publishes costs zero additional residency.
  EXPECT_EQ(store.stats().bytes_live(), bytes_before);
  EXPECT_EQ(store.stats().zero_dedup_hits, 1000u);
}

}  // namespace
}  // namespace lw
