#include "src/snapshot/engine.h"

#include <algorithm>

#include "src/core/arena.h"
#include "src/snapshot/soft_dirty.h"

namespace lw {
namespace {

// Hot-page prediction thresholds (faults source, kCow): a page dirtied in
// this many snapshots is left writable; a hot page unchanged for this many
// consecutive snapshots goes back under the CoW protocol.
constexpr uint8_t kHotPromoteAfter = 4;
constexpr uint8_t kHotDemoteAfter = 16;

// kAdaptive unit costs (ns) calibrated against the measured E12 ablation grid
// (DESIGN.md has the table; examples/engine_ablation.cpp reproduces it). These
// are *relative weights* steering selection, not absolute predictions — what
// matters is the crossover ordering. Measured on the reference dev host:
//   * a changed page through the faults path (SIGSEGV + mark + 2×mprotect +
//     hash/copy publish) costs ~1.9 µs end to end (CoW rows: 980 µs / 505
//     dirty pages);
//   * a changed page through a scan/pagemap path costs ~1.7 µs — almost the
//     same, because the hash + 4 KiB copy publish dominates, not the fault;
//   * an *unchanged* page costs ~90 ns to scan (memcmp against the map blob)
//     but only ~0.5 µs to republish in full mode (content dedup turns it into
//     hash + index hit, no blob copy) — which is why scan rarely beats the
//     faults/full envelope on this hardware;
//   * a pagemap entry is an 8-byte slot of a chunked pread (~4 ns/page), with
//     a fixed clear_refs process walk per checkpoint (unverified locally —
//     this host lacks soft-dirty; the 40 µs figure is the write cost of the
//     clear_refs walk on the E12 reference numbers, to be recalibrated on a
//     capable host).
// The 8-lane page hash and in-place map updates have since cut the publish
// share of these figures (DESIGN.md "Content dedup" has the per-page costs).
// The constants are deliberately left as they were: they are relative
// weights, and engine_test's golden script pins the switch sequence they
// produce. Recalibrating them is a ROADMAP follow-up.
constexpr double kFaultPageNs = 1900.0;        // fault + reprotect + publish, per changed page
constexpr double kChangedPublishNs = 1700.0;   // hash + blob alloc + 4 KiB copy
constexpr double kScanNs = 90.0;               // 4 KiB memcmp, per arena page
constexpr double kFullPublishNs = 510.0;       // republish per arena page (mostly dedup hits)
constexpr double kPagemapNs = 4.0;             // one 8-byte pagemap entry (chunked pread)
constexpr double kSoftDirtyFixedNs = 40000.0;  // clear_refs process walk, per snapshot

// A challenger source must beat the incumbent by this margin — re-arming has
// real cost (ProtectAll / clear_refs) and flapping helps nobody.
constexpr double kHysteresis = 0.15;

// The source each mode starts with. kAdaptive opens in faults: the CoW
// protocol starts with an exact delta and touches nothing the guest didn't,
// while a scan probe would demand-fault every untouched page of the fresh
// demand-zero arena just to memcmp it (~0.7 µs/page — 11.5 ms measured for a
// 64 MiB arena), the most expensive possible first observation.
DirtySource InitialSource(SnapshotMode mode) {
  switch (mode) {
    case SnapshotMode::kCow:
    case SnapshotMode::kAdaptive:
      return DirtySource::kFaults;
    case SnapshotMode::kFullCopy:
      return DirtySource::kFull;
    case SnapshotMode::kIncremental:
      return DirtySource::kScan;
    case SnapshotMode::kSoftDirty:
      return DirtySource::kKernelPagemap;
  }
  LW_CHECK_MSG(false, "unknown snapshot mode");
  return DirtySource::kFull;
}

}  // namespace

const char* SnapshotModeName(SnapshotMode mode) {
  switch (mode) {
    case SnapshotMode::kCow:
      return "cow";
    case SnapshotMode::kFullCopy:
      return "fullcopy";
    case SnapshotMode::kIncremental:
      return "incremental";
    case SnapshotMode::kSoftDirty:
      return "softdirty";
    case SnapshotMode::kAdaptive:
      return "adaptive";
  }
  return "unknown";
}

const char* DirtySourceName(DirtySource source) {
  switch (source) {
    case DirtySource::kFaults:
      return "faults";
    case DirtySource::kScan:
      return "scan";
    case DirtySource::kKernelPagemap:
      return "kernel-pagemap";
    case DirtySource::kFull:
      return "full";
  }
  return "unknown";
}

SnapshotEngine::SnapshotEngine(SnapshotMode mode, const Env& env)
    : mode_(mode), env_(env), cur_map_(env.arena != nullptr ? env.arena->num_pages() : 0) {
  LW_CHECK(env_.arena != nullptr && env_.store != nullptr && env_.stats != nullptr);
  GuestArena& arena = *env_.arena;
  // The arena is freshly mmap'd (all-zero), so the canonical zero blob is a
  // truthful image of every non-guard page: the first Materialize only copies
  // what the guest actually touched. Guard pages stay unmapped from the
  // snapshot's point of view (invalid refs; never dirtied, never restored).
  PageRef zero = env_.store->ZeroPage();
  for (uint32_t page = 0; page < arena.num_pages(); ++page) {
    if (!arena.InGuard(page)) {
      cur_map_.Set(page, zero);
      ++non_guard_pages_;
    }
  }
  // The pagemap source is a candidate only where the kernel supports it; the
  // adaptive selector simply never sees it elsewhere.
  if (mode_ == SnapshotMode::kSoftDirty ||
      (mode_ == SnapshotMode::kAdaptive && SoftDirtyTracker::Supported())) {
    tracker_ = std::make_unique<SoftDirtyTracker>(arena.base(), arena.num_pages());
  }
  if (mode_ != SnapshotMode::kCow) {
    env_.hot_page_limit = 0;
  }
  if (env_.hot_page_limit > 0) {
    hot_.assign(arena.num_pages(), 0);
    dirty_streak_.assign(arena.num_pages(), 0);
    clean_streak_.assign(arena.num_pages(), 0);
    hot_pages_.reserve(env_.hot_page_limit);
  }
  Arm(InitialSource(mode_));
}

SnapshotEngine::~SnapshotEngine() {
  std::vector<PageRef> drain;
  cur_map_.ReleaseInto(&drain);
  env_.store->ReleaseBatch(drain);
}

void SnapshotEngine::Arm(DirtySource source) {
  GuestArena& arena = *env_.arena;
  if (source == DirtySource::kFaults) {
    // Enabling CoW installs the SIGSEGV handler + sigaltstack (first time) and
    // protects everything; an arena already in CoW mode is re-protected so
    // the protocol invariant holds from scratch.
    if (arena.cow_enabled()) {
      arena.ProtectAll();
    } else {
      arena.SetCowEnabled(true);
    }
  } else {
    arena.SetCowEnabled(false);  // everything writable, no faults ever taken
  }
  if (source == DirtySource::kKernelPagemap) {
    // Start a fresh tracking interval: anything written before (arena
    // construction itself dirtied the region) is discarded.
    Status status = tracker_->DiscardAndClear();
    LW_CHECK_MSG(status.ok(), "soft-dirty clear failed");
  }
  if (source == DirtySource::kScan) {
    dirty_pages_.reserve(arena.num_pages());  // a scan may flag every page
  }
  source_ = source;
}

bool SnapshotEngine::PublishPage(uint32_t page) {
  // Content dedup in the store makes a rewritten-but-identical page publish
  // back to the existing blob, so blob inequality is an exact "bytes changed"
  // signal — the count the adaptive dirty-rate model wants (candidate lists
  // may overapproximate the changed set). An unchanged page skips the map
  // write and keeps sharing its spine with the parent snapshot, so restore
  // diffs never descend to it.
  PageRef ref = env_.store->Publish(env_.arena->PageAddr(page), env_.owner);
  if (cur_map_.Peek(page) == ref) {
    return false;
  }
  cur_map_.Set(page, std::move(ref));
  return true;
}

// --- Materialize -----------------------------------------------------------------

void SnapshotEngine::Materialize(Snapshot& snap) {
  SnapshotEngineStats& stats = *env_.stats;
  const DirtySource used = source_;
  uint64_t changed = 0;
  switch (used) {
    case DirtySource::kFaults:
      changed = MaterializeFaults();
      ++stats.materializes_by_faults;
      break;
    case DirtySource::kScan:
      changed = MaterializeScan();
      ++stats.materializes_by_scan;
      break;
    case DirtySource::kKernelPagemap:
      changed = MaterializeKernelDirty();
      ++stats.materializes_by_pagemap;
      break;
    case DirtySource::kFull:
      changed = MaterializeFull();
      ++stats.materializes_by_full;
      break;
  }
  stats.dirty_source = used;
  SyncTrackerStats();
  if (mode_ == SnapshotMode::kAdaptive) {
    SelectSource(changed);
  }
  snap.map = cur_map_;  // live memory now matches cur_map_ byte-for-byte; O(1) share
  SyncStoreStats();
}

uint64_t SnapshotEngine::PublishPages(const uint32_t* pages, size_t count) {
  GuestArena& arena = *env_.arena;
  uint64_t published = 0;
  uint64_t changed = 0;
  for (size_t i = 0; i < count; ++i) {
    const uint32_t page = pages[i];
    if (arena.InGuard(page)) {
      continue;
    }
    changed += PublishPage(page) ? 1 : 0;
    ++published;
  }
  env_.stats->pages_materialized += published;
  return changed;
}

uint64_t SnapshotEngine::MaterializeFaults() {
  GuestArena& arena = *env_.arena;
  if (!hot_pages_.empty()) {
    MaterializeHotPages();
  }
  // The SIGSEGV protocol built the dirty set; dirty pages stay writable until
  // the reprotect below, and the guest is parked, so the image is stable.
  const DirtyTracker& dirty = arena.dirty();
  const uint64_t changed = PublishPages(dirty.pages(), dirty.count());
  if (env_.hot_page_limit > 0) {
    PromoteHotPages(dirty.pages(), dirty.count());
  }
  if (hot_pages_.empty()) {
    arena.ReprotectDirty();
  } else {
    arena.ReprotectDirtyExcept(hot_.data());
  }
  return changed;
}

void SnapshotEngine::MaterializeHotPages() {
  GuestArena& arena = *env_.arena;
  SnapshotEngineStats& stats = *env_.stats;
  // Hot pages are permanently writable, so the dirty set does not know about
  // them — memcmp against the current blob and republish only on a real
  // change. A long unchanged streak demotes the page back into the protocol.
  size_t kept = 0;
  for (size_t i = 0; i < hot_pages_.size(); ++i) {
    const uint32_t page = hot_pages_[i];
    if (!cur_map_.Peek(page).EqualsPage(arena.PageAddr(page))) {
      PublishPage(page);
      ++stats.pages_materialized;
      clean_streak_[page] = 0;
      hot_pages_[kept++] = page;
    } else if (++clean_streak_[page] >= kHotDemoteAfter) {
      hot_[page] = 0;
      arena.ProtectPage(page);
      ++stats.hot_demotions;
    } else {
      ++stats.hot_unchanged_skips;
      hot_pages_[kept++] = page;
    }
  }
  hot_pages_.resize(kept);
}

void SnapshotEngine::PromoteHotPages(const uint32_t* dirty, size_t count) {
  // A page taking a CoW fault snapshot after snapshot is cheaper to treat as
  // always-dirty: it skips the SIGSEGV + 2×mprotect round trip that dominates
  // fine-grained workloads (the stand-in for Dune's cheap ring-0 faults).
  // Candidates are visited in fault order, which decides who gets the last
  // free slots under the limit.
  for (size_t i = 0; i < count; ++i) {
    const uint32_t page = dirty[i];
    if (dirty_streak_[page] < 255) {
      ++dirty_streak_[page];
    }
    if (dirty_streak_[page] >= kHotPromoteAfter && hot_[page] == 0 &&
        hot_pages_.size() < env_.hot_page_limit) {
      hot_[page] = 1;
      clean_streak_[page] = 0;
      hot_pages_.push_back(page);
      ++env_.stats->hot_promotions;
    }
  }
}

uint64_t SnapshotEngine::MaterializeScan() {
  GuestArena& arena = *env_.arena;
  // The content scan is the dirty detection (memcmp instead of a write
  // fault): reads ∝ arena, copies ∝ delta.
  dirty_pages_.clear();
  for (uint32_t page = 0; page < arena.num_pages(); ++page) {
    if (!arena.InGuard(page) && !cur_map_.Peek(page).EqualsPage(arena.PageAddr(page))) {
      dirty_pages_.push_back(page);
    }
  }
  env_.stats->incr_pages_scanned += non_guard_pages_;
  env_.stats->incr_pages_copied += dirty_pages_.size();
  return PublishPages(dirty_pages_.data(), dirty_pages_.size());
}

uint64_t SnapshotEngine::MaterializeKernelDirty() {
  // The kernel hands over the exact write set: no faults taken, no pages
  // scanned. Soft-dirty flags *writes*, not *changes*, so a page rewritten
  // with identical bytes is still harvested — the content-addressed store
  // collapses its publish back to the existing blob, keeping the map entry
  // pointer-equal (restores still skip it).
  Status status = tracker_->HarvestAndClear(dirty_pages_);
  LW_CHECK_MSG(status.ok(), "soft-dirty harvest failed");
  return PublishPages(dirty_pages_.data(), dirty_pages_.size());
}

uint64_t SnapshotEngine::MaterializeFull() {
  GuestArena& arena = *env_.arena;
  // No detection: every non-guard page is republished. Zero-page and content
  // dedup keep the resident cost ∝ distinct pages, and unchanged pages keep
  // their map entries (and spine) from the parent snapshot.
  uint64_t changed = 0;
  for (uint32_t page = 0; page < arena.num_pages(); ++page) {
    if (!arena.InGuard(page) && PublishPage(page)) {
      ++changed;
    }
  }
  env_.stats->pages_materialized += non_guard_pages_;
  return changed;
}

void SnapshotEngine::SelectSource(uint64_t changed) {
  // Update the dirty-rate estimate from the exact change count, then charge
  // every source's model with the burst-safe estimate. The inputs are counts
  // and the weights are constants, never wall-clock timings: two engines that
  // observed the same guest writes compute identical costs and switch
  // identically.
  last_delta_ = changed;
  d_hat_ = d_hat_ < 0 ? static_cast<double>(changed)
                      : d_hat_ + (static_cast<double>(changed) - d_hat_) / 4.0;
  const double est = std::max(d_hat_, static_cast<double>(last_delta_));
  const double pages = static_cast<double>(non_guard_pages_);
  const DirtySource order[] = {DirtySource::kFaults, DirtySource::kScan,
                               DirtySource::kKernelPagemap, DirtySource::kFull};
  const double costs[] = {
      est * kFaultPageNs,
      pages * kScanNs + est * kChangedPublishNs,
      tracker_ != nullptr ? kSoftDirtyFixedNs + pages * kPagemapNs + est * kChangedPublishNs
                          : -1.0,  // unavailable
      pages * kFullPublishNs,
  };
  DirtySource best = source_;
  double best_cost = -1.0;
  double cur_cost = -1.0;
  for (int i = 0; i < 4; ++i) {
    if (costs[i] < 0) {
      continue;
    }
    if (order[i] == source_) {
      cur_cost = costs[i];
    }
    if (best_cost < 0 || costs[i] < best_cost) {
      best = order[i];
      best_cost = costs[i];
    }
  }
  if (best == source_ || best_cost >= cur_cost * (1.0 - kHysteresis)) {
    return;  // incumbent stays armed
  }
  Arm(best);
  ++env_.stats->adaptive_switches;
}

// --- Restore ---------------------------------------------------------------------

void SnapshotEngine::Restore(const Snapshot& snap) {
  uint64_t restored = 0;
  switch (source_) {
    case DirtySource::kFaults:
      restored = RestoreFaults(snap);
      break;
    case DirtySource::kKernelPagemap:
      restored = RestoreKernelDirty(snap);
      break;
    case DirtySource::kScan:
      restored = RestoreByCompare(snap);
      break;
    case DirtySource::kFull:
      restored = mode_ == SnapshotMode::kFullCopy ? RestoreAll(snap) : RestoreByCompare(snap);
      break;
  }
  cur_map_ = snap.map;
  env_.stats->pages_restored += restored;
  SyncTrackerStats();
}

uint64_t SnapshotEngine::RestoreFaults(const Snapshot& snap) {
  GuestArena& arena = *env_.arena;
  SnapshotEngineStats& stats = *env_.stats;
  uint64_t restored = 0;

  // Hot pages are writable and fault-free, so their live contents are
  // unknowable without a compare — memcmp each against the target blob and
  // copy only on divergence (an unchanged hot page is the common case on the
  // workloads that promoted it).
  for (uint32_t page : hot_pages_) {
    const PageRef& ref = snap.map.Peek(page);
    LW_CHECK_MSG(ref.valid(), "restoring a page the snapshot does not cover");
    if (ref.CopyToIfDifferent(arena.PageAddr(page))) {
      ++restored;
    } else {
      ++stats.pages_restore_skipped;
    }
  }

  // Protected restore set: dirty pages (live memory diverged from cur_map_;
  // always restored) plus clean pages where the two immutable maps disagree.
  // Dirty order is fault order, so sort before run coalescing; the two sources
  // are disjoint by construction (the Diff arm excludes dirty and hot pages),
  // and hot pages never fault, so the set is unique.
  DirtyTracker& dirty = arena.dirty();
  restore_pages_.assign(dirty.pages(), dirty.pages() + dirty.count());
  cur_map_.Diff(snap.map, [this, &dirty](uint32_t page, const PageRef& /*mine*/,
                                         const PageRef& /*theirs*/) {
    if (!dirty.IsDirty(page) && (hot_pages_.empty() || hot_[page] == 0)) {
      restore_pages_.push_back(page);
    }
  });
  dirty.Clear();
  if (restore_pages_.empty()) {
    return restored;
  }
  std::sort(restore_pages_.begin(), restore_pages_.end());

  // Coalesce into contiguous runs, batch-unprotect, copy, batch-reprotect:
  // 2 mprotect per run instead of 2 per page (dirty pages were already
  // writable, so widening the unprotect over them only improves coalescing;
  // the reprotect re-establishes the protocol invariant for the whole set).
  // Guard pages never enter the set, so a run never spans the guard.
  restore_runs_.clear();
  for (uint32_t page : restore_pages_) {
    if (!restore_runs_.empty() &&
        restore_runs_.back().first + restore_runs_.back().second == page) {
      ++restore_runs_.back().second;
    } else {
      restore_runs_.emplace_back(page, 1);
    }
  }
  for (const auto& run : restore_runs_) {
    arena.UnprotectRange(run.first, run.second);
  }
  for (uint32_t page : restore_pages_) {
    const PageRef& ref = snap.map.Peek(page);
    LW_CHECK_MSG(ref.valid(), "restoring a page the snapshot does not cover");
    ref.CopyTo(arena.PageAddr(page));
  }
  for (const auto& run : restore_runs_) {
    arena.ProtectRange(run.first, run.second);
  }
  stats.restore_mprotect_calls += 2 * restore_runs_.size();
  stats.restore_runs_coalesced += restore_runs_.size();
  return restored + restore_pages_.size();
}

uint64_t SnapshotEngine::RestoreKernelDirty(const Snapshot& snap) {
  GuestArena& arena = *env_.arena;
  uint64_t restored = 0;
  // Live memory diverges from cur_map_ exactly on the pending soft-dirty
  // pages — harvest without clearing and copy those back to the *target* map
  // (skipping writes that didn't change bytes), then cover genuine map
  // differences along the tree path via the immutable-map diff.
  Status status = tracker_->Harvest(dirty_pages_);
  LW_CHECK_MSG(status.ok(), "soft-dirty harvest failed");
  for (uint32_t page : dirty_pages_) {
    if (arena.InGuard(page)) {
      continue;
    }
    const PageRef& ref = snap.map.Peek(page);
    LW_CHECK_MSG(ref.valid(), "restoring a page the snapshot does not cover");
    if (ref.CopyToIfDifferent(arena.PageAddr(page))) {
      ++restored;
    } else {
      ++env_.stats->pages_restore_skipped;
    }
  }
  // Map-diff pages outside the write set: with a shared store, ref
  // inequality implies byte inequality, so these copy unconditionally.
  cur_map_.Diff(snap.map, [this, &arena, &restored](uint32_t page, const PageRef& /*mine*/,
                                                    const PageRef& theirs) {
    if (std::binary_search(dirty_pages_.begin(), dirty_pages_.end(), page)) {
      return;
    }
    LW_CHECK_MSG(theirs.valid(), "restoring a page the snapshot does not cover");
    theirs.CopyTo(arena.PageAddr(page));
    ++restored;
  });
  // The copies above re-dirtied exactly the pages just made canonical; drop
  // those bits and start a fresh interval.
  status = tracker_->DiscardAndClear();
  LW_CHECK_MSG(status.ok(), "soft-dirty clear failed");
  return restored;
}

uint64_t SnapshotEngine::RestoreByCompare(const Snapshot& snap) {
  GuestArena& arena = *env_.arena;
  // No tracking armed: live memory may have diverged from cur_map_ anywhere,
  // so compare against the *target* map directly and copy the difference —
  // one scan covers both guest writes and tree-path deltas.
  uint64_t restored = 0;
  for (uint32_t page = 0; page < arena.num_pages(); ++page) {
    if (arena.InGuard(page)) {
      continue;
    }
    const PageRef& ref = snap.map.Peek(page);
    LW_CHECK_MSG(ref.valid(), "restoring a page the snapshot does not cover");
    if (ref.CopyToIfDifferent(arena.PageAddr(page))) {
      ++restored;
    }
  }
  if (mode_ == SnapshotMode::kIncremental) {
    env_.stats->incr_pages_scanned += non_guard_pages_;
  }
  return restored;
}

uint64_t SnapshotEngine::RestoreAll(const Snapshot& snap) {
  GuestArena& arena = *env_.arena;
  // kFullCopy's whole-arena copy-back, the mirror of its whole-arena publish.
  for (uint32_t page = 0; page < arena.num_pages(); ++page) {
    if (!arena.InGuard(page)) {
      snap.map.Peek(page).CopyTo(arena.PageAddr(page));
    }
  }
  return non_guard_pages_;
}

// --- Accounting ------------------------------------------------------------------

size_t SnapshotEngine::StructureBytes() const {
  size_t bytes = cur_map_.StructureBytes() + hot_.capacity() + dirty_streak_.capacity() +
                 clean_streak_.capacity() +
                 (hot_pages_.capacity() + dirty_pages_.capacity() + restore_pages_.capacity()) *
                     sizeof(uint32_t) +
                 restore_runs_.capacity() * sizeof(std::pair<uint32_t, uint32_t>);
  if (tracker_ != nullptr) {
    bytes += ((tracker_->num_pages() + 63) / 64) * sizeof(uint64_t);
  }
  return bytes;
}

void SnapshotEngine::EnforceByteBudget(uint64_t budget, const std::function<bool()>& evict) {
  budget_policy_.Enforce(*env_.store, budget, evict);
}

void SnapshotEngine::SyncStoreStats() {
  const PageStore::Stats store = env_.store->stats();
  env_.stats->zero_dedup_hits = store.zero_dedup_hits;
  env_.stats->content_dedup_hits = store.content_dedup_hits;
  env_.stats->cross_session_dedup_hits = store.cross_session_dedup_hits;
  env_.stats->compressed_blobs = store.compressed_blobs;
  env_.stats->release_batches = store.release_batches;
  env_.stats->blobs_recycled_batched = store.blobs_recycled_batched;
  env_.stats->release_shard_locks = store.release_shard_locks;
  env_.stats->spilled_blobs = store.spilled_blobs;
  env_.stats->spill_bytes = store.spill_bytes;
  env_.stats->faultbacks = store.faultbacks;
  env_.stats->spill_segments_compacted = store.spill_segments_compacted;
}

void SnapshotEngine::SyncTrackerStats() {
  if (tracker_ != nullptr) {
    env_.stats->pagemap_entries_read = tracker_->pagemap_entries_read();
    env_.stats->soft_dirty_clears = tracker_->clear_refs_writes();
  }
}

std::unique_ptr<SnapshotEngine> MakeSnapshotEngine(SnapshotMode mode,
                                                   const SnapshotEngine::Env& env) {
  return std::make_unique<SnapshotEngine>(mode, env);
}

}  // namespace lw
