// SnapshotEngine: the snapshot substrate behind BacktrackSession.
//
// The paper's thesis is that lightweight snapshot/restore is a *system-level
// service* shared by many search workloads; the session (search orchestration:
// guess/fail/yield, strategies, checkpoints) and the snapshot mechanics (how an
// address-space image is captured and reinstated) are separate concerns. This
// class is the seam: the session drives the search graph and calls the engine
// exactly twice per extension — Materialize at a guess point, Restore before
// resuming a sibling. The byte budget is not the engine's: the session evicts
// its own frontier and the store shrinks itself (PageStore::ShrinkTo).
//
// There is one mechanism: page-granular snapshots into a content-addressed
// PageStore, restored by copying back only the pages that differ. What varies
// is how the engine learns which pages the guest wrote — its DirtySource:
//   * kFaults        — copy-on-write via mprotect/SIGSEGV (the paper's design;
//                      the host MMU stands in for Dune's nested pages). Cost ∝
//                      dirty pages, each paying a fault + 2×mprotect. Optional
//                      hot-page prediction lifts persistently dirty pages out
//                      of the fault path.
//   * kScan          — fault-free content scan: memcmp every page against the
//                      current map, copy only the changed ones. Reads ∝ arena,
//                      copies ∝ delta; no mprotect traffic at all.
//   * kKernelPagemap — the kernel's soft-dirty PTE bits (/proc/self/pagemap +
//                      clear_refs) give the exact write set with no SIGSEGV and
//                      no scan. Needs kernel support — probe
//                      SoftDirtyTracker::Supported() first.
//   * kFull          — no detection: every page is republished [libckpt]. The
//                      baseline the paper argues against.
//
// A SnapshotMode is a configuration of that choice. kCow, kFullCopy,
// kIncremental and kSoftDirty pin one source (hot-page prediction is on for
// kCow only); kAdaptive re-picks the cheapest source after every checkpoint
// from a dirty-rate EWMA and fixed cost constants (see engine.cc), so two
// adaptive engines fed identical writes make identical choices. Dispatch is
// one switch per Materialize/Restore; the per-page loops are plain loops.
//
// SIGSEGV-protocol invariant: only engines whose NeedsSignalProtocol() returns
// true (kCow, and kAdaptive because it may arm kFaults) ever write-protect
// guest pages, and the process-wide SIGSEGV handler plus per-thread
// sigaltstacks are installed lazily by GuestArena::SetCowEnabled(true) —
// constructing an arena or running a fault-free mode leaves the process signal
// disposition untouched. Sessions gate EnsureThreadSignalStack on
// NeedsSignalProtocol(), so a fleet of fault-free sessions never pays (or
// perturbs) signal state.

#ifndef LWSNAP_SRC_SNAPSHOT_ENGINE_H_
#define LWSNAP_SRC_SNAPSHOT_ENGINE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/core/search_graph.h"
#include "src/snapshot/page_map.h"
#include "src/snapshot/page_store.h"

namespace lw {

class GuestArena;
class SoftDirtyTracker;

enum class SnapshotMode {
  kCow,
  kFullCopy,
  kIncremental,
  kSoftDirty,  // kernel soft-dirty bits; requires SoftDirtyTracker::Supported()
  kAdaptive,   // per-checkpoint source selection over the four above
};

const char* SnapshotModeName(SnapshotMode mode);

// How the engine discovers a checkpoint's dirty set. The engine records the
// source each Materialize used in stats->dirty_source so benches and
// ablations are self-describing (and so tests can assert, e.g., that the
// soft-dirty mode never scanned).
enum class DirtySource : uint8_t {
  kFaults,         // SIGSEGV/mprotect write faults (CoW)
  kScan,           // full-arena content scan (incremental)
  kKernelPagemap,  // soft-dirty bits read from /proc/self/pagemap
  kFull,           // no dirty detection: whole arena republished
};

const char* DirtySourceName(DirtySource source);

// Counters owned by the engine. SessionStats inherits these so the session's
// stats block reports engine behaviour alongside search behaviour; the store's
// own counters (dedup, compression, spill, release) are read from
// PageStore::stats().
struct SnapshotEngineStats {
  uint64_t pages_materialized = 0;
  uint64_t pages_restored = 0;
  uint64_t hot_promotions = 0;
  uint64_t hot_demotions = 0;
  uint64_t hot_unchanged_skips = 0;  // hot pages found byte-identical at snapshot
  uint64_t incr_pages_scanned = 0;  // scan source: pages memcmp'd
  uint64_t incr_pages_copied = 0;   // scan source: pages actually copied
  // Dirty-set provenance: how the latest Materialize found its delta, plus
  // per-source materialize counts (the adaptive mode mixes sources over a
  // session's lifetime; fixed modes bump exactly one of these).
  DirtySource dirty_source = DirtySource::kFull;
  uint64_t materializes_by_faults = 0;
  uint64_t materializes_by_scan = 0;
  uint64_t materializes_by_pagemap = 0;
  uint64_t materializes_by_full = 0;
  uint64_t pagemap_entries_read = 0;  // soft-dirty: 8-byte pagemap entries read
  uint64_t soft_dirty_clears = 0;     // soft-dirty: process-wide clear_refs writes
  uint64_t adaptive_switches = 0;     // adaptive: source changes between checkpoints
  // Restore-side provenance: syscall coalescing and skip accounting, so tests
  // and benches can assert the mprotect reduction instead of inferring it
  // from timings. Only the faults source write-protects guest pages, so only
  // it issues restore-side mprotect calls; every restore costs exactly two
  // calls per coalesced run (batch-unprotect + batch-reprotect), so
  // restore_mprotect_calls == 2 × restore_runs_coalesced by construction.
  uint64_t restore_mprotect_calls = 0;  // mprotect syscalls issued by restores
  uint64_t restore_runs_coalesced = 0;  // contiguous page runs those calls covered
  // Tracked restore candidates (CoW hot pages, soft-dirty write-set pages)
  // memcmp'd and found already byte-identical — copies saved. Full-arena
  // compare loops (scan restores) are not counted here; incr_pages_scanned
  // covers those.
  uint64_t pages_restore_skipped = 0;
  uint64_t snapshot_ns = 0;
  uint64_t restore_ns = 0;
};

class SnapshotEngine {
 public:
  // Everything the engine is allowed to touch. The arena is the live guest
  // memory (and, for the faults source, the protection/dirty machinery); the
  // store is where immutable page blobs live — possibly shared with other
  // sessions' engines; stats is the shared counter block. `owner` tags this
  // engine's publishes so the store can attribute cross-session dedup hits.
  struct Env {
    GuestArena* arena = nullptr;
    PageStore* store = nullptr;
    SnapshotEngineStats* stats = nullptr;
    uint32_t hot_page_limit = 0;  // hot-page prediction; kCow only, 0 elsewhere
    uint32_t owner = 0;           // PageStore owner id (see PageStore::RegisterOwner)
  };

  // Establishes the arena invariant for the mode's first source (protection
  // state, an all-zero current map). Construct before any guest code runs in
  // the arena. kSoftDirty requires SoftDirtyTracker::Supported().
  SnapshotEngine(SnapshotMode mode, const Env& env);
  ~SnapshotEngine();

  SnapshotEngine(const SnapshotEngine&) = delete;
  SnapshotEngine& operator=(const SnapshotEngine&) = delete;

  SnapshotMode mode() const { return mode_; }
  const char* name() const { return SnapshotModeName(mode_); }

  // Captures the live arena image into snap.map (sharing the engine's current
  // map; the snapshot becomes immutable from this point on). Called with the
  // guest parked, so the page image exactly matches the saved registers.
  void Materialize(Snapshot& snap);

  // Rebuilds live arena memory to byte-equality with snap.map and adopts it as
  // the current map.
  void Restore(const Snapshot& snap);

  // True iff this engine may write-protect guest pages and rely on the
  // SIGSEGV/mprotect protocol (see the invariant note at the top of this
  // file). Sessions skip sigaltstack installation entirely when this is
  // false — fault-free modes must not perturb process signal state.
  bool NeedsSignalProtocol() const {
    return mode_ == SnapshotMode::kCow || mode_ == SnapshotMode::kAdaptive;
  }

  // Host bytes consumed by engine-side bookkeeping (current map structure,
  // prediction tables, tracker and scratch lists) — excludes page blobs and
  // snapshot maps.
  size_t StructureBytes() const;

  const PageMap& current_map() const { return cur_map_; }
  // The source armed for the *next* checkpoint (changes only under kAdaptive).
  DirtySource dirty_source() const { return source_; }
  size_t hot_page_count() const { return hot_pages_.size(); }

 private:
  // Makes `source` the tracking mechanism from this point on. Called at
  // construction and, under kAdaptive, at the end of a Materialize — the
  // points where live memory == cur_map_, so every source's invariant can be
  // established from scratch.
  void Arm(DirtySource source);

  // Materialize per source; each returns the number of map entries whose blob
  // changed (the dirty-rate model's input under kAdaptive).
  uint64_t MaterializeFaults();
  uint64_t MaterializeScan();
  uint64_t MaterializeKernelDirty();
  uint64_t MaterializeFull();
  // Publishes the non-guard pages of `pages` into cur_map_; returns how many
  // map entries changed.
  uint64_t PublishPages(const uint32_t* pages, size_t count);
  // Hot-page prediction (faults source): republishes changed hot pages and
  // demotes long-unchanged ones, then promotes pages that keep faulting.
  void MaterializeHotPages();
  void PromoteHotPages(const uint32_t* dirty, size_t count);
  // kAdaptive: charges every source's cost model and re-arms the cheapest.
  void SelectSource(uint64_t changed);

  // Restore per source; each returns the number of pages copied.
  uint64_t RestoreFaults(const Snapshot& snap);
  uint64_t RestoreKernelDirty(const Snapshot& snap);
  uint64_t RestoreByCompare(const Snapshot& snap);
  uint64_t RestoreAll(const Snapshot& snap);

  // Publishes one page and maps the blob; returns false (and leaves cur_map_
  // untouched) when the page published back to the blob already mapped.
  bool PublishPage(uint32_t page);
  // Mirrors the soft-dirty tracker's counters into the shared stats block.
  void SyncTrackerStats();

  const SnapshotMode mode_;
  Env env_;
  DirtySource source_ = DirtySource::kFull;
  PageMap cur_map_;
  uint32_t non_guard_pages_ = 0;
  std::unique_ptr<SoftDirtyTracker> tracker_;  // kSoftDirty, or kAdaptive where supported

  // kAdaptive selection state.
  double d_hat_ = -1.0;  // EWMA of changed pages; < 0 = unseeded
  uint64_t last_delta_ = 0;

  // Hot-page prediction state (allocated only when hot_page_limit > 0).
  std::vector<uint8_t> hot_;           // page -> currently hot
  std::vector<uint8_t> dirty_streak_;  // page -> saturating dirty-snapshot count
  std::vector<uint8_t> clean_streak_;  // hot page -> consecutive unchanged snapshots
  std::vector<uint32_t> hot_pages_;    // dense list of hot pages

  // Scratch lists kept across calls so the per-checkpoint paths stop paying
  // allocation: dirty candidates (scan/pagemap), the sorted protected restore
  // set, and its coalesced (first page, count) runs.
  std::vector<uint32_t> dirty_pages_;
  std::vector<uint32_t> restore_pages_;
  std::vector<std::pair<uint32_t, uint32_t>> restore_runs_;
};

// Builds the engine for `mode` (see the constructor).
std::unique_ptr<SnapshotEngine> MakeSnapshotEngine(SnapshotMode mode, const SnapshotEngine::Env& env);

}  // namespace lw

#endif  // LWSNAP_SRC_SNAPSHOT_ENGINE_H_
