// PageStore and PageRef: the content-addressed, shareable blob substrate under
// every snapshot engine and session.
//
// A snapshot's page map binds guest page indices to PageRefs. Blobs are
// immutable once published, refcounted, and keyed by a 64-bit content hash in
// an open-addressed index: publishing bytes that already exist anywhere in the
// store collapses to the existing blob (the canonical zero page is the
// degenerate entry of the same scheme). Divergent branches and concurrent
// sessions that republish byte-identical pages — SAT watch-list churn, Prolog
// heaps, symx arenas — therefore share one resident copy.
//
// Cold-compression tier: blobs referenced only by parked snapshots go cold (the
// store approximates "parked-only" by publish/access recency); the byte-budget
// policy compresses them with the in-tree LZ codec, and the guarded accessors
// (`CopyTo`/`EqualsPage`/`ReadBytes`) transparently re-inflate on first touch,
// so Restore never sees compressed bytes. With
// `PageStoreOptions::background_compaction` the compression itself runs on a
// store-owned compactor thread: `ByteBudgetPolicy` only enqueues a target and
// the session returns to the search immediately. Raw payloads are recycled
// through per-shard free lists when the last reference drops (snapshot trees
// churn pages at high frequency; malloc per page would dominate).
//
// Spill tier (opt-in via PageStoreOptions::spill_dir): below the compressed
// tier sits disk. Blobs the compress rung is done with park on per-shard
// spill-candidate lists; the byte-budget policy's fourth rung writes their
// payloads to the SpillTier's append-only, content-hash-keyed segment files
// and frees the RAM copy (only the blob header stays resident). The same
// guarded accessors that re-inflate cold blobs fault spilled blobs back
// transparently — refcounts, dedup identity, and the unique-recycler 1 → 0
// protocol are oblivious to where the payload lives, so a parked checkpoint
// population can exceed the RAM budget by orders of magnitude and still
// restore bit-identically. `ReleaseBatch` dooms spilled blobs without
// faulting them back (dying payloads never touch RAM again).
//
// Concurrency model (PR 3 — the store is internally synchronized):
//   * The index, free lists, and LRU cold lists are split across
//     `kPageStoreShards` shards selected by content-hash prefix; each shard has
//     its own mutex, so sessions on different worker threads publishing
//     different content rarely contend. Blob refcounts and all stats counters
//     are atomic.
//   * `Publish`, `ZeroPage`, the guarded page accessors, `CompressOneCold` /
//     `CompressAllCold`, `TrimFreeList`, `RequestCompaction`, and `stats()` are
//     all safe to call from any number of threads concurrently.
//   * Payload bytes are read through the owning shard's lock (`CopyTo`,
//     `EqualsPage`, `ReadBytes`), which is what makes in-place
//     compression/decompression safe against concurrent readers. `data()`
//     remains for externally-synchronized callers (single-threaded tools and
//     tests): the raw pointer it returns is only stable while no other thread —
//     including the background compactor — can compress the blob.
//   * Each PageRef (and therefore each session, snapshot, and frontier entry)
//     stays owned by one thread at a time; copying/destroying PageRefs is
//     lock-free refcounting. Sessions themselves are thread-affine — one thread
//     drives a given BacktrackSession — but any number of sessions on different
//     threads may share one store.
//
// Sharing and ownership contract:
//   * A store may be shared by any number of sessions via
//     SessionOptions::store / SolverServiceOptions::store (null = the session
//     creates a private store). Cross-session publishes of identical content
//     dedup against each other; `cross_session_dedup_hits` counts them. The
//     sessions may run on distinct threads (ServicePool<SolverService> is the packaged
//     form of that fleet).
//   * Lifetime: the store must outlive every PageRef minted from it (every
//     session, snapshot, and frontier entry). Sessions hold the store by
//     shared_ptr, so the last session to die destroys a shared store; holders
//     of raw stores must destroy sessions first. The destructor aborts if live
//     blobs remain — a live ref would later touch freed store state.
//   * Each session registers as an owner (RegisterOwner) and tags its
//     publishes; owner ids only feed dedup attribution, never lifetime.

#ifndef LWSNAP_SRC_SNAPSHOT_PAGE_STORE_H_
#define LWSNAP_SRC_SNAPSHOT_PAGE_STORE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/util/status.h"

namespace lw {

inline constexpr size_t kPageSize = 4096;
inline constexpr size_t kPageShift = 12;

// Lock-striping width (must be a power of two). 16 shards keeps per-shard
// mutexes uncontended for small fleets (≤ 16 worker threads) without bloating
// an idle store; shard selection derives its shift from this constant, so
// retuning it is a one-line change.
inline constexpr size_t kPageStoreShards = 16;
static_assert((kPageStoreShards & (kPageStoreShards - 1)) == 0,
              "kPageStoreShards must be a power of two");

namespace internal {
constexpr unsigned Log2Const(size_t n) { return n <= 1 ? 0 : 1 + Log2Const(n / 2); }
}  // namespace internal
inline constexpr unsigned kPageStoreShardBits = internal::Log2Const(kPageStoreShards);

class PageStore;
class SpillTier;
struct SpillRecord;

namespace internal {
struct PageBlob {
  std::atomic<uint32_t> refcount{0};
  std::atomic<uint32_t> comp_bytes{0};  // 0 = payload holds kPageSize raw bytes
  // 1 = payload is on disk (payload == nullptr, spill_rec locates the bytes).
  // Guarded accessors fault the blob back under the shard lock; the atomic
  // exists for the lock-free fast checks in data()/PageRef::spilled().
  std::atomic<uint8_t> spilled{0};
  uint64_t hash = 0;  // content hash; valid while indexed
  uint32_t owner = 0;  // first publisher (dedup attribution only)
  uint32_t shard = 0;  // owning shard (lock, index, free/LRU lists)
  uint8_t flags = 0;
  bool indexed = false;
  PageStore* store = nullptr;
  PageBlob* next_free = nullptr;  // free-list link, valid only while refcount == 0
  PageBlob* lru_prev = nullptr;   // cold-list links, valid while raw + live + unpinned
  PageBlob* lru_next = nullptr;   // (shared by the spill-candidate list, see kSpillCand)
  uint8_t* payload = nullptr;  // kPageSize raw, or comp_bytes compressed; null while spilled
  // Spill-tier record for this blob's payload bytes. Non-null while spilled,
  // and retained across fault-back so re-spilling unchanged content is free
  // (the codec is deterministic, so the bytes cannot have changed). Freed when
  // the blob is recycled.
  SpillRecord* spill_rec = nullptr;

  static constexpr uint8_t kPinned = 1;          // never compressed (canonical zero page)
  static constexpr uint8_t kIncompressible = 2;  // compression attempted, no win
  // On the shard's spill-candidate list (links via lru_prev/lru_next, distinct
  // head/tail). The flag disambiguates which list owns the links, so removal
  // sites fix the right head/tail pointers.
  static constexpr uint8_t kSpillCand = 4;
};
}  // namespace internal

// Handle to an immutable page blob. Copying bumps the refcount; identity
// (pointer) equality is content identity because blobs are never mutated after
// publication — and with content addressing, equal published bytes yield equal
// pointers while both are live. Refcounting is atomic, so refs to one blob may
// be held (and dropped) by different threads; a single PageRef object is still
// owned by one thread at a time, like any value type.
class PageRef {
 public:
  PageRef() = default;
  ~PageRef() { Release(); }

  PageRef(const PageRef& other) : blob_(other.blob_) { Acquire(); }
  PageRef(PageRef&& other) noexcept : blob_(other.blob_) { other.blob_ = nullptr; }

  PageRef& operator=(const PageRef& other) {
    if (blob_ != other.blob_) {
      Release();
      blob_ = other.blob_;
      Acquire();
    }
    return *this;
  }

  PageRef& operator=(PageRef&& other) noexcept {
    if (this != &other) {
      Release();
      blob_ = other.blob_;
      other.blob_ = nullptr;
    }
    return *this;
  }

  bool valid() const { return blob_ != nullptr; }

  // Guarded accessors: each runs under the blob's shard lock, re-inflating a
  // cold blob first, so they are safe against concurrent publishes and the
  // background compactor. Engines restore through these.
  void CopyTo(void* dst) const;                            // full-page memcpy
  bool EqualsPage(const void* src) const;                  // full-page memcmp
  bool CopyToIfDifferent(void* dst) const;                 // memcmp, memcpy on mismatch
  void ReadBytes(size_t offset, void* dst, size_t len) const;  // sub-page read

  // Raw page bytes for externally-synchronized callers (single-threaded tools,
  // tests). Touching a cold (compressed) blob re-inflates it in place; the
  // pointer is stable only while no other thread — including a background
  // compactor — can compress this blob. Concurrent contexts must use the
  // guarded accessors above.
  inline const uint8_t* data() const;

  uint32_t refcount() const {
    return blob_ != nullptr ? blob_->refcount.load(std::memory_order_relaxed) : 0;
  }
  // Owning shard of this ref's blob (stable for the blob's lifetime). Lets
  // tests assert ReleaseBatch's exact shard-lock count for a known ref set.
  uint32_t shard() const { return blob_ != nullptr ? blob_->shard : 0; }
  bool compressed() const {
    return blob_ != nullptr && blob_->comp_bytes.load(std::memory_order_acquire) != 0;
  }
  bool spilled() const {
    return blob_ != nullptr && blob_->spilled.load(std::memory_order_acquire) != 0;
  }

  bool operator==(const PageRef& other) const { return blob_ == other.blob_; }
  bool operator!=(const PageRef& other) const { return blob_ != other.blob_; }

  void Reset() { Release(); }

 private:
  friend class PageStore;
  explicit PageRef(internal::PageBlob* blob) : blob_(blob) {}  // adopts one reference

  void Acquire() {
    if (blob_ != nullptr) {
      // Lock-free: the source ref keeps the count ≥ 1, so this never revives a
      // dying blob (0 → 1 transitions happen only under the shard lock — and
      // after PR 3, never: a blob that hits zero is recycled, not resurrected).
      blob_->refcount.fetch_add(1, std::memory_order_relaxed);
    }
  }
  inline void Release();

  internal::PageBlob* blob_ = nullptr;
};

struct PageStoreOptions {
  bool content_dedup = true;  // 64-bit hash index; off = zero-page dedup only
  bool compression = true;    // cold tier available to the byte-budget policy
  // Run cold compression on a store-owned compactor thread. When set,
  // ByteBudgetPolicy::Enforce only enqueues a byte target (RequestCompaction)
  // and returns; the compactor works the LRU cold tails off the critical path.
  // When clear (default), compression stays synchronous and deterministic —
  // the right mode for single-threaded tools and tests.
  bool background_compaction = false;
  // Non-empty = enable the spill tier (fourth budget rung): cold blobs can be
  // evicted to append-only segment files under this directory and are faulted
  // back transparently on access. The directory is created if missing; its
  // segment files live only as long as the store (deleted on destruction). If
  // the tier fails to open, the store comes up with spill disabled and
  // spill_status() carries the error.
  std::string spill_dir;
  // Spill segment file size (floor 64 KiB; see SpillTierOptions).
  uint64_t spill_segment_bytes = 4ull << 20;
};

class PageStore {
 public:
  PageStore() : PageStore(PageStoreOptions{}) {}
  explicit PageStore(const PageStoreOptions& options);
  ~PageStore();

  PageStore(const PageStore&) = delete;
  PageStore& operator=(const PageStore&) = delete;

  const PageStoreOptions& options() const { return options_; }

  // Allocates an owner id for dedup attribution (one per session). Thread-safe.
  uint32_t RegisterOwner() { return next_owner_.fetch_add(1, std::memory_order_relaxed); }

  // Publishes a copy of `src` (kPageSize bytes) as an immutable blob. All-zero
  // sources collapse to the shared canonical zero blob; any other content that
  // already exists in the store (hash match confirmed by memcmp) collapses to
  // the existing blob. `owner` attributes cross-session dedup hits. Safe from
  // any thread; publishes of distinct content land on distinct shards and run
  // in parallel.
  PageRef Publish(const void* src, uint32_t owner = 0);

  // Publishes an all-zero page: the degenerate content-addressed entry, shared
  // by every all-zero publish.
  PageRef ZeroPage();

  // Compresses one cold compressible blob (per-shard LRU tails, visited round
  // robin — the approximation of "referenced only by parked snapshots").
  // Returns false when nothing is left to compress or compression is disabled.
  bool CompressOneCold();

  // Compresses every compressible blob; returns how many were compressed.
  // Useful when a service parks (all checkpoints idle, no search running).
  uint64_t CompressAllCold();

  // Spills one cold blob's payload to the disk tier (per-shard spill-candidate
  // tails — blobs the compress rung already handled — visited round robin;
  // falls back to the raw LRU tails when compression is disabled). Returns
  // false when nothing is left to spill or the tier is disabled/unavailable.
  bool SpillOneCold();

  // Spills every spillable blob; returns how many were spilled. The disk-tier
  // analogue of CompressAllCold for a parked service.
  uint64_t SpillAllCold();

  // True when PageStoreOptions::spill_dir produced a working spill tier.
  bool spill_enabled() const { return spill_ != nullptr; }
  // Why the tier is disabled (OK when spill_enabled() or spill never asked for).
  const Status& spill_status() const { return spill_status_; }

  // Background compactor interface (no-ops unless
  // options().background_compaction):
  //   RequestCompaction(target) — enqueue "compress cold blobs until live
  //     bytes ≤ target, then drop free lists if still over"; cheapest target
  //     wins when requests pile up. Returns immediately.
  //   WaitForCompaction() — block until the queue is drained and the compactor
  //     is idle (tests and benches use this to make residency deterministic).
  void RequestCompaction(uint64_t target_bytes);
  void WaitForCompaction();
  bool background_compaction() const { return compactor_.joinable(); }

  struct Stats {
    uint64_t live_blobs = 0;     // blobs with refcount > 0
    uint64_t free_blobs = 0;     // recycled blobs on the free lists
    uint64_t peak_live_blobs = 0;
    uint64_t total_published = 0;           // lifetime blob allocations (dedup hits excluded)
    uint64_t zero_dedup_hits = 0;           // publishes collapsed to the zero blob
    uint64_t content_dedup_hits = 0;        // publishes collapsed to an existing nonzero blob
    uint64_t cross_session_dedup_hits = 0;  // ...whose first publisher was another owner
    uint64_t compressed_blobs = 0;          // currently cold (compressed payload)
    uint64_t compressions = 0;              // lifetime cold-tier entries
    uint64_t compression_attempts = 0;      // incl. failed (incompressible) tries
    uint64_t decompressions = 0;            // lifetime re-inflations
    uint64_t live_bytes = 0;  // headers + payloads of live blobs (compression shrinks this)
    uint64_t free_bytes = 0;  // headers + retained raw payloads on the free lists
    uint64_t peak_live_bytes = 0;
    uint64_t release_batches = 0;         // non-empty ReleaseBatch calls
    uint64_t blobs_recycled_batched = 0;  // blobs recycled through ReleaseBatch
    uint64_t release_shard_locks = 0;     // shard-lock holds taken by ReleaseBatch
    uint64_t spilled_blobs = 0;           // blobs whose payload is on disk right now
    uint64_t spill_bytes = 0;             // payload bytes of those blobs
    uint64_t spills = 0;                  // lifetime spill-outs
    uint64_t faultbacks = 0;              // lifetime fault-backs (disk → RAM)
    uint64_t spill_segments = 0;            // live spill segment files
    uint64_t spill_segments_compacted = 0;  // lifetime segment compactions

    uint64_t bytes_live() const { return live_bytes; }
    uint64_t bytes_resident() const { return live_bytes + free_bytes; }
    // Live bytes as if nothing were spilled: what the population logically
    // holds. bytes_logical() / bytes_live() is the over-budget factor the
    // spill tier buys.
    uint64_t bytes_logical() const { return live_bytes + spill_bytes; }
  };
  // Consistent-enough snapshot of the atomic counters. Individual counters are
  // exact; relationships between counters may be skewed by in-flight
  // operations on other threads.
  Stats stats() const;

  // Just the three ReleaseBatch counters — three relaxed loads instead of the
  // full Stats copy, cheap enough to mirror on every session reclaim.
  struct ReleaseStats {
    uint64_t release_batches = 0;
    uint64_t blobs_recycled_batched = 0;
    uint64_t release_shard_locks = 0;
  };
  ReleaseStats release_stats() const {
    ReleaseStats s;
    s.release_batches = counters_.release_batches.load(std::memory_order_relaxed);
    s.blobs_recycled_batched = counters_.blobs_recycled_batched.load(std::memory_order_relaxed);
    s.release_shard_locks = counters_.release_shard_locks.load(std::memory_order_relaxed);
    return s;
  }

  // Host bytes of the store's own structure (hash index slots, all shards).
  size_t IndexBytes() const;

  // Frees all recycled blobs on every shard's free list back to the host
  // allocator.
  void TrimFreeList();

  // Releases every ref in `refs` (leaving the vector empty) with batch-grained
  // reclamation: refcount decrements stay lock-free, and the blobs that die
  // are bucketed by owning shard and recycled under one shard-lock hold per
  // touched shard — O(shards touched) lock acquisitions instead of O(dying
  // blobs). The end state (live/free blob and byte counters, index, free
  // lists) is identical to releasing the refs one by one; only the lock
  // traffic differs. Safe from any thread; counted by release_batches /
  // blobs_recycled_batched / release_shard_locks.
  void ReleaseBatch(std::vector<PageRef>& refs);

 private:
  friend class PageRef;

  struct Shard {
    mutable std::mutex mu;
    std::vector<internal::PageBlob*> index;  // open-addressed, linear probing
    size_t index_used = 0;
    internal::PageBlob* free_list = nullptr;
    internal::PageBlob* lru_head = nullptr;  // most recently touched
    internal::PageBlob* lru_tail = nullptr;  // coldest
    // Spill-candidate list: blobs the compress rung is done with (compressed
    // or proven incompressible), ordered by recency like the LRU list and
    // sharing the lru_prev/lru_next links (kSpillCand marks which list owns
    // them). The spill rung eats from the tail.
    internal::PageBlob* spill_head = nullptr;
    internal::PageBlob* spill_tail = nullptr;
  };

  // Atomic mirror of Stats (stats() flattens this into the POD snapshot).
  struct Counters {
    std::atomic<uint64_t> live_blobs{0};
    std::atomic<uint64_t> free_blobs{0};
    std::atomic<uint64_t> peak_live_blobs{0};
    std::atomic<uint64_t> total_published{0};
    std::atomic<uint64_t> zero_dedup_hits{0};
    std::atomic<uint64_t> content_dedup_hits{0};
    std::atomic<uint64_t> cross_session_dedup_hits{0};
    std::atomic<uint64_t> compressed_blobs{0};
    std::atomic<uint64_t> compressions{0};
    std::atomic<uint64_t> compression_attempts{0};
    std::atomic<uint64_t> decompressions{0};
    std::atomic<uint64_t> live_bytes{0};
    std::atomic<uint64_t> free_bytes{0};
    std::atomic<uint64_t> peak_live_bytes{0};
    std::atomic<uint64_t> release_batches{0};
    std::atomic<uint64_t> blobs_recycled_batched{0};
    std::atomic<uint64_t> release_shard_locks{0};
    std::atomic<uint64_t> spilled_blobs{0};
    std::atomic<uint64_t> spill_bytes{0};
    std::atomic<uint64_t> spills{0};
    std::atomic<uint64_t> faultbacks{0};
  };

  // All *Locked helpers require the blob's (or given shard's) mutex held.
  internal::PageBlob* AcquireBlobLocked(Shard& shard, uint32_t shard_id);
  void RecycleBlob(internal::PageBlob* blob);  // takes the shard lock itself
  void RecycleBlobLocked(Shard& shard, internal::PageBlob* blob);

  void IndexInsertLocked(Shard& shard, internal::PageBlob* blob);
  void IndexRemoveLocked(Shard& shard, internal::PageBlob* blob);
  void IndexGrowLocked(Shard& shard);
  internal::PageBlob* IndexFindLocked(Shard& shard, uint64_t hash, const void* src);

  void LruPushFrontLocked(Shard& shard, internal::PageBlob* blob);
  void LruRemoveLocked(Shard& shard, internal::PageBlob* blob);
  void LruTouchLocked(Shard& shard, internal::PageBlob* blob);

  void SpillCandPushFrontLocked(Shard& shard, internal::PageBlob* blob);
  void SpillCandRemoveLocked(Shard& shard, internal::PageBlob* blob);

  bool CompressBlobLocked(Shard& shard, internal::PageBlob* blob);
  void DecompressBlobLocked(internal::PageBlob* blob);
  void DecompressBlob(internal::PageBlob* blob);  // takes the shard lock itself
  bool CompressOneColdInShard(uint32_t shard_id);

  bool SpillBlobLocked(Shard& shard, internal::PageBlob* blob);
  void FaultBackBlobLocked(internal::PageBlob* blob);
  void FaultBackBlob(internal::PageBlob* blob);  // takes the shard lock itself
  // Fault back and/or decompress so payload holds raw page bytes. The single
  // entry point the guarded accessors (and index probes) go through.
  void EnsureResidentLocked(internal::PageBlob* blob);
  bool SpillOneColdInShard(uint32_t shard_id);
  // Drops the blob's spill record (if any) and its spilled-byte accounting.
  // Shared by both recycle paths; never faults the payload back.
  void DropSpillStateLocked(internal::PageBlob* blob, uint64_t* spilled_dropped,
                            uint64_t* spill_bytes_dropped);

  static void BumpPeak(std::atomic<uint64_t>& peak, uint64_t value);

  void CompactorMain();

  PageStoreOptions options_;
  std::unique_ptr<SpillTier> spill_;  // null = spill disabled
  Status spill_status_;               // why, when spill_dir was set but open failed
  Shard shards_[kPageStoreShards];
  std::atomic<uint32_t> shard_cursor_{0};  // round-robin for non-dedup placement + compaction
  std::once_flag zero_once_;
  PageRef zero_page_;
  std::atomic<uint32_t> next_owner_{1};
  Counters counters_;

  // Compactor state (used only when options_.background_compaction).
  std::mutex compactor_mu_;
  std::condition_variable compactor_cv_;
  std::condition_variable compactor_idle_cv_;
  uint64_t compaction_target_ = 0;  // byte target of the pending request
  bool compaction_pending_ = false;
  bool compactor_busy_ = false;
  bool compactor_stop_ = false;
  std::thread compactor_;
};

inline void PageRef::Release() {
  if (blob_ == nullptr) {
    return;
  }
  // The thread that moves the count 1 → 0 is the unique recycler: the index
  // never hands out refs to zero-refcount blobs, so the count cannot rise
  // again and no other thread can observe this transition.
  uint32_t prev = blob_->refcount.fetch_sub(1, std::memory_order_acq_rel);
  LW_CHECK(prev > 0);
  if (prev == 1) {
    blob_->store->RecycleBlob(blob_);
  }
  blob_ = nullptr;
}

inline const uint8_t* PageRef::data() const {
  LW_CHECK(blob_ != nullptr);
  if (blob_->spilled.load(std::memory_order_acquire) != 0) {
    blob_->store->FaultBackBlob(blob_);
  }
  if (blob_->comp_bytes.load(std::memory_order_acquire) != 0) {
    blob_->store->DecompressBlob(blob_);
  }
  return blob_->payload;
}

}  // namespace lw

#endif  // LWSNAP_SRC_SNAPSHOT_PAGE_STORE_H_
