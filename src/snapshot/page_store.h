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
// store approximates "parked-only" by publish/access recency); `ShrinkTo`
// compresses them with the in-tree LZ codec. Raw payloads are recycled through
// per-shard free lists when the last reference drops (snapshot trees churn
// pages at high frequency; malloc per page would dominate).
//
// Spill tier (opt-in via PageStoreOptions::spill_dir): below the compressed
// tier sits disk. `ShrinkTo`'s spill rung writes the payloads of blobs the
// compress rung is done with to the SpillTier's append-only segments (scratch
// space private to this process) and frees the RAM copy (only the blob
// header stays resident). Refcounts, dedup identity, and the unique-recycler
// 1 → 0 protocol are oblivious to where the payload lives, so a parked
// checkpoint population can exceed the RAM budget by orders of magnitude and
// still restore bit-identically.
//
// The ladder is one-way: a blob only ever moves raw → cold (compressed, or
// raw and incompressible) → spilled → dead. One tier word per blob
// (PageBlob::tier) records where it is, and the tier alone names the one
// per-shard list that holds it: raw blobs on the LRU the compress rung eats,
// cold blobs on the list the spill rung eats. The guarded accessors
// (`CopyTo`/`EqualsPage`/`CopyToIfDifferent`/`ReadBytes`) and the republish
// confirm decode a compressed or spilled payload into the caller's buffer or a
// stack page and leave the blob where it lies, so a read never allocates,
// never changes live bytes, and never hands the ladder a page to compress or
// spill a second time.
//
// Byte budget: the store owns the lossless rungs of the budget ladder.
// `ShrinkTo(target)` runs compress → spill → drop (free-list trim) until live
// bytes fit; the lossy first rung, evicting frontier entries, belongs to the
// session that owns the frontier (BacktrackSession::EnforceBudget). With
// `PageStoreOptions::background_compaction` the same routine runs on a
// store-owned compactor thread: `ShrinkTo` only enqueues the target and the
// caller returns to the search immediately.
//
// Concurrency model (the store is internally synchronized):
//   * The index, free lists, and tier lists are split across
//     `kPageStoreShards` shards selected by content-hash prefix; each shard has
//     its own mutex, so sessions on different worker threads publishing
//     different content rarely contend. Blob refcounts and all stats counters
//     are atomic.
//   * `Publish`, `ZeroPage`, the guarded page accessors, `ShrinkTo` and its
//     rungs (`CompressOneCold`, `SpillOneCold`, ...), `TrimFreeList`,
//     `ReleaseBatch`, and `stats()` are all safe to call from any number of
//     threads concurrently.
//   * Payload bytes are only ever read through the owning shard's lock
//     (`CopyTo`, `EqualsPage`, `CopyToIfDifferent`, `ReadBytes`), which is what
//     makes in-place compression and spilling safe against concurrent readers
//     and the background compactor. There is no raw pointer accessor.
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
  // A blob's place on the one-way budget ladder, and with it the one shard
  // list that holds it:
  //   kRaw      resident raw page; on shard.lru, the compress rung's list;
  //   kCold     compressed, or raw and incompressible; on shard.spill, the
  //             spill rung's list (listed even when the store has no spill
  //             tier: the spill rung then takes nothing);
  //   kSpilled  payload on disk (payload null, spill_rec set); on no list;
  //   kPinned   on no list, and no rung moves it: the canonical zero page,
  //             and a recycled header until Publish makes it kRaw.
  enum class Tier : uint8_t { kRaw, kCold, kSpilled, kPinned };

  std::atomic<uint32_t> refcount{0};
  std::atomic<uint32_t> comp_bytes{0};  // 0 = payload holds kPageSize raw bytes
  // Written under the shard lock only (PageStore::MoveLocked); atomic for the
  // lock-free check in PageRef::spilled().
  std::atomic<Tier> tier{Tier::kPinned};
  uint64_t hash = 0;  // content hash; valid while indexed
  uint32_t owner = 0;  // first publisher (dedup attribution only)
  uint32_t shard = 0;  // owning shard (lock, index, free and tier lists)
  bool indexed = false;
  PageStore* store = nullptr;
  PageBlob* next_free = nullptr;  // free-list link, valid only while refcount == 0
  PageBlob* lru_prev = nullptr;   // links on the tier's list (kRaw, kCold)
  PageBlob* lru_next = nullptr;
  uint8_t* payload = nullptr;  // kPageSize raw, or comp_bytes compressed; null while spilled
  // Spill-tier record holding this blob's payload bytes. A blob spills at most
  // once, so this is non-null exactly while it is kSpilled; the record is
  // freed when the blob is recycled.
  SpillRecord* spill_rec = nullptr;
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

  // The only reads of payload bytes: each runs under the blob's shard lock, so
  // they are safe against concurrent publishes and the background compactor.
  // A compressed or spilled blob is decoded into the caller's buffer or a
  // stack page and stays compressed or spilled.
  void CopyTo(void* dst) const;                            // full-page memcpy
  bool EqualsPage(const void* src) const;                  // full-page memcmp
  bool CopyToIfDifferent(void* dst) const;                 // memcmp, memcpy on mismatch
  void ReadBytes(size_t offset, void* dst, size_t len) const;  // sub-page read

  uint32_t refcount() const {
    return blob_ != nullptr ? blob_->refcount.load(std::memory_order_relaxed) : 0;
  }
  // Owning shard of this ref's blob (stable for the blob's lifetime). Lets
  // tests assert ReleaseBatch's exact shard-lock count for a known ref set.
  uint32_t shard() const { return blob_ != nullptr ? blob_->shard : 0; }
  // The store that minted this ref (null for an invalid ref).
  PageStore* store() const { return blob_ != nullptr ? blob_->store : nullptr; }
  bool compressed() const {
    return blob_ != nullptr && blob_->comp_bytes.load(std::memory_order_acquire) != 0;
  }
  bool spilled() const {
    return blob_ != nullptr &&
           blob_->tier.load(std::memory_order_acquire) == internal::PageBlob::Tier::kSpilled;
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
  // Run ShrinkTo's rungs on a store-owned compactor thread. When set, ShrinkTo
  // only enqueues a byte target and returns; the compactor works the cold
  // tails off the critical path. When clear (default), ShrinkTo runs inline
  // and deterministically — the right mode for single-threaded tools and tests.
  bool background_compaction = false;
  // Non-empty = enable the spill tier (fourth budget rung): cold blobs can be
  // evicted to append-only segments in this directory and are read from there
  // on access. The directory is created if missing; the segments are unlinked
  // as soon as they are created, so they live only as long as the store and
  // never outlive the process. If the tier fails to open, the store comes up
  // with spill disabled and spill_status() carries the error.
  std::string spill_dir;
  // Spill segment size (floor 64 KiB; see SpillTierOptions).
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

  // Brings live bytes down to `target_bytes` with the lossless rungs of the
  // budget ladder, in order: compress cold blobs, spill cold payloads to disk
  // (when the spill tier is on), and — last resort, only while still over —
  // return the recycled free lists to the host. Each rung visits the shards
  // round robin and runs until the target is met or it has nothing left. A
  // no-op when live bytes already fit. On a `background_compaction` store the
  // target is enqueued for the compactor thread (the lowest pending target
  // wins) and the call returns immediately; otherwise it runs inline.
  void ShrinkTo(uint64_t target_bytes);
  // Blocks until the compactor's queue is drained and it is idle (no-op
  // without background_compaction); tests and benches use this to make
  // residency deterministic.
  void WaitForCompaction();
  bool background_compaction() const { return compactor_.joinable(); }

  // The ladder's rungs, one step at a time (ShrinkTo drives these).
  // Compresses one cold compressible blob (per-shard LRU tails, visited round
  // robin — the approximation of "referenced only by parked snapshots").
  // Returns false when nothing is left to compress.
  bool CompressOneCold();

  // Compresses every compressible blob; returns how many were compressed.
  // Useful when a service parks (all checkpoints idle, no search running).
  uint64_t CompressAllCold();

  // Spills one cold blob's payload to the disk tier (the tails of the per-shard
  // kCold lists — blobs the compress rung already handled — visited round
  // robin).
  // Returns false when nothing is left to spill or the tier is
  // disabled/unavailable.
  bool SpillOneCold();

  // Spills every spillable blob; returns how many were spilled. The disk-tier
  // analogue of CompressAllCold for a parked service.
  uint64_t SpillAllCold();

  // True when PageStoreOptions::spill_dir produced a working spill tier.
  bool spill_enabled() const { return spill_ != nullptr; }
  // Why the tier is disabled (OK when spill_enabled() or spill never asked for).
  const Status& spill_status() const { return spill_status_; }

  // Live bytes (Stats::live_bytes) as one relaxed load, for budget loops.
  uint64_t live_bytes() const { return counters_.live_bytes.load(std::memory_order_relaxed); }

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
    uint64_t decompressions = 0;            // lifetime reads decoded from a compressed payload
    uint64_t live_bytes = 0;  // headers + payloads of live blobs (compression shrinks this)
    uint64_t free_bytes = 0;  // headers + retained raw payloads on the free lists
    uint64_t peak_live_bytes = 0;
    uint64_t release_batches = 0;         // non-empty ReleaseBatch calls
    uint64_t blobs_recycled_batched = 0;  // blobs recycled through ReleaseBatch
    uint64_t release_shard_locks = 0;     // shard-lock holds taken by ReleaseBatch
    uint64_t spilled_blobs = 0;           // blobs whose payload is on disk right now
    uint64_t spill_bytes = 0;             // payload bytes of those blobs
    uint64_t spills = 0;                  // lifetime spill-outs
    uint64_t faultbacks = 0;              // lifetime reads served from a spilled payload
    uint64_t spill_segments = 0;            // live spill segments
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
  // full Stats copy, cheap enough for every BacktrackSession::stats() call.
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

  // Intrusive recency list threaded through PageBlob::lru_prev/lru_next: head
  // is the most recently touched blob, tail the coldest. A blob's tier names
  // the one list that holds it (ListOf), so Remove is only called on members.
  struct ColdList {
    internal::PageBlob* head = nullptr;
    internal::PageBlob* tail = nullptr;
    void PushFront(internal::PageBlob* blob);
    void Remove(internal::PageBlob* blob);
  };

  struct Shard {
    mutable std::mutex mu;
    std::vector<internal::PageBlob*> index;  // open-addressed, linear probing
    size_t index_used = 0;
    internal::PageBlob* free_list = nullptr;
    ColdList lru;    // kRaw blobs; the compress rung eats the tail
    ColdList spill;  // kCold blobs; the spill rung eats the tail
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

  // Counter deltas of recycled blobs, applied with one read-modify-write per
  // touched counter (ApplyRecycleTally).
  struct RecycleTally {
    uint64_t blobs = 0;
    uint64_t live_bytes = 0;   // header + payload bytes leaving the live set
    uint64_t free_bytes = 0;   // header + retained payload bytes joining the free lists
    uint64_t compressed = 0;   // compressed payloads freed
    uint64_t spilled = 0;      // spilled blobs dropped
    uint64_t spill_bytes = 0;  // their on-disk payload bytes
  };

  // All *Locked helpers require the blob's (or given shard's) mutex held.
  internal::PageBlob* AcquireBlobLocked(Shard& shard, uint32_t shard_id);
  // The per-ref 1 → 0 path: one shard-lock hold around RecycleLocked.
  void RecycleBlob(internal::PageBlob* blob);
  // Unindexes and unlists a dead blob, drops its spill record, frees a
  // compressed payload, and pushes the header onto the shard's free list. The
  // one recycle routine behind RecycleBlob, ReleaseBatch, and the collision
  // path of IndexFindLocked.
  void RecycleLocked(Shard& shard, internal::PageBlob* blob, RecycleTally* tally);
  void ApplyRecycleTally(const RecycleTally& tally);

  void IndexInsertLocked(Shard& shard, internal::PageBlob* blob);
  void IndexRemoveLocked(Shard& shard, internal::PageBlob* blob);
  void IndexGrowLocked(Shard& shard);
  internal::PageBlob* IndexFindLocked(Shard& shard, uint64_t hash, const void* src);

  // The list that holds a blob of `tier`, or null for kSpilled and kPinned.
  static ColdList* ListOf(Shard& shard, internal::PageBlob::Tier tier);
  // Moves a blob to `tier` and onto the warm end of that tier's list (moving
  // to its own tier just refreshes its recency). The one routine that changes
  // a blob's tier or list: publish, compress, spill, recycle and the
  // dedup-hit touch all go through it.
  void MoveLocked(Shard& shard, internal::PageBlob* blob, internal::PageBlob::Tier tier);

  // The blob's raw page bytes: the resident payload itself, or `scratch`
  // (kPageSize bytes) after decoding a compressed or spilled payload into it.
  // Never changes the blob's tier. The single entry point the guarded
  // accessors (and the index's republish confirm) go through.
  const uint8_t* PageBytesLocked(const internal::PageBlob* blob, uint8_t* scratch);

  bool CompressBlobLocked(Shard& shard, internal::PageBlob* blob);
  bool CompressOneColdInShard(uint32_t shard_id);

  bool SpillBlobLocked(Shard& shard, internal::PageBlob* blob);
  bool SpillOneColdInShard(uint32_t shard_id);

  // The compress → spill → drop loop behind ShrinkTo, inline or on the
  // compactor thread.
  void ShrinkInline(uint64_t target_bytes);

  static void BumpPeak(std::atomic<uint64_t>& peak, uint64_t value);

  void CompactorMain();

  PageStoreOptions options_;
  std::unique_ptr<SpillTier> spill_;  // null = spill disabled
  Status spill_status_;               // why, when spill_dir was set but open failed
  Shard shards_[kPageStoreShards];
  std::atomic<uint32_t> shard_cursor_{0};  // round-robin start of the ladder's rungs
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

}  // namespace lw

#endif  // LWSNAP_SRC_SNAPSHOT_PAGE_STORE_H_
