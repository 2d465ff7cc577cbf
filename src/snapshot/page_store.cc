#include "src/snapshot/page_store.h"

#include <cstdlib>

#include "src/snapshot/codec.h"
#include "src/snapshot/page_hash.h"
#include "src/snapshot/spill_tier.h"

namespace lw {

using internal::PageBlob;
using Tier = internal::PageBlob::Tier;

namespace {

constexpr size_t kInitialIndexSlots = 256;  // power of two, per shard

bool IsZeroPage(const void* src) {
  // memcmp with early exit: real data almost always differs within the first
  // few bytes, so the dedup probe costs nanoseconds on the common path.
  static const uint8_t kZero[kPageSize] = {};
  return std::memcmp(src, kZero, kPageSize) == 0;
}

size_t PayloadBytes(const PageBlob* blob) {
  if (blob->payload == nullptr) {
    return 0;
  }
  uint32_t comp = blob->comp_bytes.load(std::memory_order_relaxed);
  return comp != 0 ? comp : kPageSize;
}

}  // namespace

PageStore::PageStore(const PageStoreOptions& options) : options_(options) {
  for (Shard& shard : shards_) {
    shard.index.assign(kInitialIndexSlots, nullptr);
  }
  if (!options_.spill_dir.empty()) {
    SpillTierOptions spill_options;
    spill_options.dir = options_.spill_dir;
    spill_options.segment_bytes = options_.spill_segment_bytes;
    auto tier = SpillTier::Open(spill_options);
    if (tier.ok()) {
      spill_ = std::move(*tier);
    } else {
      // The store stays usable — the budget ladder just loses its spill rung.
      // spill_status() carries the reason for callers that want to hard-fail.
      spill_status_ = tier.status();
    }
  }
  if (options_.background_compaction) {
    compactor_ = std::thread([this] { CompactorMain(); });
  }
}

PageStore::~PageStore() {
  if (compactor_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(compactor_mu_);
      compactor_stop_ = true;
    }
    compactor_cv_.notify_all();
    compactor_.join();
  }
  zero_page_.Reset();
  TrimFreeList();
  // All snapshots/sessions referencing this store must be destroyed first; a
  // live blob here means a PageRef will later touch freed store state.
  LW_CHECK_MSG(counters_.live_blobs.load(std::memory_order_acquire) == 0,
               "PageStore destroyed while pages are still referenced");
}

void PageStore::BumpPeak(std::atomic<uint64_t>& peak, uint64_t value) {
  uint64_t cur = peak.load(std::memory_order_relaxed);
  while (cur < value && !peak.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

// ---------------------------------------------------------------------------
// Blob lifecycle.
// ---------------------------------------------------------------------------

PageBlob* PageStore::AcquireBlobLocked(Shard& shard, uint32_t shard_id) {
  PageBlob* blob = shard.free_list;
  if (blob != nullptr) {
    shard.free_list = blob->next_free;
    counters_.free_blobs.fetch_sub(1, std::memory_order_relaxed);
    counters_.free_bytes.fetch_sub(sizeof(PageBlob) + PayloadBytes(blob),
                                   std::memory_order_relaxed);
  } else {
    void* mem = std::malloc(sizeof(PageBlob));
    LW_CHECK_MSG(mem != nullptr, "host allocation for page blob failed");
    blob = new (mem) PageBlob();
    blob->payload = nullptr;
  }
  if (blob->payload == nullptr) {
    blob->payload = static_cast<uint8_t*>(std::malloc(kPageSize));
    LW_CHECK_MSG(blob->payload != nullptr, "host allocation for page payload failed");
  }
  // Not yet visible to any other thread: published to the index (and thus to
  // other threads) only under this same shard lock.
  blob->refcount.store(1, std::memory_order_relaxed);
  blob->comp_bytes.store(0, std::memory_order_relaxed);
  blob->tier.store(Tier::kPinned, std::memory_order_relaxed);  // on no list yet
  blob->spill_rec = nullptr;
  blob->hash = 0;
  blob->owner = 0;
  blob->shard = shard_id;
  blob->indexed = false;
  blob->store = this;
  blob->next_free = nullptr;
  blob->lru_prev = nullptr;
  blob->lru_next = nullptr;
  uint64_t live = counters_.live_blobs.fetch_add(1, std::memory_order_relaxed) + 1;
  BumpPeak(counters_.peak_live_blobs, live);
  uint64_t live_bytes =
      counters_.live_bytes.fetch_add(sizeof(PageBlob) + kPageSize, std::memory_order_relaxed) +
      sizeof(PageBlob) + kPageSize;
  BumpPeak(counters_.peak_live_bytes, live_bytes);
  counters_.total_published.fetch_add(1, std::memory_order_relaxed);
  return blob;
}

void PageStore::RecycleBlob(PageBlob* blob) {
  // Only the thread that moved the refcount 1 → 0 gets here, exactly once per
  // blob lifetime: the index never revives zero-refcount blobs, so the count
  // cannot have risen again.
  Shard& shard = shards_[blob->shard];
  std::lock_guard<std::mutex> lock(shard.mu);
  RecycleTally tally;
  RecycleLocked(shard, blob, &tally);
  ApplyRecycleTally(tally);
}

void PageStore::RecycleLocked(Shard& shard, PageBlob* blob, RecycleTally* tally) {
  LW_CHECK(blob->refcount.load(std::memory_order_acquire) == 0);
  if (blob->indexed) {
    IndexRemoveLocked(shard, blob);
  }
  MoveLocked(shard, blob, Tier::kPinned);  // off its list until Publish reuses it
  tally->live_bytes += sizeof(PageBlob) + PayloadBytes(blob);
  // A dying spilled blob is never read back: only its disk record and header
  // go away.
  if (blob->spill_rec != nullptr) {
    ++tally->spilled;
    tally->spill_bytes += blob->spill_rec->len;
    spill_->Free(blob->spill_rec);
    blob->spill_rec = nullptr;
  }
  if (blob->comp_bytes.load(std::memory_order_relaxed) != 0) {
    // Compressed payloads are odd-sized; recycle the header only and let the
    // next acquire mint a fresh raw payload.
    ++tally->compressed;
    std::free(blob->payload);
    blob->payload = nullptr;
    blob->comp_bytes.store(0, std::memory_order_relaxed);
  }
  tally->free_bytes += sizeof(PageBlob) + PayloadBytes(blob);
  ++tally->blobs;
  blob->next_free = shard.free_list;
  shard.free_list = blob;
}

void PageStore::ApplyRecycleTally(const RecycleTally& tally) {
  counters_.live_bytes.fetch_sub(tally.live_bytes, std::memory_order_relaxed);
  if (tally.compressed != 0) {
    counters_.compressed_blobs.fetch_sub(tally.compressed, std::memory_order_relaxed);
  }
  if (tally.spilled != 0) {
    counters_.spilled_blobs.fetch_sub(tally.spilled, std::memory_order_relaxed);
    counters_.spill_bytes.fetch_sub(tally.spill_bytes, std::memory_order_relaxed);
  }
  counters_.live_blobs.fetch_sub(tally.blobs, std::memory_order_release);
  counters_.free_blobs.fetch_add(tally.blobs, std::memory_order_relaxed);
  counters_.free_bytes.fetch_add(tally.free_bytes, std::memory_order_relaxed);
}

void PageStore::ReleaseBatch(std::vector<PageRef>& refs) {
  if (refs.empty()) {
    return;
  }
  // Phase 1 — lock-free decrements. A ref whose blob survives costs exactly
  // what PageRef::Release would have; a ref that moved the count 1 → 0 makes
  // this thread the blob's unique recycler (the index never revives
  // zero-refcount blobs), so the blob can be parked on a per-shard doom list.
  // next_free is reusable as the list link: it is only meaningful while the
  // blob sits on a shard free list, which cannot happen before RecycleLocked
  // below.
  PageBlob* doomed[kPageStoreShards] = {};
  bool any_dying = false;
  for (PageRef& ref : refs) {
    PageBlob* blob = ref.blob_;
    if (blob == nullptr) {
      continue;
    }
    ref.blob_ = nullptr;  // the batch consumed this reference
    LW_CHECK_MSG(blob->store == this, "ReleaseBatch ref minted by a different store");
    uint32_t prev = blob->refcount.fetch_sub(1, std::memory_order_acq_rel);
    LW_CHECK(prev > 0);
    if (prev == 1) {
      blob->next_free = doomed[blob->shard];
      doomed[blob->shard] = blob;
      any_dying = true;
    }
  }
  refs.clear();
  counters_.release_batches.fetch_add(1, std::memory_order_relaxed);
  if (!any_dying) {
    return;
  }
  // Phase 2 — one lock hold per touched shard, recycling every doomed blob of
  // that shard under it. Between phases the dying blobs stay indexed/listed
  // exactly as they would during the window between PageRef::Release's
  // decrement and RecycleBlob's lock acquisition — lookups treat refcount-zero
  // blobs as dead either way. Counter traffic is batch-grained too: one tally
  // for the whole batch, applied once.
  RecycleTally tally;
  for (uint32_t shard_id = 0; shard_id < kPageStoreShards; ++shard_id) {
    PageBlob* blob = doomed[shard_id];
    if (blob == nullptr) {
      continue;
    }
    Shard& shard = shards_[shard_id];
    std::lock_guard<std::mutex> lock(shard.mu);
    counters_.release_shard_locks.fetch_add(1, std::memory_order_relaxed);
    while (blob != nullptr) {
      PageBlob* next = blob->next_free;  // the free-list push rewrites the link
      RecycleLocked(shard, blob, &tally);
      blob = next;
    }
  }
  ApplyRecycleTally(tally);
  counters_.blobs_recycled_batched.fetch_add(tally.blobs, std::memory_order_relaxed);
}

void PageStore::TrimFreeList() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    while (shard.free_list != nullptr) {
      PageBlob* next = shard.free_list->next_free;
      counters_.free_bytes.fetch_sub(sizeof(PageBlob) + PayloadBytes(shard.free_list),
                                     std::memory_order_relaxed);
      std::free(shard.free_list->payload);
      shard.free_list->~PageBlob();
      std::free(shard.free_list);
      shard.free_list = next;
      counters_.free_blobs.fetch_sub(1, std::memory_order_relaxed);
    }
  }
}

// ---------------------------------------------------------------------------
// Content-addressed publish.
// ---------------------------------------------------------------------------

PageRef PageStore::Publish(const void* src, uint32_t owner) {
  if (IsZeroPage(src)) {
    counters_.zero_dedup_hits.fetch_add(1, std::memory_order_relaxed);
    return ZeroPage();
  }
  const uint64_t hash = internal::HashPage(src);
  const uint32_t shard_id = internal::ShardOfHash(hash);
  Shard& shard = shards_[shard_id];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (PageBlob* hit = IndexFindLocked(shard, hash, src)) {
    counters_.content_dedup_hits.fetch_add(1, std::memory_order_relaxed);
    if (hit->owner != owner) {
      counters_.cross_session_dedup_hits.fetch_add(1, std::memory_order_relaxed);
    }
    MoveLocked(shard, hit, hit->tier.load(std::memory_order_relaxed));  // touch
    return PageRef(hit);  // IndexFindLocked already took the reference
  }
  PageBlob* blob = AcquireBlobLocked(shard, shard_id);
  std::memcpy(blob->payload, src, kPageSize);
  blob->owner = owner;
  blob->hash = hash;
  IndexInsertLocked(shard, blob);
  MoveLocked(shard, blob, Tier::kRaw);
  return PageRef(blob);
}

PageRef PageStore::ZeroPage() {
  std::call_once(zero_once_, [this] {
    Shard& shard = shards_[0];
    std::lock_guard<std::mutex> lock(shard.mu);
    PageBlob* blob = AcquireBlobLocked(shard, 0);
    std::memset(blob->payload, 0, kPageSize);
    // Left kPinned: permanently shared and hot, so no rung ever takes it.
    zero_page_ = PageRef(blob);
  });
  return zero_page_;
}

// ---------------------------------------------------------------------------
// Open-addressed content index (per shard; linear probing, backward-shift
// deletion). All index helpers run under the shard's mutex.
// ---------------------------------------------------------------------------

PageBlob* PageStore::IndexFindLocked(Shard& shard, uint64_t hash, const void* src) {
  const size_t mask = shard.index.size() - 1;
restart:
  for (size_t i = hash & mask; shard.index[i] != nullptr; i = (i + 1) & mask) {
    PageBlob* cand = shard.index[i];
    if (cand->hash != hash) {
      continue;
    }
    // Take the reference before touching payload bytes, and never from zero: a
    // blob whose count already hit zero is owned by its (unique) recycler — it
    // only remains indexed until that thread takes this shard lock. Treat it
    // as dead and republish fresh content instead of resurrecting it.
    uint32_t count = cand->refcount.load(std::memory_order_relaxed);
    bool acquired = false;
    while (count != 0) {
      if (cand->refcount.compare_exchange_weak(count, count + 1, std::memory_order_acq_rel)) {
        acquired = true;
        break;
      }
    }
    if (!acquired) {
      continue;
    }
    // Confirm the match without changing the blob's tier: a cold candidate
    // decodes into a stack page and stays where it lies.
    uint8_t scratch[kPageSize];
    if (std::memcmp(PageBytesLocked(cand, scratch), src, kPageSize) == 0) {
      return cand;  // reference transferred to the caller
    }
    // Collision: hand the reference back. The true holder may have released
    // concurrently, making this the final reference — recycle inline then (we
    // already hold the shard lock this blob recycles under). Recycling edits
    // the probe chain (backward-shift deletion), so restart the probe.
    if (cand->refcount.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      RecycleTally tally;
      RecycleLocked(shard, cand, &tally);
      ApplyRecycleTally(tally);
      goto restart;
    }
  }
  return nullptr;
}

void PageStore::IndexInsertLocked(Shard& shard, PageBlob* blob) {
  if ((shard.index_used + 1) * 10 >= shard.index.size() * 7) {  // grow at 70% load
    IndexGrowLocked(shard);
  }
  const size_t mask = shard.index.size() - 1;
  size_t i = blob->hash & mask;
  while (shard.index[i] != nullptr) {
    i = (i + 1) & mask;
  }
  shard.index[i] = blob;
  blob->indexed = true;
  ++shard.index_used;
}

void PageStore::IndexGrowLocked(Shard& shard) {
  std::vector<PageBlob*> old = std::move(shard.index);
  shard.index.assign(old.size() * 2, nullptr);
  const size_t mask = shard.index.size() - 1;
  for (PageBlob* blob : old) {
    if (blob == nullptr) {
      continue;
    }
    size_t i = blob->hash & mask;
    while (shard.index[i] != nullptr) {
      i = (i + 1) & mask;
    }
    shard.index[i] = blob;
  }
}

void PageStore::IndexRemoveLocked(Shard& shard, PageBlob* blob) {
  const size_t mask = shard.index.size() - 1;
  size_t i = blob->hash & mask;
  while (shard.index[i] != blob) {
    LW_CHECK_MSG(shard.index[i] != nullptr, "indexed blob missing from index");
    i = (i + 1) & mask;
  }
  blob->indexed = false;
  --shard.index_used;
  // Backward-shift deletion keeps probe chains tombstone-free: walk the
  // cluster after the hole and move back any entry whose home slot makes the
  // hole part of its probe path.
  size_t j = i;
  while (true) {
    shard.index[i] = nullptr;
    while (true) {
      j = (j + 1) & mask;
      if (shard.index[j] == nullptr) {
        return;
      }
      size_t home = shard.index[j]->hash & mask;
      // Does entry j probe across slot i? (circular interval check)
      bool moves = i <= j ? (home <= i || home > j) : (home <= i && home > j);
      if (moves) {
        break;
      }
    }
    shard.index[i] = shard.index[j];
    i = j;
  }
}

// ---------------------------------------------------------------------------
// Guarded page access (safe against concurrent compression and spilling).
// Reads never change a blob's tier: a compressed or spilled payload decodes
// into the caller's buffer or a stack page and stays where it lies.
// ---------------------------------------------------------------------------

const uint8_t* PageStore::PageBytesLocked(const PageBlob* blob, uint8_t* scratch) {
  if (blob->tier.load(std::memory_order_relaxed) == Tier::kSpilled) {
    const SpillRecord* rec = blob->spill_rec;
    if (rec->comp_bytes != 0) {
      uint8_t comp[kPageSize];  // compressed payloads are below kPageSize
      spill_->Read(rec, comp);
      size_t n = Decompress(comp, rec->comp_bytes, scratch, kPageSize);
      LW_CHECK_MSG(n == kPageSize, "spilled blob decompressed to the wrong size");
    } else {
      spill_->Read(rec, scratch);
    }
    counters_.faultbacks.fetch_add(1, std::memory_order_relaxed);
    return scratch;
  }
  uint32_t comp = blob->comp_bytes.load(std::memory_order_relaxed);
  if (comp == 0) {
    return blob->payload;
  }
  size_t n = Decompress(blob->payload, comp, scratch, kPageSize);
  LW_CHECK_MSG(n == kPageSize, "cold blob decompressed to the wrong size");
  counters_.decompressions.fetch_add(1, std::memory_order_relaxed);
  return scratch;
}

void PageRef::CopyTo(void* dst) const {
  LW_CHECK(blob_ != nullptr);
  PageStore::Shard& shard = blob_->store->shards_[blob_->shard];
  std::lock_guard<std::mutex> lock(shard.mu);
  uint8_t* out = static_cast<uint8_t*>(dst);
  const uint8_t* bytes = blob_->store->PageBytesLocked(blob_, out);
  if (bytes != out) {
    std::memcpy(out, bytes, kPageSize);
  }
}

bool PageRef::EqualsPage(const void* src) const {
  LW_CHECK(blob_ != nullptr);
  PageStore::Shard& shard = blob_->store->shards_[blob_->shard];
  std::lock_guard<std::mutex> lock(shard.mu);
  uint8_t scratch[kPageSize];
  return std::memcmp(blob_->store->PageBytesLocked(blob_, scratch), src, kPageSize) == 0;
}

bool PageRef::CopyToIfDifferent(void* dst) const {
  LW_CHECK(blob_ != nullptr);
  PageStore::Shard& shard = blob_->store->shards_[blob_->shard];
  std::lock_guard<std::mutex> lock(shard.mu);
  uint8_t scratch[kPageSize];
  const uint8_t* bytes = blob_->store->PageBytesLocked(blob_, scratch);
  if (std::memcmp(bytes, dst, kPageSize) == 0) {
    return false;
  }
  std::memcpy(dst, bytes, kPageSize);
  return true;
}

void PageRef::ReadBytes(size_t offset, void* dst, size_t len) const {
  LW_CHECK(blob_ != nullptr);
  LW_CHECK(offset + len <= kPageSize);
  PageStore::Shard& shard = blob_->store->shards_[blob_->shard];
  std::lock_guard<std::mutex> lock(shard.mu);
  uint8_t scratch[kPageSize];
  std::memcpy(dst, blob_->store->PageBytesLocked(blob_, scratch) + offset, len);
}

// ---------------------------------------------------------------------------
// Tier lists (per shard; helpers run under the shard's mutex).
// ---------------------------------------------------------------------------

void PageStore::ColdList::PushFront(PageBlob* blob) {
  blob->lru_prev = nullptr;
  blob->lru_next = head;
  if (head != nullptr) {
    head->lru_prev = blob;
  }
  head = blob;
  if (tail == nullptr) {
    tail = blob;
  }
}

void PageStore::ColdList::Remove(PageBlob* blob) {
  if (blob->lru_prev != nullptr) {
    blob->lru_prev->lru_next = blob->lru_next;
  } else {
    head = blob->lru_next;
  }
  if (blob->lru_next != nullptr) {
    blob->lru_next->lru_prev = blob->lru_prev;
  } else {
    tail = blob->lru_prev;
  }
  blob->lru_prev = nullptr;
  blob->lru_next = nullptr;
}

PageStore::ColdList* PageStore::ListOf(Shard& shard, Tier tier) {
  switch (tier) {
    case Tier::kRaw:
      return &shard.lru;
    case Tier::kCold:
      return &shard.spill;
    default:
      return nullptr;
  }
}

void PageStore::MoveLocked(Shard& shard, PageBlob* blob, Tier tier) {
  if (ColdList* from = ListOf(shard, blob->tier.load(std::memory_order_relaxed))) {
    from->Remove(blob);
  }
  blob->tier.store(tier, std::memory_order_release);
  if (ColdList* to = ListOf(shard, tier)) {
    to->PushFront(blob);
  }
}

// ---------------------------------------------------------------------------
// Cold-compression tier.
// ---------------------------------------------------------------------------

bool PageStore::CompressBlobLocked(Shard& shard, PageBlob* blob) {
  counters_.compression_attempts.fetch_add(1, std::memory_order_relaxed);
  uint8_t tmp[MaxCompressedBytes(kPageSize)];
  // Only worthwhile when the payload actually shrinks: cap the output below
  // kPageSize so incompressible pages stay raw.
  size_t n = Compress(blob->payload, kPageSize, tmp, kPageSize - 1);
  // The compress rung is done with the blob either way; the next rung down is
  // disk, which takes a compressed or a raw incompressible payload alike.
  if (n == 0) {
    MoveLocked(shard, blob, Tier::kCold);
    return false;
  }
  uint8_t* small = static_cast<uint8_t*>(std::malloc(n));
  LW_CHECK_MSG(small != nullptr, "host allocation for compressed payload failed");
  std::memcpy(small, tmp, n);
  std::free(blob->payload);
  blob->payload = small;
  blob->comp_bytes.store(static_cast<uint32_t>(n), std::memory_order_release);
  MoveLocked(shard, blob, Tier::kCold);
  counters_.live_bytes.fetch_sub(kPageSize - n, std::memory_order_relaxed);
  counters_.compressed_blobs.fetch_add(1, std::memory_order_relaxed);
  counters_.compressions.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool PageStore::CompressOneColdInShard(uint32_t shard_id) {
  Shard& shard = shards_[shard_id];
  std::lock_guard<std::mutex> lock(shard.mu);
  while (shard.lru.tail != nullptr) {
    PageBlob* coldest = shard.lru.tail;
    if (CompressBlobLocked(shard, coldest)) {
      return true;
    }
    // Incompressible: CompressBlobLocked moved it to kCold; try the next.
  }
  return false;
}

bool PageStore::CompressOneCold() {
  // Round-robin over shards: "coldest per shard" approximates the global LRU
  // order well enough for a budget policy (the hash spreads content evenly).
  uint32_t start = shard_cursor_.fetch_add(1, std::memory_order_relaxed);
  for (uint32_t i = 0; i < kPageStoreShards; ++i) {
    if (CompressOneColdInShard((start + i) & (kPageStoreShards - 1))) {
      return true;
    }
  }
  return false;
}

uint64_t PageStore::CompressAllCold() {
  uint64_t count = 0;
  for (uint32_t shard_id = 0; shard_id < kPageStoreShards; ++shard_id) {
    while (CompressOneColdInShard(shard_id)) {
      ++count;
    }
  }
  return count;
}

// ---------------------------------------------------------------------------
// Spill tier (fourth budget rung). Helpers run under the blob's shard mutex;
// SpillTier calls nest its own mutex inside it (shard → tier, never cycles).
// ---------------------------------------------------------------------------

bool PageStore::SpillBlobLocked(Shard& shard, PageBlob* blob) {
  uint32_t comp = blob->comp_bytes.load(std::memory_order_relaxed);
  uint32_t len = comp != 0 ? comp : static_cast<uint32_t>(kPageSize);
  SpillRecord* rec = spill_->Append(blob->payload, len, comp);
  if (rec == nullptr) {
    return false;  // disk trouble — leave the blob resident
  }
  blob->spill_rec = rec;
  // Payload lives on disk now; only the header stays resident.
  std::free(blob->payload);
  blob->payload = nullptr;
  blob->comp_bytes.store(0, std::memory_order_relaxed);
  MoveLocked(shard, blob, Tier::kSpilled);
  counters_.live_bytes.fetch_sub(len, std::memory_order_relaxed);
  if (comp != 0) {
    counters_.compressed_blobs.fetch_sub(1, std::memory_order_relaxed);
  }
  counters_.spilled_blobs.fetch_add(1, std::memory_order_relaxed);
  counters_.spill_bytes.fetch_add(len, std::memory_order_relaxed);
  counters_.spills.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool PageStore::SpillOneColdInShard(uint32_t shard_id) {
  if (spill_ == nullptr) {
    return false;  // kCold blobs stay listed, but there is no disk to take them
  }
  Shard& shard = shards_[shard_id];
  std::lock_guard<std::mutex> lock(shard.mu);
  PageBlob* victim = shard.spill.tail;  // coldest kCold blob
  return victim != nullptr && SpillBlobLocked(shard, victim);
}

bool PageStore::SpillOneCold() {
  if (spill_ == nullptr) {
    return false;  // before advancing the round-robin cursor the compress rung shares
  }
  // Round-robin over shards, mirroring CompressOneCold's approximation of
  // global cold order.
  uint32_t start = shard_cursor_.fetch_add(1, std::memory_order_relaxed);
  for (uint32_t i = 0; i < kPageStoreShards; ++i) {
    if (SpillOneColdInShard((start + i) & (kPageStoreShards - 1))) {
      return true;
    }
  }
  return false;
}

uint64_t PageStore::SpillAllCold() {
  uint64_t count = 0;
  for (uint32_t shard_id = 0; shard_id < kPageStoreShards; ++shard_id) {
    while (SpillOneColdInShard(shard_id)) {
      ++count;
    }
  }
  return count;
}

// ---------------------------------------------------------------------------
// The budget ladder's lossless rungs, inline or on the compactor thread.
// ---------------------------------------------------------------------------

void PageStore::ShrinkTo(uint64_t target_bytes) {
  if (live_bytes() <= target_bytes) {
    return;
  }
  if (!compactor_.joinable()) {
    ShrinkInline(target_bytes);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(compactor_mu_);
    if (!compaction_pending_ || target_bytes < compaction_target_) {
      compaction_target_ = target_bytes;
    }
    compaction_pending_ = true;
  }
  compactor_cv_.notify_one();
}

void PageStore::ShrinkInline(uint64_t target_bytes) {
  while (live_bytes() > target_bytes && CompressOneCold()) {
  }
  // Spill rung: take cold payloads to disk until resident bytes fit. A no-op
  // when the store has no spill tier.
  while (live_bytes() > target_bytes && SpillOneCold()) {
  }
  // Last resort only: when compression and spilling could not bring live
  // bytes under the target, the recycled free list is pure overhead — return
  // it to the host. While the target is being met, the free list stays
  // (recycling blobs is what keeps Publish off the allocator).
  if (live_bytes() > target_bytes) {
    TrimFreeList();
  }
}

void PageStore::WaitForCompaction() {
  if (!compactor_.joinable()) {
    return;
  }
  std::unique_lock<std::mutex> lock(compactor_mu_);
  compactor_idle_cv_.wait(lock, [this] { return !compaction_pending_ && !compactor_busy_; });
}

void PageStore::CompactorMain() {
  std::unique_lock<std::mutex> lock(compactor_mu_);
  while (true) {
    compactor_cv_.wait(lock, [this] { return compaction_pending_ || compactor_stop_; });
    if (compactor_stop_) {
      return;
    }
    uint64_t target = compaction_target_;
    compaction_pending_ = false;
    compactor_busy_ = true;
    lock.unlock();
    // Work without the queue lock: sessions keep publishing (and enqueueing
    // lower targets) while we chew the cold tails.
    ShrinkInline(target);
    lock.lock();
    compactor_busy_ = false;
    if (!compaction_pending_) {
      compactor_idle_cv_.notify_all();
    }
  }
}

// ---------------------------------------------------------------------------
// Stats.
// ---------------------------------------------------------------------------

PageStore::Stats PageStore::stats() const {
  Stats s;
  s.live_blobs = counters_.live_blobs.load(std::memory_order_acquire);
  s.free_blobs = counters_.free_blobs.load(std::memory_order_relaxed);
  s.peak_live_blobs = counters_.peak_live_blobs.load(std::memory_order_relaxed);
  s.total_published = counters_.total_published.load(std::memory_order_relaxed);
  s.zero_dedup_hits = counters_.zero_dedup_hits.load(std::memory_order_relaxed);
  s.content_dedup_hits = counters_.content_dedup_hits.load(std::memory_order_relaxed);
  s.cross_session_dedup_hits =
      counters_.cross_session_dedup_hits.load(std::memory_order_relaxed);
  s.compressed_blobs = counters_.compressed_blobs.load(std::memory_order_relaxed);
  s.compressions = counters_.compressions.load(std::memory_order_relaxed);
  s.compression_attempts = counters_.compression_attempts.load(std::memory_order_relaxed);
  s.decompressions = counters_.decompressions.load(std::memory_order_relaxed);
  s.live_bytes = counters_.live_bytes.load(std::memory_order_relaxed);
  s.free_bytes = counters_.free_bytes.load(std::memory_order_relaxed);
  s.peak_live_bytes = counters_.peak_live_bytes.load(std::memory_order_relaxed);
  s.release_batches = counters_.release_batches.load(std::memory_order_relaxed);
  s.blobs_recycled_batched = counters_.blobs_recycled_batched.load(std::memory_order_relaxed);
  s.release_shard_locks = counters_.release_shard_locks.load(std::memory_order_relaxed);
  s.spilled_blobs = counters_.spilled_blobs.load(std::memory_order_relaxed);
  s.spill_bytes = counters_.spill_bytes.load(std::memory_order_relaxed);
  s.spills = counters_.spills.load(std::memory_order_relaxed);
  s.faultbacks = counters_.faultbacks.load(std::memory_order_relaxed);
  if (spill_ != nullptr) {
    SpillTier::Stats tier = spill_->stats();
    s.spill_segments = tier.segments;
    s.spill_segments_compacted = tier.segments_compacted;
  }
  return s;
}

}  // namespace lw
