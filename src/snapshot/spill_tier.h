// SpillTier: the PageStore's out-of-core rung — append-only spill segments on
// disk, so parked checkpoint populations can exceed the RAM budget by orders
// of magnitude (stubbscroll/SOLVER's disk-swapped BFS is the shape).
//
// Layout: payloads are appended to fixed-size, mmap'd segments. A record
// is the payload bytes alone, 8-byte aligned; its length, codec length and
// location live in the caller-held SpillRecord, and the owning blob's content
// hash stays in the blob's resident header. The tier keeps no content index:
// each record belongs to exactly one PageStore blob for that blob's whole
// spilled life (the store already dedups by content).
//
// Space reclamation: freeing a record turns its bytes into garbage; once a
// *sealed* segment's garbage fraction crosses kCompactDeadRatio, its live
// records — found through the segment's intrusive record list — are rewritten
// to the current tail segment (their SpillRecord nodes are stable — only the
// location fields move) and the segment is dropped.
//
// Lifetime: the tier is private scratch space of one process, not a
// persistence format. Each segment is created with mkstemp in the spill
// directory and unlinked at once, so it lives only as long as its descriptor
// and mapping: nothing outlives the tier, not even after a crash, and `Open`
// never reads a file it did not write. Segments are allocated with
// posix_fallocate, so a full disk fails the Append that needed a new segment
// (the blob stays resident) instead of raising SIGBUS on a later write
// through the mapping.
//
// Concurrency: every public method is internally synchronized by one tier
// mutex (disk is the slow tier; a single lock does not bound throughput
// before the I/O does). PageStore calls in with a shard lock held, so the
// lock order is always shard → tier and never cycles.

#ifndef LWSNAP_SRC_SNAPSHOT_SPILL_TIER_H_
#define LWSNAP_SRC_SNAPSHOT_SPILL_TIER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace lw {

// One spilled payload's location. Nodes are stable for the record's lifetime
// (PageBlobs hold raw pointers across compactions); the location fields and
// list links are guarded by the tier mutex.
struct SpillRecord {
  uint64_t off = 0;         // payload offset within its segment
  uint32_t seg = 0;         // owning segment id
  uint32_t len = 0;         // payload byte length
  uint32_t comp_bytes = 0;  // 0 = raw kPageSize page; else codec-compressed length (== len)
  SpillRecord* seg_prev = nullptr;  // the owning segment's live-record list
  SpillRecord* seg_next = nullptr;
};

struct SpillTierOptions {
  std::string dir;  // spill directory (created if missing; parent must exist)
  // Capacity of each segment; the tail segment is sealed and a new one
  // opened when an append would not fit. Floor 64 KiB (validated by Open).
  uint64_t segment_bytes = 4ull << 20;
};

class SpillTier {
 public:
  static constexpr uint64_t kMinSegmentBytes = 64ull << 10;
  // A sealed segment whose garbage fraction (dead bytes / appended bytes)
  // reaches this ratio is compacted: live records move to the tail, the
  // segment is dropped.
  static constexpr double kCompactDeadRatio = 0.5;

  // Validates the options and creates the spill directory if needed; fails
  // with IoError when that path is not a usable directory. Reads nothing in
  // it (see Lifetime above).
  static Result<std::unique_ptr<SpillTier>> Open(const SpillTierOptions& options);
  ~SpillTier();

  SpillTier(const SpillTier&) = delete;
  SpillTier& operator=(const SpillTier&) = delete;

  // Appends `len` payload bytes (comp_bytes == 0 means a raw kPageSize page,
  // else `len` codec-compressed bytes) as a new record owned by the caller.
  // Returns nullptr if a new segment cannot be created or its space reserved
  // (disk full, file size limit); callers treat that as "spill unavailable",
  // never as data loss.
  SpillRecord* Append(const void* payload, uint32_t len, uint32_t comp_bytes);

  // Copies the record's `len` payload bytes into dst.
  void Read(const SpillRecord* rec, void* dst) const;

  // Deletes the record, turns its bytes into reclaimable garbage, and may
  // compact the owning (sealed) segment.
  void Free(SpillRecord* rec);

  struct Stats {
    uint64_t segments = 0;            // live segments
    uint64_t segments_created = 0;    // lifetime
    uint64_t segments_compacted = 0;  // lifetime
    uint64_t live_records = 0;
    uint64_t live_payload_bytes = 0;  // payload bytes of live records
    uint64_t dead_bytes = 0;          // record bytes awaiting compaction
    uint64_t file_bytes = 0;          // disk footprint (segments × segment_bytes)
    uint64_t appends = 0;             // lifetime Append calls
    uint64_t records_rewritten = 0;   // records moved by compaction
  };
  Stats stats() const;

  const SpillTierOptions& options() const { return options_; }

 private:
  struct Segment {
    uint32_t id = 0;
    int fd = -1;
    uint8_t* map = nullptr;
    uint64_t used = 0;        // append cursor (8-aligned)
    uint64_t live_bytes = 0;  // payload+pad of live records
    uint64_t dead_bytes = 0;
    SpillRecord* records = nullptr;  // head of the live-record list
    bool sealed = false;
  };

  explicit SpillTier(SpillTierOptions options);

  Segment* TailForAppendLocked(uint64_t need);
  Segment* NewSegmentLocked();
  // Copies the payload to `seg`'s append cursor, points `rec` at it, and links
  // `rec` onto the segment's record list.
  void WriteRecordLocked(Segment& seg, SpillRecord& rec, const void* payload);
  // Takes `rec` off its segment's record list and out of its live bytes.
  static void UnlinkLocked(Segment& seg, SpillRecord& rec);
  // Drops an empty sealed segment, or compacts one whose garbage fraction
  // crossed kCompactDeadRatio. No-op for the tail or healthy segments.
  void MaybeReclaimSealedLocked(uint32_t seg_id);
  void CompactSegmentLocked(uint32_t seg_id);
  void DropSegmentLocked(uint32_t seg_id);
  static uint64_t RecordSpan(uint32_t len) { return (len + uint64_t{7}) & ~uint64_t{7}; }

  SpillTierOptions options_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Segment>> segments_;  // index = id; compacted slots go null
  uint32_t tail_ = UINT32_MAX;                      // current append segment id

  uint64_t live_records_ = 0;
  uint64_t live_payload_bytes_ = 0;
  uint64_t dead_bytes_ = 0;
  uint64_t segments_live_ = 0;
  uint64_t segments_created_ = 0;
  uint64_t segments_compacted_ = 0;
  uint64_t appends_ = 0;
  uint64_t records_rewritten_ = 0;
};

}  // namespace lw

#endif  // LWSNAP_SRC_SNAPSHOT_SPILL_TIER_H_
