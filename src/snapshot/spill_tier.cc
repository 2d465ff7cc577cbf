#include "src/snapshot/spill_tier.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace lw {

SpillTier::SpillTier(SpillTierOptions options) : options_(std::move(options)) {}

Result<std::unique_ptr<SpillTier>> SpillTier::Open(const SpillTierOptions& options) {
  if (options.dir.empty()) {
    return InvalidArgument("SpillTierOptions::dir is empty");
  }
  if (options.segment_bytes < kMinSegmentBytes) {
    return InvalidArgument("SpillTierOptions::segment_bytes below 64 KiB floor");
  }
  if (::mkdir(options.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return IoError("cannot create spill directory " + options.dir);
  }
  struct stat st;
  if (::stat(options.dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    return IoError("spill path is not a directory: " + options.dir);
  }
  return std::unique_ptr<SpillTier>(new SpillTier(options));
}

SpillTier::~SpillTier() {
  for (auto& seg : segments_) {
    if (seg == nullptr) {
      continue;
    }
    ::munmap(seg->map, options_.segment_bytes);
    ::close(seg->fd);
    while (SpillRecord* rec = seg->records) {
      seg->records = rec->seg_next;
      delete rec;
    }
  }
}

SpillRecord* SpillTier::Append(const void* payload, uint32_t len, uint32_t comp_bytes) {
  LW_CHECK(len > 0);
  std::lock_guard<std::mutex> lock(mu_);
  appends_++;
  Segment* seg = TailForAppendLocked(RecordSpan(len));
  if (seg == nullptr) {
    return nullptr;
  }
  SpillRecord* rec = new SpillRecord;
  rec->len = len;
  rec->comp_bytes = comp_bytes;
  WriteRecordLocked(*seg, *rec, payload);
  live_records_++;
  live_payload_bytes_ += len;
  return rec;
}

void SpillTier::Read(const SpillRecord* rec, void* dst) const {
  std::lock_guard<std::mutex> lock(mu_);
  LW_CHECK(rec != nullptr);
  const Segment* seg = segments_[rec->seg].get();
  std::memcpy(dst, seg->map + rec->off, rec->len);
}

void SpillTier::Free(SpillRecord* rec) {
  std::lock_guard<std::mutex> lock(mu_);
  LW_CHECK(rec != nullptr);
  Segment* seg = segments_[rec->seg].get();
  UnlinkLocked(*seg, *rec);
  uint64_t span = RecordSpan(rec->len);
  seg->dead_bytes += span;
  dead_bytes_ += span;
  live_records_--;
  live_payload_bytes_ -= rec->len;
  uint32_t seg_id = rec->seg;
  delete rec;
  MaybeReclaimSealedLocked(seg_id);
}

SpillTier::Stats SpillTier::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.segments = segments_live_;
  s.segments_created = segments_created_;
  s.segments_compacted = segments_compacted_;
  s.live_records = live_records_;
  s.live_payload_bytes = live_payload_bytes_;
  s.dead_bytes = dead_bytes_;
  s.file_bytes = segments_live_ * options_.segment_bytes;
  s.appends = appends_;
  s.records_rewritten = records_rewritten_;
  return s;
}

SpillTier::Segment* SpillTier::TailForAppendLocked(uint64_t need) {
  while (true) {
    if (tail_ == UINT32_MAX) {
      if (NewSegmentLocked() == nullptr) {
        return nullptr;
      }
      continue;
    }
    Segment* tail = segments_[tail_].get();
    if (tail->used + need <= options_.segment_bytes) {
      return tail;
    }
    tail->sealed = true;
    uint32_t old = tail_;
    tail_ = UINT32_MAX;
    if (NewSegmentLocked() == nullptr) {
      return nullptr;
    }
    // Sealing may have tipped the old tail over the garbage threshold (frees
    // accumulate in the tail too). Reclaiming can compact its live records
    // into the fresh tail, so loop and re-check capacity rather than return.
    MaybeReclaimSealedLocked(old);
  }
}

SpillTier::Segment* SpillTier::NewSegmentLocked() {
  std::string path = options_.dir + "/seg-XXXXXX";
  int fd = ::mkstemp(&path[0]);
  if (fd < 0) {
    return nullptr;
  }
  // Nameless from here on: the segment lives as long as fd and mapping.
  ::unlink(path.c_str());
  // Reserve every block now, so a full disk fails here rather than as SIGBUS
  // on a later write through the mapping.
  if (::posix_fallocate(fd, 0, static_cast<off_t>(options_.segment_bytes)) != 0) {
    ::close(fd);
    return nullptr;
  }
  void* map = ::mmap(nullptr, options_.segment_bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  if (map == MAP_FAILED) {
    ::close(fd);
    return nullptr;
  }
  uint32_t id = static_cast<uint32_t>(segments_.size());
  auto seg = std::make_unique<Segment>();
  seg->id = id;
  seg->fd = fd;
  seg->map = static_cast<uint8_t*>(map);
  segments_.push_back(std::move(seg));
  tail_ = id;
  segments_live_++;
  segments_created_++;
  return segments_[id].get();
}

void SpillTier::WriteRecordLocked(Segment& seg, SpillRecord& rec, const void* payload) {
  uint64_t span = RecordSpan(rec.len);
  LW_CHECK(seg.used + span <= options_.segment_bytes);
  std::memcpy(seg.map + seg.used, payload, rec.len);
  rec.seg = seg.id;
  rec.off = seg.used;
  seg.used += span;
  seg.live_bytes += span;
  rec.seg_prev = nullptr;
  rec.seg_next = seg.records;
  if (seg.records != nullptr) {
    seg.records->seg_prev = &rec;
  }
  seg.records = &rec;
}

void SpillTier::UnlinkLocked(Segment& seg, SpillRecord& rec) {
  if (rec.seg_prev != nullptr) {
    rec.seg_prev->seg_next = rec.seg_next;
  } else {
    seg.records = rec.seg_next;
  }
  if (rec.seg_next != nullptr) {
    rec.seg_next->seg_prev = rec.seg_prev;
  }
  rec.seg_prev = nullptr;
  rec.seg_next = nullptr;
  seg.live_bytes -= RecordSpan(rec.len);
}

void SpillTier::MaybeReclaimSealedLocked(uint32_t seg_id) {
  Segment* seg = segments_[seg_id].get();
  if (seg == nullptr || !seg->sealed) {
    return;
  }
  if (seg->live_bytes == 0) {
    DropSegmentLocked(seg_id);
    return;
  }
  uint64_t spanned = seg->live_bytes + seg->dead_bytes;
  if (seg->dead_bytes > 0 &&
      static_cast<double>(seg->dead_bytes) / static_cast<double>(spanned) >=
          kCompactDeadRatio) {
    CompactSegmentLocked(seg_id);
  }
}

void SpillTier::CompactSegmentLocked(uint32_t seg_id) {
  Segment* victim = segments_[seg_id].get();
  // Each move takes the head off the victim's record list, so the loop ends
  // when the victim holds no live record. Record nodes stay put (blobs hold
  // pointers to them); only their location fields change.
  while (SpillRecord* rec = victim->records) {
    Segment* dst = TailForAppendLocked(RecordSpan(rec->len));
    if (dst == nullptr) {
      return;  // disk trouble: abandon, the victim keeps serving its records
    }
    UnlinkLocked(*victim, *rec);
    WriteRecordLocked(*dst, *rec, victim->map + rec->off);
    records_rewritten_++;
  }
  segments_compacted_++;
  DropSegmentLocked(seg_id);
}

void SpillTier::DropSegmentLocked(uint32_t seg_id) {
  Segment* seg = segments_[seg_id].get();
  LW_CHECK(seg != nullptr && seg->live_bytes == 0 && seg_id != tail_);
  ::munmap(seg->map, options_.segment_bytes);
  ::close(seg->fd);
  dead_bytes_ -= seg->dead_bytes;
  segments_live_--;
  segments_[seg_id].reset();
}

}  // namespace lw
