// Spill tier (the budget ladder's fourth rung):
//   * SpillTier unit coverage — append/read/free round trips, segment rollover
//     and compaction, option validation;
//   * lifetime — segments are nameless from the moment they exist, so the
//     spill directory never holds one, and Open reads and touches no file it
//     did not write;
//   * full disk — a segment whose space cannot be reserved fails the spill
//     cleanly: the blob stays resident and readable, and spilling resumes
//     once space returns;
//   * rung ordering — PageStore::ShrinkTo meets a budget reachable by
//     compression alone without touching disk, and only reaches for the spill
//     rung when compression is exhausted; inline and background_compaction
//     stores end in the same state;
//   * round-trip parity — spilled blobs read back bit-identical through every
//     guarded accessor, dedup identity (same bytes → same blob pointer) holds
//     across the RAM/disk boundary, and a store with spill disabled keeps all
//     spill counters at exactly zero;
//   * the one-way read contract — a read of a compressed or spilled blob
//     decodes into the caller's buffer and leaves the blob's tier and the
//     store's residency counters exactly as they were;
//   * concurrency — readers of spilled blobs, publishes, ReleaseBatch storms,
//     and a spiller thread hammering one shared store stay coherent
//     (tsan-safe);
//   * E15 acceptance — a parked checkpoint population whose logical bytes are
//     ≥ 10× the RAM budget stays resident under the budget and restores
//     bit-identically to a never-spilled run, in all five snapshot modes.

#include <gtest/gtest.h>

#include <dirent.h>
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/backtrack.h"
#include "src/core/guest_api.h"
#include "src/snapshot/soft_dirty.h"
#include "src/snapshot/spill_tier.h"

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

// Scoped spill directory under /tmp; recursively removed on destruction so
// ctest leaves nothing behind even when a test fails mid-way.
class ScopedSpillDir {
 public:
  ScopedSpillDir() {
    char tmpl[] = "/tmp/lwsnap_spill_XXXXXX";
    char* dir = mkdtemp(tmpl);
    LW_CHECK_MSG(dir != nullptr, "mkdtemp failed for spill test dir");
    path_ = dir;
  }
  ~ScopedSpillDir() {
    // The tier unlinks its own segments; sweep whatever a failing test left.
    std::string cmd = "rm -rf '" + path_ + "'";
    int rc = std::system(cmd.c_str());
    (void)rc;
  }
  const std::string& path() const { return path_; }
  std::string Sub(const char* name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

// Deterministic distinct page content (compressible: the byte pattern is
// periodic). Same scheme as release_batch_test.cc.
void FillPage(uint8_t* buf, uint32_t salt, uint32_t i) {
  for (size_t b = 0; b < kPageSize; ++b) {
    buf[b] = static_cast<uint8_t>((salt * 131 + b * 13) | 1);
  }
  std::memcpy(buf, &salt, sizeof(salt));
  std::memcpy(buf + sizeof(salt), &i, sizeof(i));
}

uint64_t XorShift(uint64_t* state) {
  uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  *state = x;
  return x;
}

// Deterministic *incompressible* page content: an xorshift64 stream seeded by
// (salt, i). No codec in the tree gets a win on this, so these pages spill at
// their full raw size.
void FillNoisePage(uint8_t* buf, uint64_t salt, uint64_t i) {
  uint64_t state = (salt * 0x9e3779b97f4a7c15ull + i * 2654435761ull) | 1ull;
  for (size_t off = 0; off < kPageSize; off += sizeof(uint64_t)) {
    uint64_t word = XorShift(&state);
    std::memcpy(buf + off, &word, sizeof(word));
  }
}

uint64_t Fnv1a(const uint8_t* data, size_t len) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < len; ++i) {
    h = (h ^ data[i]) * 1099511628211ull;
  }
  return h;
}

// --- SpillTier unit coverage ------------------------------------------------------

TEST(SpillTierTest, OpenRejectsBadOptions) {
  ScopedSpillDir tmp;
  SpillTierOptions options;
  options.dir = "";
  EXPECT_FALSE(SpillTier::Open(options).ok());

  options.dir = tmp.Sub("t");
  options.segment_bytes = SpillTier::kMinSegmentBytes - 1;
  EXPECT_FALSE(SpillTier::Open(options).ok());

  options.segment_bytes = SpillTier::kMinSegmentBytes;
  EXPECT_TRUE(SpillTier::Open(options).ok());
}

TEST(SpillTierTest, AppendReadFreeRoundTrip) {
  ScopedSpillDir tmp;
  SpillTierOptions options;
  options.dir = tmp.Sub("tier");
  options.segment_bytes = SpillTier::kMinSegmentBytes;
  auto tier_or = SpillTier::Open(options);
  ASSERT_TRUE(tier_or.ok()) << tier_or.status().ToString();
  std::unique_ptr<SpillTier> tier = std::move(*tier_or);

  uint8_t a[kPageSize], b[kPageSize], out[kPageSize];
  FillNoisePage(a, 1, 1);
  FillNoisePage(b, 1, 2);

  SpillRecord* ra = tier->Append(a, kPageSize, 0);
  SpillRecord* rb = tier->Append(b, kPageSize, 0);
  ASSERT_NE(ra, nullptr);
  ASSERT_NE(rb, nullptr);
  EXPECT_NE(ra, rb);

  SpillTier::Stats stats = tier->stats();
  EXPECT_EQ(stats.live_records, 2u);
  EXPECT_EQ(stats.appends, 2u);
  EXPECT_EQ(stats.live_payload_bytes, 2 * kPageSize);

  tier->Read(ra, out);
  EXPECT_EQ(std::memcmp(out, a, kPageSize), 0);
  tier->Read(rb, out);
  EXPECT_EQ(std::memcmp(out, b, kPageSize), 0);

  tier->Free(ra);  // the other record stays readable
  stats = tier->stats();
  EXPECT_EQ(stats.live_records, 1u);
  EXPECT_EQ(stats.live_payload_bytes, kPageSize);
  tier->Read(rb, out);
  EXPECT_EQ(std::memcmp(out, b, kPageSize), 0);
  tier->Free(rb);
  stats = tier->stats();
  EXPECT_EQ(stats.live_records, 0u);
  EXPECT_EQ(stats.live_payload_bytes, 0u);
}

TEST(SpillTierTest, SegmentRolloverAndCompactionKeepRecordsReadable) {
  ScopedSpillDir tmp;
  SpillTierOptions options;
  options.dir = tmp.Sub("tier");
  options.segment_bytes = SpillTier::kMinSegmentBytes;  // ~15 pages per segment
  auto tier_or = SpillTier::Open(options);
  ASSERT_TRUE(tier_or.ok()) << tier_or.status().ToString();
  std::unique_ptr<SpillTier> tier = std::move(*tier_or);

  constexpr int kCount = 45;  // spans three segments
  std::vector<SpillRecord*> recs(kCount);
  uint8_t buf[kPageSize];
  for (int i = 0; i < kCount; ++i) {
    FillNoisePage(buf, 7, static_cast<uint64_t>(i));
    recs[i] = tier->Append(buf, kPageSize, 0);
    ASSERT_NE(recs[i], nullptr);
  }
  SpillTier::Stats stats = tier->stats();
  EXPECT_GE(stats.segments, 3u);
  EXPECT_EQ(stats.live_records, static_cast<uint64_t>(kCount));

  // Kill most of the first segment's records: its garbage fraction crosses
  // compact_dead_ratio, so survivors get rewritten to the tail and the file
  // goes away. Every surviving record must stay readable through the move.
  for (int i = 0; i < 12; ++i) {
    tier->Free(recs[i]);
    recs[i] = nullptr;
  }
  stats = tier->stats();
  EXPECT_GE(stats.segments_compacted + stats.records_rewritten, 1u)
      << "expected the mostly-dead sealed segment to be reclaimed";
  EXPECT_EQ(stats.live_records, static_cast<uint64_t>(kCount - 12));

  uint8_t expect[kPageSize];
  for (int i = 12; i < kCount; ++i) {
    FillNoisePage(expect, 7, static_cast<uint64_t>(i));
    tier->Read(recs[i], buf);
    EXPECT_EQ(std::memcmp(buf, expect, kPageSize), 0) << "record " << i;
    tier->Free(recs[i]);
  }
  stats = tier->stats();
  EXPECT_EQ(stats.live_records, 0u);
}

// Names in `dir`, sorted, without "." and "..".
std::vector<std::string> ListDir(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) {
    return names;
  }
  while (struct dirent* e = readdir(d)) {
    if (std::strcmp(e->d_name, ".") != 0 && std::strcmp(e->d_name, "..") != 0) {
      names.push_back(e->d_name);
    }
  }
  closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::vector<uint8_t> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return bytes;
  }
  uint8_t chunk[1024];
  size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  std::fclose(f);
  return bytes;
}

// The tier is scratch space private to one process: Open succeeds over a
// file it did not write and leaves it byte for byte alone, and the tier's own
// segments never appear in the directory, neither while it runs nor after it
// is gone.
TEST(SpillTierTest, SegmentsAreNamelessAndForeignFilesAreLeftAlone) {
  ScopedSpillDir tmp;
  const std::string dir = tmp.Sub("tier");
  ASSERT_EQ(mkdir(dir.c_str(), 0755), 0);
  const std::string name = "seg-000000.lwspill";
  std::vector<uint8_t> garbage(kPageSize + 123, 0xde);
  FillNoisePage(garbage.data(), 41, 0);
  {
    std::FILE* f = std::fopen((dir + "/" + name).c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(garbage.data(), 1, garbage.size(), f), garbage.size());
    std::fclose(f);
  }
  const std::vector<std::string> only_foreign = {name};
  {
    SpillTierOptions options;
    options.dir = dir;
    options.segment_bytes = SpillTier::kMinSegmentBytes;
    auto tier_or = SpillTier::Open(options);
    ASSERT_TRUE(tier_or.ok()) << tier_or.status().ToString();
    std::unique_ptr<SpillTier> tier = std::move(*tier_or);
    EXPECT_EQ(ReadFile(dir + "/" + name), garbage);

    uint8_t buf[kPageSize];
    std::vector<SpillRecord*> recs;
    for (uint64_t i = 0; i < 45; ++i) {
      FillNoisePage(buf, 43, i);
      recs.push_back(tier->Append(buf, kPageSize, 0));
      ASSERT_NE(recs.back(), nullptr);
    }
    EXPECT_GE(tier->stats().segments, 3u);
    EXPECT_EQ(ListDir(dir), only_foreign);
    uint8_t expect[kPageSize];
    for (uint64_t i = 0; i < recs.size(); ++i) {
      FillNoisePage(expect, 43, i);
      tier->Read(recs[i], buf);
      EXPECT_EQ(std::memcmp(buf, expect, kPageSize), 0) << "record " << i;
    }
  }
  EXPECT_EQ(ListDir(dir), only_foreign);
  EXPECT_EQ(ReadFile(dir + "/" + name), garbage);
}

// --- Store integration ------------------------------------------------------------

TEST(SpillStoreTest, DisabledStoreKeepsSpillCountersAtZero) {
  PageStore store;  // no spill_dir
  EXPECT_FALSE(store.spill_enabled());
  EXPECT_TRUE(store.spill_status().ok());

  uint8_t buf[kPageSize];
  std::vector<PageRef> refs;
  for (uint32_t i = 0; i < 32; ++i) {
    FillNoisePage(buf, 3, i);
    refs.push_back(store.Publish(buf));
  }
  store.CompressAllCold();
  EXPECT_FALSE(store.SpillOneCold());
  EXPECT_EQ(store.SpillAllCold(), 0u);
  store.ReleaseBatch(refs);

  const PageStore::Stats stats = store.stats();
  EXPECT_EQ(stats.spilled_blobs, 0u);
  EXPECT_EQ(stats.spill_bytes, 0u);
  EXPECT_EQ(stats.spills, 0u);
  EXPECT_EQ(stats.faultbacks, 0u);
  EXPECT_EQ(stats.spill_segments, 0u);
  EXPECT_EQ(stats.spill_segments_compacted, 0u);
}

TEST(SpillStoreTest, SpillRoundTripIsBitIdenticalAndKeepsDedupIdentity) {
  ScopedSpillDir tmp;
  PageStoreOptions options;
  options.spill_dir = tmp.Sub("store");
  options.spill_segment_bytes = SpillTier::kMinSegmentBytes;
  PageStore store(options);
  ASSERT_TRUE(store.spill_enabled()) << store.spill_status().ToString();

  // Half compressible (spill at codec size), half incompressible (spill raw).
  constexpr uint32_t kCount = 64;
  uint8_t buf[kPageSize];
  std::vector<PageRef> refs;
  for (uint32_t i = 0; i < kCount; ++i) {
    if (i % 2 == 0) {
      FillPage(buf, 5, i);
    } else {
      FillNoisePage(buf, 5, i);
    }
    refs.push_back(store.Publish(buf));
  }

  store.CompressAllCold();
  uint64_t spilled = store.SpillAllCold();
  EXPECT_EQ(spilled, kCount);
  PageStore::Stats stats = store.stats();
  EXPECT_EQ(stats.spilled_blobs, kCount);
  EXPECT_GT(stats.spill_bytes, 0u);
  EXPECT_GT(stats.spill_segments, 0u);
  EXPECT_LT(stats.bytes_live(), stats.bytes_logical());

  // Every guarded accessor reads back bit-identical content, and the blob
  // stays on disk.
  const PageStore::Stats spilled_stats = stats;
  uint8_t expect[kPageSize], out[kPageSize];
  for (uint32_t i = 0; i < kCount; ++i) {
    if (i % 2 == 0) {
      FillPage(expect, 5, i);
    } else {
      FillNoisePage(expect, 5, i);
    }
    EXPECT_TRUE(refs[i].spilled());
    if (i % 4 < 2) {
      refs[i].CopyTo(out);
      EXPECT_EQ(std::memcmp(out, expect, kPageSize), 0) << "page " << i;
    } else {
      EXPECT_TRUE(refs[i].EqualsPage(expect)) << "page " << i;
    }
    EXPECT_TRUE(refs[i].spilled());
  }
  stats = store.stats();
  EXPECT_EQ(stats.faultbacks, kCount);
  EXPECT_EQ(stats.spilled_blobs, kCount);
  EXPECT_EQ(stats.spill_bytes, spilled_stats.spill_bytes);
  EXPECT_EQ(stats.live_bytes, spilled_stats.live_bytes);

  // The reads handed the ladder nothing back: no blob is left to compress or
  // spill again, and no new segment appears.
  EXPECT_EQ(store.CompressAllCold(), 0u);
  EXPECT_EQ(store.SpillAllCold(), 0u);
  EXPECT_EQ(store.stats().spill_segments, spilled_stats.spill_segments);

  // Dedup identity crosses the RAM/disk boundary: publishing bytes whose blob
  // is on disk collapses to the *same* blob (read from disk to prove the
  // match), which stays on disk.
  FillNoisePage(buf, 5, 1);
  PageRef again = store.Publish(buf);
  EXPECT_EQ(again, refs[1]);
  EXPECT_TRUE(again.spilled());

  again.Reset();
  store.ReleaseBatch(refs);
  stats = store.stats();
  EXPECT_EQ(stats.spilled_blobs, 0u);
  EXPECT_EQ(stats.spill_bytes, 0u);
}

// The one-way ladder's read contract: every read of a compressed blob, and of
// a spilled blob whose record is compressed or raw, returns exact bytes,
// leaves the blob's tier and the store's residency counters unchanged, and
// counts exactly one decode (decompressions for RAM, faultbacks for disk).
TEST(SpillStoreTest, ColdReadsDecodeWhereTheBlobLies) {
  ScopedSpillDir tmp;
  PageStoreOptions options;
  options.spill_dir = tmp.Sub("store");
  options.spill_segment_bytes = SpillTier::kMinSegmentBytes;
  PageStore store(options);
  ASSERT_TRUE(store.spill_enabled()) << store.spill_status().ToString();

  uint8_t comp_page[kPageSize], spill_comp_page[kPageSize], spill_raw_page[kPageSize];
  FillPage(comp_page, 31, 0);
  FillPage(spill_comp_page, 31, 1);
  FillNoisePage(spill_raw_page, 31, 2);
  PageRef spilled_comp = store.Publish(spill_comp_page);
  PageRef spilled_raw = store.Publish(spill_raw_page);
  store.CompressAllCold();
  ASSERT_EQ(store.SpillAllCold(), 2u);
  PageRef compressed = store.Publish(comp_page);
  ASSERT_EQ(store.CompressAllCold(), 1u);
  ASSERT_TRUE(compressed.compressed());
  ASSERT_FALSE(compressed.spilled());
  ASSERT_TRUE(spilled_comp.spilled());
  ASSERT_TRUE(spilled_raw.spilled());
  // One record holds codec bytes, the other a raw page.
  ASSERT_GT(store.stats().spill_bytes, kPageSize);
  ASSERT_LT(store.stats().spill_bytes, 2 * kPageSize);

  struct Case {
    const char* name;
    const PageRef* ref;
    const uint8_t* want;
    bool on_disk;
  };
  const Case cases[] = {{"compressed", &compressed, comp_page, false},
                        {"spilled compressed", &spilled_comp, spill_comp_page, true},
                        {"spilled raw", &spilled_raw, spill_raw_page, true}};
  const char* const kOps[] = {"CopyTo", "EqualsPage", "CopyToIfDifferent", "ReadBytes",
                              "republish"};
  for (const Case& c : cases) {
    for (int op = 0; op < 5; ++op) {
      SCOPED_TRACE(std::string(c.name) + " / " + kOps[op]);
      const bool was_compressed = c.ref->compressed();
      const bool was_spilled = c.ref->spilled();
      const PageStore::Stats before = store.stats();
      uint8_t out[kPageSize];
      std::memset(out, 0xab, kPageSize);
      switch (op) {
        case 0:
          c.ref->CopyTo(out);
          EXPECT_EQ(std::memcmp(out, c.want, kPageSize), 0);
          break;
        case 1:
          EXPECT_TRUE(c.ref->EqualsPage(c.want));
          break;
        case 2:
          EXPECT_TRUE(c.ref->CopyToIfDifferent(out));
          EXPECT_EQ(std::memcmp(out, c.want, kPageSize), 0);
          break;
        case 3:
          c.ref->ReadBytes(100, out, 300);
          EXPECT_EQ(std::memcmp(out, c.want + 100, 300), 0);
          break;
        case 4: {
          PageRef again = store.Publish(c.want);
          EXPECT_EQ(again, *c.ref);
          break;
        }
      }
      const PageStore::Stats after = store.stats();
      EXPECT_EQ(c.ref->compressed(), was_compressed);
      EXPECT_EQ(c.ref->spilled(), was_spilled);
      EXPECT_EQ(after.live_bytes, before.live_bytes);
      EXPECT_EQ(after.peak_live_bytes, before.peak_live_bytes);
      EXPECT_EQ(after.compressed_blobs, before.compressed_blobs);
      EXPECT_EQ(after.spilled_blobs, before.spilled_blobs);
      EXPECT_EQ(after.spill_bytes, before.spill_bytes);
      EXPECT_EQ(after.decompressions - before.decompressions, c.on_disk ? 0u : 1u);
      EXPECT_EQ(after.faultbacks - before.faultbacks, c.on_disk ? 1u : 0u);
    }
  }
  // A republish hit must not put a spilled blob on the raw LRU: the compress
  // rung would read its null payload.
  EXPECT_EQ(store.CompressAllCold(), 0u);
}

// A segment whose space cannot be reserved fails the spill, not a later
// write: Append returns null, the blob stays resident and reads back exactly,
// and the spill rung works again once space returns. RLIMIT_FSIZE below the
// segment size stands in for a full disk (posix_fallocate then fails with
// EFBIG instead of ENOSPC); the limit and the ignored SIGXFSZ are settings of
// this test process only, restored before any assertion.
TEST(SpillStoreTest, SegmentThatCannotBeAllocatedLeavesBlobsResident) {
  ScopedSpillDir tmp;
  PageStoreOptions options;
  options.spill_dir = tmp.Sub("store");
  options.spill_segment_bytes = SpillTier::kMinSegmentBytes;
  PageStore store(options);
  ASSERT_TRUE(store.spill_enabled()) << store.spill_status().ToString();

  constexpr uint32_t kCount = 64;
  uint8_t buf[kPageSize];
  std::vector<PageRef> refs;
  for (uint32_t i = 0; i < kCount; ++i) {
    FillNoisePage(buf, 47, i);
    refs.push_back(store.Publish(buf));
  }
  auto expect_exact = [&refs](bool spilled) {
    uint8_t expect[kPageSize], out[kPageSize];
    for (uint32_t i = 0; i < kCount; ++i) {
      FillNoisePage(expect, 47, i);
      refs[i].CopyTo(out);
      EXPECT_EQ(std::memcmp(out, expect, kPageSize), 0) << "page " << i;
      EXPECT_EQ(refs[i].spilled(), spilled) << "page " << i;
    }
  };

  struct rlimit saved = {};
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &saved), 0);
  struct rlimit limited = saved;
  limited.rlim_cur = SpillTier::kMinSegmentBytes / 2;
  void (*saved_handler)(int) = std::signal(SIGXFSZ, SIG_IGN);
  const int limit_rc = setrlimit(RLIMIT_FSIZE, &limited);
  store.ShrinkTo(0);
  const PageStore::Stats full = store.stats();
  const int restore_rc = setrlimit(RLIMIT_FSIZE, &saved);
  std::signal(SIGXFSZ, saved_handler);
  ASSERT_EQ(limit_rc, 0);
  ASSERT_EQ(restore_rc, 0);

  EXPECT_EQ(full.spills, 0u);
  EXPECT_EQ(full.spilled_blobs, 0u);
  EXPECT_EQ(full.spill_segments, 0u);
  expect_exact(false);

  store.ShrinkTo(0);
  const PageStore::Stats spilled = store.stats();
  EXPECT_EQ(spilled.spills, kCount);
  EXPECT_EQ(spilled.spilled_blobs, kCount);
  expect_exact(true);
  store.ReleaseBatch(refs);
}

TEST(SpillStoreTest, BudgetLadderSpillsOnlyAfterCompressionIsExhausted) {
  ScopedSpillDir tmp;
  PageStoreOptions options;
  options.spill_dir = tmp.Sub("store");
  PageStore store(options);
  ASSERT_TRUE(store.spill_enabled()) << store.spill_status().ToString();

  // All pages compressible: the codec shrinks them far below 4 KiB each.
  constexpr uint32_t kCount = 64;
  uint8_t buf[kPageSize];
  std::vector<PageRef> refs;
  for (uint32_t i = 0; i < kCount; ++i) {
    FillPage(buf, 9, i);
    refs.push_back(store.Publish(buf));
  }
  const uint64_t raw_live = store.stats().bytes_live();

  // A budget compression alone can meet: the spill rung must not run.
  store.ShrinkTo(raw_live / 2);
  PageStore::Stats stats = store.stats();
  EXPECT_LE(stats.bytes_live(), raw_live / 2);
  EXPECT_GT(stats.compressions, 0u);
  EXPECT_EQ(stats.spills, 0u) << "spill rung ran while compression could still pay";

  // A budget below what compression can reach: now the ladder reaches disk.
  store.ShrinkTo(raw_live / 64);
  stats = store.stats();
  EXPECT_GT(stats.spills, 0u);
  EXPECT_GT(stats.spilled_blobs, 0u);
  EXPECT_LT(stats.bytes_live(), raw_live / 2);

  store.ReleaseBatch(refs);
}

// ShrinkTo is one routine whether it runs inline or on the compactor thread:
// the same single-threaded population squeezed to the same target ends in the
// same state either way.
TEST(SpillStoreTest, ShrinkToInlineAndBackgroundEndAlike) {
  struct End {
    uint64_t live_bytes = 0;
    uint64_t compressed_blobs = 0;
    uint64_t spilled_blobs = 0;
  };
  auto run = [](bool background, const std::string& dir) {
    PageStoreOptions options;
    options.spill_dir = dir;
    options.background_compaction = background;
    PageStore store(options);
    EXPECT_TRUE(store.spill_enabled()) << store.spill_status().ToString();
    EXPECT_EQ(store.background_compaction(), background);
    // Half compressible, half noise: the target is out of compression's
    // reach, so the ladder runs both the compress and the spill rung.
    uint8_t buf[kPageSize];
    std::vector<PageRef> refs;
    for (uint32_t i = 0; i < 96; ++i) {
      if (i % 2 == 0) {
        FillPage(buf, 21, i);
      } else {
        FillNoisePage(buf, 21, i);
      }
      refs.push_back(store.Publish(buf));
    }
    store.ShrinkTo(store.stats().bytes_live() / 8);
    store.WaitForCompaction();
    const PageStore::Stats stats = store.stats();
    End end{stats.live_bytes, stats.compressed_blobs, stats.spilled_blobs};
    store.ReleaseBatch(refs);
    return end;
  };
  ScopedSpillDir tmp;
  const End inline_end = run(false, tmp.Sub("inline"));
  const End background_end = run(true, tmp.Sub("background"));
  EXPECT_GT(inline_end.spilled_blobs, 0u);
  EXPECT_EQ(inline_end.live_bytes, background_end.live_bytes);
  EXPECT_EQ(inline_end.compressed_blobs, background_end.compressed_blobs);
  EXPECT_EQ(inline_end.spilled_blobs, background_end.spilled_blobs);
}

// Four threads against one spill-enabled store: readers read spilled blobs
// from disk while a spiller works the cold tails and a churner publishes and
// batch-releases fresh content. No session, no CoW — tsan-safe by construction.
TEST(SpillStoreTest, ConcurrentFaultbackPublishReleaseStorm) {
  ScopedSpillDir tmp;
  PageStoreOptions options;
  options.spill_dir = tmp.Sub("store");
  options.spill_segment_bytes = SpillTier::kMinSegmentBytes;
  auto store = std::make_shared<PageStore>(options);
  ASSERT_TRUE(store->spill_enabled()) << store->spill_status().ToString();

  constexpr uint32_t kShared = 96;
  constexpr int kRounds = 3;
  std::vector<PageRef> shared;
  {
    uint8_t buf[kPageSize];
    for (uint32_t i = 0; i < kShared; ++i) {
      FillNoisePage(buf, 11, i);
      shared.push_back(store->Publish(buf));
    }
  }
  store->CompressAllCold();
  store->SpillAllCold();

  auto reader = [&store, &shared](uint64_t salt_check) {
    uint8_t expect[kPageSize];
    for (int round = 0; round < kRounds; ++round) {
      for (uint32_t i = 0; i < kShared; ++i) {
        FillNoisePage(expect, salt_check, i);
        PageRef local = shared[i];  // refcount bump, lock-free
        EXPECT_TRUE(local.EqualsPage(expect)) << "page " << i;
      }
    }
  };
  auto churner = [&store]() {
    uint8_t buf[kPageSize];
    for (int round = 0; round < kRounds; ++round) {
      std::vector<PageRef> mine;
      for (uint32_t i = 0; i < 48; ++i) {
        FillNoisePage(buf, 100 + static_cast<uint64_t>(round), i);
        mine.push_back(store->Publish(buf));
      }
      store->CompressAllCold();
      store->SpillAllCold();
      store->ReleaseBatch(mine);  // dying spilled blobs are never read back
    }
  };
  auto spiller = [&store]() {
    for (int i = 0; i < 400; ++i) {
      store->CompressOneCold();
      store->SpillOneCold();
      if (i % 97 == 0) {
        store->SpillAllCold();
      }
    }
  };

  std::thread t1(reader, 11);
  std::thread t2(reader, 11);
  std::thread t3(churner);
  std::thread t4(spiller);
  t1.join();
  t2.join();
  t3.join();
  t4.join();

  uint8_t expect[kPageSize];
  for (uint32_t i = 0; i < kShared; ++i) {
    FillNoisePage(expect, 11, i);
    EXPECT_TRUE(shared[i].EqualsPage(expect)) << "page " << i;
  }
  store->ReleaseBatch(shared);
  const PageStore::Stats stats = store->stats();
  EXPECT_EQ(stats.spilled_blobs, 0u);
  EXPECT_EQ(stats.spill_bytes, 0u);
  EXPECT_GT(stats.faultbacks, 0u);
}

// --- E15: over-budget parked population, bit-identical restore --------------------

constexpr int kE15Branches = 12;
constexpr int kE15Pages = 32;

struct E15Config {
  int branches = 0;
  int pages = 0;
};

struct E15Mail {
  uint64_t branch = 0;
  uint64_t checksum = 0;
  uint64_t ok = 0;  // 0 = parked, 1 = restored bit-identical, 2 = corrupt
};

// Fills the branch's trail pages with the xorshift stream for (branch, page).
void E15Fill(uint8_t* buf, int pages, uint64_t branch) {
  for (int p = 0; p < pages; ++p) {
    FillNoisePage(buf + static_cast<size_t>(p) * kPageSize, branch + 1000, p);
  }
}

// Word-by-word comparison against the regenerated stream — no second buffer,
// so the guest arena stays small.
bool E15Matches(const uint8_t* buf, int pages, uint64_t branch) {
  uint8_t expect[kPageSize];
  for (int p = 0; p < pages; ++p) {
    FillNoisePage(expect, branch + 1000, p);
    if (std::memcmp(buf + static_cast<size_t>(p) * kPageSize, expect, kPageSize) != 0) {
      return false;
    }
  }
  return true;
}

// Each guessed branch writes kE15Pages of unique incompressible trail, parks a
// checkpoint, and fails to the next branch. When the host later resumes a
// parked branch (request length > 0), the guest re-verifies its restored trail
// against the regenerated stream and parks the verdict.
void E15Guest(void* arg) {
  const E15Config cfg = *static_cast<const E15Config*>(arg);
  auto* session = static_cast<BacktrackSession*>(CurrentExecutor());
  auto* mail = GuestNew<E15Mail>(session->heap());
  auto* raw = static_cast<uint8_t*>(
      session->heap()->Alloc(static_cast<size_t>(cfg.pages + 1) * kPageSize));
  auto* trail = reinterpret_cast<uint8_t*>(
      (reinterpret_cast<uintptr_t>(raw) + kPageSize - 1) & ~(kPageSize - 1));
  if (sys_guess_strategy(StrategyKind::kDfs)) {
    uint64_t g = static_cast<uint64_t>(sys_guess(cfg.branches));
    E15Fill(trail, cfg.pages, g);
    mail->branch = g;
    mail->checksum = Fnv1a(trail, static_cast<size_t>(cfg.pages) * kPageSize);
    mail->ok = 0;
    sys_note_solution();
    size_t len = sys_yield(mail, sizeof(E15Mail));  // park this branch
    while (len > 0) {
      // Host verification request: the snapshot was restored (possibly from
      // disk) — prove the trail is bit-identical to what was parked. The
      // request bytes landed in the mailbox, so rebuild every field from the
      // restored stack variable g.
      mail->branch = g;
      mail->checksum = Fnv1a(trail, static_cast<size_t>(cfg.pages) * kPageSize);
      mail->ok = E15Matches(trail, cfg.pages, g) ? 1 : 2;
      len = sys_yield(mail, sizeof(E15Mail));  // park the verdict
    }
    sys_guess_fail();
  }
}

struct E15Run {
  uint64_t live_after_park = 0;
  uint64_t logical_after_park = 0;
  uint64_t spilled_blobs = 0;
  uint64_t faultbacks = 0;
  std::map<uint64_t, uint64_t> parked;    // branch -> checksum at park time
  std::map<uint64_t, uint64_t> restored;  // branch -> checksum after restore
};

void RunE15(SnapshotMode mode, const std::string& spill_dir, uint64_t budget, E15Run* out) {
  PageStoreOptions store_options;
  store_options.spill_dir = spill_dir;
  store_options.spill_segment_bytes = SpillTier::kMinSegmentBytes * 4;
  auto store = std::make_shared<PageStore>(store_options);
  if (!spill_dir.empty()) {
    ASSERT_TRUE(store->spill_enabled()) << store->spill_status().ToString();
  }

  SessionOptions options;
  options.arena_bytes = 8ull << 20;
  options.guest_stack_bytes = 256 << 10;
  options.snapshot_mode = mode;
  options.snapshot_byte_budget = budget;
  options.store = store;
  options.output = [](std::string_view) {};

  E15Config cfg{kE15Branches, kE15Pages};
  BacktrackSession session(options);
  Status status = session.Run(&E15Guest, &cfg);
  ASSERT_TRUE(status.ok()) << status.ToString();
  std::vector<Checkpoint> parked = session.TakeNewCheckpoints();
  ASSERT_EQ(parked.size(), static_cast<size_t>(kE15Branches));

  PageStore::Stats stats = store->stats();
  out->live_after_park = stats.bytes_live();
  out->logical_after_park = stats.bytes_logical();
  out->spilled_blobs = stats.spilled_blobs;

  for (Checkpoint& cp : parked) {
    E15Mail mail;
    Status read = session.ReadCheckpointMailbox(cp, &mail, sizeof(mail));
    ASSERT_TRUE(read.ok()) << read.ToString();
    EXPECT_EQ(mail.ok, 0u);
    out->parked[mail.branch] = mail.checksum;
  }

  // Resume every parked branch (spilled pages fault back during restore) and
  // collect the guest's own bit-identity verdict.
  for (Checkpoint& cp : parked) {
    uint8_t req = 1;
    Status resumed = session.Resume(cp, &req, sizeof(req));
    ASSERT_TRUE(resumed.ok()) << resumed.ToString();
    std::vector<Checkpoint> fresh = session.TakeNewCheckpoints();
    ASSERT_EQ(fresh.size(), 1u);
    E15Mail verdict;
    Status read = session.ReadCheckpointMailbox(fresh[0], &verdict, sizeof(verdict));
    ASSERT_TRUE(read.ok()) << read.ToString();
    EXPECT_EQ(verdict.ok, 1u) << "restored trail diverged for branch " << verdict.branch;
    out->restored[verdict.branch] = verdict.checksum;
    Status released = session.ReleaseCheckpoint(fresh[0]);
    ASSERT_TRUE(released.ok()) << released.ToString();
  }
  for (Checkpoint& cp : parked) {
    Status released = session.ReleaseCheckpoint(cp);
    ASSERT_TRUE(released.ok()) << released.ToString();
  }
  out->faultbacks = store->stats().faultbacks;
}

class SpillSessionTest : public ::testing::TestWithParam<SnapshotMode> {};

TEST_P(SpillSessionTest, OverBudgetParkedPopulationRestoresBitIdentical) {
  const SnapshotMode mode = GetParam();
  const char* reason = nullptr;
  if (SkipForMode(mode, &reason)) {
    GTEST_SKIP() << reason;
  }
  ScopedSpillDir tmp;

  // Calibrate: the never-spilled run measures what the population logically
  // holds; the spilled run then gets a RAM budget an order of magnitude
  // smaller than that.
  E15Run base;
  RunE15(mode, "", 0, &base);
  if (::testing::Test::HasFatalFailure()) {
    return;
  }
  ASSERT_EQ(base.parked.size(), static_cast<size_t>(kE15Branches));
  EXPECT_EQ(base.spilled_blobs, 0u);
  EXPECT_EQ(base.faultbacks, 0u);
  // /12 keeps the budget above the store's irreducible floor (spilled-blob
  // headers stay resident) while the logical population is still ≥ 10×.
  const uint64_t budget = base.live_after_park / 12;
  ASSERT_GT(budget, 0u);

  E15Run spilled;
  RunE15(mode, tmp.Sub("run"), budget, &spilled);
  if (::testing::Test::HasFatalFailure()) {
    return;
  }

  // The ladder kept residency under the budget while the parked population
  // logically holds ≥ 10× the budget — the spill tier's whole point.
  EXPECT_LE(spilled.live_after_park, budget);
  EXPECT_GE(spilled.logical_after_park, 10 * budget);
  EXPECT_GT(spilled.spilled_blobs, 0u);
  EXPECT_GT(spilled.faultbacks, 0u);

  // Bit-identity: park-time checksums match the never-spilled run, and every
  // restore-from-disk reproduced them exactly.
  EXPECT_EQ(spilled.parked, base.parked);
  EXPECT_EQ(spilled.restored, spilled.parked);
  EXPECT_EQ(base.restored, base.parked);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, SpillSessionTest,
                         ::testing::Values(SnapshotMode::kCow, SnapshotMode::kFullCopy,
                                           SnapshotMode::kIncremental, SnapshotMode::kSoftDirty,
                                           SnapshotMode::kAdaptive),
                         [](const ::testing::TestParamInfo<SnapshotMode>& info) {
                           return SnapshotModeName(info.param);
                         });

}  // namespace
}  // namespace lw
