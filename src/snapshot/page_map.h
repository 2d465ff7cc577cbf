// PageMap: the immutable address-space image of a snapshot — a mapping from guest
// page index to PageRef, stored as a persistent radix tree. Sharing a map is
// O(1); a point update copies only the *shared* part of the page's spine (a
// map that owns the whole path is updated in place); diff skips pointer-equal
// subtrees, so nearby snapshots diff in O(pages that differ · log). This is
// the paper's "space-efficient encoding" of the parent relationship (§3.1);
// DESIGN.md's E7 section records the ablation that chose it. Set and
// ReleaseInto rely on the radix map's thread-affinity invariant
// (src/util/radix_map.h): every copy of a map is driven by one thread at a
// time, which session-owned snapshot maps satisfy.
//
// Identity: two map entries are equal iff they reference the same blob. Blobs are
// immutable, so pointer equality implies content equality (the converse need not
// hold, which only costs an occasional redundant page copy on restore).

#ifndef LWSNAP_SRC_SNAPSHOT_PAGE_MAP_H_
#define LWSNAP_SRC_SNAPSHOT_PAGE_MAP_H_

#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/snapshot/page_store.h"
#include "src/util/radix_map.h"

namespace lw {

class PageMap {
 public:
  explicit PageMap(uint32_t num_pages = 0) : radix_(num_pages) {}

  // Copying *is* sharing: O(1), the root is shared.
  PageMap(const PageMap&) = default;
  PageMap& operator=(const PageMap&) = default;
  PageMap(PageMap&&) = default;
  PageMap& operator=(PageMap&&) = default;

  uint32_t num_pages() const { return radix_.capacity(); }

  // Borrowed read: no refcount traffic. An unset page reads as the invalid
  // ref. Valid until the next Set/ReleaseInto/assignment on this map; copy
  // the PageRef to keep it longer.
  const PageRef& Peek(uint32_t page) const { return radix_.Peek(page); }

  // Moves through PersistentRadixMap's rvalue Set: the ref lands in the leaf
  // without an atomic bump/drop pair per page.
  void Set(uint32_t page, PageRef ref) { radix_.Set(page, std::move(ref)); }

  // Explicit release: moves every ref this map uniquely owns into `*drain`
  // and empties the map, for batch-grained reclamation via
  // PageStore::ReleaseBatch. Walks only the owned spine — subtrees shared
  // with sibling snapshots are dropped with one refcount decrement and never
  // descended (returns the radix nodes visited, so callers can assert the
  // O(delta · height) bound).
  size_t ReleaseInto(std::vector<PageRef>* drain) { return radix_.ReleaseInto(drain); }

  // Invokes fn(page, mine, theirs) for every page where the two maps reference
  // different blobs. Both maps must have the same page count.
  template <typename Fn>
  void Diff(const PageMap& other, Fn&& fn) const {
    radix_.Diff(other.radix_, std::forward<Fn>(fn));
  }

  // Approximate host bytes consumed by this map's own structure (excluding blobs,
  // and counting radix nodes shared with other maps once per map).
  size_t StructureBytes() const { return radix_.CountNodes() * kFanoutNodeBytes; }

  // Structure bytes *new to this map* relative to everything already counted
  // through `seen`: accumulating over a snapshot family counts each shared
  // radix node exactly once. The honest residency metric for E7.
  size_t UniqueStructureBytes(std::unordered_set<const void*>* seen) const {
    return radix_.CountUniqueNodes(seen) * kFanoutNodeBytes;
  }

 private:
  static constexpr size_t kFanoutNodeBytes =
      PersistentRadixMap<PageRef>::kFanout * (sizeof(void*) * 2 + sizeof(PageRef));

  PersistentRadixMap<PageRef> radix_;
};

}  // namespace lw

#endif  // LWSNAP_SRC_SNAPSHOT_PAGE_MAP_H_
