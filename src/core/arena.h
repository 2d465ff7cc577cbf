// GuestArena: the guest-visible "address space" — a contiguous mmap'd region with
// page-granular write protection driving copy-on-write dirty tracking.
//
// Layout (addresses grow right; the stack grows down from the top):
//
//   base                                                        base + size
//   | control block + guest heap ............ | guard | guest stack |
//
// Protection protocol (CoW mode):
//   * Invariant between engine operations: every non-guard page is PROT_READ
//     unless it is in the dirty set (then PROT_READ|PROT_WRITE).
//   * A write to a protected page raises SIGSEGV; the process-global handler maps
//     the fault to its arena, marks the page dirty, and grants write access.
//   * Guard pages are PROT_NONE forever; a fault there is a guest stack overflow
//     and aborts loudly (matches the libOS's job of catching runaway extensions).
//
// The handler runs on a sigaltstack because the faulting thread's stack is the
// *guest* stack, whose pages may themselves be write-protected — pushing a signal
// frame there would double-fault. The alternate stack is a *per-thread*
// resource: every worker thread that drives a CoW session installs its own via
// EnsureThreadSignalStack.
//
// Signal state is installed *lazily*: constructing an arena only registers it
// for fault lookup; the process-global SIGSEGV handler and the constructing
// thread's sigaltstack are installed on the first SetCowEnabled(true). An
// application that only ever runs fault-free modes (fullcopy, incremental,
// soft-dirty) never has its SIGSEGV disposition or signal stacks touched —
// see the NeedsSignalProtocol() invariant in src/snapshot/engine.h.
//
// Thread model: one thread drives a given arena at a time (sessions are
// thread-affine), but arenas on different worker threads coexist and fault
// concurrently — the process-global registry the handler consults is lock-free
// on the read (signal) side and mutex-serialized on the register/unregister
// side.

#ifndef LWSNAP_SRC_CORE_ARENA_H_
#define LWSNAP_SRC_CORE_ARENA_H_

#include <cstddef>
#include <cstdint>

#include "src/snapshot/dirty_tracker.h"
#include "src/snapshot/page_store.h"
#include "src/util/status.h"

namespace lw {

// Installs (once per thread) the alternate signal stack the SIGSEGV handler
// runs on. SetCowEnabled(true) calls it for the enabling thread; sessions
// whose engine needs the signal protocol call it on every Drive (covering
// cross-thread hand-off). Cheap after the first call. Fault-free configurations never call it.
void EnsureThreadSignalStack();

class GuestArena {
 public:
  struct Layout {
    size_t arena_bytes = 64ull << 20;
    size_t stack_bytes = 1ull << 20;
    size_t guard_bytes = 16 * kPageSize;
  };

  explicit GuestArena(const Layout& layout);
  ~GuestArena();

  GuestArena(const GuestArena&) = delete;
  GuestArena& operator=(const GuestArena&) = delete;

  uint8_t* base() const { return base_; }
  size_t size() const { return size_; }
  uint32_t num_pages() const { return num_pages_; }

  uint8_t* PageAddr(uint32_t page) const { return base_ + (static_cast<size_t>(page) << kPageShift); }
  uint32_t PageOf(const void* addr) const {
    return static_cast<uint32_t>((static_cast<const uint8_t*>(addr) - base_) >> kPageShift);
  }
  bool Contains(const void* addr) const {
    const uint8_t* p = static_cast<const uint8_t*>(addr);
    return p >= base_ && p < base_ + size_;
  }

  // Heap region (starts at base; the guest heap control block lives at its head).
  uint8_t* heap_base() const { return base_; }
  size_t heap_bytes() const { return heap_bytes_; }

  // Stack region (top of the arena).
  uint8_t* stack_base() const { return base_ + size_ - stack_bytes_; }
  size_t stack_bytes() const { return stack_bytes_; }

  bool InGuard(uint32_t page) const { return page >= guard_lo_ && page < guard_hi_; }
  uint32_t guard_lo() const { return guard_lo_; }
  uint32_t guard_hi() const { return guard_hi_; }

  // CoW mode switch. When disabled (the fault-free modes), the arena stays
  // fully writable and no faults are taken. The first enable installs the
  // process-global SIGSEGV handler + this thread's sigaltstack, then protects
  // everything; disabling makes all non-guard pages writable again. Engines
  // may toggle this mid-life (the adaptive engine does).
  void SetCowEnabled(bool enabled);
  bool cow_enabled() const { return cow_enabled_; }

  // Write-protects every non-guard page and clears the dirty set (establishes the
  // protocol invariant from scratch).
  void ProtectAll();

  // Re-protects exactly the currently dirty pages and clears the dirty set.
  // Cheaper than ProtectAll after a snapshot: cost ∝ dirty pages.
  void ReprotectDirty();

  // As ReprotectDirty, but pages with skip[page] != 0 stay writable (the
  // session's hot-page prediction: pages dirtied on almost every extension are
  // cheaper to copy eagerly than to re-fault). `skip` must cover num_pages().
  void ReprotectDirtyExcept(const uint8_t* skip);

  // Grants/revokes write access to one page (used around engine-side page copies).
  void UnprotectPage(uint32_t page);
  void ProtectPage(uint32_t page);

  // Range forms: one mprotect syscall over `count` contiguous pages starting at
  // `page`. The range must not span the guard (callers coalesce restore sets,
  // and guard pages never appear in those). Restore batching uses these to pay
  // O(runs) syscalls instead of O(pages) — see
  // SnapshotEngine::RestoreFaults.
  void UnprotectRange(uint32_t page, uint32_t count);
  void ProtectRange(uint32_t page, uint32_t count);

  DirtyTracker& dirty() { return dirty_; }
  const DirtyTracker& dirty() const { return dirty_; }

  uint64_t cow_faults() const { return cow_faults_; }

  // ASan only (no-op otherwise): clears shadow poison over the whole arena.
  // Instrumented guest code poisons redzones around its stack locals; once the
  // guest parks, the engines legitimately read/write those pages wholesale
  // (zero probes, content scans, restores), which ASan would flag. Called by
  // the session every time control returns from the guest; the only cost is
  // losing redzone checks *inside* parked guest frames.
  void UnpoisonShadow();

  // Called from the signal handler. Async-signal-safe.
  void HandleWriteFault(void* addr);

 private:
  static void EnsureGlobalHandlerInstalled();

  uint8_t* base_ = nullptr;
  size_t size_ = 0;
  size_t heap_bytes_ = 0;
  size_t stack_bytes_ = 0;
  uint32_t num_pages_ = 0;
  uint32_t guard_lo_ = 0;
  uint32_t guard_hi_ = 0;
  bool cow_enabled_ = false;  // enabled lazily by the engines that fault
  uint64_t cow_faults_ = 0;
  DirtyTracker dirty_;
};

}  // namespace lw

#endif  // LWSNAP_SRC_CORE_ARENA_H_
