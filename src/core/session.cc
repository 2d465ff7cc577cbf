#include "src/core/session.h"

#include <atomic>
#include <cstdio>
#include <cstring>

#include "src/util/timer.h"

namespace lw {
namespace {

thread_local GuessExecutor* g_current_executor = nullptr;

std::atomic<uint64_t> g_next_session_uid{1};

void DefaultOutput(std::string_view text) {
  std::fwrite(text.data(), 1, text.size(), stdout);
}

}  // namespace

GuessExecutor* CurrentExecutor() { return g_current_executor; }
void SetCurrentExecutor(GuessExecutor* executor) { g_current_executor = executor; }

std::string SessionStats::ToString() const {
  char buf[1536];
  std::snprintf(buf, sizeof(buf),
                "guesses=%llu snapshots=%llu restores=%llu exts=%llu fail=%llu done=%llu "
                "sol=%llu pages_mat=%llu pages_rst=%llu zero_dedup=%llu content_dedup=%llu "
                "xsession_dedup=%llu cold_blobs=%llu incr_scan=%llu incr_copy=%llu "
                "dirty_src=%s mat_by=%llu/%llu/%llu/%llu pagemap_reads=%llu sd_clears=%llu "
                "adaptive_switches=%llu rst_mprotect=%llu rst_runs=%llu rst_skip=%llu "
                "rel_batches=%llu rel_blobs=%llu rel_locks=%llu "
                "spilled=%llu spill_bytes=%llu faultbacks=%llu spill_compactions=%llu "
                "snap_us=%.1f restore_us=%.1f",
                static_cast<unsigned long long>(guesses),
                static_cast<unsigned long long>(snapshots),
                static_cast<unsigned long long>(restores),
                static_cast<unsigned long long>(extensions_evaluated),
                static_cast<unsigned long long>(failures),
                static_cast<unsigned long long>(completions),
                static_cast<unsigned long long>(solutions),
                static_cast<unsigned long long>(pages_materialized),
                static_cast<unsigned long long>(pages_restored),
                static_cast<unsigned long long>(zero_dedup_hits),
                static_cast<unsigned long long>(content_dedup_hits),
                static_cast<unsigned long long>(cross_session_dedup_hits),
                static_cast<unsigned long long>(compressed_blobs),
                static_cast<unsigned long long>(incr_pages_scanned),
                static_cast<unsigned long long>(incr_pages_copied),
                DirtySourceName(dirty_source),  // faults/scan/pagemap/full order below
                static_cast<unsigned long long>(materializes_by_faults),
                static_cast<unsigned long long>(materializes_by_scan),
                static_cast<unsigned long long>(materializes_by_pagemap),
                static_cast<unsigned long long>(materializes_by_full),
                static_cast<unsigned long long>(pagemap_entries_read),
                static_cast<unsigned long long>(soft_dirty_clears),
                static_cast<unsigned long long>(adaptive_switches),
                static_cast<unsigned long long>(restore_mprotect_calls),
                static_cast<unsigned long long>(restore_runs_coalesced),
                static_cast<unsigned long long>(pages_restore_skipped),
                static_cast<unsigned long long>(release_batches),
                static_cast<unsigned long long>(blobs_recycled_batched),
                static_cast<unsigned long long>(release_shard_locks),
                static_cast<unsigned long long>(spilled_blobs),
                static_cast<unsigned long long>(spill_bytes),
                static_cast<unsigned long long>(faultbacks),
                static_cast<unsigned long long>(spill_segments_compacted),
                static_cast<double>(snapshot_ns) / 1e3, static_cast<double>(restore_ns) / 1e3);
  return buf;
}

BacktrackSession::BacktrackSession(SessionOptions options)
    : options_(std::move(options)),
      arena_(GuestArena::Layout{options_.arena_bytes, options_.guest_stack_bytes,
                                16 * kPageSize}) {
  if (!options_.output) {
    options_.output = &DefaultOutput;
  }
  strategy_ = MakeStrategy(options_.strategy);
  session_uid_ = g_next_session_uid.fetch_add(1, std::memory_order_relaxed);
  ledger_ = std::make_shared<internal::CheckpointLedger>();

  store_ = options_.store != nullptr ? options_.store
                                     : std::make_shared<PageStore>(options_.store_options);
  store_owner_ = store_->RegisterOwner();

  SnapshotEngine::Env env;
  env.arena = &arena_;
  env.store = store_.get();
  env.owner = store_owner_;
  env.stats = &stats_;
  env.hot_page_limit = options_.hot_page_limit;  // the engine applies it under kCow only
  engine_ = MakeSnapshotEngine(options_.snapshot_mode, env);

  // Heap construction happens *after* the engine establishes its invariant: in
  // CoW mode its writes fault and enter the dirty set like any guest write; in
  // the fault-free modes they are picked up by the first materialization.
  heap_ = GuestHeap::Init(arena_.heap_base(), arena_.heap_bytes());
}

BacktrackSession::~BacktrackSession() {
  // Outstanding handles become inert: their future drops must not touch the
  // pending-reclaim queue of a dead session.
  ledger_->Detach();
  // Release every page reference before the store is destroyed (members
  // declared after store_ destruct first, but strategy frontiers and
  // checkpoints also hold snapshot refs — drop them deterministically, each
  // through the O(spine) batch path). A shared store survives this session;
  // only its refs are returned. An external strategy's frontier lives in the
  // host-owned scheduler, not here — Pop would re-enter host code, so its
  // refs drop with the scheduler instead.
  if (strategy_ != nullptr && strategy_->kind() != StrategyKind::kExternal) {
    while (std::optional<Extension> ext = strategy_->Pop()) {
      ReclaimSnapshot(std::move(ext->snapshot));
    }
  }
  strategy_.reset();
  for (auto& [token, snap] : checkpoints_) {
    ReclaimSnapshot(std::move(snap));
  }
  checkpoints_.clear();
  ReclaimSnapshot(std::move(pending_snapshot_));
  ReclaimSnapshot(std::move(scope_snapshot_));
  ReclaimSnapshot(std::move(cur_snapshot_));
  engine_.reset();  // drops the current map's refs (also batched)
}

void BacktrackSession::AddAttachment(SessionAttachment* attachment) {
  LW_CHECK_MSG(!started_, "attachments must be added before Run");
  attachments_.push_back(attachment);
}

// ---------------------------------------------------------------------------
// Host-side drive loop.
// ---------------------------------------------------------------------------

void BacktrackSession::GuestTrampoline() {
  static_cast<BacktrackSession*>(CurrentExecutor())->GuestMain();
}

void BacktrackSession::GuestMain() {
  guest_fn_(guest_arg_);
  event_ = GuestEvent::kCompleted;
  setcontext(&sched_ctx_);
  LW_CHECK_MSG(false, "setcontext to scheduler failed");
}

Status BacktrackSession::Run(GuestFn fn, void* arg) {
  LW_CHECK_MSG(!started_, "BacktrackSession::Run may be called once");
  LW_CHECK_MSG(fn != nullptr, "guest function required");
  started_ = true;
  guest_fn_ = fn;
  guest_arg_ = arg;

  LW_CHECK(getcontext(&root_ctx_) == 0);
  root_ctx_.uc_stack.ss_sp = arena_.stack_base();
  root_ctx_.uc_stack.ss_size = arena_.stack_bytes();
  root_ctx_.uc_link = nullptr;
  makecontext(&root_ctx_, &GuestTrampoline, 0);

  return Drive([this] {
    cur_snapshot_.reset();
    cur_depth_ = 0;
    SwapToGuest(&root_ctx_);
  });
}

Status BacktrackSession::Resume(const Checkpoint& checkpoint, const void* msg, size_t len) {
  LW_CHECK_MSG(!driving_, "Resume is only legal between drives");
  DrainReleasedCheckpoints();
  LW_RETURN_IF_ERROR(ValidateHandle(checkpoint));
  auto it = checkpoints_.find(checkpoint.id());
  if (it == checkpoints_.end()) {
    return NotFound("unknown checkpoint token");
  }
  SnapshotRef snap = it->second;
  if (len > snap->mailbox_cap) {
    return InvalidArgument("message exceeds checkpoint mailbox capacity");
  }
  return Drive([this, snap, msg, len] {
    RestoreTo(*snap);
    if (len > 0) {
      // A plain memcpy: under the faults source the write faults and the
      // handler marks the mailbox pages dirty; under the other sources the next
      // materialization detects the changed bytes. Either way it behaves
      // exactly as a guest write would.
      std::memcpy(snap->mailbox, msg, len);
    }
    cur_snapshot_ = snap;
    cur_depth_ = snap->depth;
    resume_value_ = static_cast<int>(len);
    ++stats_.resumes;
    SwapToGuest(&snap->uctx);
  });
}

Status BacktrackSession::Drive(const std::function<void()>& first_transfer) {
  // The session may have been constructed on a different thread (e.g. a pool
  // dispatching to workers); the CoW fault handler needs this thread's
  // alternate signal stack in place before any guest write can fault. Skipped
  // — not merely unused — for fault-free modes (fullcopy, incremental,
  // soft-dirty): those sessions never perturb process signal state.
  if (engine_->NeedsSignalProtocol()) {
    EnsureThreadSignalStack();
  }
  ScopedExecutor scoped(this);
  driving_ = true;
  first_transfer();
  Status result = OkStatus();
  while (true) {
    HandleGuestEvent();
    if (options_.max_extensions != 0 && stats_.extensions_evaluated >= options_.max_extensions) {
      result = Exhausted("max_extensions cap reached; session is no longer usable");
      break;
    }
    std::optional<Extension> next = strategy_->Pop();
    if (next.has_value()) {
      EvaluateExtension(std::move(*next));
      continue;
    }
    if (scope_active_) {
      // Search space under the scope is exhausted: deliver the one-time `false`
      // return of sys_guess_strategy (Figure 1's exit path).
      scope_active_ = false;
      SnapshotRef scope = std::move(scope_snapshot_);
      scope_snapshot_.reset();
      RestoreTo(*scope);
      cur_snapshot_ = scope;
      cur_depth_ = scope->depth;
      resume_value_ = 0;
      SwapToGuest(&scope->uctx);
      continue;
    }
    break;
  }
  driving_ = false;
  return result;
}

void BacktrackSession::HandleGuestEvent() {
  GuestEvent event = event_;
  event_ = GuestEvent::kNone;
  switch (event) {
    case GuestEvent::kNone:
      break;
    case GuestEvent::kGuessPending: {
      SnapshotRef snap = std::move(pending_snapshot_);
      MaterializeInto(snap);
      // Reverse value order: with a LIFO strategy, extension 0 runs first,
      // matching sequential fork semantics (§3).
      for (int i = pending_count_ - 1; i >= 0; --i) {
        Extension ext;
        ext.snapshot = snap;
        ext.value = i;
        ext.depth = snap->depth + 1;
        if (pending_costs_ != nullptr) {
          ext.g = pending_costs_[i].g;
          ext.h = pending_costs_[i].h;
        } else {
          ext.g = static_cast<double>(ext.depth);  // uniform cost fallback
        }
        ext.seq = next_seq_++;
        strategy_->Push(std::move(ext));
      }
      pending_costs_ = nullptr;
      EnforceBudget();
      break;
    }
    case GuestEvent::kScopePending: {
      SnapshotRef snap = std::move(pending_snapshot_);
      MaterializeInto(snap);
      scope_snapshot_ = snap;
      scope_active_ = true;
      Extension ext;
      ext.snapshot = snap;
      ext.value = 1;  // the `true` path
      ext.depth = snap->depth + 1;
      ext.seq = next_seq_++;
      strategy_->Push(std::move(ext));
      break;
    }
    case GuestEvent::kYieldPending: {
      SnapshotRef snap = std::move(pending_snapshot_);
      MaterializeInto(snap);
      checkpoints_[snap->id] = snap;
      new_checkpoints_.push_back(snap->id);
      ++stats_.checkpoints;
      // Parked checkpoints are what a long-running service accumulates; they
      // must drive the residency ladder too, or a guess-free service would
      // never spill (checkpoint pages are exactly the cold population the
      // spill tier exists for).
      EnforceBudget();
      break;
    }
    case GuestEvent::kFailed:
      ++stats_.failures;
      break;
    case GuestEvent::kCompleted:
      ++stats_.completions;
      if (options_.buffer_output && !out_buffer_.empty()) {
        options_.output(out_buffer_);
      }
      break;
  }
}

void BacktrackSession::EvaluateExtension(Extension ext) {
  RestoreTo(*ext.snapshot);
  cur_snapshot_ = ext.snapshot;
  cur_depth_ = ext.depth;
  resume_value_ = ext.value;
  ++stats_.extensions_evaluated;
  SwapToGuest(&ext.snapshot->uctx);
}

void BacktrackSession::SwapToGuest(ucontext_t* target) {
  in_guest_ = true;
  // Swap the guest's allocation hooks in for the duration of guest execution;
  // scheduler-side allocations (snapshot materialization, strategy frontier)
  // must never land in the guest heap, and vice versa.
  const AllocHooks host_hooks = CurrentAllocHooks();
  SetAllocHooks(guest_hooks_);
  LW_CHECK(swapcontext(&sched_ctx_, target) == 0);
  guest_hooks_ = CurrentAllocHooks();
  SetAllocHooks(host_hooks);
  in_guest_ = false;
  // The guest just parked: drop ASan's redzone poison from its stack frames so
  // the engine's whole-page reads/writes of the arena are clean (no-op outside
  // sanitized builds).
  arena_.UnpoisonShadow();
}

// ---------------------------------------------------------------------------
// Snapshot capture/restore: page mechanics are the engine's; the session adds
// the search-level envelope (attachments, output marks, counters, timing).
// ---------------------------------------------------------------------------

SnapshotRef BacktrackSession::NewSnapshotShell(SnapshotKind kind) {
  SnapshotRef snap = std::make_shared<Snapshot>();
  snap->id = next_snapshot_id_++;
  snap->kind = kind;
  snap->parent = cur_snapshot_;
  snap->depth = cur_depth_;
  return snap;
}

void BacktrackSession::EnforceBudget() {
  engine_->EnforceByteBudget(options_.snapshot_byte_budget, [this] {
    std::optional<Extension> evicted = strategy_->EvictWorst();
    if (!evicted.has_value()) {
      return false;
    }
    ++stats_.evictions;
    // Reclaim through the batch path so eviction storms under a tight
    // budget pay O(shards touched) lock acquisitions, not O(dying blobs).
    ReclaimSnapshot(std::move(evicted->snapshot));
    return true;
  });
}

void BacktrackSession::MaterializeInto(const SnapshotRef& snap) {
  StopWatch sw;
  engine_->Materialize(*snap);
  snap->aux.reserve(attachments_.size());
  for (SessionAttachment* attachment : attachments_) {
    snap->aux.push_back(attachment->Capture());
  }
  snap->out_mark = out_buffer_.size();
  ++stats_.snapshots;
  stats_.snapshot_ns += sw.ElapsedNanos();
}

void BacktrackSession::RestoreTo(const Snapshot& snap) {
  StopWatch sw;
  engine_->Restore(snap);
  for (size_t i = 0; i < attachments_.size(); ++i) {
    attachments_[i]->Restore(i < snap.aux.size() ? snap.aux[i] : nullptr);
  }
  if (options_.buffer_output) {
    out_buffer_.resize(snap.out_mark);
  }
  ++stats_.restores;
  stats_.restore_ns += sw.ElapsedNanos();
}

// ---------------------------------------------------------------------------
// Guest-side system-call surface.
// ---------------------------------------------------------------------------

int BacktrackSession::OnGuess(int n, const GuessCost* costs) {
  LW_CHECK_MSG(in_guest_, "sys_guess called outside guest execution");
  ++stats_.guesses;
  if (n <= 0) {
    OnFail();
  }
  // CAUTION: this frame lives on the guest stack and is captured by the snapshot;
  // it must hold no host RAII objects (a shared_ptr local here would be restored
  // and re-destroyed once per resume). Ownership stays in host-side members.
  pending_snapshot_ = NewSnapshotShell(SnapshotKind::kGuess);
  ucontext_t* uctx = &pending_snapshot_->uctx;
  pending_count_ = n;
  pending_costs_ = costs;
  event_ = GuestEvent::kGuessPending;
  // The scheduler materialises the snapshot *after* this switch, when the guest
  // stack is quiescent — so the page image exactly matches the saved registers.
  LW_CHECK(swapcontext(uctx, &sched_ctx_) == 0);
  return resume_value_;
}

void BacktrackSession::OnFail() {
  LW_CHECK_MSG(in_guest_, "sys_guess_fail called outside guest execution");
  event_ = GuestEvent::kFailed;
  setcontext(&sched_ctx_);
  LW_CHECK_MSG(false, "setcontext to scheduler failed");
  __builtin_unreachable();
}

bool BacktrackSession::OnStrategyScope(StrategyKind kind) {
  LW_CHECK_MSG(in_guest_, "sys_guess_strategy called outside guest execution");
  LW_CHECK_MSG(!scope_active_, "nested sys_guess_strategy scopes are not supported");
  LW_CHECK_MSG(strategy_->Empty(), "sys_guess_strategy requires an empty frontier");
  if (kind != strategy_->kind()) {
    LW_CHECK_MSG(kind != StrategyKind::kExternal || options_.strategy.external != nullptr,
                 "kExternal requires an ExternalScheduler configured on the session");
    StrategyConfig config = options_.strategy;
    config.kind = kind;
    strategy_ = MakeStrategy(config);
  }
  pending_snapshot_ = NewSnapshotShell(SnapshotKind::kScope);  // no guest-stack RAII (see OnGuess)
  ucontext_t* uctx = &pending_snapshot_->uctx;
  event_ = GuestEvent::kScopePending;
  LW_CHECK(swapcontext(uctx, &sched_ctx_) == 0);
  return resume_value_ != 0;
}

size_t BacktrackSession::OnYield(void* mailbox, size_t cap) {
  LW_CHECK_MSG(in_guest_, "sys_yield called outside guest execution");
  LW_CHECK_MSG(cap == 0 || arena_.Contains(mailbox), "yield mailbox must live in the arena");
  pending_snapshot_ = NewSnapshotShell(SnapshotKind::kCheckpoint);  // no guest-stack RAII
  pending_snapshot_->mailbox = static_cast<uint8_t*>(mailbox);
  pending_snapshot_->mailbox_cap = cap;
  ucontext_t* uctx = &pending_snapshot_->uctx;
  event_ = GuestEvent::kYieldPending;
  LW_CHECK(swapcontext(uctx, &sched_ctx_) == 0);
  return static_cast<size_t>(resume_value_);
}

void BacktrackSession::OnNoteSolution() { ++stats_.solutions; }

void BacktrackSession::OnEmit(const void* data, size_t len) {
  if (options_.buffer_output) {
    out_buffer_.append(static_cast<const char*>(data), len);
  } else {
    EmitNow(std::string_view(static_cast<const char*>(data), len));
  }
}

void BacktrackSession::EmitNow(std::string_view text) { options_.output(text); }

// ---------------------------------------------------------------------------
// Checkpoint plumbing.
// ---------------------------------------------------------------------------

Status BacktrackSession::ValidateHandle(const Checkpoint& checkpoint) const {
  if (!checkpoint.valid()) {
    return InvalidArgument("empty checkpoint handle (moved-from or already released)");
  }
  if (checkpoint.session_uid() != session_uid_) {
    return InvalidArgument("checkpoint handle belongs to a different session");
  }
  switch (ledger_->Lookup(checkpoint.id(), checkpoint.generation())) {
    case internal::CheckpointLedger::Probe::kLive:
      return OkStatus();
    case internal::CheckpointLedger::Probe::kStaleGeneration:
      return InvalidArgument("stale checkpoint handle (generation mismatch)");
    case internal::CheckpointLedger::Probe::kReleased:
      return NotFound("checkpoint already released");
  }
  return Internal("unreachable");
}

void BacktrackSession::DrainReleasedCheckpoints() {
  for (uint64_t token : ledger_->TakePendingReclaims()) {
    auto it = checkpoints_.find(token);
    if (it == checkpoints_.end()) {
      continue;
    }
    SnapshotRef snap = std::move(it->second);
    checkpoints_.erase(it);
    ReclaimSnapshot(std::move(snap));
  }
}

void BacktrackSession::ReclaimSnapshot(SnapshotRef snap) {
  if (snap == nullptr) {
    return;
  }
  if (!options_.batched_release) {
    snap.reset();  // per-ref baseline: the destructor cascade releases blobs one by one
    return;
  }
  // Walk the parent chain iteratively while this was the last reference:
  // each uniquely-owned map contributes only its owned spine (shared radix
  // subtrees are dropped with a single refcount decrement, never descended)
  // and its dying page refs land in the drain. Iteration also keeps deep
  // checkpoint chains off the call stack — the shared_ptr cascade would
  // recurse once per ancestor.
  while (snap != nullptr && snap.use_count() == 1) {
    snap->map.ReleaseInto(&release_drain_);
    SnapshotRef parent = std::move(snap->parent);
    snap.reset();
    snap = std::move(parent);
  }
  snap.reset();
  if (release_drain_.empty()) {
    return;
  }
  store_->ReleaseBatch(release_drain_);
  // Release happens after the last SyncStoreStats of the drive; re-mirror the
  // store-wide release counters so stats()/ToString() see this batch. Three
  // relaxed loads — not the full Stats copy — since this runs per reclaim.
  const PageStore::ReleaseStats s = store_->release_stats();
  stats_.release_batches = s.release_batches;
  stats_.blobs_recycled_batched = s.blobs_recycled_batched;
  stats_.release_shard_locks = s.release_shard_locks;
}

std::vector<Checkpoint> BacktrackSession::TakeNewCheckpoints() {
  DrainReleasedCheckpoints();
  std::vector<uint64_t> tokens;
  tokens.swap(new_checkpoints_);
  std::vector<Checkpoint> out;
  out.reserve(tokens.size());
  for (uint64_t token : tokens) {
    out.push_back(Checkpoint(ledger_, session_uid_, token, ledger_->Mint(token)));
  }
  return out;
}

Status BacktrackSession::ReadCheckpointMailbox(const Checkpoint& checkpoint, void* out,
                                               size_t len) const {
  LW_RETURN_IF_ERROR(ValidateHandle(checkpoint));
  auto it = checkpoints_.find(checkpoint.id());
  if (it == checkpoints_.end()) {
    return NotFound("unknown checkpoint token");
  }
  const Snapshot& snap = *it->second;
  if (len > snap.mailbox_cap) {
    return OutOfRange("read exceeds mailbox capacity");
  }
  // Read from the immutable page image, not live memory: the snapshot is the
  // source of truth regardless of what has executed since.
  uint8_t* dst = static_cast<uint8_t*>(out);
  size_t offset = static_cast<size_t>(snap.mailbox - arena_.base());
  size_t remaining = len;
  while (remaining > 0) {
    uint32_t page = static_cast<uint32_t>(offset >> kPageShift);
    size_t in_page = offset & (kPageSize - 1);
    size_t chunk = kPageSize - in_page;
    if (chunk > remaining) {
      chunk = remaining;
    }
    const PageRef& ref = snap.map.Peek(page);
    LW_CHECK(ref.valid());
    ref.ReadBytes(in_page, dst, chunk);
    dst += chunk;
    offset += chunk;
    remaining -= chunk;
  }
  return OkStatus();
}

Status BacktrackSession::ReleaseCheckpoint(Checkpoint& checkpoint) {
  DrainReleasedCheckpoints();
  LW_RETURN_IF_ERROR(ValidateHandle(checkpoint));
  if (ledger_->ReleaseRef(checkpoint.id())) {
    auto it = checkpoints_.find(checkpoint.id());
    if (it != checkpoints_.end()) {
      SnapshotRef snap = std::move(it->second);
      checkpoints_.erase(it);
      ReclaimSnapshot(std::move(snap));
    }
  }
  // The session consumed this handle's reference; disarm so its destructor
  // does not drop a second one.
  checkpoint.Disarm();
  return OkStatus();
}

void BacktrackSession::ReadGuest(const void* guest_ptr, void* out, size_t len) const {
  LW_CHECK(arena_.Contains(guest_ptr));
  LW_CHECK(len == 0 || arena_.Contains(static_cast<const uint8_t*>(guest_ptr) + len - 1));
  std::memcpy(out, guest_ptr, len);
}

}  // namespace lw
