#include "src/service/symx_service.h"

#include <cstring>

#include "src/core/guest_heap.h"
#include "src/symx/value.h"
#include "src/util/vec.h"

namespace lw {

namespace {

constexpr uint8_t kFlagTakenFeasible = 1u << 0;
constexpr uint8_t kFlagFallFeasible = 1u << 1;
constexpr uint8_t kFlagMalformedRequest = 1u << 2;

// kind u8 + flags u8 + pad u16 + pc u32 + depth u32 + steps u64 + count u32.
constexpr size_t kResponseHeaderSize = 24;

// Guest-side per-service state; any value that must survive a Park lives
// either here (arena via GuestNew/Vec) or on the guest stack as POD.
struct GuestCtx {
  ExprPool* pool = nullptr;
  SymVm* vm = nullptr;
  PathChecker* checker = nullptr;  // host-side; safe to call synchronously
  uint8_t malformed = 0;

  size_t ParkState(GuestMailbox& mailbox, SymxService::StateKind kind, uint8_t flags,
                   const Vec<uint32_t>* witness) {
    WireWriter w(mailbox.data(), mailbox.capacity());
    w.u8(static_cast<uint8_t>(kind));
    w.u8(static_cast<uint8_t>(flags | (malformed != 0 ? kFlagMalformedRequest : 0)));
    w.u8(0);
    w.u8(0);
    w.u32(vm->pc());
    w.u32(vm->branch_depth());
    w.u64(vm->steps());
    uint32_t count = witness != nullptr ? static_cast<uint32_t>(witness->size()) : 0;
    // The witness must fit the mailbox; cap it rather than corrupt the frame.
    size_t wit_cap = (mailbox.capacity() - kResponseHeaderSize) / 4;
    if (count > wit_cap) {
      count = static_cast<uint32_t>(wit_cap);
    }
    w.u32(count);
    for (uint32_t i = 0; i < count; ++i) {
      w.u32((*witness)[i]);
    }
    LW_CHECK_MSG(!w.overflowed(), "symx service response overflowed the mailbox");
    return mailbox.Park();
  }

  // Parks a terminal state forever: every resume reproduces the same outcome
  // (nothing advances past a completed/killed path or a concrete violation).
  [[noreturn]] void TerminalLoop(GuestMailbox& mailbox, SymxService::StateKind kind,
                                 const Vec<uint32_t>& witness) {
    malformed = 0;
    while (true) {
      ParkState(mailbox, kind, 0, &witness);
    }
  }

  // Copies a feasibility witness into arena memory so it can live across
  // parks (host-heap vectors must not).
  static void CopyWitness(const Result<CheckResult>& result, Vec<uint32_t>* out) {
    if (result.ok() && result->sat) {
      for (uint32_t v : result->inputs) {
        out->push_back(v);
      }
    }
  }
};

}  // namespace

void SymxService::Serve(GuestMailbox& mailbox, void* arg) {
  auto* boot = static_cast<Boot*>(arg);
  GuestHeap* heap = mailbox.heap();

  GuestCtx ctx;
  ctx.pool = GuestNew<ExprPool>(heap);
  ctx.vm = GuestNew<SymVm>(heap, boot->program, ctx.pool, boot->vm);
  ctx.checker = boot->checker;
  LW_CHECK_MSG(ctx.pool != nullptr && ctx.vm != nullptr, "arena too small for symbolic VM");
  SymVm* vm = ctx.vm;

  while (true) {
    VmEvent event = vm->Run();
    switch (event) {
      case VmEvent::kHalted: {
        Vec<uint32_t> none;
        ctx.TerminalLoop(mailbox, StateKind::kCompleted, none);
      }
      case VmEvent::kStepLimit:
      case VmEvent::kBadAccess: {
        Vec<uint32_t> none;
        ctx.TerminalLoop(mailbox, StateKind::kKilled, none);
      }
      case VmEvent::kAssertFailedConcrete: {
        Vec<uint32_t> witness;  // arena copy: survives parks
        {
          auto model = ctx.checker->Check(*ctx.pool, vm->path_constraints().data(),
                                          vm->path_constraints().size());
          GuestCtx::CopyWitness(model, &witness);
        }  // host-heap solver results die before the park
        ctx.TerminalLoop(mailbox, StateKind::kViolation, witness);
      }
      case VmEvent::kAssertCheck: {
        ExprRef operand = vm->assert_operand();
        bool can_fail = false;
        bool can_hold = false;
        Vec<uint32_t> witness;
        {
          auto bad = ctx.checker->CheckWithZero(*ctx.pool, vm->path_constraints().data(),
                                                vm->path_constraints().size(), operand);
          auto good = ctx.checker->Check(*ctx.pool, vm->path_constraints().data(),
                                         vm->path_constraints().size(), operand);
          can_fail = bad.ok() && bad->sat;  // only a definite model is a violation
          can_hold = !good.ok() || good->sat;  // budget hit: keep the path alive
          GuestCtx::CopyWitness(bad, &witness);
        }
        if (can_fail && !can_hold) {
          ctx.TerminalLoop(mailbox, StateKind::kViolation, witness);
        }
        if (!can_fail && !can_hold) {
          // Contradictory path: the assert can neither hold nor fail.
          Vec<uint32_t> none;
          ctx.TerminalLoop(mailbox, StateKind::kKilled, none);
        }
        if (can_fail) {
          // Explorable violation: park it; any resume continues past the
          // assert assuming it held.
          while (true) {
            size_t len = ctx.ParkState(mailbox, StateKind::kViolation, 0, &witness);
            WireReader req(mailbox.data(), len);
            uint8_t direction = 0;
            if (!req.u8(&direction) || direction > 1) {
              ctx.malformed = 1;
              continue;
            }
            ctx.malformed = 0;
            break;
          }
        }
        vm->AssumeAssertHolds();
        break;
      }
      case VmEvent::kSymbolicBranch: {
        bool taken_sat = false;
        bool fall_sat = false;
        {
          ExprRef cond = vm->branch_cond();
          auto taken_ok = ctx.checker->Check(*ctx.pool, vm->path_constraints().data(),
                                             vm->path_constraints().size(), cond);
          auto fall_ok = ctx.checker->CheckWithZero(*ctx.pool, vm->path_constraints().data(),
                                                    vm->path_constraints().size(), cond);
          taken_sat = !taken_ok.ok() || taken_ok->sat;  // budget hit: assume feasible
          fall_sat = !fall_ok.ok() || fall_ok->sat;
        }  // host-heap solver results die before the park
        if (!taken_sat && !fall_sat) {
          Vec<uint32_t> none;
          ctx.TerminalLoop(mailbox, StateKind::kKilled, none);
        }
        uint8_t flags = static_cast<uint8_t>((taken_sat ? kFlagTakenFeasible : 0) |
                                             (fall_sat ? kFlagFallFeasible : 0));
        while (true) {
          size_t len = ctx.ParkState(mailbox, StateKind::kBranch, flags, nullptr);
          WireReader req(mailbox.data(), len);
          uint8_t direction = 0;
          if (!req.u8(&direction) || direction > 1) {
            ctx.malformed = 1;
            continue;
          }
          ctx.malformed = 0;
          vm->TakeBranch(direction == 1);
          break;
        }
        break;
      }
    }
  }
}

SymxService::SymxService(Options options)
    : options_(std::move(options)),
      host_(options_.tuning),
      checker_(std::make_unique<PathChecker>(options_.solver_conflict_budget)) {
  boot_.vm = options_.vm;
  boot_.checker = checker_.get();
}

Result<SymxService::Outcome> SymxService::BuildOutcome(Checkpoint checkpoint) {
  uint8_t hdr[kResponseHeaderSize];
  LW_RETURN_IF_ERROR(host_.ReadResponse(checkpoint, hdr, sizeof(hdr)));
  WireReader r(hdr, sizeof(hdr));
  uint8_t kind = 0;
  uint8_t flags = 0;
  uint8_t pad = 0;
  uint32_t pc = 0;
  uint32_t depth = 0;
  uint64_t steps = 0;
  uint32_t witness_count = 0;
  r.u8(&kind);
  r.u8(&flags);
  r.u8(&pad);
  r.u8(&pad);
  r.u32(&pc);
  r.u32(&depth);
  r.u64(&steps);
  r.u32(&witness_count);
  if (!r.ok() || kind > static_cast<uint8_t>(StateKind::kViolation) ||
      kResponseHeaderSize + 4ull * witness_count > host_.mailbox_capacity()) {
    return Internal("symx service: corrupt response header");
  }
  if ((flags & kFlagMalformedRequest) != 0) {
    LW_RETURN_IF_ERROR(host_.Release(checkpoint));
    return InvalidArgument("symx service: malformed request rejected by the guest decoder");
  }
  std::vector<uint8_t> full(kResponseHeaderSize + 4ull * witness_count);
  LW_RETURN_IF_ERROR(host_.ReadResponse(checkpoint, full.data(), full.size()));

  Outcome outcome;
  outcome.kind = static_cast<StateKind>(kind);
  outcome.pc = pc;
  outcome.depth = depth;
  outcome.steps = steps;
  outcome.taken_feasible = (flags & kFlagTakenFeasible) != 0;
  outcome.fall_feasible = (flags & kFlagFallFeasible) != 0;
  outcome.witness.resize(witness_count);
  if (witness_count > 0) {
    std::memcpy(outcome.witness.data(), full.data() + kResponseHeaderSize,
                4ull * witness_count);
  }
  outcome.token = std::move(checkpoint);
  return outcome;
}

Result<SymxService::Outcome> SymxService::BootProgram(const Program& program) {
  if (host_.booted()) {
    return BadState("symx service: program already booted");
  }
  boot_.program = &program;
  auto checkpoint = host_.Boot(&Serve, &boot_);
  if (!checkpoint.ok()) {
    return checkpoint.status();
  }
  return BuildOutcome(*std::move(checkpoint));
}

Result<SymxService::Outcome> SymxService::TakeBranch(const Checkpoint& parent, bool taken) {
  if (!host_.booted()) {
    return BadState("symx service: boot a program first");
  }
  uint8_t direction = taken ? 1 : 0;
  auto checkpoint = host_.Extend(parent, &direction, 1);
  if (!checkpoint.ok()) {
    return checkpoint.status();
  }
  return BuildOutcome(*std::move(checkpoint));
}

Status SymxService::Release(Checkpoint& token) { return host_.Release(token); }

}  // namespace lw
