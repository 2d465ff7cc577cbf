#include "src/service/prolog_service.h"

#include <cstring>
#include <string>

#include "src/prolog/machine.h"
#include "src/util/vec.h"

namespace lw {

namespace {

constexpr uint8_t kStatusOk = 0;
constexpr uint8_t kStatusQueryError = 1;
constexpr uint8_t kStatusMalformed = 2;

// status u8 + truncated u8 + pad u16 + solutions u64 + text_len u32.
constexpr size_t kResponseHeaderSize = 16;

// Appends a goal-conjunction chunk to the accumulated query, normalizing away
// a trailing terminator so chunks compose with ", " into one conjunction.
void AppendGoals(Vec<char>* goals, const char* text, size_t len) {
  while (len > 0 && (text[len - 1] == ' ' || text[len - 1] == '\t' || text[len - 1] == '\n')) {
    --len;
  }
  if (len > 0 && text[len - 1] == '.') {
    --len;
  }
  if (goals->size() > 0 && len > 0) {
    goals->push_back(',');
    goals->push_back(' ');
  }
  for (size_t i = 0; i < len; ++i) {
    goals->push_back(text[i]);
  }
}

void WriteResponse(GuestMailbox& mailbox, uint8_t status, uint64_t solutions,
                   const char* text, size_t text_len, bool truncated_already) {
  WireWriter w(mailbox.data(), mailbox.capacity());
  size_t text_cap = mailbox.capacity() - kResponseHeaderSize;
  bool truncated = truncated_already;
  if (text_len > text_cap) {
    text_len = text_cap;
    truncated = true;
  }
  w.u8(status);
  w.u8(truncated ? 1 : 0);
  w.u8(0);
  w.u8(0);
  w.u64(solutions);
  w.u32(static_cast<uint32_t>(text_len));
  w.bytes(text, text_len);
  LW_CHECK_MSG(!w.overflowed(), "prolog service response overflowed the mailbox");
}

}  // namespace

// Guest-side body. The only state that survives a Park is the accumulated
// conjunction in `goals` (arena memory, snapshot-branched); the machine and
// every std:: container are constructed and destroyed strictly between parks
// (host-heap state must never cross a checkpoint — see src/service/host.h).
void PrologService::Serve(GuestMailbox& mailbox, void* arg) {
  auto* boot = static_cast<Boot*>(arg);
  LW_CHECK_MSG(mailbox.capacity() >= 256, "prolog service mailbox too small");

  Vec<char> goals;
  AppendGoals(&goals, boot->query->data(), boot->query->size());

  uint8_t malformed = 0;
  while (true) {
    if (malformed != 0) {
      const char kMsg[] = "request framing rejected by the guest decoder";
      WriteResponse(mailbox, kStatusMalformed, 0, kMsg, sizeof(kMsg) - 1, false);
    } else {
      // Prove the accumulated conjunction with a fresh machine.
      PrologOptions prolog_options;
      prolog_options.max_inferences = boot->max_inferences;
      PrologMachine machine(prolog_options);
      machine.set_output([](std::string_view) {});  // write/1 is not part of the wire protocol

      uint8_t status = kStatusOk;
      uint64_t solutions = 0;
      std::string text;
      Status consulted = machine.Consult(*boot->program);
      if (!consulted.ok()) {
        status = kStatusQueryError;
        text = consulted.ToString();
      } else {
        std::string query_text(goals.data(), goals.size());
        uint32_t reported = 0;
        auto on_solution = [&text, &reported, boot](const PrologMachine::Bindings& bindings) {
          if (reported < boot->max_reported_solutions) {
            std::string line;
            for (const auto& [name, value] : bindings) {
              if (!line.empty()) {
                line += ", ";
              }
              line += name + " = " + value;
            }
            text += line;
            text += '\n';
            ++reported;
          }
          return true;
        };
        Result<uint64_t> proved = machine.Query(query_text, on_solution);
        if (!proved.ok()) {
          status = kStatusQueryError;
          text = proved.status().ToString();
        } else {
          solutions = *proved;
        }
      }
      WriteResponse(mailbox, status, solutions, text.data(), text.size(), false);
    }

    size_t len = mailbox.Park();
    WireReader req(mailbox.data(), len);
    uint32_t goals_len = 0;
    if (!req.u32(&goals_len) || static_cast<size_t>(goals_len) > req.remaining()) {
      malformed = 1;
      continue;
    }
    AppendGoals(&goals, reinterpret_cast<const char*>(mailbox.data()) + 4, goals_len);
    malformed = 0;
  }
}

PrologService::PrologService(Options options)
    : options_(std::move(options)), host_(options_.tuning) {
  boot_.max_inferences = options_.max_inferences;
  boot_.max_reported_solutions = options_.max_reported_solutions;
}

Result<PrologService::Outcome> PrologService::BuildOutcome(Checkpoint checkpoint) {
  uint8_t hdr[kResponseHeaderSize];
  LW_RETURN_IF_ERROR(host_.ReadResponse(checkpoint, hdr, sizeof(hdr)));
  WireReader r(hdr, sizeof(hdr));
  uint8_t status = 0;
  uint8_t truncated = 0;
  uint8_t pad = 0;
  uint64_t solutions = 0;
  uint32_t text_len = 0;
  r.u8(&status);
  r.u8(&truncated);
  r.u8(&pad);
  r.u8(&pad);
  r.u64(&solutions);
  r.u32(&text_len);
  if (!r.ok() || kResponseHeaderSize + static_cast<size_t>(text_len) > host_.mailbox_capacity()) {
    return Internal("prolog service: corrupt response header");
  }
  std::vector<uint8_t> full(kResponseHeaderSize + text_len);
  LW_RETURN_IF_ERROR(host_.ReadResponse(checkpoint, full.data(), full.size()));
  std::string text(full.begin() + kResponseHeaderSize, full.end());

  if (status != kStatusOk) {
    // The flagged node carries rejected/unprovable state; drop it so it can
    // never be extended. The parent handle (if any) is untouched.
    LW_RETURN_IF_ERROR(host_.Release(checkpoint));
    return InvalidArgument("prolog service: " + text);
  }
  Outcome outcome;
  outcome.solutions = solutions;
  outcome.bindings = std::move(text);
  outcome.bindings_truncated = truncated != 0;
  outcome.token = std::move(checkpoint);
  return outcome;
}

Result<PrologService::Outcome> PrologService::SolveRoot(std::string_view program,
                                                        std::string_view query) {
  if (host_.booted()) {
    return BadState("prolog service: root query already proved");
  }
  boot_program_.assign(program);
  boot_query_.assign(query);
  boot_.program = &boot_program_;
  boot_.query = &boot_query_;
  auto checkpoint = host_.Boot(&Serve, &boot_);
  if (!checkpoint.ok()) {
    return checkpoint.status();
  }
  return BuildOutcome(*std::move(checkpoint));
}

Result<PrologService::Outcome> PrologService::Extend(const Checkpoint& parent,
                                                     std::string_view goals) {
  if (!host_.booted()) {
    return BadState("prolog service: prove the root query first");
  }
  if (4 + goals.size() > host_.mailbox_capacity()) {
    return InvalidArgument("prolog service: goals exceed mailbox capacity");
  }
  std::vector<uint8_t> msg(4 + goals.size());
  uint32_t len32 = static_cast<uint32_t>(goals.size());
  std::memcpy(msg.data(), &len32, 4);
  std::memcpy(msg.data() + 4, goals.data(), goals.size());
  auto checkpoint = host_.Extend(parent, msg.data(), msg.size());
  if (!checkpoint.ok()) {
    return checkpoint.status();
  }
  return BuildOutcome(*std::move(checkpoint));
}

Status PrologService::Release(Checkpoint& token) { return host_.Release(token); }

}  // namespace lw
