#include "sat_mix.h"

#include <unordered_map>
#include <utility>

#include "src/util/rng.h"

namespace perfbench {
namespace {

constexpr uint64_t kBaseSeed = 1;

}  // namespace

SatProblem MakeSatProblem() {
  lw::Rng rng(kBaseSeed);
  SatProblem problem;
  problem.base = lw::RandomKSat(&rng, kSatVars, kSatClauses, 3);
  problem.base_bytes = Encode(problem.base.clauses);
  return problem;
}

std::vector<uint8_t> Encode(const std::vector<std::vector<lw::Lit>>& clauses) {
  std::vector<uint8_t> bytes;
  lw::Status status = lw::EncodeSolverRequest(clauses, 0, &bytes);
  LW_CHECK_MSG(status.ok(), "benchmark request failed to encode");
  return bytes;
}

OpOutcome OpOutcome::Of(const lw::SolverService::Outcome& outcome) {
  OpOutcome out;
  out.result = outcome.result.raw();
  out.num_vars = outcome.num_vars;
  out.conflicts = outcome.conflicts;
  out.model_bits = outcome.model_bits;
  return out;
}

double ConflictsPerExtend(const std::vector<OpRecord>& log, uint64_t root_conflicts) {
  std::unordered_map<uint32_t, uint64_t> conflicts = {{0, root_conflicts}};
  uint64_t added = 0;
  uint64_t extends = 0;
  for (const OpRecord& op : log) {
    if (op.release) {
      continue;
    }
    conflicts[op.node] = op.outcome.conflicts;
    added += op.outcome.conflicts - conflicts.at(op.parent);
    ++extends;
  }
  return Ratio(static_cast<double>(added), static_cast<double>(extends));
}

namespace internal {

std::vector<lw::Lit> RandomCube(lw::Rng* rng) {
  const auto a = static_cast<lw::Var>(rng->Below(kSatVars));
  auto b = static_cast<lw::Var>(rng->Below(kSatVars - 1));
  if (b >= a) {
    ++b;  // two distinct variables
  }
  return {lw::MakeLit(a, rng->Below(2) != 0), lw::MakeLit(b, rng->Below(2) != 0)};
}

bool ModelSatisfies(const lw::Cnf& base, const std::vector<lw::Lit>& path, const OpOutcome& out) {
  std::vector<bool> assignment(out.num_vars);
  for (uint32_t v = 0; v < out.num_vars; ++v) {
    const size_t byte = v / 8;
    assignment[v] = byte < out.model_bits.size() && ((out.model_bits[byte] >> (v % 8)) & 1) != 0;
  }
  lw::Cnf cubes;
  for (lw::Lit lit : path) {
    cubes.AddClause({lit});
  }
  return base.IsSatisfiedBy(assignment) && cubes.IsSatisfiedBy(assignment);
}

}  // namespace internal

DirectBackend::DirectBackend(lw::SolverService* service, lw::Checkpoint root, bool traced)
    : service_(service), traced_(traced) {
  nodes_.push_back(std::move(root));
}

void DirectBackend::Begin(Call* call) {
  if (traced_) {
    before_ = EngineCounters::Of(service_->session_stats());
    release_before_ = service_->store().release_stats();
  }
  call->start_ns = NowNs();
}

void DirectBackend::End(Call* call) {
  call->dur_ns = NowNs() - call->start_ns;
  if (!traced_) {
    return;
  }
  call->engine = EngineCounters::Of(service_->session_stats()) - before_;
  const lw::PageStore::ReleaseStats after = service_->store().release_stats();
  call->release_batches = after.release_batches - release_before_.release_batches;
  call->release_shard_locks = after.release_shard_locks - release_before_.release_shard_locks;
  calls_.push_back(*call);
}

bool DirectBackend::Extend(uint32_t parent, uint32_t node, const std::vector<uint8_t>& bytes,
                           OpOutcome* out) {
  if (node >= nodes_.size()) {
    nodes_.resize(node + 1);
  }
  Call call;
  Begin(&call);
  auto result = service_->ExtendEncoded(nodes_[parent], bytes.data(), bytes.size());
  End(&call);
  if (!result.ok()) {
    return false;
  }
  *out = OpOutcome::Of(*result);
  nodes_[node] = std::move(result->token);
  return true;
}

bool DirectBackend::Release(uint32_t node) {
  if (node >= nodes_.size()) {
    return false;
  }
  Call call;
  call.release = true;
  Begin(&call);
  const lw::Status status = service_->Release(nodes_[node]);
  End(&call);
  return status.ok();
}

void Summarize(const std::vector<DirectBackend::Call>& calls, const std::vector<OpRecord>& log,
               DirectSummary* into) {
  for (size_t i = 0; i < calls.size() && i < log.size(); ++i) {
    const DirectBackend::Call& call = calls[i];
    if (!log[i].timed) {
      continue;
    }
    if (call.release) {
      into->release_us.push_back(static_cast<double>(call.dur_ns) / 1e3);
      into->release_batches += call.release_batches;
      into->release_shard_locks += call.release_shard_locks;
      continue;
    }
    into->engine += call.engine;
    into->span_ns += call.dur_ns;
    into->guest_us.push_back(
        static_cast<double>(SelfNs(call.dur_ns, {call.engine.snapshot_ns, call.engine.restore_ns})) /
        1e3);
  }
}

void SetDirectMetrics(Report* report, const DirectSummary& direct) {
  const EngineCounters& e = direct.engine;
  report->Set("session.self_ns_per_ext",
              Ratio(static_cast<double>(SelfNs(direct.span_ns, {e.snapshot_ns, e.restore_ns})),
                    static_cast<double>(e.extensions)));
  SetEngineMetrics(report, e);
  report->Set("store.release_us_p50", Median(direct.release_us));
  report->Set("store.shard_locks_per_release_batch",
              Ratio(static_cast<double>(direct.release_shard_locks),
                    static_cast<double>(direct.release_batches)));
}

void AddDirectSpans(const std::vector<DirectBackend::Call>& calls, const char* replay,
                    uint32_t tenant, std::vector<Span>* spans) {
  for (size_t i = 0; i < calls.size(); ++i) {
    const DirectBackend::Call& call = calls[i];
    Span span;
    span.name = call.release ? "store.release" : "host.extend";
    span.replay = replay;
    span.tenant = tenant;
    span.seq = i;
    span.start_ns = call.start_ns;
    span.dur_ns = call.dur_ns;
    if (call.release) {
      span.counters = {{"release_batches", static_cast<int64_t>(call.release_batches)},
                       {"release_shard_locks", static_cast<int64_t>(call.release_shard_locks)}};
    } else {
      span.counters = {{"snapshot_ns", call.engine.snapshot_ns},
                       {"restore_ns", call.engine.restore_ns},
                       {"pages_materialized", call.engine.pages_materialized},
                       {"pages_restored", call.engine.pages_restored}};
    }
    spans->push_back(std::move(span));
  }
}

}  // namespace perfbench
