// The what-if op mix shared by remote_sat and spill_sat.
//
// One RandomKSat(1000 vars, 3000 clauses) base, well under the 4.26 hardness
// peak so solver time stays a minority of an Extend. The base is the same for
// every run: conflicts per Extend differ up to threefold between random bases
// and would set the latency tail, so the run's seed drives the tenants'
// what-if streams instead. A tenant then loops, closed (one request
// outstanding):
//   1. Extend a random held node less than kMaxDepth cubes below the base
//      with a 2-literal what-if cube;
//   2. keep SAT results, Release UNSAT ones;
//   3. when more than kMaxHeld nodes are held, Release a random held leaf
//      (a non-root node none of whose children is held).
// A held node with held children shares all its pages with them, so its
// Release frees nothing and takes ~3 us against ~40–80 us for a leaf; picking
// any non-root node made about 40% of Releases free ones, which put the
// Release p50 on the gap between the two and moved it from 10 to 56 us
// between stretches of one run on a 4-vCPU VM. An explorer drops the
// what-ifs it is done with and keeps their prefixes, so it releases leaves.
// Every SAT model is checked against base ∧ the cubes on its path.
//
// A backend exposes the service under test as numbered nodes: node 0 is the
// solved base and every Extend names the node it creates, so a replay of the
// recorded log lines up node for node.

#ifndef PERFBENCH_SAT_MIX_H_
#define PERFBENCH_SAT_MIX_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "src/solver/cnf.h"
#include "src/solver/service.h"

namespace perfbench {

inline constexpr int32_t kSatVars = 1000;
inline constexpr size_t kSatClauses = 3000;
inline constexpr size_t kMaxHeld = 64;
// Without a depth cap the held paths drift deeper for the whole run (each
// kept SAT result is one cube deeper than its parent), towards the
// satisfiability threshold, so conflicts per Extend climb as the run goes on
// (to ~15 on average after 4000 Extends for some seeds). At 16 cubes (32 fixed
// literals of 1000) an Extend costs ~3 conflicts and 1–3% of them are UNSAT.
inline constexpr size_t kMaxDepth = 16;
// First touch of the arenas, the store and (remotely) the fleet: timed out of
// the measurement, still checked.
inline constexpr int kWarmupExtends = 20;

struct SatProblem {
  lw::Cnf base;
  std::vector<uint8_t> base_bytes;  // EncodeSolverRequest(base.clauses)
};
SatProblem MakeSatProblem();

std::vector<uint8_t> Encode(const std::vector<std::vector<lw::Lit>>& clauses);

// An Extend's result as both paths report it, compared field for field.
struct OpOutcome {
  uint8_t result = 0;  // LBool raw
  uint32_t num_vars = 0;
  uint64_t conflicts = 0;
  std::vector<uint8_t> model_bits;

  bool operator==(const OpOutcome& o) const {
    return result == o.result && num_vars == o.num_vars && conflicts == o.conflicts &&
           model_bits == o.model_bits;
  }
  static OpOutcome Of(const lw::SolverService::Outcome& outcome);
};

// One operation of a tenant, as recorded for the replays.
struct OpRecord {
  bool release = false;
  uint32_t node = 0;    // Extend: the node it created; Release: the node released
  uint32_t parent = 0;  // Extend only
  std::vector<uint8_t> bytes;  // Extend request, verbatim
  OpOutcome outcome;
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  bool timed = false;  // false during warm-up
};

// Completions per stretch of MedianRate: about a third of a second of
// remote_sat, more than a second of spill_sat.
inline constexpr size_t kRateChunk = 200;

struct TenantRun {
  std::vector<double> extend_us;   // timed Extends
  std::vector<int64_t> extend_done_ns;  // their completion times
  std::vector<double> release_us;  // timed Releases
  uint64_t attempted = 0;
  std::vector<OpRecord> log;  // every successful op, when recording
  std::vector<const char*> failures;
};

// Backend: bool Extend(uint32_t parent, uint32_t node, const std::vector<uint8_t>&, OpOutcome*)
//          bool Release(uint32_t node)
// `start_timing` is called once warm-up is done and returns the deadline.
template <class Backend>
void RunTenant(Backend& backend, const lw::Cnf& base, uint64_t rng_seed, bool record,
               const std::function<int64_t()>& start_timing, TenantRun* run);

// Replays `log` on `backend`, returning how many outcomes differ from the
// recorded ones (or failed).
template <class Backend>
uint64_t Replay(Backend& backend, const std::vector<OpRecord>& log);

// Mean solver conflicts an Extend adds to its parent's (a count the snapshot
// machinery must never move).
double ConflictsPerExtend(const std::vector<OpRecord>& log, uint64_t root_conflicts);

// An in-process SolverService as a backend. With `traced`, every call is
// recorded with the SessionStats and release counters read around it.
class DirectBackend {
 public:
  struct Call {
    bool release = false;
    int64_t start_ns = 0;
    int64_t dur_ns = 0;
    EngineCounters engine;  // delta over the call
    uint64_t release_batches = 0;
    uint64_t release_shard_locks = 0;
  };

  DirectBackend(lw::SolverService* service, lw::Checkpoint root, bool traced);

  bool Extend(uint32_t parent, uint32_t node, const std::vector<uint8_t>& bytes,
              OpOutcome* out);
  bool Release(uint32_t node);
  // Drops every held handle (before the service goes away).
  void Clear() { nodes_.clear(); }

  const std::vector<Call>& calls() const { return calls_; }

 private:
  void Begin(Call* call);
  void End(Call* call);

  lw::SolverService* service_;
  std::vector<lw::Checkpoint> nodes_;
  bool traced_;
  std::vector<Call> calls_;
  EngineCounters before_;
  lw::PageStore::ReleaseStats release_before_;
};

// Per-Extend figures of traced DirectBackend passes, over the timed ops.
struct DirectSummary {
  EngineCounters engine;          // summed over Extends
  std::vector<double> guest_us;   // Extend span − materialize − restore
  std::vector<double> release_us;
  int64_t span_ns = 0;            // summed Extend spans
  uint64_t release_batches = 0;
  uint64_t release_shard_locks = 0;
};
// Adds the calls of one pass; call i is the op log[i].
void Summarize(const std::vector<DirectBackend::Call>& calls, const std::vector<OpRecord>& log,
               DirectSummary* into);

// session.self_ns_per_ext, engine.*, store.release_us_p50 and
// store.shard_locks_per_release_batch.
void SetDirectMetrics(Report* report, const DirectSummary& direct);

// Appends one span per traced direct call; a call's seq is its index, which
// is its op's index in the tenant's log.
void AddDirectSpans(const std::vector<DirectBackend::Call>& calls, const char* replay,
                    uint32_t tenant, std::vector<Span>* spans);

// ---------------------------------------------------------------------------

namespace internal {
std::vector<lw::Lit> RandomCube(lw::Rng* rng);
bool ModelSatisfies(const lw::Cnf& base, const std::vector<lw::Lit>& path, const OpOutcome& out);
}  // namespace internal

template <class Backend>
void RunTenant(Backend& backend, const lw::Cnf& base, uint64_t rng_seed, bool record,
               const std::function<int64_t()>& start_timing, TenantRun* run) {
  struct Held {
    uint32_t node;
    uint32_t parent;
    std::vector<lw::Lit> path;
  };
  lw::Rng rng(rng_seed);
  std::vector<Held> held;
  held.push_back({0, 0, {}});
  std::unordered_map<uint32_t, uint32_t> held_children;  // node → held children
  uint32_t next_node = 1;
  int warm = 0;
  bool timing = false;
  int64_t deadline = 0;

  auto release = [&](uint32_t node) {
    const int64_t t0 = NowNs();
    const bool ok = backend.Release(node);
    const int64_t t1 = NowNs();
    ++run->attempted;
    if (!ok) {
      run->failures.push_back("release failed");
      return;
    }
    if (timing) {
      run->release_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    }
    if (record) {
      OpRecord rec;
      rec.release = true;
      rec.node = node;
      rec.start_ns = t0;
      rec.dur_ns = t1 - t0;
      rec.timed = timing;
      run->log.push_back(std::move(rec));
    }
  };

  while (true) {
    if (!timing && warm >= kWarmupExtends) {
      deadline = start_timing();
      timing = true;
    }
    if (timing && NowNs() >= deadline) {
      break;
    }
    size_t pick = 0;
    do {
      pick = rng.Below(held.size());
    } while (held[pick].path.size() >= 2 * kMaxDepth);  // the root always qualifies
    std::vector<lw::Lit> cube = internal::RandomCube(&rng);
    std::vector<uint8_t> bytes = Encode({{cube[0]}, {cube[1]}});
    OpOutcome out;
    const int64_t t0 = NowNs();
    const uint32_t node = next_node++;
    const bool ok = backend.Extend(held[pick].node, node, bytes, &out);
    const int64_t t1 = NowNs();
    ++run->attempted;
    ++warm;
    if (!ok) {
      run->failures.push_back("extend failed");
      continue;
    }
    if (timing) {
      run->extend_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      run->extend_done_ns.push_back(t1);
    }
    std::vector<lw::Lit> path = held[pick].path;
    path.insert(path.end(), cube.begin(), cube.end());
    if (record) {
      OpRecord rec;
      rec.node = node;
      rec.parent = held[pick].node;
      rec.bytes = std::move(bytes);
      rec.outcome = out;
      rec.start_ns = t0;
      rec.dur_ns = t1 - t0;
      rec.timed = timing;
      run->log.push_back(std::move(rec));
    }
    if (out.result == lw::kTrue.raw()) {
      if (!internal::ModelSatisfies(base, path, out)) {
        run->failures.push_back("SAT model violates base and path cubes");
      }
      ++held_children[held[pick].node];
      held.push_back({node, held[pick].node, std::move(path)});
    } else {
      if (out.result != lw::kFalse.raw()) {
        run->failures.push_back("extend returned neither SAT nor UNSAT");
      }
      release(node);
    }
    if (held.size() > kMaxHeld) {
      size_t victim = 0;
      do {
        victim = 1 + rng.Below(held.size() - 1);
      } while (held_children[held[victim].node] != 0);  // the newest node is a leaf
      const uint32_t node_to_drop = held[victim].node;
      --held_children[held[victim].parent];
      held_children.erase(node_to_drop);
      held[victim] = std::move(held.back());
      held.pop_back();
      release(node_to_drop);
    }
  }
}

template <class Backend>
uint64_t Replay(Backend& backend, const std::vector<OpRecord>& log) {
  uint64_t mismatches = 0;
  for (const OpRecord& op : log) {
    if (op.release) {
      mismatches += backend.Release(op.node) ? 0 : 1;
      continue;
    }
    OpOutcome out;
    if (!backend.Extend(op.parent, op.node, op.bytes, &out) || !(out == op.outcome)) {
      ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace perfbench

#endif  // PERFBENCH_SAT_MIX_H_
