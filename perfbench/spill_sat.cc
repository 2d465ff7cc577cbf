// spill_sat: the remote_sat generator and op mix on one in-process
// SolverService, driven from the benchmark thread, under a snapshot byte
// budget far below the unbudgeted working set, with the spill tier on. The
// store here evicts and faults back instead of deduplicating in RAM: the
// budget is sized so resident, compressed and spilled pages all stay
// populated. Exercises the budget ladder and spill tier; bypasses net,
// daemon and pool.
//
// The traced run replays the recorded ops on an unbudgeted service: restore
// time above the unbudgeted replay's is fault-back cost, and the remaining
// Extend time above it is the ladder's EnforceBudget (which runs outside
// snapshot_ns). Outcomes must not depend on the budget.

#include <memory>
#include <string>

#include "sat_mix.h"
#include "workloads.h"

namespace perfbench {
namespace {

// A boot takes ~14 ms, most of it SolveRoot; the median of nine damps the
// first boot's cold page faults.
constexpr int kSetups = 9;
// Unbudgeted, the mix holds about 23 MiB of snapshot pages. The ladder
// compresses every cold page before it spills any, so RAM-resident pages are
// almost all compressed; 4 MiB keeps about 1,800 of them next to about twice
// as many spilled ones (a 1 MiB budget spills every page).
constexpr uint64_t kBudgetBytes = 4ull << 20;

uint64_t OpSeed(uint64_t seed) { return seed * 0x9e3779b97f4a7c15ULL + 1; }

struct Service {
  std::unique_ptr<lw::SolverService> service;
  lw::Checkpoint root;  // declared after the service: dropped before it
  uint64_t root_conflicts = 0;
};

// Boots a service and solves the base; returns the set-up time in seconds, or
// a negative value when a step failed (recorded in `report`). An empty
// `spill_dir` boots the unbudgeted reference.
double Boot(const std::string& spill_dir, const SatProblem& problem, Service* out,
            Report* report) {
  out->root = lw::Checkpoint();
  out->service.reset();
  const int64_t t0 = NowNs();
  lw::SolverServiceOptions options;
  if (!spill_dir.empty()) {
    options.tuning.snapshot_byte_budget = kBudgetBytes;
    options.tuning.store_options.spill_dir = spill_dir;
  }
  out->service = std::make_unique<lw::SolverService>(options);
  report->attempted += 1;
  if (!spill_dir.empty() && !out->service->store().spill_enabled()) {
    report->Fail("spill tier failed to open");
    return -1;
  }
  auto root = out->service->SolveRoot(problem.base);
  if (!root.ok() || (root->result == lw::kTrue &&
                     !internal::ModelSatisfies(problem.base, {}, OpOutcome::Of(*root)))) {
    report->Fail("SolveRoot failed or returned a model violating the base");
    return -1;
  }
  out->root = std::move(root->token);
  out->root_conflicts = root->conflicts;
  return static_cast<double>(NowNs() - t0) / 1e9;
}

struct Phase {
  TenantRun run;
  double ops_per_s = 0;
  std::vector<DirectBackend::Call> calls;
  lw::PageStore::Stats before, after;
};

Phase Drive(Service& s, const SatProblem& problem, uint64_t seed, double seconds, bool traced,
            Report* report) {
  Phase phase;
  phase.before = s.service->store().stats();
  DirectBackend backend(s.service.get(), std::move(s.root), traced);
  int64_t start_ns = 0;
  RunTenant(backend, problem.base, OpSeed(seed), traced,
            [&] {
              start_ns = NowNs();
              return start_ns + static_cast<int64_t>(seconds * 1e9);
            },
            &phase.run);
  phase.after = s.service->store().stats();
  phase.calls = backend.calls();
  backend.Clear();
  phase.ops_per_s = MedianRate(phase.run.extend_done_ns, kRateChunk);
  report->attempted += phase.run.attempted;
  for (const char* what : phase.run.failures) {
    report->Fail(what);
  }
  const lw::PageStore::Stats& st = phase.after;
  Log("spill_sat store at end: %llu live blobs, %llu compressed, %llu spilled; %.1f MiB live of "
      "%.1f MiB logical",
      static_cast<unsigned long long>(st.live_blobs),
      static_cast<unsigned long long>(st.compressed_blobs),
      static_cast<unsigned long long>(st.spilled_blobs),
      static_cast<double>(st.live_bytes) / (1 << 20),
      static_cast<double>(st.bytes_logical()) / (1 << 20));
  return phase;
}

double PerOp(uint64_t after, uint64_t before, double ops) {
  return Ratio(static_cast<double>(after - before), ops);
}

}  // namespace

Report RunSpillSat(const Args& args) {
  Report report;
  const SatProblem problem = MakeSatProblem();
  if (!args.trace) {
    std::vector<double> setups;
    Service s;
    for (int k = 0; k < kSetups; ++k) {
      const double t = Boot(args.tmpdir + "/spill" + std::to_string(k), problem, &s, &report);
      if (t < 0) {
        return report;
      }
      setups.push_back(t);
    }
    Phase phase = Drive(s, problem, args.seed, args.seconds, false, &report);
    report.Set("setup_s", Median(setups));
    report.Set("ops_per_s", phase.ops_per_s);
    SetLatency(&report, "op", std::move(phase.run.extend_us));
    SetLatency(&report, "release", std::move(phase.run.release_us));
    return report;
  }

  double untraced_ops = 0;
  {
    Service s;
    if (Boot(args.tmpdir + "/spill-u", problem, &s, &report) < 0) {
      return report;
    }
    untraced_ops = Drive(s, problem, args.seed, args.seconds / 2, false, &report).ops_per_s;
  }
  Service budgeted;
  if (Boot(args.tmpdir + "/spill-t", problem, &budgeted, &report) < 0) {
    return report;
  }
  const Phase phase = Drive(budgeted, problem, args.seed, args.seconds / 2, true, &report);
  const std::vector<OpRecord>& log = phase.run.log;

  Service reference;
  if (Boot("", problem, &reference, &report) < 0) {
    return report;
  }
  DirectBackend replay(reference.service.get(), std::move(reference.root), true);
  const uint64_t mismatches = Replay(replay, log);
  report.attempted += log.size();
  for (uint64_t m = 0; m < mismatches; ++m) {
    report.Fail("unbudgeted replay outcome differs from the budgeted outcome");
  }

  DirectSummary with_budget;
  DirectSummary without;
  Summarize(phase.calls, log, &with_budget);
  Summarize(replay.calls(), log, &without);
  AddDirectSpans(phase.calls, "budgeted", 0, &report.spans);
  AddDirectSpans(replay.calls(), "unbudgeted", 0, &report.spans);
  replay.Clear();

  double extends = 0;
  for (const OpRecord& op : log) {
    extends += op.release ? 0 : 1;
  }
  const lw::PageStore::Stats& a = phase.after;
  const lw::PageStore::Stats& b = phase.before;
  report.Set("ladder.compressions_per_op", PerOp(a.compressions, b.compressions, extends));
  report.Set("ladder.compress_success_ratio",
             Ratio(static_cast<double>(a.compressions - b.compressions),
                   static_cast<double>(a.compression_attempts - b.compression_attempts)));
  report.Set("spill.spills_per_op", PerOp(a.spills, b.spills, extends));
  report.Set("spill.faultbacks_per_op", PerOp(a.faultbacks, b.faultbacks, extends));

  const double timed = static_cast<double>(with_budget.guest_us.size());
  auto residual = [](const DirectSummary& d) {
    return static_cast<double>(SelfNs(d.span_ns, {d.engine.snapshot_ns, d.engine.restore_ns}));
  };
  report.Set("spill.faultback_us_per_op",
             Ratio(static_cast<double>(with_budget.engine.restore_ns - without.engine.restore_ns),
                   timed) /
                 1e3);
  report.Set("ladder.enforce_us_per_op",
             Ratio(residual(with_budget) - residual(without), timed) / 1e3);
  SetDirectMetrics(&report, with_budget);
  SetStoreMetrics(&report, a);
  report.Set("host.guest_us_p50", Median(without.guest_us));
  report.Set("solver.conflicts_per_op", ConflictsPerExtend(log, budgeted.root_conflicts));
  report.Set("trace.overhead_frac", Ratio(untraced_ops - phase.ops_per_s, untraced_ops));
  return report;
}

}  // namespace perfbench
