// queens: the paper's Figure 1 n-queens guest on a default BacktrackSession
// (CoW engine with hot pages, private store), one thread, enumerating every
// solution of N=10 per Run: 724 solutions, 348,151 extensions, 34,816
// snapshots. Each snapshot dirties about two pages, so this exercises
// session + engine + store publish/dedup and bypasses net, daemon, pool,
// host and the budget ladder.
//
// The guest is the client here, so it times its own two operations with the
// host clock, into host memory that restores never rewind:
//   op      — sys_guess call → its first return: materialize the snapshot,
//             restore and resume the first extension;
//   release — sys_guess_fail call → the next resume: abandon the path,
//             restore a sibling.
// Each Run yields ~35k op and ~310k release samples; a Run's percentiles are
// taken over its own samples and the reported figure is the median over Runs.

#include <memory>

#include "common.h"
#include "src/core/backtrack.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kQueensN = 10;
constexpr uint64_t kQueensSolutions = 724;

struct Board {
  int n = 0;
  int col[16] = {};
  int row[16] = {};
  int ld[32] = {};
  int rd[32] = {};
};

struct GuestClock {
  enum class Pending { kNone, kGuess, kFail };
  Pending pending = Pending::kNone;
  int64_t mark_ns = 0;
  // Reserved up front so the guest never allocates while it records.
  std::vector<double> op_ns;
  std::vector<double> release_ns;
};

GuestClock* g_clock = nullptr;

void Mark(GuestClock::Pending pending) {
  g_clock->pending = pending;
  g_clock->mark_ns = NowNs();
}

void Resumed() {
  const int64_t now = NowNs();
  if (g_clock->pending == GuestClock::Pending::kGuess) {
    g_clock->op_ns.push_back(static_cast<double>(now - g_clock->mark_ns));
  } else if (g_clock->pending == GuestClock::Pending::kFail) {
    g_clock->release_ns.push_back(static_cast<double>(now - g_clock->mark_ns));
  }
  g_clock->pending = GuestClock::Pending::kNone;
}

void NQueens(Board* b) {
  const int n = b->n;
  for (int c = 0; c < n; ++c) {
    Mark(GuestClock::Pending::kGuess);
    int r = lw::sys_guess(n);
    Resumed();
    if (b->row[r] || b->ld[r + c] || b->rd[n + r - c]) {
      Mark(GuestClock::Pending::kFail);
      lw::sys_guess_fail();
    }
    b->col[c] = r;
    b->row[r] = c + 1;
    b->ld[r + c] = 1;
    b->rd[n + r - c] = 1;
  }
  lw::sys_note_solution();
}

void QueensGuest(void*) {
  auto* session = static_cast<lw::BacktrackSession*>(lw::CurrentExecutor());
  Board* board = lw::GuestNew<Board>(session->heap());
  board->n = kQueensN;
  if (lw::sys_guess_strategy(lw::StrategyKind::kDfs)) {
    NQueens(board);
    Mark(GuestClock::Pending::kFail);
    lw::sys_guess_fail();  // enumerate all answers
  }
}

struct RunSample {
  double setup_s = 0;
  int64_t start_ns = 0;
  int64_t run_ns = 0;
  EngineCounters engine;
  uint64_t release_batches = 0;
  uint64_t release_shard_locks = 0;
  lw::PageStore::Stats store;
  double op_p50 = 0, op_p99 = 0, release_p50 = 0, release_p99 = 0;  // ns
};

class Queens {
 public:
  explicit Queens(Report* report) : report_(report) {
    clock_.op_ns.reserve(40000);
    clock_.release_ns.reserve(400000);
    g_clock = &clock_;
  }
  ~Queens() { g_clock = nullptr; }

  // One fresh session, one Run, checked.
  RunSample Once() {
    RunSample s;
    lw::SessionOptions options;
    options.output = [](std::string_view) {};
    const int64_t t0 = NowNs();
    auto session = std::make_unique<lw::BacktrackSession>(options);
    const int64_t t1 = NowNs();
    clock_.pending = GuestClock::Pending::kNone;
    clock_.op_ns.clear();
    clock_.release_ns.clear();
    const lw::Status status = session->Run(&QueensGuest, nullptr);
    const int64_t t2 = NowNs();
    const lw::SessionStats& stats = session->stats();
    report_->attempted += stats.extensions_evaluated;
    if (!status.ok()) {
      report_->Fail("queens Run returned an error");
    } else if (stats.solutions != kQueensSolutions) {
      report_->Fail("queens did not find exactly 724 solutions");
    }
    s.setup_s = static_cast<double>(t1 - t0) / 1e9;
    s.start_ns = t1;
    s.run_ns = t2 - t1;
    s.engine = EngineCounters::Of(stats);
    s.release_batches = stats.release_batches;
    s.release_shard_locks = stats.release_shard_locks;
    s.store = session->store().stats();
    s.op_p50 = Median(clock_.op_ns);
    s.op_p99 = TailQuantile(clock_.op_ns, 0.99).value;
    s.release_p50 = Median(clock_.release_ns);
    s.release_p99 = TailQuantile(clock_.release_ns, 0.99).value;
    return s;
  }

  // Timed Runs until `seconds` pass (at least three).
  std::vector<RunSample> For(double seconds) {
    std::vector<RunSample> runs;
    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    while (runs.size() < 3 || NowNs() < deadline) {
      runs.push_back(Once());
    }
    return runs;
  }

 private:
  Report* report_;
  GuestClock clock_;
};

template <class F>
double MedianOf(const std::vector<RunSample>& runs, F field) {
  std::vector<double> v;
  for (const RunSample& r : runs) {
    v.push_back(field(r));
  }
  return Median(v);
}

// Extensions per second: the median over Runs of each Run's rate.
double OpsPerSecond(const std::vector<RunSample>& runs) {
  return MedianOf(runs, [](const RunSample& r) {
    return Ratio(static_cast<double>(r.engine.extensions), static_cast<double>(r.run_ns) / 1e9);
  });
}

}  // namespace

Report RunQueens(const Args& args) {
  Report report;
  Queens queens(&report);
  queens.Once();  // warm-up: first touch of the allocator and page tables
  if (!args.trace) {
    std::vector<RunSample> runs = queens.For(args.seconds);
    report.Set("setup_s", MedianOf(runs, [](const RunSample& r) { return r.setup_s; }));
    report.Set("ops_per_s", OpsPerSecond(runs));
    report.Set("op_p50_us", MedianOf(runs, [](const RunSample& r) { return r.op_p50; }) / 1e3);
    report.Set("release_p50_us",
               MedianOf(runs, [](const RunSample& r) { return r.release_p50; }) / 1e3);
    Log("queens: %zu timed Runs of %lld extensions; figures are medians over Runs of per-Run "
        "figures (%lld op and %lld release samples per Run); op p99 %.3fus, release p99 %.3fus",
        runs.size(), static_cast<long long>(runs[0].engine.extensions),
        static_cast<long long>(runs[0].engine.snapshots),
        static_cast<long long>(runs[0].engine.extensions - runs[0].engine.snapshots),
        MedianOf(runs, [](const RunSample& r) { return r.op_p99; }) / 1e3,
        MedianOf(runs, [](const RunSample& r) { return r.release_p99; }) / 1e3);
    return report;
  }

  // Traced: the same Runs, untraced then traced, halves of the budget.
  const double untraced_ops = OpsPerSecond(queens.For(args.seconds / 2));
  std::vector<RunSample> runs = queens.For(args.seconds / 2);
  const double traced_ops = OpsPerSecond(runs);
  EngineCounters total;
  uint64_t batches = 0;
  uint64_t locks = 0;
  for (size_t i = 0; i < runs.size(); ++i) {
    const RunSample& r = runs[i];
    total += r.engine;
    batches += r.release_batches;
    locks += r.release_shard_locks;
    Span run;
    run.name = "session.run";
    run.replay = "queens";
    run.seq = i;
    run.start_ns = r.start_ns;
    run.dur_ns = r.run_ns;
    run.counters = {{"snapshot_ns", r.engine.snapshot_ns},
                    {"restore_ns", r.engine.restore_ns},
                    {"snapshots", r.engine.snapshots},
                    {"restores", r.engine.restores},
                    {"extensions", r.engine.extensions}};
    report.spans.push_back(std::move(run));
  }
  report.Set("session.self_ns_per_ext", MedianOf(runs, [](const RunSample& r) {
               return Ratio(static_cast<double>(SelfNs(
                                r.run_ns, {r.engine.snapshot_ns, r.engine.restore_ns})),
                            static_cast<double>(r.engine.extensions));
             }));
  SetEngineMetrics(&report, total);
  SetStoreMetrics(&report, runs.back().store);
  report.Set("store.shard_locks_per_release_batch",
             Ratio(static_cast<double>(locks), static_cast<double>(batches)));
  report.Set("trace.overhead_frac", Ratio(untraced_ops - traced_ops, untraced_ops));
  return report;
}

}  // namespace perfbench
