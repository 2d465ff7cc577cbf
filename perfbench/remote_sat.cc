// remote_sat: a CheckpointDaemon on a Unix loopback socket with a fleet of
// three services, serving three tenants — one connection and one client
// thread each, one request outstanding (closed loop). Every tenant solves the
// same seeded base, then runs the what-if mix of sat_mix.h. This is the only
// end-to-end path a remote tenant sees, and the shared base makes the
// tenants' states near-identical, so it exercises cross-session dedup and
// every layer except the budget ladder.
//
// The traced run records each tenant's exact request bytes and replays them
// three ways, with spans sharing (tenant, op index):
//   daemon — the recorded remote run itself (client-side spans);
//   pool   — ServicePool<SolverService>::Submit around ExtendEncoded, three
//            tenant threads again, so daemon self time = daemon − pool for
//            the same request under the same load;
//   direct — SolverService::ExtendEncoded on the benchmark thread, reading
//            SessionStats around every call.
// Outcomes must match the recorded ones bit for bit on both replays.

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "sat_mix.h"
#include "src/net/client.h"
#include "src/service/daemon.h"
#include "src/service/pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kTenants = 3;
constexpr int kSetups = 3;

uint64_t TenantSeed(uint64_t seed, size_t tenant) {
  return seed * 0x9e3779b97f4a7c15ULL + tenant + 1;
}

OpOutcome FromRemote(const lw::RemoteOutcome& r) {
  OpOutcome out;
  out.result = r.result.raw();
  out.num_vars = r.num_vars;
  out.conflicts = r.conflicts;
  out.model_bits = r.model_bits;
  return out;
}

// Bytes one op puts on the socket, both directions, framed as
// src/net/protocol.h lays them out: a u32 length prefix per frame, a
// `u8 type | u64 id` request header and a `u8 type | u64 id | u8 status |
// u32 message length` response header around each body. Counted from the
// layout because an AF_UNIX socket keeps no byte counters and the client
// keeps its socket private.
uint64_t WireBytes(const OpRecord& op) {
  constexpr uint64_t kFramePrefix = 4;
  constexpr uint64_t kRequestHeader = 1 + 8;
  constexpr uint64_t kResponseHeader = 1 + 8 + 1 + 4;
  constexpr uint64_t kOverhead = 2 * kFramePrefix + kRequestHeader + kResponseHeader;
  if (op.release) {
    return kOverhead + 4 + 8;  // u32 session | u64 token; empty reply body
  }
  // u32 session | u64 parent | request; reply: result, token, vars, conflicts, model
  return kOverhead + 4 + 8 + op.bytes.size() + 1 + 8 + 4 + 8 + 4 + op.outcome.model_bits.size();
}

class RemoteBackend {
 public:
  RemoteBackend(lw::RemoteCheckpointClient* client, uint32_t session, uint64_t root_token)
      : client_(client), session_(session), tokens_{root_token} {}

  bool Extend(uint32_t parent, uint32_t node, const std::vector<uint8_t>& bytes, OpOutcome* out) {
    if (node >= tokens_.size()) {
      tokens_.resize(node + 1);
    }
    auto result = client_->ExtendEncoded(session_, tokens_[parent], bytes.data(), bytes.size());
    if (!result.ok()) {
      return false;
    }
    *out = FromRemote(*result);
    tokens_[node] = result->token;
    return true;
  }

  bool Release(uint32_t node) {
    return node < tokens_.size() && client_->Release(session_, tokens_[node]).ok();
  }

 private:
  lw::RemoteCheckpointClient* client_;
  uint32_t session_;
  std::vector<uint64_t> tokens_;
};

// A daemon plus one connected tenant per service, each with the base solved.
struct Fleet {
  struct Tenant {
    std::unique_ptr<lw::RemoteCheckpointClient> client;
    uint32_t session = 0;
    lw::RemoteOutcome root;
  };
  std::unique_ptr<lw::CheckpointDaemon> daemon;
  std::vector<Tenant> tenants;

  ~Fleet() {
    tenants.clear();  // disconnect first; the daemon then recycles sessions
    if (daemon != nullptr) {
      daemon->Stop();
    }
  }
};

// Boots a fleet; returns its set-up time in seconds, or a negative value when
// a step failed (recorded in `report`).
double BootFleet(const std::string& socket, const SatProblem& problem, Fleet* fleet,
                 Report* report) {
  const int64_t t0 = NowNs();
  lw::CheckpointDaemonOptions options;
  options.num_services = static_cast<int>(kTenants);
  auto daemon = lw::CheckpointDaemon::StartUnix(socket, options);
  if (!daemon.ok()) {
    report->Fail("daemon failed to start");
    return -1;
  }
  fleet->daemon = std::move(*daemon);
  for (size_t t = 0; t < kTenants; ++t) {
    Fleet::Tenant tenant;
    report->attempted += 1;
    auto client = lw::RemoteCheckpointClient::ConnectUnix(socket);
    if (!client.ok()) {
      report->Fail("tenant failed to connect");
      return -1;
    }
    tenant.client = std::move(*client);
    auto session = tenant.client->OpenSession();
    if (!session.ok()) {
      report->Fail("tenant failed to open a session");
      return -1;
    }
    tenant.session = *session;
    auto root = tenant.client->SolveRootEncoded(tenant.session, problem.base_bytes.data(),
                                                problem.base_bytes.size());
    if (!root.ok() ||
        (root->result == lw::kTrue &&
         !internal::ModelSatisfies(problem.base, {}, FromRemote(*root)))) {
      report->Fail("remote SolveRoot failed or returned a model violating the base");
      return -1;
    }
    tenant.root = *std::move(root);
    fleet->tenants.push_back(std::move(tenant));
  }
  return static_cast<double>(NowNs() - t0) / 1e9;
}

struct Loop {
  std::vector<TenantRun> runs;
  double ops_per_s = 0;
};

// Runs every tenant's closed loop on its own thread. Timing starts for all
// tenants together, once each has finished its warm-up.
Loop DriveFleet(Fleet& fleet, const SatProblem& problem, uint64_t seed, double seconds,
                bool record) {
  Loop loop;
  loop.runs.resize(kTenants);
  std::mutex mu;
  std::condition_variable cv;
  size_t warmed = 0;
  int64_t start_ns = 0;
  int64_t deadline = 0;
  auto start_timing = [&]() {
    std::unique_lock<std::mutex> lock(mu);
    if (++warmed == kTenants) {
      start_ns = NowNs();
      deadline = start_ns + static_cast<int64_t>(seconds * 1e9);
      cv.notify_all();
    } else {
      cv.wait(lock, [&] { return warmed == kTenants; });
    }
    return deadline;
  };
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      Fleet::Tenant& tenant = fleet.tenants[t];
      RemoteBackend backend(tenant.client.get(), tenant.session, tenant.root.token);
      RunTenant(backend, problem.base, TenantSeed(seed, t), record, start_timing,
                &loop.runs[t]);
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  std::vector<int64_t> done_ns;
  for (const TenantRun& run : loop.runs) {
    done_ns.insert(done_ns.end(), run.extend_done_ns.begin(), run.extend_done_ns.end());
  }
  loop.ops_per_s = MedianRate(std::move(done_ns), kRateChunk);
  return loop;
}

void Account(const Loop& loop, Report* report) {
  for (const TenantRun& run : loop.runs) {
    report->attempted += run.attempted;
    for (const char* what : run.failures) {
      report->Fail(what);
    }
  }
}

// ---------------------------------------------------------------------------
// The pool replay.

using Pool = lw::ServicePool<lw::SolverService>;

class PoolBackend {
 public:
  struct Call {
    int64_t submit_ns = 0, start_ns = 0, end_ns = 0, ready_ns = 0;
    EngineCounters engine;
  };

  PoolBackend(Pool* pool, int service) : pool_(pool), service_(service) {}

  // Mirrors the daemon's boot and SolveRoot: an empty root, then the base
  // bytes as an Extend of it.
  bool Boot(const std::vector<uint8_t>& base_bytes, OpOutcome* root) {
    auto empty = pool_->Submit(service_, [](lw::SolverService& s) { return s.SolveRoot(lw::Cnf()); })
                     .get();
    if (!empty.ok()) {
      return false;
    }
    empty_root_ = std::move(empty->token);
    const lw::Checkpoint* parent = &empty_root_;
    const std::vector<uint8_t>* bytes = &base_bytes;
    auto base = pool_->Submit(service_, [parent, bytes](lw::SolverService& s) {
                       return s.ExtendEncoded(*parent, bytes->data(), bytes->size());
                     }).get();
    if (!base.ok()) {
      return false;
    }
    *root = OpOutcome::Of(*base);
    nodes_.push_back(std::move(base->token));
    return true;
  }

  bool Extend(uint32_t parent, uint32_t node, const std::vector<uint8_t>& bytes, OpOutcome* out) {
    if (node >= nodes_.size()) {
      nodes_.resize(node + 1);
    }
    struct Job {
      std::optional<lw::Result<lw::SolverService::Outcome>> result;
      int64_t start_ns = 0, end_ns = 0;
      EngineCounters engine;
    };
    const lw::Checkpoint* from = &nodes_[parent];
    const std::vector<uint8_t>* request = &bytes;
    Call call;
    call.submit_ns = NowNs();
    std::future<Job> future = pool_->Submit(service_, [from, request](lw::SolverService& s) {
      Job job;
      const EngineCounters before = EngineCounters::Of(s.session_stats());
      job.start_ns = NowNs();
      job.result.emplace(s.ExtendEncoded(*from, request->data(), request->size()));
      job.end_ns = NowNs();
      job.engine = EngineCounters::Of(s.session_stats()) - before;
      return job;
    });
    Job job = future.get();
    call.ready_ns = NowNs();
    call.start_ns = job.start_ns;
    call.end_ns = job.end_ns;
    call.engine = job.engine;
    calls_.push_back(call);
    if (!job.result->ok()) {
      return false;
    }
    *out = OpOutcome::Of(**job.result);
    nodes_[node] = std::move((*job.result)->token);
    return true;
  }

  // The daemon answers Release on the connection's reader thread by dropping
  // the handle; the session reclaims it on its next drive. Same here.
  bool Release(uint32_t node) {
    calls_.push_back(Call{});
    if (node >= nodes_.size() || !nodes_[node].valid()) {
      return false;
    }
    nodes_[node] = lw::Checkpoint();
    return true;
  }

  void Clear() {
    nodes_.clear();
    empty_root_ = lw::Checkpoint();
  }

  const std::vector<Call>& calls() const { return calls_; }

 private:
  Pool* pool_;
  int service_;
  lw::Checkpoint empty_root_;
  std::vector<lw::Checkpoint> nodes_;
  std::vector<Call> calls_;
};

// ---------------------------------------------------------------------------

void SetUntraced(const Args& args, const SatProblem& problem, Report* report) {
  std::vector<double> setups;
  std::unique_ptr<Fleet> fleet;
  for (int k = 0; k < kSetups; ++k) {
    fleet = std::make_unique<Fleet>();  // the previous fleet is torn down first
    const double s =
        BootFleet(args.tmpdir + "/d" + std::to_string(k) + ".sock", problem, fleet.get(), report);
    if (s < 0) {
      return;
    }
    setups.push_back(s);
  }
  Loop loop = DriveFleet(*fleet, problem, args.seed, args.seconds, false);
  Account(loop, report);
  std::vector<double> extend_us;
  std::vector<double> release_us;
  for (const TenantRun& run : loop.runs) {
    extend_us.insert(extend_us.end(), run.extend_us.begin(), run.extend_us.end());
    release_us.insert(release_us.end(), run.release_us.begin(), run.release_us.end());
  }
  report->Set("setup_s", Median(setups));
  report->Set("ops_per_s", loop.ops_per_s);
  SetLatency(report, "op", std::move(extend_us));
  SetLatency(report, "release", std::move(release_us));
}

// (daemon) The recorded remote run, with the daemon- and store-side
// figures read before the tenants disconnect.
Loop RecordRemote(const Args& args, const SatProblem& problem, std::vector<lw::RemoteOutcome>* roots,
                  Report* report) {
  Fleet fleet;
  if (BootFleet(args.tmpdir + "/t.sock", problem, &fleet, report) < 0) {
    return Loop();
  }
  Loop loop = DriveFleet(fleet, problem, args.seed, args.seconds / 2, true);
  Account(loop, report);
  double charged = 0;
  double max_inflight = 0;
  double rejections = 0;
  for (const Fleet::Tenant& tenant : fleet.tenants) {
    roots->push_back(tenant.root);
    auto stats = tenant.client->TenantStats();
    if (!stats.ok()) {
      report->Fail("TenantStats failed");
      continue;
    }
    charged += static_cast<double>(stats->charged_bytes);
    max_inflight = std::max(max_inflight, static_cast<double>(stats->max_inflight_observed));
    rejections += static_cast<double>(stats->budget_rejections);
  }
  const lw::PageStore::Stats store = fleet.daemon->store()->stats();
  report->Set("daemon.max_inflight_observed", max_inflight);
  report->Set("daemon.budget_rejections", rejections);
  report->Set("daemon.connections_dropped",
              static_cast<double>(fleet.daemon->stats().connections_dropped));
  report->Set("daemon.charge_to_resident_ratio",
              Ratio(charged, static_cast<double>(store.live_bytes)));
  SetStoreMetrics(report, store);

  double ops = 0;
  double wire_bytes = 0;
  double extends = 0;
  double conflicts = 0;
  for (size_t t = 0; t < kTenants; ++t) {
    const std::vector<OpRecord>& log = loop.runs[t].log;
    double tenant_extends = 0;
    for (size_t i = 0; i < log.size(); ++i) {
      const OpRecord& op = log[i];
      tenant_extends += op.release ? 0 : 1;
      wire_bytes += static_cast<double>(WireBytes(op));
      Span span;
      span.name = op.release ? "client.release" : "client.extend";
      span.replay = "daemon";
      span.tenant = static_cast<uint32_t>(t);
      span.seq = i;
      span.start_ns = op.start_ns;
      span.dur_ns = op.dur_ns;
      report->spans.push_back(std::move(span));
    }
    ops += static_cast<double>(log.size());
    extends += tenant_extends;
    conflicts += ConflictsPerExtend(log, (*roots)[t].conflicts) * tenant_extends;
  }
  report->Set("net.bytes_per_op", Ratio(wire_bytes, ops));
  report->Set("solver.conflicts_per_op", Ratio(conflicts, extends));
  return loop;
}

// (pool) The same bytes through ServicePool::Submit, three tenant threads, as
// loaded as the daemon's workers were.
void ReplayOnPool(const SatProblem& problem, const Loop& loop,
                  const std::vector<lw::RemoteOutcome>& roots, Report* report) {
  lw::ServicePoolOptions<lw::SolverService> options;
  options.num_services = static_cast<int>(kTenants);
  Pool pool(options);
  std::vector<std::unique_ptr<PoolBackend>> backends;
  std::vector<uint64_t> mismatches(kTenants, 0);
  for (size_t t = 0; t < kTenants; ++t) {
    backends.push_back(std::make_unique<PoolBackend>(&pool, static_cast<int>(t)));
  }
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      OpOutcome root;
      if (!backends[t]->Boot(problem.base_bytes, &root) || !(root == FromRemote(roots[t]))) {
        ++mismatches[t];
      }
      mismatches[t] += Replay(*backends[t], loop.runs[t].log);
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }

  std::vector<double> daemon_self_us;
  std::vector<double> queue_us;
  std::vector<double> handoff_us;
  std::vector<double> guest_us;
  for (size_t t = 0; t < kTenants; ++t) {
    const std::vector<OpRecord>& log = loop.runs[t].log;
    report->attempted += log.size();
    for (uint64_t m = 0; m < mismatches[t]; ++m) {
      report->Fail("pool replay outcome differs from the remote outcome");
    }
    const std::vector<PoolBackend::Call>& calls = backends[t]->calls();
    for (size_t i = 0; i < calls.size() && i < log.size(); ++i) {
      if (log[i].release || !log[i].timed) {
        continue;
      }
      const PoolBackend::Call& c = calls[i];
      daemon_self_us.push_back(
          static_cast<double>(SelfNs(log[i].dur_ns, {c.ready_ns - c.submit_ns})) / 1e3);
      queue_us.push_back(static_cast<double>(c.start_ns - c.submit_ns) / 1e3);
      handoff_us.push_back(static_cast<double>(c.ready_ns - c.end_ns) / 1e3);
      guest_us.push_back(static_cast<double>(SelfNs(c.end_ns - c.start_ns,
                                                    {c.engine.snapshot_ns, c.engine.restore_ns})) /
                         1e3);
      auto add = [&](const char* name, const char* parent, int64_t from, int64_t to) {
        Span span;
        span.name = name;
        span.replay = "pool";
        span.parent = parent;
        span.tenant = static_cast<uint32_t>(t);
        span.seq = i;
        span.start_ns = from;
        span.dur_ns = to - from;
        report->spans.push_back(std::move(span));
      };
      add("pool.request", "", c.submit_ns, c.ready_ns);
      add("pool.queue_wait", "pool.request", c.submit_ns, c.start_ns);
      add("host.extend", "pool.request", c.start_ns, c.end_ns);
      report->spans.back().counters = {{"snapshot_ns", c.engine.snapshot_ns},
                                       {"restore_ns", c.engine.restore_ns}};
      add("pool.handoff", "pool.request", c.end_ns, c.ready_ns);
    }
    backends[t]->Clear();
  }
  const Quantile daemon_tail = TailQuantile(daemon_self_us, 0.99);
  const Quantile queue_tail = TailQuantile(queue_us, 0.99);
  report->Set("daemon.self_us_p50", Median(daemon_self_us));
  report->Set("daemon.self_us_p99", daemon_tail.value);
  report->Set("pool.queue_wait_us_p50", Median(queue_us));
  report->Set("pool.queue_wait_us_p99", queue_tail.value);
  report->Set("pool.handoff_us_p50", Median(handoff_us));
  report->Set("host.guest_us_p50", Median(guest_us));
  Log("remote_sat trace: daemon self p%.2f and pool queue wait p%.2f over %zu requests",
      daemon_tail.q * 100, queue_tail.q * 100, daemon_tail.samples);
}

// (direct) The same bytes on one SolverService per tenant, one after another
// on this thread, sharing a store configured like the fleet's.
void ReplayDirect(const SatProblem& problem, const Loop& loop,
                  const std::vector<lw::RemoteOutcome>& roots, Report* report) {
  lw::PageStoreOptions store_options;
  store_options.background_compaction = true;
  auto store = std::make_shared<lw::PageStore>(store_options);
  DirectSummary direct;
  for (size_t t = 0; t < kTenants; ++t) {
    lw::SolverServiceOptions options;
    options.tuning.store = store;
    lw::SolverService service(options);
    auto empty = service.SolveRoot(lw::Cnf());
    if (!empty.ok()) {
      report->Fail("direct replay failed to boot");
      continue;
    }
    auto base =
        service.ExtendEncoded(empty->token, problem.base_bytes.data(), problem.base_bytes.size());
    if (!base.ok() || !(OpOutcome::Of(*base) == FromRemote(roots[t]))) {
      report->Fail("direct replay root differs from the remote root");
      continue;
    }
    DirectBackend backend(&service, std::move(base->token), true);
    const uint64_t mismatches = Replay(backend, loop.runs[t].log);
    report->attempted += loop.runs[t].log.size();
    for (uint64_t m = 0; m < mismatches; ++m) {
      report->Fail("direct replay outcome differs from the remote outcome");
    }
    Summarize(backend.calls(), loop.runs[t].log, &direct);
    AddDirectSpans(backend.calls(), "direct", static_cast<uint32_t>(t), &report->spans);
    backend.Clear();
  }
  SetDirectMetrics(report, direct);
}

void SetTraced(const Args& args, const SatProblem& problem, Report* report) {
  double untraced_ops = 0;
  {
    Fleet fleet;
    if (BootFleet(args.tmpdir + "/u.sock", problem, &fleet, report) < 0) {
      return;
    }
    Loop loop = DriveFleet(fleet, problem, args.seed, args.seconds / 2, false);
    Account(loop, report);
    untraced_ops = loop.ops_per_s;
  }
  std::vector<lw::RemoteOutcome> roots;
  const Loop loop = RecordRemote(args, problem, &roots, report);
  if (roots.size() != kTenants) {
    return;
  }
  ReplayOnPool(problem, loop, roots, report);
  ReplayDirect(problem, loop, roots, report);
  report->Set("trace.overhead_frac", Ratio(untraced_ops - loop.ops_per_s, untraced_ops));
}

}  // namespace

Report RunRemoteSat(const Args& args) {
  Report report;
  const SatProblem problem = MakeSatProblem();
  if (args.trace) {
    SetTraced(args, problem, &report);
  } else {
    SetUntraced(args, problem, &report);
  }
  return report;
}

}  // namespace perfbench
