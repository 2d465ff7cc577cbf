#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdarg>
#include <cstdio>

#include "src/snapshot/soft_dirty.h"
#include "src/util/timer.h"

namespace perfbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"setup_s", "s"},
      {"ops_per_s", "1/s"},
      {"op_p50_us", "us"},
      {"release_p50_us", "us"},
      {"peak_rss_mb", "MiB"},
  };
  return kMetrics;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"daemon.self_us_p50", "us"},
      {"daemon.self_us_p99", "us"},
      {"daemon.max_inflight_observed", "count"},
      {"daemon.budget_rejections", "count"},
      {"daemon.connections_dropped", "count"},
      {"daemon.charge_to_resident_ratio", "ratio"},
      {"net.bytes_per_op", "B"},
      {"pool.queue_wait_us_p50", "us"},
      {"pool.queue_wait_us_p99", "us"},
      {"pool.handoff_us_p50", "us"},
      {"host.guest_us_p50", "us"},
      {"solver.conflicts_per_op", "count"},
      {"session.self_ns_per_ext", "ns"},
      {"engine.materialize_ns_per_snapshot", "ns"},
      {"engine.restore_ns_per_restore", "ns"},
      {"engine.pages_per_snapshot", "pages"},
      {"engine.pages_per_restore", "pages"},
      {"engine.mprotect_per_restore", "calls"},
      {"engine.restore_skip_ratio", "ratio"},
      {"store.dedup_ratio", "ratio"},
      {"store.cross_session_dedup_hits", "count"},
      {"store.peak_live_mb", "MiB"},
      {"store.release_us_p50", "us"},
      {"store.shard_locks_per_release_batch", "locks"},
      {"ladder.compressions_per_op", "count"},
      {"ladder.compress_success_ratio", "ratio"},
      {"spill.spills_per_op", "count"},
      {"spill.faultbacks_per_op", "count"},
      {"spill.faultback_us_per_op", "us"},
      {"ladder.enforce_us_per_op", "us"},
      {"trace.overhead_frac", "ratio"},
  };
  return kMetrics;
}

namespace {

bool Known(const std::string& name) {
  for (const auto* table : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricDef& def : *table) {
      if (name == def.name) {
        return true;
      }
    }
  }
  return false;
}

const uint64_t kEpoch = lw::NowNanos();

}  // namespace

void Report::Set(const std::string& name, double value) {
  LW_CHECK_MSG(Known(name), "metric missing from the metric tables");
  values[name] = value;
}

void Report::Fail(const char* what) {
  ++failed;
  // Only the first few are spelled out; the count is in the result line.
  if (failed <= 5) {
    Log("correctness check failed: %s", what);
  }
}

int64_t NowNs() { return static_cast<int64_t>(lw::NowNanos() - kEpoch); }

void Log(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::fputs("# ", stdout);
  std::vfprintf(stdout, fmt, args);
  std::fputc('\n', stdout);
  std::fflush(stdout);
  va_end(args);
}

void SetLatency(Report* report, const std::string& prefix, std::vector<double> samples_us) {
  const double p50 = Median(samples_us);
  const Quantile tail = TailQuantile(std::move(samples_us), 0.99);
  report->Set(prefix + "_p50_us", p50);
  Log("%s latency: n=%zu p50=%.1fus p%.2f=%.1fus (%zu samples beyond)", prefix.c_str(),
      tail.samples, p50, tail.q * 100, tail.value, tail.beyond);
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string HostShapeJson(int pinned_cpu) {
  std::string out = "{\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"pinned_cpu\": " + std::to_string(pinned_cpu);
  out += ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"";
#if defined(__clang__)
  out += ", \"compiler\": \"clang " __clang_version__ "\"";
#elif defined(__GNUC__)
  out += ", \"compiler\": \"gcc " __VERSION__ "\"";
#else
  out += ", \"compiler\": \"unknown\"";
#endif
  out += ", \"soft_dirty\": ";
  out += lw::SoftDirtyTracker::Supported() ? "true" : "false";
  out += "}";
  return out;
}

double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

EngineCounters EngineCounters::Of(const lw::SessionStats& stats) {
  EngineCounters c;
  c.snapshot_ns = static_cast<int64_t>(stats.snapshot_ns);
  c.restore_ns = static_cast<int64_t>(stats.restore_ns);
  c.snapshots = static_cast<int64_t>(stats.snapshots);
  c.restores = static_cast<int64_t>(stats.restores);
  c.pages_materialized = static_cast<int64_t>(stats.pages_materialized);
  c.pages_restored = static_cast<int64_t>(stats.pages_restored);
  c.pages_restore_skipped = static_cast<int64_t>(stats.pages_restore_skipped);
  c.restore_mprotect_calls = static_cast<int64_t>(stats.restore_mprotect_calls);
  c.extensions = static_cast<int64_t>(stats.extensions_evaluated + stats.resumes);
  return c;
}

EngineCounters EngineCounters::operator-(const EngineCounters& before) const {
  EngineCounters d;
  d.snapshot_ns = snapshot_ns - before.snapshot_ns;
  d.restore_ns = restore_ns - before.restore_ns;
  d.snapshots = snapshots - before.snapshots;
  d.restores = restores - before.restores;
  d.pages_materialized = pages_materialized - before.pages_materialized;
  d.pages_restored = pages_restored - before.pages_restored;
  d.pages_restore_skipped = pages_restore_skipped - before.pages_restore_skipped;
  d.restore_mprotect_calls = restore_mprotect_calls - before.restore_mprotect_calls;
  d.extensions = extensions - before.extensions;
  return d;
}

EngineCounters& EngineCounters::operator+=(const EngineCounters& other) {
  snapshot_ns += other.snapshot_ns;
  restore_ns += other.restore_ns;
  snapshots += other.snapshots;
  restores += other.restores;
  pages_materialized += other.pages_materialized;
  pages_restored += other.pages_restored;
  pages_restore_skipped += other.pages_restore_skipped;
  restore_mprotect_calls += other.restore_mprotect_calls;
  extensions += other.extensions;
  return *this;
}

void SetEngineMetrics(Report* report, const EngineCounters& t) {
  report->Set("engine.materialize_ns_per_snapshot", Ratio(t.snapshot_ns, t.snapshots));
  report->Set("engine.restore_ns_per_restore", Ratio(t.restore_ns, t.restores));
  report->Set("engine.pages_per_snapshot", Ratio(t.pages_materialized, t.snapshots));
  report->Set("engine.pages_per_restore", Ratio(t.pages_restored, t.restores));
  report->Set("engine.mprotect_per_restore", Ratio(t.restore_mprotect_calls, t.restores));
  report->Set("engine.restore_skip_ratio",
              Ratio(t.pages_restore_skipped, t.pages_restore_skipped + t.pages_restored));
}

void SetStoreMetrics(Report* report, const lw::PageStore::Stats& store) {
  const double hits = static_cast<double>(store.zero_dedup_hits + store.content_dedup_hits);
  report->Set("store.dedup_ratio", Ratio(hits, hits + static_cast<double>(store.total_published)));
  report->Set("store.cross_session_dedup_hits", static_cast<double>(store.cross_session_dedup_hits));
  report->Set("store.peak_live_mb", static_cast<double>(store.peak_live_bytes) / (1 << 20));
}

}  // namespace perfbench
