// Shared plumbing of the benchmark's workloads: arguments, the metric tables,
// the report a workload fills, the clock, and the engine counters read from
// SessionStats around calls into a session.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/core/session.h"
#include "stats.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  // A fresh directory for this run (daemon socket, spill segments); removed
  // by the caller when the run ends.
  std::string tmpdir;
  // Trace mode: where the spans are written (JSON lines).
  std::string spans_path;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

// Reported with tracing off, on every workload.
const std::vector<MetricDef>& EndToEndMetrics();
// Reported by the traced run, on every workload. A layer that a workload
// bypasses reports 0: no time, bytes or operations were spent in it.
const std::vector<MetricDef>& PerLayerMetrics();

// What a workload hands back: its numbers by metric name, the operations it
// attempted and how many failed (errors, rejections and failed correctness
// checks all count), and the spans of a traced run.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> values;
  std::vector<Span> spans;

  // Aborts on a name missing from both metric tables (a typo would otherwise
  // silently report 0).
  void Set(const std::string& name, double value);
  // Records a failed correctness check and says which.
  void Fail(const char* what);
};

// Nanoseconds since the process's trace epoch (steady clock).
int64_t NowNs();

// Prints one human-readable line, prefixed so it cannot be mistaken for the
// result line.
void Log(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Sets `<prefix>_p50_us` from samples in microseconds and logs the sample
// count, the median and the p99 (or the highest percentile with ten samples
// beyond it). The p99 is logged, not reported: see README.md.
void SetLatency(Report* report, const std::string& prefix, std::vector<double> samples_us);

// Peak resident set of this process, MiB.
double PeakRssMiB();

// nproc, the CPU the run is pinned to (-1: unpinned), build type, compiler and
// the soft-dirty probe, as one JSON object.
std::string HostShapeJson(int pinned_cpu);

// a / b, or 0 when b is 0 (a layer with no operations reports 0, not NaN).
double Ratio(double a, double b);

// The SessionStats counters the engine and session metrics are built from.
struct EngineCounters {
  int64_t snapshot_ns = 0;
  int64_t restore_ns = 0;
  int64_t snapshots = 0;
  int64_t restores = 0;
  int64_t pages_materialized = 0;
  int64_t pages_restored = 0;
  int64_t pages_restore_skipped = 0;
  int64_t restore_mprotect_calls = 0;
  int64_t extensions = 0;  // extensions evaluated + checkpoint resumes

  static EngineCounters Of(const lw::SessionStats& stats);
  EngineCounters operator-(const EngineCounters& before) const;
  EngineCounters& operator+=(const EngineCounters& other);
};

// engine.* metrics from counters accumulated over the measured calls.
void SetEngineMetrics(Report* report, const EngineCounters& total);

// store.dedup_ratio, store.cross_session_dedup_hits and store.peak_live_mb.
void SetStoreMetrics(Report* report, const lw::PageStore::Stats& store);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
