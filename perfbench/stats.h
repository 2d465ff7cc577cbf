// Reporting statistics of the benchmark: percentile selection, self time by
// subtraction, spans, and the JSON the benchmark prints.
//
// Kept free of lwsnap dependencies so stats_test.cc pins the arithmetic the
// reported numbers rest on without building the library.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// A tail percentile is only reported where at least this many samples lie
// beyond it; below that it is an anecdote, not a percentile.
inline constexpr size_t kMinBeyond = 10;

struct Quantile {
  double q = 0;         // percentile actually reported (≤ the one asked for)
  double value = 0;
  size_t samples = 0;
  size_t beyond = 0;    // samples ranked strictly after the reported one
};

// Nearest-rank percentile: the sample at rank ceil(q·n) (1-based) of the
// sorted samples. When fewer than kMinBeyond samples lie beyond that rank,
// falls back to the highest rank that still leaves kMinBeyond beyond it, and
// to the median when even that is impossible. Zero samples give all zeros.
Quantile TailQuantile(std::vector<double> samples, double q);

// Nearest-rank median (q = 0.5 of TailQuantile's rank rule, no fallback).
double Median(std::vector<double> samples);

// Typical rate of a stream of completion times: the median, over consecutive
// stretches of `chunk` completions, of chunk ÷ the stretch's duration, in
// events per second. A stall lengthens only the stretches it falls in, so
// the figure follows the steady rate rather than the count of stalls (which
// the latency tail reports). With fewer than chunk + 1 events it is the
// overall rate; with fewer than two, 0.
double MedianRate(std::vector<int64_t> event_ns, size_t chunk);

// Self time of a span by subtraction: its duration minus the durations of its
// children, which must be disjoint phases inside it (queue wait, job and
// handoff; materialize and restore). Reported as measured, so a negative
// value shows clocks and counters that disagree instead of hiding it.
int64_t SelfNs(int64_t span_ns, std::initializer_list<int64_t> child_ns);

// One timed interval at a layer boundary. Spans of one request share
// (tenant, seq); `replay` names the path that produced it.
struct Span {
  const char* name = "";
  const char* replay = "";
  const char* parent = "";  // "" = the request's outermost span
  uint32_t tenant = 0;
  uint64_t seq = 0;
  int64_t start_ns = 0;  // relative to the process's trace epoch
  int64_t dur_ns = 0;
  // Layer counters read around the call (SessionStats / store deltas).
  std::vector<std::pair<const char*, int64_t>> counters;
};

std::string SpanJson(const Span& span);

// Writes one JSON object per line. Returns false on an I/O error.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

// Shortest decimal that reads back as exactly `value`; non-finite values
// print as null so a consumer rejects them instead of misreading them.
std::string FormatNumber(double value);

// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
