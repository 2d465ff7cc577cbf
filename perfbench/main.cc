// perfbench: runs one workload of the repository benchmark and prints, as its
// last line, {"correct", "attempted", "failed", "metrics"}. Normally started
// by run.py, which builds it and supplies a fresh --tmpdir.
//
//   perfbench --workload queens|remote_sat|spill_sat --seed N --seconds S
//             --trace 0|1 --tmpdir DIR [--spans FILE]

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

// Confines the process, and every thread it starts, to one CPU: the highest
// it may use (CPU 0 tends to take the host's interrupts). On a VM whose host
// is shared, a fleet spread over all vCPUs runs at the pace of whichever vCPU
// the hypervisor has just descheduled, apparently because thread handoffs and
// lock handovers wait for it. Measured on a 4-vCPU VM with 15–25% steal, remote_sat fell
// from ~640 to ~300 Extends/s on four vCPUs but stayed at ~540 on one (and
// ran at ~560 on one when the host was quiet). Returns the CPU, or -1 when
// the affinity calls fail and the run goes on unpinned.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return -1;
  }
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
    }
  }
  return -1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload queens|remote_sat|spill_sat --seed N --seconds S "
               "--trace 0|1 --tmpdir DIR [--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--tmpdir") {
      args.tmpdir = value;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || args.tmpdir.empty() || !(args.seconds > 0)) {
    return Usage();
  }

  const int cpu = PinToOneCpu();
  std::printf("# host: %s\n", perfbench::HostShapeJson(cpu).c_str());
  perfbench::Report report;
  if (args.workload == "queens") {
    report = perfbench::RunQueens(args);
  } else if (args.workload == "remote_sat") {
    report = perfbench::RunRemoteSat(args);
  } else if (args.workload == "spill_sat") {
    report = perfbench::RunSpillSat(args);
  } else {
    return Usage();
  }

  bool correct = report.failed == 0 && report.attempted > 0;
  std::vector<perfbench::Metric> metrics;
  if (!args.trace) {
    report.Set("peak_rss_mb", perfbench::PeakRssMiB());
  }
  for (const perfbench::MetricDef& def :
       args.trace ? perfbench::PerLayerMetrics() : perfbench::EndToEndMetrics()) {
    auto it = report.values.find(def.name);
    if (it == report.values.end() && !args.trace) {
      correct = false;  // an end-to-end metric the run failed to measure
    }
    metrics.push_back({def.name, def.unit, it == report.values.end() ? 0.0 : it->second});
  }
  if (args.trace && !args.spans_path.empty()) {
    if (!perfbench::WriteSpans(args.spans_path, report.spans)) {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n", args.spans_path.c_str());
      return 1;
    }
    perfbench::Log("%zu spans written to %s", report.spans.size(), args.spans_path.c_str());
  }
  perfbench::Log("failed_frac: %g (%llu failed of %llu attempted)",
                 perfbench::Ratio(static_cast<double>(report.failed),
                                  static_cast<double>(report.attempted)),
                 static_cast<unsigned long long>(report.failed),
                 static_cast<unsigned long long>(report.attempted));
  std::printf("%s\n",
              perfbench::ResultJson(correct, report.attempted, report.failed, metrics).c_str());
  return 0;
}
