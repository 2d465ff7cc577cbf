// The benchmark's workloads. Each runs for Args::seconds, checks its outputs,
// and reports every end-to-end metric (untraced) or every per-layer metric
// (traced) it has.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

Report RunQueens(const Args& args);
Report RunRemoteSat(const Args& args);
Report RunSpillSat(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
