// The four named workloads of the repository benchmark. See
// perfbench/README.md for what each one exercises and why it exists.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/// Names accepted by `RunWorkload`, in the order BENCHMARK.json lists them.
std::vector<std::string> WorkloadNames();

/// Runs `options.workload`: the timed measurement (end-to-end metrics)
/// when `options.trace` is false, the traced run (per-layer metrics,
/// tracing overhead, determinism cross-checks) when it is true. Returns
/// false for an unknown workload name.
bool RunWorkload(const RunOptions& options, Outcome* outcome);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
