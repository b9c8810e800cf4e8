// The repository benchmark binary. Usually launched through
// perfbench/run.py, which builds it first:
//
//   pdms_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--work-dir <dir>]
//
// Prints a human-readable report and, as its last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: pdms_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\nworkloads:");
  for (const std::string& name : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
}

bool ParseUnsigned(const char* text, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = value;
  return true;
}

bool ParseArgs(int argc, char** argv, perfbench::RunOptions* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    uint64_t number = 0;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      if (!ParseUnsigned(value, &options->seed)) return false;
    } else if (flag == "--seconds") {
      if (!ParseUnsigned(value, &number) || number == 0) return false;
      options->seconds = static_cast<double>(number);
    } else if (flag == "--trace") {
      if (!ParseUnsigned(value, &number) || number > 1) return false;
      options->trace = number == 1;
    } else if (flag == "--work-dir") {
      options->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options->workload.empty();
}

void PrintMetrics(const char* heading, const perfbench::MetricSet& metrics) {
  if (metrics.all().empty()) return;
  std::printf("%s\n", heading);
  for (const perfbench::Metric& metric : metrics.all()) {
    std::printf("  %-34s %16.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

void PrintJsonLine(const perfbench::Outcome& outcome,
                   const perfbench::MetricSet& metrics) {
  bool correct = outcome.failed == 0 && outcome.cross_checks_passed;
  for (const perfbench::Metric& metric : metrics.all()) {
    correct = correct && std::isfinite(metric.value);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  bool first = true;
  for (const perfbench::Metric& metric : metrics.all()) {
    // JSON has no NaN/inf: a non-finite measurement reads as null and
    // makes the run incorrect.
    char value[64];
    if (std::isfinite(metric.value)) {
      std::snprintf(value, sizeof(value), "%.17g", metric.value);
    } else {
      std::snprintf(value, sizeof(value), "null");
    }
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                first ? "" : ", ", metric.name.c_str(), value,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    Usage();
    return 2;
  }
  perfbench::Outcome outcome;
  if (!perfbench::RunWorkload(options, &outcome)) {
    Usage();
    return 2;
  }
  std::printf("workload %s, seed %llu, %s run\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? "traced" : "timed");
  if (options.trace) {
    PrintMetrics("per-layer metrics:", outcome.layers);
    PrintMetrics("per-layer metrics of this workload's own layers:",
                 outcome.workload_layers);
  } else {
    PrintMetrics("end-to-end metrics:", outcome.end_to_end);
  }
  std::printf("operations: %llu attempted, %llu failed; cross-checks %s\n",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              outcome.cross_checks_passed ? "passed" : "FAILED");
  PrintJsonLine(outcome, options.trace ? outcome.layers : outcome.end_to_end);
  std::fflush(stdout);
  return 0;
}
