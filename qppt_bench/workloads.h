// The four qppt_bench workloads (README.md says why each exists).

#ifndef QPPT_BENCH_WORKLOADS_H_
#define QPPT_BENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace qppt::bench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  // Length of the measured window. The traced run splits it: an untraced
  // quarter, a traced half and another untraced quarter (the two quarters
  // are the base of trace.overhead).
  double seconds = 10;
  bool trace = false;
  // Where the traced run writes <workload>.trace.json.
  std::string out_dir = "qppt_bench/out";
};

const std::vector<std::string>& WorkloadNames();

// Sets up, warms up, measures and checks one workload. Every workload
// reports the same metric names: the end-to-end set from an untraced
// run, the per-layer set from a traced one (BENCHMARK.json lists both;
// run.py checks the match). Setup failures throw std::runtime_error;
// failed operations and checks land in the report.
Report RunWorkload(const Options& options);

}  // namespace qppt::bench

#endif  // QPPT_BENCH_WORKLOADS_H_
