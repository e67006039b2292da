// qppt_bench: one workload per process.
//
//   qppt_bench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//              [--out-dir DIR]
//
// Prints a human-readable summary, then as its last stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1
// when any output check failed, 2 on a usage or setup error.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "qppt_bench: %s\nusage: qppt_bench --workload <name> [--seed N] "
               "[--seconds S] [--trace 0|1] [--out-dir DIR]\nworkloads:",
               why);
  for (const auto& w : qppt::bench::WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  qppt::bench::Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0)) {
        return Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (flag == "--out-dir") {
      opt.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (opt.workload.empty()) return Usage("--workload is required");

  qppt::bench::Report report;
  try {
    report = qppt::bench::RunWorkload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qppt_bench: %s\n", e.what());
    return 2;
  }
  if (report.failed > 0) {
    report.Fail(std::to_string(report.failed) + " of " +
                std::to_string(report.attempted) + " operations failed");
  }
  std::printf("%s\n", report.ToJson().c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
