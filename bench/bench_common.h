// Shared helpers for the figure-reproduction benchmark binaries.

#ifndef QPPT_BENCH_BENCH_COMMON_H_
#define QPPT_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/stats.h"
#include "ssb/dbgen.h"
#include "util/env.h"

namespace qppt::bench {

// Scale factor for the SSB figure benches. The paper uses SF=15 on a
// 32 GB machine; the default here is laptop/CI-friendly and overridable:
//   QPPT_SSB_SF=1 ./bench_fig7_ssb
inline double SsbScaleFactor() {
  return GetEnvDouble("QPPT_SSB_SF", 0.1);
}

inline int Repetitions() {
  return static_cast<int>(GetEnvInt64("QPPT_BENCH_REPS", 3));
}

inline std::unique_ptr<ssb::SsbData> LoadSsb(bool build_indexes = true) {
  ssb::SsbConfig cfg;
  cfg.scale_factor = SsbScaleFactor();
  cfg.seed = 42;
  cfg.build_indexes = build_indexes;
  // QPPT_PREFER_KISS=0 builds the base-index pool with generalized
  // prefix trees. Intermediates stay KISS-Trees (the benches' PlanKnobs
  // keep prefer_kiss), so every star join of a base index with an
  // intermediate takes the mixed KISS x prefix path; none runs prefix x
  // prefix.
  cfg.prefer_kiss = GetEnvInt64("QPPT_PREFER_KISS", 1) != 0;
  auto data = ssb::Generate(cfg);
  if (!data.ok()) {
    std::fprintf(stderr, "SSB generation failed: %s\n",
                 data.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(data).value();
}

// Runs `fn` `reps` times and returns the *minimum* wall time in ms (the
// usual noise-robust choice for single-threaded benches).
template <typename F>
double MinWallMs(int reps, F&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    fn();
    double ms = t.ElapsedMs();
    if (ms < best) best = ms;
  }
  return best;
}

}  // namespace qppt::bench

#endif  // QPPT_BENCH_BENCH_COMMON_H_
