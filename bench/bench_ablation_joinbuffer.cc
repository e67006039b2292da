// E7 — ablation: joinbuffer size (§4.2, demonstrator appendix).
//
// The demonstrator exposes the joinbuffer/selectionbuffer size as
// {1 (none), 64, 512, 2048}. Probes run as §2.3 batch lookups that hide
// memory latency — size 1 runs batches of one, which leaves nothing to
// overlap; "a too low or a too high size affects the performance
// negatively". Measured on SSB Q2.3 (Fig. 5's plan) and Q4.1.

#include <cstdio>

#include "bench_common.h"
#include "ssb/queries_qppt.h"

int main() {
  using namespace qppt;
  using namespace qppt::bench;

  auto data = LoadSsb();
  int reps = Repetitions();
  std::printf("Joinbuffer size sweep (SF=%.2f, min of %d reps)\n\n",
              data->config.scale_factor, reps);
  std::printf("%-8s %14s %14s\n", "buffer", "Q2.3 [ms]", "Q4.1 [ms]");
  for (size_t size : {size_t{1}, size_t{64}, size_t{512}, size_t{2048}}) {
    PlanKnobs knobs;
    knobs.join_buffer_size = size;
    double q23 = MinWallMs(reps, [&] {
      auto r = ssb::RunQppt(*data, "2.3", knobs);
      if (!r.ok()) std::exit(1);
    });
    double q41 = MinWallMs(reps, [&] {
      auto r = ssb::RunQppt(*data, "4.1", knobs);
      if (!r.ok()) std::exit(1);
    });
    std::printf("%-8zu %14.2f %14.2f\n", size, q23, q41);
  }
  return 0;
}
