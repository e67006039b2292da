// E11 — extension: intra-operator parallelism (§7).
//
// Thread-scaling of a duplicate-aware full scan over a KISS-Tree, run the
// way the engine runs it: RunKissRangeMorsels splits the key span into
// root-bucket-aligned morsels (WorkerPool::morsel_target() of them) and
// the pool's workers scan them, stealing from each other when idle. The
// paper argues unbalanced tries parallelize well because a key's position
// is deterministic — no rebalancing can move data between threads'
// subtrees mid-scan. One row per worker count; `morsels` is the number of
// disjoint key ranges the driver produced.
//
//   QPPT_BENCH_REPS=5 ./bench_ablation_parallel

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include "bench_common.h"
#include "engine/parallel_ops.h"
#include "engine/scheduler.h"
#include "util/rng.h"

namespace qppt {
namespace {

constexpr size_t kKeys = 1 << 21;  // 2M keys, ~3 values/key

void Run() {
  KissTree tree;
  Rng rng(1);
  for (size_t i = 0; i < kKeys * 3; ++i) {
    tree.Insert(static_cast<uint32_t>(rng.NextBounded(kKeys)), i);
  }
  int reps = bench::Repetitions();
  std::printf("parallel KISS-Tree scan ablation: %zu keys, %zu values, "
              "%d reps (min)\n",
              tree.num_keys(), size_t{kKeys * 3}, reps);
  std::printf("%-8s %9s %8s %8s\n", "workers", "wall_ms", "morsels",
              "speedup");
  double serial_ms = 0;
  for (size_t threads : {1, 2, 4, 8}) {
    engine::WorkerPool pool(threads);
    engine::MorselSite site;
    site.pool = &pool;
    std::vector<uint64_t> counts(pool.num_workers());
    size_t morsels = 0;
    double ms = bench::MinWallMs(reps, [&] {
      std::fill(counts.begin(), counts.end(), 0);
      morsels = engine::RunKissRangeMorsels(
          site, tree, 0, std::numeric_limits<uint32_t>::max(),
          [&](size_t worker, uint32_t lo, uint32_t hi) {
            uint64_t n = 0;
            tree.ScanRange(lo, hi,
                           [&](uint32_t, const KissTree::ValueRef& v) {
                             n += v.size();
                           });
            counts[worker] += n;
          });
    });
    uint64_t total = 0;
    for (uint64_t c : counts) total += c;
    if (total != kKeys * 3) {
      std::fprintf(stderr, "scan dropped values: %llu\n",
                   static_cast<unsigned long long>(total));
      std::exit(1);
    }
    if (threads == 1) serial_ms = ms;
    std::printf("%-8zu %9.2f %8zu %7.2fx\n", threads, ms, morsels,
                ms > 0 ? serial_ms / ms : 0.0);
  }
}

}  // namespace
}  // namespace qppt

int main() {
  qppt::Run();
  return 0;
}
