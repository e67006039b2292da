// E1 — Figure 3(a): insert/update performance of prefix-tree structures
// vs. hash tables.
//
// Workload (§2.5): upsert keys picked uniformly at random from a dense
// sequential range of size N. Series: PT4 (generalized prefix tree,
// k'=4), GLIB (chained hash table), BOOST (open-addressing hash table),
// KISS (KISS-Tree, flat level-2 nodes), KISS Batched (§2.3 batch upserts).
// The paper reports time per key at N = 1M/16M/64M; default sizes here
// are 1M/4M/16M (set QPPT_FIG3_MAX_SHIFT=26 for the 64M point).

#include <algorithm>
#include <benchmark/benchmark.h>
#include <cstdint>
#include <vector>

#include "bench_common.h"
#include "index/chained_hash_table.h"
#include "index/key_encoder.h"
#include "index/kiss_tree.h"
#include "index/open_hash_table.h"
#include "index/prefix_tree.h"
#include "util/rng.h"

namespace qppt {
namespace {

std::vector<uint32_t> RandomKeys(size_t n) {
  Rng rng(2024);
  std::vector<uint32_t> keys(n);
  for (auto& k : keys) {
    k = static_cast<uint32_t>(rng.NextBounded(n));  // dense sequential range
  }
  return keys;
}

void ReportPerKey(benchmark::State& state, size_t n) {
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  state.counters["keys"] = static_cast<double>(n);
}

void BM_Insert_PT4(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto keys = RandomKeys(n);
  for (auto _ : state) {
    PrefixTree tree({.key_len = 4, .kprime = 4});
    KeyBuf buf;
    for (uint32_t k : keys) {
      buf.clear();
      buf.AppendU32(k);
      tree.Upsert(buf.data(), k);
    }
    benchmark::DoNotOptimize(tree.num_keys());
  }
  ReportPerKey(state, n);
}

void BM_Insert_GLIB(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto keys = RandomKeys(n);
  for (auto _ : state) {
    ChainedHashTable table;
    for (uint32_t k : keys) table.Upsert(k, k);
    benchmark::DoNotOptimize(table.size());
  }
  ReportPerKey(state, n);
}

void BM_Insert_BOOST(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto keys = RandomKeys(n);
  for (auto _ : state) {
    OpenHashTable table;
    for (uint32_t k : keys) table.Upsert(k, k);
    benchmark::DoNotOptimize(table.size());
  }
  ReportPerKey(state, n);
}

void BM_Insert_KISS(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto keys = RandomKeys(n);
  for (auto _ : state) {
    KissTree tree;
    for (uint32_t k : keys) tree.Upsert(k, k);
    benchmark::DoNotOptimize(tree.num_keys());
  }
  ReportPerKey(state, n);
}

void BM_Insert_KISS_Batched(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto keys = RandomKeys(n);
  constexpr size_t kBatch = 512;
  for (auto _ : state) {
    KissTree tree;
    std::vector<KissTree::UpsertJob> jobs;
    jobs.reserve(kBatch);
    for (size_t i = 0; i < keys.size(); ++i) {
      jobs.push_back({keys[i], keys[i]});
      if (jobs.size() == kBatch || i + 1 == keys.size()) {
        tree.BatchUpsert(jobs);
        jobs.clear();
      }
    }
    benchmark::DoNotOptimize(tree.num_keys());
  }
  ReportPerKey(state, n);
}

void Sizes(benchmark::internal::Benchmark* b) {
  // Clamp: a shift outside [10, 30] would be useless or UB, and a
  // benchmark registered with zero args would read state.range(0) out of
  // bounds, so a max_shift below the 2^20 start still emits one size.
  int64_t max_shift =
      std::clamp<int64_t>(GetEnvInt64("QPPT_FIG3_MAX_SHIFT", 24), 10, 30);
  for (int64_t shift = std::min<int64_t>(20, max_shift); shift <= max_shift;
       shift += 2) {
    b->Arg(int64_t{1} << shift);  // 1M, 4M, 16M (paper: 1M/16M/64M)
  }
  b->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_Insert_PT4)->Apply(Sizes);
BENCHMARK(BM_Insert_GLIB)->Apply(Sizes);
BENCHMARK(BM_Insert_BOOST)->Apply(Sizes);
BENCHMARK(BM_Insert_KISS)->Apply(Sizes);
BENCHMARK(BM_Insert_KISS_Batched)->Apply(Sizes);

}  // namespace
}  // namespace qppt

BENCHMARK_MAIN();
