// Parallel drivers for the hot operators (engine layer, §7).
//
// The pattern shared by every parallel operator: partition the input
// index into disjoint morsels (core/parallel.h — deterministic tree
// partitions need no rebalancing guard), run the operator's tuple loop
// per morsel on the worker pool with *per-worker* partial output tables,
// and fold the partials into the real output once at the end, serially
// on the operator's thread (PartialOutputs::MergeInto): plain partials
// re-insert their tuples, aggregated ones fold their accumulators into
// the output's groups. The input trees are never mutated, so concurrent
// readers need no synchronization. Every driver splits at
// WorkerPool::morsel_target() (engine/scheduler.h).
//
// The fold is serial because it is cheap: the benchmark workloads'
// partials hold at most a few thousand groups or a few tens of thousands
// of tuples, and on a 4-thread box the fold was as fast or faster at
// every such merge than the key-range-partitioned parallel merge it
// replaced, without a concurrent-insert mode in the trees or their
// allocators.

#ifndef QPPT_ENGINE_PARALLEL_OPS_H_
#define QPPT_ENGINE_PARALLEL_OPS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "core/indexed_table.h"
#include "core/parallel.h"
#include "core/sync_scan.h"
#include "engine/scheduler.h"
#include "obs/trace.h"
#include "util/cancel.h"
#include "util/failpoint.h"

namespace qppt::engine {

// Inputs smaller than this run serially — forking costs more than it
// saves on a few thousand tuples.
inline constexpr size_t kMinParallelInputTuples = 4096;

// Everything a parallel driver needs to know about its call site: which
// pool to fork on and — when the query is traced — where and under what
// stage label to record the spans. The label must outlive the driver
// call (operators hold it as a local; the trace arena-copies it per
// span).
struct MorselSite {
  WorkerPool* pool = nullptr;
  obs::QueryTrace* trace = nullptr;  // nullptr = tracing off
  std::string_view label;            // stage label for trace spans
  // Query cancellation token (nullptr = not cancellable). Polled once
  // per morsel and once per partial folded — the morsel boundary is the
  // cancellation granularity of every parallel driver; per-tuple loops
  // stay check-free.
  const CancelToken* cancel = nullptr;
};

// Runs fn(worker, morsel) for every morsel on the site's pool; when the
// site carries a trace, every morsel records a kMorsel span on its
// worker's lane. When the site carries a cancel token, it is polled
// before each morsel body: a cancelled/expired query throws
// CancelledException, which the pool converts into
// skip-remaining-morsels and rethrows to the submitter (Plan::Run turns
// it back into a Status).
template <typename Fn>
void RunMorsels(const MorselSite& site, size_t count, Fn&& fn) {
  obs::QueryTrace* trace = site.trace;
  const CancelToken* cancel = site.cancel;
  site.pool->Run(count, [&](size_t worker, size_t m) {
    if (cancel != nullptr) {
      Status st = cancel->Check();
      if (!st.ok()) throw CancelledException(std::move(st));
    }
    QPPT_FAILPOINT(morsel_exec);
    double t0 = trace != nullptr ? trace->NowUs() : 0.0;
    fn(worker, m);
    if (trace != nullptr) {
      trace->Record(worker, site.label, obs::SpanKind::kMorsel, t0,
                    trace->NowUs());
    }
  });
}

// Per-worker partial outputs of one parallel operator, folded into the
// output table after the fork-join.
class PartialOutputs {
 public:
  PartialOutputs(const IndexedTable& final_table, size_t workers) {
    partials_.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      partials_.push_back(final_table.CloneEmpty());
    }
  }

  IndexedTable* worker(size_t w) { return partials_[w].get(); }

  // Folds every partial into `output` in worker order (IndexedTable::
  // MergeFrom) and frees it. Before each fold it polls the site's cancel
  // token, which throws CancelledException. Records one kMerge span on
  // the trace's driver lane when the site carries a trace, and returns
  // the fold's wall time in milliseconds (OperatorStats::merge_ms), read
  // off the same two clock reads as the span.
  double MergeInto(const MorselSite& site, IndexedTable* output);

 private:
  std::vector<std::unique_ptr<IndexedTable>> partials_;
};

// Partitions `tree` ∩ [lo, hi] into morsel key ranges and runs
// fn(worker, morsel_lo, morsel_hi) for each on the site's pool. Returns
// the number of morsels executed (0 = empty intersection). Templated on
// the callback (rather than taking a std::function) so operator call
// sites never type-erase their capture state onto the heap — the morsel
// drivers sit on every parallel query's hot path.
template <typename Fn>
size_t RunKissRangeMorsels(const MorselSite& site, const KissTree& tree,
                           uint32_t lo, uint32_t hi, const Fn& fn) {
  auto ranges = PartitionKissRange(tree, lo, hi, site.pool->morsel_target());
  if (ranges.empty()) return 0;
  RunMorsels(site, ranges.size(), [&](size_t worker, size_t m) {
    fn(worker, ranges[m].first, ranges[m].second);
  });
  return ranges.size();
}

// Pair-partitions two prefix trees at their branching level
// (FindPairScanLevel, core/sync_scan.h) and runs
// fn(worker, level, begin, end) for each slot-list slice on the pool —
// the driver of the parallel prefix-tree star join; the callback scans
// its slice with SynchronousScanPairSlots. Returns the number of
// morsels executed (0 = the trees share no subtree). Templated for the
// same no-type-erasure reason as RunKissRangeMorsels above.
template <typename Fn>
size_t RunPrefixPairMorsels(const MorselSite& site, const PrefixTree& left,
                            const PrefixTree& right, const Fn& fn) {
  PairScanLevel level = FindPairScanLevel(left, right);
  if (level.slots.empty()) return 0;
  auto slices = SplitEvenly(level.slots.size(), site.pool->morsel_target());
  RunMorsels(site, slices.size(), [&](size_t worker, size_t m) {
    fn(worker, level, slices[m].first, slices[m].second);
  });
  return slices.size();
}

// Values per morsel, at least, when the run mode below kicks in.
inline constexpr size_t kMinSliceValues = 1024;

// Runs process(worker, value) for every value stored under tree ∩
// [lo, hi], and end_morsel(worker) after each morsel's last value.
// Prefers disjoint key-range morsels. When the populated span has fewer
// root buckets than workers (a low-cardinality selection attribute —
// e.g. eleven discount values, each with a million-entry duplicate
// list), it captures the qualifying values as runs instead: each key's
// ValueList::ForEachRun (its inline first value, then its segments), or
// a run of 1 for a KISS entry holding one inline value. The N
// concatenated values split into M even slices (SplitEvenly, about
// kMinSliceValues or more each); a morsel starts at the run a binary
// search over the runs' start offsets finds and reads the values in
// place — none is copied. A run keeps the length it had at the capture,
// so on a live index an append that lands later is never read. Returns
// the morsel count (0 = nothing qualified).
template <typename ProcessFn, typename EndMorselFn>
size_t RunKissValueMorsels(const MorselSite& site, const KissTree& tree,
                           uint32_t lo, uint32_t hi, ProcessFn&& process,
                           EndMorselFn&& end_morsel) {
  WorkerPool* pool = site.pool;
  const size_t target = pool->morsel_target();
  auto ranges = PartitionKissRange(tree, lo, hi, target);
  if (ranges.empty()) return 0;
  if (ranges.size() >= pool->num_workers()) {
    RunMorsels(site, ranges.size(), [&](size_t worker, size_t m) {
      tree.ScanRange(ranges[m].first, ranges[m].second,
                     [&](uint32_t, const KissTree::ValueRef& vals) {
                       vals.ForEach([&](uint64_t v) { process(worker, v); });
                     });
      end_morsel(worker);
    });
    return ranges.size();
  }
  // runs[r] holds values [starts[r], starts[r + 1]) of the concatenation;
  // an inline KISS value is kept in its run's `single`.
  struct Run {
    const uint64_t* values;
    uint64_t single;
  };
  std::vector<Run> runs;
  std::vector<size_t> starts{0};
  auto add_run = [&](const uint64_t* values, uint32_t n) {
    runs.push_back({values, 0});
    starts.push_back(starts.back() + n);
  };
  tree.ScanRange(lo, hi, [&](uint32_t, const KissTree::ValueRef& vals) {
    if (const ValueList* list = vals.list()) {
      list->ForEachRun(add_run);
    } else {
      runs.push_back({nullptr, vals.front()});
      starts.push_back(starts.back() + 1);
    }
  });
  const size_t total = starts.back();
  if (total == 0) return 0;
  // `runs` is complete, so pointers into it stay valid from here on.
  for (Run& run : runs) {
    if (run.values == nullptr) run.values = &run.single;
  }
  auto slices = SplitEvenly(
      total,
      std::min(target, (total + kMinSliceValues - 1) / kMinSliceValues));
  RunMorsels(site, slices.size(), [&](size_t worker, size_t m) {
    size_t pos = slices[m].first;
    const size_t end = slices[m].second;
    size_t r = static_cast<size_t>(
        std::upper_bound(starts.begin(), starts.end(), pos) -
        starts.begin() - 1);
    for (; pos < end; ++r) {
      const uint64_t* values = runs[r].values;
      const size_t last = std::min(end, starts[r + 1]) - starts[r];
      for (size_t i = pos - starts[r]; i < last; ++i) {
        process(worker, values[i]);
      }
      pos = starts[r] + last;
    }
    end_morsel(worker);
  });
  return slices.size();
}

}  // namespace qppt::engine

#endif  // QPPT_ENGINE_PARALLEL_OPS_H_
