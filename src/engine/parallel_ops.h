// Parallel drivers for the hot operators (engine layer, §7).
//
// The pattern shared by every parallel operator: partition the input
// index into disjoint morsels (core/parallel.h — deterministic tree
// partitions need no rebalancing guard), run the operator's tuple loop
// per morsel on the worker pool with *per-worker* partial output tables,
// and merge the partials into the real output once at the end. Both
// output shapes merge key-range-partitioned across the pool (plain
// tables re-insert tuples at pre-assigned row ids; aggregated tables
// fold accumulators via BoundAggSpec::MergeRange) — see
// PartialOutputs::MergeInto. The input trees are never mutated, so
// concurrent readers need no synchronization. Every driver and merge
// splits at WorkerPool::morsel_target() (engine/scheduler.h).

#ifndef QPPT_ENGINE_PARALLEL_OPS_H_
#define QPPT_ENGINE_PARALLEL_OPS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
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

// Aggregated outputs whose partials hold fewer group entries than this
// (summed across workers) merge serially — the accumulator fold is
// per-group work, so a handful of groups cannot amortize the fork-join.
inline constexpr size_t kMinParallelAggGroups = 64;

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
  // per morsel — the morsel boundary is the cancellation granularity of
  // every parallel driver; per-tuple loops stay check-free.
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

// Validators for the merge-range plans below (exposed for tests): true
// iff `ranges` tile a superset of the partials' union key span —
// non-empty, ascending, gap-free, and covering [span_lo, span_hi]. A
// plan that fails this check would silently drop tuples (or leave
// pre-assigned row ids unwritten), so PartialOutputs::MergeInto checks
// it at runtime — in Release builds too — and falls back to the serial
// merge instead of corrupting the output.
namespace merge_detail {
bool KissRangesCoverSpan(const std::vector<IndexedTable::MergeKeyRange>& ranges,
                         uint32_t span_lo, uint32_t span_hi);
bool PrefixRangesCoverSpan(
    const std::vector<IndexedTable::MergeKeyRange>& ranges, size_t key_len,
    const uint8_t* span_lo, const uint8_t* span_hi);
}  // namespace merge_detail

// Per-worker partial outputs of one parallel operator, merged into the
// final table after the fork-join.
class PartialOutputs {
 public:
  PartialOutputs(const IndexedTable& final_table, size_t workers) {
    partials_.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      partials_.push_back(final_table.CloneEmpty());
    }
  }

  IndexedTable* worker(size_t w) { return partials_[w].get(); }

  // Serial fallback: re-insert (plain) / accumulator-merge (aggregated)
  // each partial in turn.
  void MergeInto(IndexedTable* final_table) {
    for (auto& partial : partials_) {
      final_table->MergeFrom(*partial);
      partial.reset();  // free per-worker index memory eagerly
    }
  }

  // Key-range-partitioned parallel merge: outputs large enough to
  // amortize the fork-join are merged by range-owning workers — each
  // worker folds ALL partials' tuples (plain) or group accumulators
  // (aggregated) of one disjoint key range into the final table
  // concurrently; small outputs fall back to the serial path above.
  // Plain merges are single-pass: each partial's tuple count (maintained
  // by its build) pre-assigns it a contiguous row-id block, so no
  // separate counting scan runs. A range plan that fails the coverage
  // validation (merge_detail) also falls back to the serial path.
  // When the site carries a trace, every merge shard records a kMerge
  // span under the site's label. Returns the number of merge morsels
  // executed (0 = serial merge).
  size_t MergeInto(const MorselSite& site, IndexedTable* final_table);
  size_t MergeInto(WorkerPool* pool, IndexedTable* final_table) {
    MorselSite site;
    site.pool = pool;
    return MergeInto(site, final_table);
  }

  // Test hook: mutates every planned range list before validation, so
  // tests can inject non-covering plans and exercise the runtime
  // fallback. Pass nullptr to clear. Not thread-safe; tests only.
  using PlanMutator = std::function<void(
      std::vector<IndexedTable::MergeKeyRange>*)>;
  static void SetPlanMutatorForTest(PlanMutator mutator);

 private:
  size_t MergePlainInto(const MorselSite& site, IndexedTable* final_table);
  size_t MergeAggInto(const MorselSite& site, IndexedTable* final_table);

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

// Values per slice morsel when the gather fallback below kicks in.
inline constexpr size_t kMinSliceValues = 1024;

// Runs process(worker, value) for every value stored under tree ∩
// [lo, hi]. Prefers disjoint key-range morsels; when the populated span
// has too few root buckets to feed the workers (a low-cardinality
// selection attribute — e.g. eleven discount values, each with a
// million-entry duplicate list), it gathers the qualifying values once
// and morsels over slices of the gathered vector instead. Returns the
// morsel count (0 = nothing qualified).
template <typename ProcessFn>
size_t RunKissValueMorsels(const MorselSite& site, const KissTree& tree,
                           uint32_t lo, uint32_t hi, ProcessFn&& process) {
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
    });
    return ranges.size();
  }
  std::vector<uint64_t> values;
  tree.ScanRange(lo, hi, [&](uint32_t, const KissTree::ValueRef& vals) {
    vals.ForEach([&](uint64_t v) { values.push_back(v); });
  });
  if (values.empty()) return 0;
  auto slices = SplitEvenly(
      values.size(),
      std::min(target,
               (values.size() + kMinSliceValues - 1) / kMinSliceValues));
  RunMorsels(site, slices.size(), [&](size_t worker, size_t m) {
    for (size_t i = slices[m].first; i < slices[m].second; ++i) {
      process(worker, values[i]);
    }
  });
  return slices.size();
}

}  // namespace qppt::engine

#endif  // QPPT_ENGINE_PARALLEL_OPS_H_
