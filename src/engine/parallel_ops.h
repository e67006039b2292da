// Morsel drivers for the hot operators (engine layer, §7): the one scan
// path of selection, select-join and star join.
//
// The pattern shared by every driver: partition the input index into
// disjoint morsels (core/parallel.h's KISS key ranges and value slices,
// core/sync_scan.h's prefix-tree subtree-pair frontier — deterministic
// tree partitions need no rebalancing guard), run the operator's tuple
// loop per morsel on the worker pool with *per-worker* partial output
// tables, and fold the partials into the real output once at the end,
// serially on the operator's thread (PartialOutputs::MergeInto): plain
// partials re-insert their tuples, aggregated ones fold their
// accumulators into the output's groups. The input trees are never
// mutated, so concurrent readers need no synchronization. Every driver
// splits at WorkerPool::morsel_target() (engine/scheduler.h).
//
// A site without a pool runs inline, as in morsel-driven execution: the
// driver splits its input into one morsel (a KISS key range: one per
// populated half of the key space; a prefix-tree pair: the roots' joint
// slots) and runs it on the calling thread as worker 0, and
// PartialOutputs hands out the output table itself, so a serial operator
// is the same code with nothing cloned or folded.
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
#include <limits>
#include <memory>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "core/base_index.h"
#include "core/indexed_table.h"
#include "core/parallel.h"
#include "core/sync_scan.h"
#include "engine/scheduler.h"
#include "obs/trace.h"
#include "util/cancel.h"
#include "util/failpoint.h"

namespace qppt::engine {

// Inputs smaller than this run inline — forking costs more than it saves
// on a few thousand tuples.
inline constexpr size_t kMinParallelInputTuples = 4096;

// Everything a driver needs to know about its call site: which pool to
// fork on (none = run inline) and — when the query is traced — where and
// under what stage label to record the spans. The label must outlive the
// driver call (operators hold it as a local; the trace arena-copies it
// per span).
struct MorselSite {
  WorkerPool* pool = nullptr;        // nullptr = run inline
  obs::QueryTrace* trace = nullptr;  // nullptr = tracing off
  std::string_view label;            // stage label for trace spans
  // Query cancellation token (nullptr = not cancellable). Polled once
  // per morsel and once per partial folded — the morsel boundary is the
  // cancellation granularity of a forked driver; per-tuple loops stay
  // check-free. An inline run also ticks a CancelTicker per value or per
  // pair (the value driver's own, the star join's).
  const CancelToken* cancel = nullptr;

  // Per-worker state slots the driver's callbacks index (1 inline).
  size_t workers() const { return pool == nullptr ? 1 : pool->num_workers(); }
  // Morsels per batch the driver splits into (1 inline).
  size_t morsel_target() const {
    return pool == nullptr ? 1 : pool->morsel_target();
  }
};

// Runs fn(worker, morsel) for every morsel in [0, count) and returns the
// morsels forked: `count` on the site's pool, 0 inline (on the calling
// thread, as worker 0). The cancel token is polled before each morsel
// body: a cancelled/expired query throws CancelledException, which the
// pool converts into skip-remaining-morsels and rethrows to the submitter
// (Plan::Run turns it back into a Status). A forked morsel records a
// kMorsel span on its worker's lane when the site carries a trace; an
// inline one records none.
template <typename Fn>
size_t RunMorsels(const MorselSite& site, size_t count, Fn&& fn) {
  const CancelToken* cancel = site.cancel;
  auto poll = [cancel] {
    if (cancel == nullptr) return;
    Status st = cancel->Check();
    if (!st.ok()) throw CancelledException(std::move(st));
  };
  if (site.pool == nullptr) {
    for (size_t m = 0; m < count; ++m) {
      poll();
      fn(size_t{0}, m);
    }
    return 0;
  }
  obs::QueryTrace* trace = site.trace;
  site.pool->Run(count, [&](size_t worker, size_t m) {
    poll();
    QPPT_FAILPOINT(morsel_exec);
    double t0 = trace != nullptr ? trace->NowUs() : 0.0;
    fn(worker, m);
    if (trace != nullptr) {
      trace->Record(worker, site.label, obs::SpanKind::kMorsel, t0,
                    trace->NowUs());
    }
  });
  return count;
}

// Per-worker partial outputs of one operator, folded into the output
// table after the fork-join. Without a pool there is one worker, and its
// "partial" is the output itself.
class PartialOutputs {
 public:
  PartialOutputs(const MorselSite& site, IndexedTable* output)
      : output_(output) {
    if (site.pool == nullptr) return;
    const size_t workers = site.workers();
    partials_.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      partials_.push_back(output->CloneEmpty());
    }
  }

  IndexedTable* worker(size_t w) {
    return partials_.empty() ? output_ : partials_[w].get();
  }

  // Folds every partial into the output in worker order (IndexedTable::
  // MergeFrom) and frees it. Before each fold it polls the site's cancel
  // token, which throws CancelledException. Records one kMerge span on
  // the trace's driver lane when the site carries a trace, and returns
  // the fold's wall time in milliseconds (OperatorStats::merge_ms), read
  // off the same two clock reads as the span. Without partials (an
  // inline run) there is nothing to fold: returns 0, records no span.
  double MergeInto(const MorselSite& site);

 private:
  IndexedTable* output_;
  std::vector<std::unique_ptr<IndexedTable>> partials_;
};

// Partitions `tree` ∩ [lo, hi] into morsel key ranges and runs
// fn(worker, morsel_lo, morsel_hi) for each. Returns the number of
// morsels forked (0 = inline, or an empty intersection). Templated on
// the callback (rather than taking a std::function) so operator call
// sites never type-erase their capture state onto the heap — the morsel
// drivers sit on every query's hot path.
template <typename Fn>
size_t RunKissRangeMorsels(const MorselSite& site, const KissTree& tree,
                           uint32_t lo, uint32_t hi, const Fn& fn) {
  auto ranges = PartitionKissRange(tree, lo, hi, site.morsel_target());
  return RunMorsels(site, ranges.size(), [&](size_t worker, size_t m) {
    fn(worker, ranges[m].first, ranges[m].second);
  });
}

// Pair-partitions two prefix trees on a frontier of at least
// morsel_target() subtree pairs where the trees hold that many
// (FindPairFrontier, core/sync_scan.h) and runs fn(worker, slice) for
// each of up to morsel_target() even slices of it
// — the driver of the prefix-tree star join; the callback scans its slice
// with SynchronousScanPairSlots. An inline run scans the roots' joint
// slots as one morsel. Returns the number of morsels forked (0 = inline,
// or the trees share no subtree). Templated for the same no-type-erasure
// reason as RunKissRangeMorsels above.
template <typename Fn>
size_t RunPrefixPairMorsels(const MorselSite& site, const PrefixTree& left,
                            const PrefixTree& right, const Fn& fn) {
  const size_t target = site.morsel_target();
  const std::vector<PairSlot> frontier =
      FindPairFrontier(left, right, target);
  auto slices = SplitEvenly(frontier.size(), target);
  return RunMorsels(site, slices.size(), [&](size_t worker, size_t m) {
    const auto [begin, end] = slices[m];
    fn(worker, std::span<const PairSlot>(frontier).subspan(begin, end - begin));
  });
}

// The fork rule of the value scans (selection, select-join), the same for
// both index families: fork on `pool` for a range, all or composite
// predicate over at least kMinParallelInputTuples index rows. Point and
// IN scans run inline — forking them measured as a loss.
inline WorkerPool* ValueScanPool(WorkerPool* pool, const BaseIndex& index,
                                 const KeyPredicate& predicate,
                                 const CompositeRange& composite) {
  const bool wide = !composite.empty() ||
                    predicate.kind == KeyPredicate::Kind::kRange ||
                    predicate.kind == KeyPredicate::Kind::kAll;
  return wide && index.num_rows() >= kMinParallelInputTuples ? pool
                                                             : nullptr;
}

// Values per morsel, at least, when the run mode below kicks in.
inline constexpr size_t kMinSliceValues = 1024;

// Runs process(worker, value) for every value of the keys
// BaseIndex::ForEachKey selects, and end_morsel(worker) after each
// morsel's last value. Returns the morsels forked. Three modes:
//   - inline, without a pool: one morsel enumerates the keys on the
//     calling thread, ticking a CancelTicker per value;
//   - key-range morsels, for a range, all or composite predicate on a
//     KISS index whose span covers at least one root bucket per worker;
//   - otherwise (a prefix index, or a low-cardinality KISS attribute —
//     eleven discount values, each with a million-entry duplicate list),
//     run mode: the qualifying values are captured as runs (each key's
//     ValueList::ForEachRun, or a run of 1 for an inline KISS value; 24 B
//     a run), and morsels are even slices of about kMinSliceValues or
//     more of the concatenation, read in place from the run a binary
//     search over the runs' start offsets finds. A run keeps the length
//     it had at the capture, so on a live index an append that lands
//     later is never read.
template <typename ProcessFn, typename EndMorselFn>
size_t RunValueMorsels(const MorselSite& site, const BaseIndex& index,
                       const KeyPredicate& predicate,
                       const CompositeRange& composite, ProcessFn&& process,
                       EndMorselFn&& end_morsel) {
  if (site.pool == nullptr) {
    return RunMorsels(site, 1, [&](size_t, size_t) {
      // Polls the cancel token every kCancelStride values. The ticker and
      // a copy of `process` live in the visitor itself: reaching them
      // through one more closure reference per value made the inline
      // Q1.x select-join on ssb-flight 5-8% slower than a direct loop.
      auto visit = [ticker = CancelTicker(site.cancel),
                    process](uint64_t v) mutable {
        ticker.Tick();
        process(size_t{0}, v);
      };
      index.ForEachKey(predicate, composite,
                       [&](const KissTree::ValueRef& vals) {
                         vals.ForEach(visit);
                       });
      end_morsel(size_t{0});
    });
  }
  const size_t target = site.morsel_target();
  const KissTree* kiss = index.kiss();
  using Kind = KeyPredicate::Kind;
  if (kiss != nullptr &&
      (!composite.empty() || predicate.kind == Kind::kRange ||
       predicate.kind == Kind::kAll)) {
    const auto [lo, hi] =
        !composite.empty() ? composite[0]
        : predicate.kind == Kind::kRange
            ? std::pair{predicate.lo, predicate.hi}
            : std::pair{std::numeric_limits<int64_t>::min(),
                        std::numeric_limits<int64_t>::max()};
    const BaseIndex::KissRanges spans = BaseIndex::KissRangesOf(lo, hi);
    std::vector<std::pair<uint32_t, uint32_t>> ranges;
    for (size_t i = 0; i < spans.count; ++i) {
      auto part = PartitionKissRange(*kiss, spans.lo[i], spans.hi[i], target);
      ranges.insert(ranges.end(), part.begin(), part.end());
    }
    if (ranges.size() >= site.workers()) {
      return RunMorsels(site, ranges.size(), [&](size_t worker, size_t m) {
        kiss->ScanRange(ranges[m].first, ranges[m].second,
                        [&](uint32_t, const KissTree::ValueRef& vals) {
                          vals.ForEach(
                              [&](uint64_t v) { process(worker, v); });
                        });
        end_morsel(worker);
      });
    }
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
  index.ForEachKey(predicate, composite, [&](const KissTree::ValueRef& vals) {
    if (const ValueList* list = vals.list()) {
      list->ForEachRun(add_run);
    } else {
      runs.push_back({nullptr, vals.front()});
      starts.push_back(starts.back() + 1);
    }
  });
  const size_t total = starts.back();
  // `runs` is complete, so pointers into it stay valid from here on.
  for (Run& run : runs) {
    if (run.values == nullptr) run.values = &run.single;
  }
  auto slices = SplitEvenly(
      total,
      std::min(target, (total + kMinSliceValues - 1) / kMinSliceValues));
  return RunMorsels(site, slices.size(), [&](size_t worker, size_t m) {
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
}

}  // namespace qppt::engine

#endif  // QPPT_ENGINE_PARALLEL_OPS_H_
