// Intra-operator parallelism (§7, "Future Challenges").
//
// The paper's argument for why QPPT parallelizes well: the prefix tree is
// unbalanced and *deterministic* — a key's position never moves — so the
// tree splits into disjoint subtrees by key range, and subtrees can be
// assigned to threads without the rebalancing hazards of B-trees (a
// balancing operation may move already-processed data into another
// thread's subtree). This header provides that partitioning for both
// index families plus a simple fork-join driver. PartitionKissRange /
// PartitionPrefixRange are also the morsel sources of the engine layer
// (engine/scheduler.h), which turns the substrate into concurrent
// operator throughput.

#ifndef QPPT_CORE_PARALLEL_H_
#define QPPT_CORE_PARALLEL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "index/kiss_tree.h"
#include "index/prefix_tree.h"

namespace qppt {

// Fork-join scope: spawned workers are joined on scope exit no matter how
// the scope unwinds, and the first exception a worker throws is captured
// and rethrown from Join() on the forking thread. Without this, a throwing
// shard functor escapes its std::thread and terminates the process.
class ForkJoin {
 public:
  explicit ForkJoin(size_t expected = 0) { workers_.reserve(expected); }
  ~ForkJoin() { JoinAll(); }
  ForkJoin(const ForkJoin&) = delete;
  ForkJoin& operator=(const ForkJoin&) = delete;

  template <typename F>
  void Spawn(F&& fn) {
    workers_.emplace_back([this, fn = std::forward<F>(fn)]() mutable {
      try {
        fn();
      } catch (...) {
        // lock-rank: manual — a leaf lock, held only to record the first
        // worker exception; nothing else is locked while it is held.
        std::lock_guard<std::mutex> lock(mu_);
        if (!error_) error_ = std::current_exception();
      }
    });
  }

  // Joins all workers, then rethrows the first captured exception (if any).
  void Join() {
    JoinAll();
    if (error_) {
      std::exception_ptr e = error_;
      error_ = nullptr;
      std::rethrow_exception(e);
    }
  }

 private:
  void JoinAll() {
    for (auto& w : workers_) {
      if (w.joinable()) w.join();
    }
    workers_.clear();
  }

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::exception_ptr error_;
};

// Key subranges [lo, hi] (inclusive) covering the intersection of
// [span_lo, span_hi] with the tree's populated key span, aligned to root
// buckets so no level-2 node is shared between shards. Returns at most
// `shards` non-empty ranges, in ascending order.
inline std::vector<std::pair<uint32_t, uint32_t>> PartitionKissRange(
    const KissTree& tree, uint32_t span_lo, uint32_t span_hi, size_t shards) {
  std::vector<std::pair<uint32_t, uint32_t>> ranges;
  if (tree.empty() || shards == 0) return ranges;
  uint32_t lo = std::max(span_lo, tree.min_key());
  uint32_t hi = std::min(span_hi, tree.max_key());
  if (lo > hi) return ranges;
  size_t l2 = tree.level2_bits();
  uint64_t first_bucket = lo >> l2;
  uint64_t last_bucket = hi >> l2;
  uint64_t buckets = last_bucket - first_bucket + 1;
  if (shards > buckets) shards = static_cast<size_t>(buckets);
  uint64_t per_shard = buckets / shards;
  uint64_t extra = buckets % shards;
  uint64_t bucket = first_bucket;
  for (size_t s = 0; s < shards; ++s) {
    uint64_t take = per_shard + (s < extra ? 1 : 0);
    uint64_t end_bucket = bucket + take - 1;
    uint32_t range_lo = static_cast<uint32_t>(bucket << l2);
    uint32_t range_hi = static_cast<uint32_t>(((end_bucket + 1) << l2) - 1);
    if (bucket == first_bucket) range_lo = lo;
    if (end_bucket == last_bucket) range_hi = hi;
    ranges.emplace_back(range_lo, range_hi);
    bucket = end_bucket + 1;
  }
  return ranges;
}

// Full-span overload: covers the tree's whole populated key range.
inline std::vector<std::pair<uint32_t, uint32_t>> PartitionKissRange(
    const KissTree& tree, size_t shards) {
  return PartitionKissRange(tree, 0, std::numeric_limits<uint32_t>::max(),
                            shards);
}

// Chops [0, n) into at most `shards` contiguous, non-empty [begin, end)
// slices differing in size by at most one — the balanced split shared by
// every morsel and merge-range planner.
inline std::vector<std::pair<size_t, size_t>> SplitEvenly(size_t n,
                                                          size_t shards) {
  std::vector<std::pair<size_t, size_t>> slices;
  if (n == 0 || shards == 0) return slices;
  if (shards > n) shards = n;
  size_t per = n / shards;
  size_t extra = n % shards;
  size_t at = 0;
  for (size_t s = 0; s < shards; ++s) {
    size_t take = per + (s < extra ? 1 : 0);
    slices.emplace_back(at, at + take);
    at += take;
  }
  return slices;
}

// Chops the ascending slot list `used` into at most `shards` contiguous
// spans [begin, end), each holding a balanced share of the listed slots.
inline std::vector<std::pair<size_t, size_t>> SpansOverUsedSlots(
    const std::vector<size_t>& used, size_t shards) {
  std::vector<std::pair<size_t, size_t>> ranges;
  for (const auto& [begin, end] : SplitEvenly(used.size(), shards)) {
    ranges.emplace_back(used[begin], used[end - 1] + 1);
  }
  return ranges;
}

// The effective root fanout of a prefix tree (short keys can make the
// first fragment narrower than 2^kprime).
inline size_t PrefixRootFanout(const PrefixTree& tree) {
  return std::min(tree.fanout(),
                  size_t{1} << std::min<size_t>(tree.config().kprime,
                                                tree.key_len() * 8));
}

// Root-slot spans [begin, end) partitioning a prefix tree into at most
// `shards` disjoint subtree groups. Only *populated* root slots count
// toward the balance, so a skewed tree still yields evenly loaded shards;
// every returned span contains at least one populated slot.
inline std::vector<std::pair<size_t, size_t>> PartitionPrefixRange(
    const PrefixTree& tree, size_t shards) {
  if (tree.num_keys() == 0 || shards == 0) return {};
  size_t fanout = PrefixRootFanout(tree);
  std::vector<size_t> used;
  for (size_t i = 0; i < fanout; ++i) {
    if (PrefixTree::LoadSlot(&tree.root()->slots[i]) != 0) used.push_back(i);
  }
  return SpansOverUsedSlots(used, shards);
}

// (Pair partitioning for the parallel synchronous index scan lives in
// core/sync_scan.h — FindPairScanLevel descends the shared single-slot
// chain to the branching level before splitting, so keys with long
// common encoded prefixes still parallelize.)

// Scans a KISS-Tree with `threads` worker threads, one disjoint key shard
// set per thread. F: void(size_t shard, uint32_t key,
// const KissTree::ValueRef&). Each shard is scanned in ascending key
// order; shards run concurrently, so F must be safe for concurrent calls
// with distinct `shard` values (e.g. write to per-shard accumulators).
template <typename F>
void ParallelScan(const KissTree& tree, size_t threads, F&& fn) {
  auto ranges = PartitionKissRange(tree, threads);
  if (ranges.empty()) return;
  if (ranges.size() == 1) {
    tree.ScanRange(ranges[0].first, ranges[0].second,
                   [&](uint32_t key, const KissTree::ValueRef& values) {
                     fn(size_t{0}, key, values);
                   });
    return;
  }
  ForkJoin fork(ranges.size());
  for (size_t s = 0; s < ranges.size(); ++s) {
    fork.Spawn([&, s] {
      tree.ScanRange(ranges[s].first, ranges[s].second,
                     [&](uint32_t key, const KissTree::ValueRef& values) {
                       fn(s, key, values);
                     });
    });
  }
  fork.Join();
}

// Scans a prefix tree with `threads` workers by splitting the root node's
// populated buckets into contiguous spans. F: void(size_t shard,
// const PrefixTree::ContentNode&).
template <typename F>
void ParallelScan(const PrefixTree& tree, size_t threads, F&& fn) {
  auto ranges = PartitionPrefixRange(tree, threads);
  if (ranges.empty()) return;
  if (ranges.size() == 1) {
    tree.ScanRootSlots(ranges[0].first, ranges[0].second,
                       [&](const PrefixTree::ContentNode& c) {
                         fn(size_t{0}, c);
                       });
    return;
  }
  ForkJoin fork(ranges.size());
  for (size_t s = 0; s < ranges.size(); ++s) {
    fork.Spawn([&, s] {
      tree.ScanRootSlots(ranges[s].first, ranges[s].second,
                         [&](const PrefixTree::ContentNode& c) { fn(s, c); });
    });
  }
  fork.Join();
}

// Convenience: parallel duplicate-aware tuple count (sanity/statistics).
inline uint64_t ParallelCountValues(const KissTree& tree, size_t threads) {
  std::vector<uint64_t> counts(threads == 0 ? 1 : threads, 0);
  ParallelScan(tree, threads,
               [&](size_t shard, uint32_t, const KissTree::ValueRef& v) {
                 counts[shard] += v.size();
               });
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  return total;
}

}  // namespace qppt

#endif  // QPPT_CORE_PARALLEL_H_
