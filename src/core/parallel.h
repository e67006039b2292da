// Intra-operator parallelism (§7, "Future Challenges").
//
// The paper's argument for why QPPT parallelizes well: the prefix tree is
// unbalanced and *deterministic* — a key's position never moves — so the
// tree splits into disjoint subtrees by key range, and subtrees can be
// assigned to threads without the rebalancing hazards of B-trees (a
// balancing operation may move already-processed data into another
// thread's subtree). This header provides the KISS-Tree key-range
// partitioning and the balanced slice split that the engine's morsel
// drivers (engine/parallel_ops.h) run on the worker pool
// (engine/scheduler.h), plus a fork-join scope for client threads.
// Prefix trees split at their branching level instead (FindPairScanLevel,
// core/sync_scan.h).

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

}  // namespace qppt

#endif  // QPPT_CORE_PARALLEL_H_
