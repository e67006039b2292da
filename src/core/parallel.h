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
// Prefix trees split on a subtree-pair frontier instead (FindPairFrontier,
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

// Chops [0, n) into at most `shards` contiguous, non-empty [begin, end)
// slices differing in size by at most one — the balanced split shared by
// the morsel drivers.
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

// Key subranges [lo, hi] (inclusive) covering the intersection of
// [span_lo, span_hi] with the tree's populated key spans (one per half
// of the key space, KissTree::ForEachSpan), aligned to root buckets so no
// level-2 node is shared between shards. Returns at most `shards`
// non-empty ranges per span, in ascending order.
inline std::vector<std::pair<uint32_t, uint32_t>> PartitionKissRange(
    const KissTree& tree, uint32_t span_lo, uint32_t span_hi, size_t shards) {
  std::vector<std::pair<uint32_t, uint32_t>> ranges;
  const size_t l2 = tree.level2_bits();
  tree.ForEachSpan(span_lo, span_hi, [&](uint32_t lo, uint32_t hi) {
    const uint64_t first = lo >> l2;
    const uint64_t buckets = (hi >> l2) - first + 1;
    for (const auto& [begin, end] : SplitEvenly(buckets, shards)) {
      ranges.emplace_back(
          begin == 0 ? lo : static_cast<uint32_t>((first + begin) << l2),
          end == buckets ? hi
                         : static_cast<uint32_t>(((first + end) << l2) - 1));
    }
  });
  return ranges;
}

// Full-span overload: covers the tree's whole populated key range.
inline std::vector<std::pair<uint32_t, uint32_t>> PartitionKissRange(
    const KissTree& tree, size_t shards) {
  return PartitionKissRange(tree, 0, std::numeric_limits<uint32_t>::max(),
                            shards);
}

}  // namespace qppt

#endif  // QPPT_CORE_PARALLEL_H_
