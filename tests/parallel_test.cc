#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/parallel.h"
#include "core/sync_scan.h"
#include "index/key_encoder.h"
#include "util/rng.h"

namespace qppt {
namespace {

TEST(PartitionKissRangeTest, CoversSpanDisjointly) {
  KissTree tree;
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    tree.Insert(static_cast<uint32_t>(rng.NextBounded(1 << 20)), 1);
  }
  for (size_t shards : {1, 2, 3, 7, 16}) {
    auto ranges = PartitionKissRange(tree, shards);
    ASSERT_FALSE(ranges.empty());
    ASSERT_LE(ranges.size(), shards);
    EXPECT_EQ(ranges.front().first, tree.min_key());
    EXPECT_EQ(ranges.back().second, tree.max_key());
    for (size_t i = 1; i < ranges.size(); ++i) {
      // Contiguous and disjoint.
      EXPECT_EQ(uint64_t{ranges[i - 1].second} + 1, ranges[i].first);
    }
    // Shard boundaries never split a level-2 node (except at the span
    // edges which are clamped to min/max).
    size_t l2 = tree.level2_bits();
    for (size_t i = 1; i < ranges.size(); ++i) {
      EXPECT_EQ(ranges[i].first & ((1u << l2) - 1), 0u);
    }
  }
}

TEST(PartitionKissRangeTest, EmptyTreeAndZeroShards) {
  KissTree tree;
  EXPECT_TRUE(PartitionKissRange(tree, 4).empty());
  tree.Insert(5, 1);
  EXPECT_TRUE(PartitionKissRange(tree, 0).empty());
  auto one = PartitionKissRange(tree, 8);  // more shards than buckets
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].first, 5u);
  EXPECT_EQ(one[0].second, 5u);
}

// ---- partition edge cases -------------------------------------------------

TEST(PartitionKissRangeTest, EdgeCases) {
  // Empty tree: no ranges, for any shard count.
  KissTree empty;
  EXPECT_TRUE(PartitionKissRange(empty, 1).empty());
  EXPECT_TRUE(PartitionKissRange(empty, 64).empty());

  // Single populated bucket (all keys share one level-2 node): exactly
  // one range regardless of requested shards.
  KissTree one_bucket;
  for (uint32_t k = 0; k < 64; ++k) one_bucket.Insert(k, k);
  for (size_t shards : {1, 2, 1024}) {
    auto ranges = PartitionKissRange(one_bucket, shards);
    ASSERT_EQ(ranges.size(), 1u) << shards;
    EXPECT_EQ(ranges[0].first, one_bucket.min_key());
    EXPECT_EQ(ranges[0].second, one_bucket.max_key());
  }

  // More shards than populated buckets: shard count collapses to the
  // bucket count, ranges stay disjoint and covering.
  KissTree sparse;
  size_t l2 = sparse.level2_bits();
  for (uint32_t b = 0; b < 3; ++b) {
    sparse.Insert(static_cast<uint32_t>(b << l2), b);
  }
  auto ranges = PartitionKissRange(sparse, 100);
  ASSERT_EQ(ranges.size(), 3u);
  EXPECT_EQ(ranges.front().first, sparse.min_key());
  EXPECT_EQ(ranges.back().second, sparse.max_key());
  for (size_t i = 1; i < ranges.size(); ++i) {
    EXPECT_EQ(uint64_t{ranges[i - 1].second} + 1, ranges[i].first);
  }

  // More shards than the machine has hardware threads: the partitioner
  // must not care, and the ranges still cover every value.
  size_t oversubscribed = std::thread::hardware_concurrency() * 4 + 3;
  KissTree big;
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    big.Insert(static_cast<uint32_t>(rng.NextBounded(1 << 22)), 1);
  }
  auto many = PartitionKissRange(big, oversubscribed);
  ASSERT_FALSE(many.empty());
  ASSERT_LE(many.size(), oversubscribed);
  EXPECT_EQ(many.front().first, big.min_key());
  EXPECT_EQ(many.back().second, big.max_key());
  uint64_t values = 0;
  for (const auto& [lo, hi] : many) {
    big.ScanRange(lo, hi, [&](uint32_t, const KissTree::ValueRef& v) {
      values += v.size();
    });
  }
  EXPECT_EQ(values, 20000u);
}

TEST(PartitionKissRangeTest, ClampedSpanOverload) {
  KissTree tree;
  for (uint32_t k = 1000; k < 9000; ++k) tree.Insert(k, k);
  auto ranges = PartitionKissRange(tree, 2000, 4000, 4);
  ASSERT_FALSE(ranges.empty());
  EXPECT_EQ(ranges.front().first, 2000u);
  EXPECT_EQ(ranges.back().second, 4000u);
  for (size_t i = 1; i < ranges.size(); ++i) {
    EXPECT_EQ(uint64_t{ranges[i - 1].second} + 1, ranges[i].first);
  }
  // Span disjoint from the populated range: empty.
  EXPECT_TRUE(PartitionKissRange(tree, 20000, 30000, 4).empty());
}

// ---- pair partitioning (parallel prefix-tree star join) --------------------

TEST(FindPairScanLevelTest, EdgeCases) {
  // Either side empty: no slots.
  PrefixTree empty({.key_len = 4, .kprime = 4});
  PrefixTree other({.key_len = 4, .kprime = 4});
  KeyBuf buf;
  buf.AppendU32(42);
  other.Insert(buf.data(), 1);
  EXPECT_TRUE(FindPairScanLevel(empty, other).slots.empty());
  EXPECT_TRUE(FindPairScanLevel(other, empty).slots.empty());

  // Populated but disjoint root slots: both trees have keys, yet no slot
  // is used by both — the scan would visit nothing, so no slots either.
  PrefixTree lo({.key_len = 4, .kprime = 4});
  PrefixTree hi({.key_len = 4, .kprime = 4});
  buf.clear();
  buf.AppendU32(0x10000000);  // top fragment 1
  lo.Insert(buf.data(), 1);
  buf.clear();
  buf.AppendU32(0xA0000000);  // top fragment 10
  hi.Insert(buf.data(), 2);
  EXPECT_TRUE(FindPairScanLevel(lo, hi).slots.empty());

  // Keys with a shared top fragment: the level descends past the shared
  // chain and still exposes parallelism (the old root-slot split would
  // have collapsed to one span).
  PrefixTree a({.key_len = 4, .kprime = 4});
  PrefixTree b({.key_len = 4, .kprime = 4});
  for (uint32_t k = 0; k < 200; ++k) {
    buf.clear();
    buf.AppendU32(k);  // all under top fragment 0 — and several more
    a.Insert(buf.data(), k);
    if (k % 2 == 0) b.Insert(buf.data(), k);
  }
  auto level = FindPairScanLevel(a, b);
  EXPECT_GT(level.slots.size(), 1u) << "shared-prefix chain not descended";
  EXPECT_GT(level.bit_off, 0u);

  // All duplicates under ONE key on both sides: the chain bottoms out at
  // a single content pair — exactly one unit of work, no split possible.
  PrefixTree dup_l({.key_len = 4, .kprime = 4});
  PrefixTree dup_r({.key_len = 4, .kprime = 4});
  buf.clear();
  buf.AppendU32(777);
  for (uint64_t v = 0; v < 50; ++v) {
    dup_l.Insert(buf.data(), v);
    dup_r.Insert(buf.data(), 100 + v);
  }
  auto dup_level = FindPairScanLevel(dup_l, dup_r);
  ASSERT_EQ(dup_level.slots.size(), 1u);
  size_t pairs = 0;
  SynchronousScanPairSlots(dup_l, dup_r, dup_level, 0, 1,
                           [&](const uint8_t*, const ValueList* lv,
                               const ValueList* rv) {
                             pairs += lv->size() * rv->size();
                           });
  EXPECT_EQ(pairs, 50u * 50u);
}

TEST(FindPairScanLevelTest, SlicedScanMatchesIntersection) {
  PrefixTree left({.key_len = 4, .kprime = 4});
  PrefixTree right({.key_len = 4, .kprime = 4});
  Rng rng(23);
  std::set<uint32_t> lkeys, rkeys;
  KeyBuf buf;
  for (int i = 0; i < 4000; ++i) {
    uint32_t k = rng.Next32() % 100000;
    buf.clear();
    buf.AppendU32(k);
    left.Insert(buf.data(), 1);
    lkeys.insert(k);
    k = rng.Next32() % 100000;
    buf.clear();
    buf.AppendU32(k);
    right.Insert(buf.data(), 1);
    rkeys.insert(k);
  }
  std::vector<uint32_t> expected;
  std::set_intersection(lkeys.begin(), lkeys.end(), rkeys.begin(),
                        rkeys.end(), std::back_inserter(expected));
  auto level = FindPairScanLevel(left, right);
  ASSERT_GT(level.slots.size(), 1u);
  for (size_t slices : {1, 2, 3, 7}) {
    // Chop the slot list into `slices` chunks; scanning every chunk must
    // visit exactly the key intersection once, in order within a chunk.
    size_t n = level.slots.size();
    std::vector<uint32_t> got;
    for (size_t s = 0; s < slices; ++s) {
      size_t begin = n * s / slices;
      size_t end = n * (s + 1) / slices;
      uint32_t last = 0;
      bool first = true;
      SynchronousScanPairSlots(
          left, right, level, begin, end,
          [&](const uint8_t* key, const ValueList*, const ValueList*) {
            uint32_t k = DecodeU32(key);
            if (!first) {
              EXPECT_GT(k, last);
            }
            first = false;
            last = k;
            got.push_back(k);
          });
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << slices;
  }
}

// ---- exception safety of the fork-join driver ------------------------------

TEST(ForkJoinTest, WorkerExceptionIsRethrownAfterJoin) {
  // A throwing worker must surface on the forking thread, not
  // std::terminate the process; the other workers still run to the end.
  std::atomic<int> finished{0};
  ForkJoin fork(4);
  for (int w = 0; w < 4; ++w) {
    fork.Spawn([&finished, w] {
      if (w == 1) throw std::runtime_error("worker boom");
      ++finished;
    });
  }
  EXPECT_THROW(fork.Join(), std::runtime_error);
  EXPECT_EQ(finished.load(), 3);
  // The scope stays usable afterwards: a clean round joins quietly.
  fork.Spawn([&finished] { ++finished; });
  EXPECT_NO_THROW(fork.Join());
  EXPECT_EQ(finished.load(), 4);
}

}  // namespace
}  // namespace qppt
