#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <span>
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

// ---- pair frontier (parallel prefix-tree star join) -------------------------

KeyBuf I64Key(int64_t v) {
  KeyBuf k;
  k.AppendI64(v);
  return k;
}

// Inserts each key once as an 8-byte int64 key, the SSB join-key shape.
void InsertAll(PrefixTree* tree, const std::set<int64_t>& keys) {
  for (int64_t k : keys) tree->Insert(I64Key(k).data(), 1);
}

// Scans `frontier` in `slices` even slices and returns the keys met,
// checking that they ascend within each slice.
std::vector<int64_t> ScanSlices(const PrefixTree& left,
                                const PrefixTree& right,
                                const std::vector<PairSlot>& frontier,
                                size_t slices) {
  std::vector<int64_t> got;
  for (const auto& [begin, end] : SplitEvenly(frontier.size(), slices)) {
    bool first = true;
    int64_t last = 0;
    SynchronousScanPairSlots(
        left, right,
        std::span<const PairSlot>(frontier).subspan(begin, end - begin),
        [&](const uint8_t* key, const ValueList*, const ValueList*) {
          int64_t k = DecodeI64(key);
          if (!first) {
            EXPECT_GT(k, last) << slices << " slices";
          }
          first = false;
          last = k;
          got.push_back(k);
        });
  }
  return got;
}

std::vector<int64_t> Intersect(const std::set<int64_t>& a,
                               const std::set<int64_t>& b) {
  std::vector<int64_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

TEST(PairFrontierTest, EmptyAndDisjointTreesGiveNoPairs) {
  PrefixTree empty({.key_len = 8, .kprime = 4});
  PrefixTree other({.key_len = 8, .kprime = 4});
  InsertAll(&other, {42});
  for (size_t target : {1, 128}) {
    EXPECT_TRUE(FindPairFrontier(empty, other, target).empty());
    EXPECT_TRUE(FindPairFrontier(other, empty, target).empty());
  }
  // Both trees hold keys, but no slot is used by both: at the root for
  // keys of opposite sign, below the shared chain for 1..100 against
  // 1000..1100, and at full depth for even against odd keys. A small
  // target stops above the level where the trees part; a target larger
  // than any level's joint pairs expands until no pair is left.
  auto disjoint = [](const std::set<int64_t>& a, const std::set<int64_t>& b) {
    PrefixTree left({.key_len = 8, .kprime = 4});
    PrefixTree right({.key_len = 8, .kprime = 4});
    InsertAll(&left, a);
    InsertAll(&right, b);
    for (size_t target : {1, 4, 128, 1024}) {
      auto frontier = FindPairFrontier(left, right, target);
      EXPECT_TRUE(ScanSlices(left, right, frontier, 4).empty()) << target;
      if (target == 1024) {
        EXPECT_TRUE(frontier.empty());
      }
    }
  };
  disjoint({-5, -3}, {3, 5});
  std::set<int64_t> low, high, even, odd;
  for (int64_t k = 1; k <= 100; ++k) low.insert(k);
  for (int64_t k = 1000; k <= 1100; ++k) high.insert(k);
  for (int64_t k = 0; k < 400; ++k) (k % 2 == 0 ? even : odd).insert(k);
  disjoint(low, high);
  disjoint(even, odd);
}

TEST(PairFrontierTest, DuplicatesUnderOneKeyAreOneContentPair) {
  // Each tree holds one key, in a content node in its root: one unit of
  // work, whatever the target.
  PrefixTree left({.key_len = 8, .kprime = 4});
  PrefixTree right({.key_len = 8, .kprime = 4});
  for (uint64_t v = 0; v < 50; ++v) {
    left.Insert(I64Key(777).data(), v);
    right.Insert(I64Key(777).data(), 100 + v);
  }
  for (size_t target : {1, 128}) {
    auto frontier = FindPairFrontier(left, right, target);
    ASSERT_EQ(frontier.size(), 1u);
    EXPECT_TRUE(PrefixTree::IsContent(frontier[0].left));
    EXPECT_TRUE(PrefixTree::IsContent(frontier[0].right));
    size_t pairs = 0;
    SynchronousScanPairSlots(left, right, frontier,
                             [&](const uint8_t*, const ValueList* lv,
                                 const ValueList* rv) {
                               pairs += lv->size() * rv->size();
                             });
    EXPECT_EQ(pairs, 50u * 50u);
  }
}

TEST(PairFrontierTest, HoldsTargetPairsAndSlicesScanTheIntersection) {
  Rng rng(23);
  for (int64_t span : {int64_t{20000}, int64_t{1} << 40}) {
    std::set<int64_t> lkeys, rkeys;
    for (int i = 0; i < 4000; ++i) {
      const auto draw = [&] {
        return static_cast<int64_t>(rng.Next() % static_cast<uint64_t>(span)) -
               span / 2;
      };
      lkeys.insert(draw());
      rkeys.insert(draw());
    }
    if (span > 20000) {
      // Sparse keys barely meet: share every tenth left key.
      size_t i = 0;
      for (int64_t k : lkeys) {
        if (i++ % 10 == 0) rkeys.insert(k);
      }
    }
    PrefixTree left({.key_len = 8, .kprime = 4});
    PrefixTree right({.key_len = 8, .kprime = 4});
    InsertAll(&left, lkeys);
    InsertAll(&right, rkeys);
    const std::vector<int64_t> expected = Intersect(lkeys, rkeys);
    ASSERT_GT(expected.size(), 300u);
    for (size_t target : {1, 4, 16, 128, 1024}) {
      auto frontier = FindPairFrontier(left, right, target);
      EXPECT_GE(frontier.size(), std::min(target, expected.size()))
          << "span " << span << ", target " << target;
      for (size_t slices : {size_t{1}, size_t{3}, target}) {
        std::vector<int64_t> got = ScanSlices(left, right, frontier, slices);
        // Ascending within each slice, and slices in key order.
        EXPECT_EQ(got, expected)
            << "span " << span << ", target " << target << ", " << slices
            << " slices";
      }
    }
  }
}

TEST(PairFrontierTest, ContentNodeAboveTheBranchingLevel) {
  // The right tree's few keys sit in content nodes where they diverge,
  // levels above the full depth, against full subtrees on the left.
  std::set<int64_t> lkeys;
  for (int64_t k = 0; k < 10000; ++k) lkeys.insert(k);
  for (const std::set<int64_t>& rkeys :
       {std::set<int64_t>{77}, std::set<int64_t>{77, 5000, 123456},
        std::set<int64_t>{-1, 9999}}) {
    PrefixTree left({.key_len = 8, .kprime = 4});
    PrefixTree right({.key_len = 8, .kprime = 4});
    InsertAll(&left, lkeys);
    InsertAll(&right, rkeys);
    const std::vector<int64_t> expected = Intersect(lkeys, rkeys);
    for (size_t target : {1, 4, 128}) {
      auto frontier = FindPairFrontier(left, right, target);
      EXPECT_LE(frontier.size(), rkeys.size());
      if (target == 128) {
        // Expanded as far as it goes: every pair stopped at a content node.
        for (const PairSlot& p : frontier) {
          EXPECT_TRUE(PrefixTree::IsContent(p.right));
        }
      }
      for (size_t slices : {1, 2}) {
        EXPECT_EQ(ScanSlices(left, right, frontier, slices), expected);
        // The same frontier mirrored: content on the left.
        auto mirrored = FindPairFrontier(right, left, target);
        EXPECT_EQ(ScanSlices(right, left, mirrored, slices), expected);
      }
    }
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
