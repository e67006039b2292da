#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <vector>

#include "index/key_encoder.h"
#include "index/prefix_tree.h"
#include "util/rng.h"

namespace qppt {
namespace {

KeyBuf U32Key(uint32_t v) {
  KeyBuf k;
  k.AppendU32(v);
  return k;
}

// ---- basic behaviour ---------------------------------------------------------

TEST(PrefixTreeTest, EmptyLookupMisses) {
  PrefixTree tree({.key_len = 4, .kprime = 4});
  EXPECT_EQ(tree.Lookup(U32Key(1).data()), nullptr);
  EXPECT_EQ(tree.num_keys(), 0u);
}

TEST(PrefixTreeTest, SingleInsertLookup) {
  PrefixTree tree({.key_len = 4, .kprime = 4});
  tree.Insert(U32Key(0xDEADBEEF).data(), 77);
  const ValueList* v = tree.Lookup(U32Key(0xDEADBEEF).data());
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->size(), 1u);
  EXPECT_EQ(v->first(), 77u);
  EXPECT_EQ(tree.Lookup(U32Key(0xDEADBEEE).data()), nullptr);
}

TEST(PrefixTreeTest, DynamicExpansionOnSharedPrefix) {
  PrefixTree tree({.key_len = 4, .kprime = 4});
  // Keys sharing 28 bits force expansion to the last level.
  tree.Insert(U32Key(0x12345670).data(), 1);
  tree.Insert(U32Key(0x12345671).data(), 2);
  ASSERT_NE(tree.Lookup(U32Key(0x12345670).data()), nullptr);
  ASSERT_NE(tree.Lookup(U32Key(0x12345671).data()), nullptr);
  EXPECT_EQ(tree.Lookup(U32Key(0x12345670).data())->first(), 1u);
  EXPECT_EQ(tree.Lookup(U32Key(0x12345671).data())->first(), 2u);
  EXPECT_EQ(tree.num_keys(), 2u);
}

TEST(PrefixTreeTest, DuplicatesAccumulate) {
  PrefixTree tree({.key_len = 4, .kprime = 4});
  for (uint64_t i = 0; i < 100; ++i) {
    tree.Insert(U32Key(5).data(), i);
  }
  const ValueList* v = tree.Lookup(U32Key(5).data());
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->size(), 100u);
  EXPECT_EQ(tree.num_keys(), 1u);
}

TEST(PrefixTreeTest, UpsertReplaces) {
  PrefixTree tree({.key_len = 4, .kprime = 4});
  tree.Upsert(U32Key(9).data(), 1);
  tree.Upsert(U32Key(9).data(), 2);
  const ValueList* v = tree.Lookup(U32Key(9).data());
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->size(), 1u);
  EXPECT_EQ(v->first(), 2u);
}

TEST(PrefixTreeTest, AggregateModeFindOrCreate) {
  PrefixTree tree({.key_len = 4,
                   .kprime = 4,
                   .mode = PrefixTree::PayloadMode::kAggregate,
                   .agg_payload_size = 16});
  bool created = false;
  PrefixTree::ContentNode* g =
      tree.FindOrCreateGroup(U32Key(3).data(), &created);
  EXPECT_TRUE(created);
  // Payload starts zeroed; fold in a sum and a count.
  auto* sums = reinterpret_cast<int64_t*>(tree.MutablePayloadOf(g));
  EXPECT_EQ(sums[0], 0);
  sums[0] += 100;
  sums[1] += 1;
  EXPECT_EQ(tree.FindOrCreateGroup(U32Key(3).data(), &created), g);
  EXPECT_FALSE(created);
  reinterpret_cast<int64_t*>(tree.MutablePayloadOf(g))[0] += 50;
  const PrefixTree::ContentNode* r = tree.Find(U32Key(3).data());
  ASSERT_EQ(r, g);
  EXPECT_EQ(reinterpret_cast<const int64_t*>(tree.PayloadOf(r))[0], 150);
  EXPECT_EQ(tree.Find(U32Key(4).data()), nullptr);
}

// ---- property tests over k' and key width ------------------------------------

struct TreeParam {
  size_t key_len;
  size_t kprime;
};

class PrefixTreeProperty : public ::testing::TestWithParam<TreeParam> {};

TEST_P(PrefixTreeProperty, RandomInsertLookupRoundTrip) {
  auto [key_len, kprime] = GetParam();
  PrefixTree tree({.key_len = key_len, .kprime = kprime});
  Rng rng(42);
  std::map<std::vector<uint8_t>, uint64_t> reference;
  for (int i = 0; i < 3000; ++i) {
    std::vector<uint8_t> key(key_len);
    for (auto& b : key) b = static_cast<uint8_t>(rng.NextBounded(256));
    uint64_t value = rng.Next() >> 1;
    tree.Upsert(key.data(), value);
    reference[key] = value;
  }
  EXPECT_EQ(tree.num_keys(), reference.size());
  for (const auto& [key, value] : reference) {
    const ValueList* v = tree.Lookup(key.data());
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->first(), value);
  }
  // Absent keys miss.
  for (int i = 0; i < 500; ++i) {
    std::vector<uint8_t> key(key_len);
    for (auto& b : key) b = static_cast<uint8_t>(rng.NextBounded(256));
    if (reference.count(key)) continue;
    EXPECT_EQ(tree.Lookup(key.data()), nullptr);
  }
}

TEST_P(PrefixTreeProperty, ScanAllIsSorted) {
  auto [key_len, kprime] = GetParam();
  PrefixTree tree({.key_len = key_len, .kprime = kprime});
  Rng rng(43);
  std::set<std::vector<uint8_t>> reference;
  for (int i = 0; i < 2000; ++i) {
    std::vector<uint8_t> key(key_len);
    for (auto& b : key) b = static_cast<uint8_t>(rng.NextBounded(256));
    tree.Insert(key.data(), 1);
    reference.insert(key);
  }
  std::vector<std::vector<uint8_t>> scanned;
  tree.ScanAll([&](const PrefixTree::ContentNode& c) {
    scanned.emplace_back(c.key(), c.key() + key_len);
  });
  ASSERT_EQ(scanned.size(), reference.size());
  // The scan must enumerate exactly the reference set, in sorted order.
  auto it = reference.begin();
  for (size_t i = 0; i < scanned.size(); ++i, ++it) {
    EXPECT_EQ(scanned[i], *it);
  }
}

TEST_P(PrefixTreeProperty, RangeScanMatchesReference) {
  auto [key_len, kprime] = GetParam();
  PrefixTree tree({.key_len = key_len, .kprime = kprime});
  Rng rng(44);
  std::set<std::vector<uint8_t>> reference;
  for (int i = 0; i < 1000; ++i) {
    std::vector<uint8_t> key(key_len);
    for (auto& b : key) b = static_cast<uint8_t>(rng.NextBounded(256));
    tree.Insert(key.data(), 1);
    reference.insert(key);
  }
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<uint8_t> lo(key_len), hi(key_len);
    for (auto& b : lo) b = static_cast<uint8_t>(rng.NextBounded(256));
    for (auto& b : hi) b = static_cast<uint8_t>(rng.NextBounded(256));
    if (std::memcmp(lo.data(), hi.data(), key_len) > 0) std::swap(lo, hi);
    std::set<std::vector<uint8_t>> expected;
    for (const auto& k : reference) {
      if (std::memcmp(k.data(), lo.data(), key_len) >= 0 &&
          std::memcmp(k.data(), hi.data(), key_len) <= 0) {
        expected.insert(k);
      }
    }
    std::vector<std::vector<uint8_t>> scanned;
    tree.ScanRange(lo.data(), hi.data(),
                   [&](const PrefixTree::ContentNode& c) {
                     scanned.emplace_back(c.key(), c.key() + key_len);
                   });
    ASSERT_EQ(scanned.size(), expected.size());
    auto it = expected.begin();
    for (size_t i = 0; i < scanned.size(); ++i, ++it) {
      EXPECT_EQ(scanned[i], *it);
    }
  }
}

TEST_P(PrefixTreeProperty, BatchLookupAgreesWithPointLookup) {
  auto [key_len, kprime] = GetParam();
  PrefixTree tree({.key_len = key_len, .kprime = kprime});
  Rng rng(45);
  std::vector<std::vector<uint8_t>> keys;
  for (int i = 0; i < 1000; ++i) {
    std::vector<uint8_t> key(key_len);
    for (auto& b : key) b = static_cast<uint8_t>(rng.NextBounded(256));
    if (i % 2 == 0) tree.Insert(key.data(), static_cast<uint64_t>(i));
    keys.push_back(std::move(key));
  }
  std::vector<PrefixTree::LookupJob> jobs(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) jobs[i].key = keys[i].data();
  tree.BatchLookup(jobs);
  for (size_t i = 0; i < keys.size(); ++i) {
    const ValueList* direct = tree.Lookup(keys[i].data());
    if (direct == nullptr) {
      EXPECT_EQ(jobs[i].result, nullptr);
    } else {
      ASSERT_NE(jobs[i].result, nullptr);
      EXPECT_EQ(tree.ValuesOf(jobs[i].result)->first(), direct->first());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PrefixTreeProperty,
    ::testing::Values(TreeParam{4, 4}, TreeParam{4, 2}, TreeParam{4, 8},
                      TreeParam{8, 4}, TreeParam{8, 8}, TreeParam{3, 4},
                      TreeParam{16, 4}, TreeParam{4, 5}, TreeParam{6, 12}),
    [](const ::testing::TestParamInfo<TreeParam>& info) {
      return "len" + std::to_string(info.param.key_len) + "_k" +
             std::to_string(info.param.kprime);
    });

// ---- dense sequential keys (the Fig. 3 workload shape) --------------------------

TEST(PrefixTreeTest, DenseSequentialKeys) {
  PrefixTree tree({.key_len = 4, .kprime = 4});
  constexpr uint32_t kN = 50000;
  for (uint32_t i = 0; i < kN; ++i) {
    tree.Upsert(U32Key(i).data(), i * 2);
  }
  EXPECT_EQ(tree.num_keys(), kN);
  for (uint32_t i = 0; i < kN; i += 97) {
    const ValueList* v = tree.Lookup(U32Key(i).data());
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->first(), uint64_t{i} * 2);
  }
  // In-order scan of a dense range is exactly 0..kN-1.
  uint32_t expected = 0;
  tree.ScanAll([&](const PrefixTree::ContentNode& c) {
    EXPECT_EQ(DecodeU32(c.key()), expected++);
  });
  EXPECT_EQ(expected, kN);
}

TEST(PrefixTreeTest, MemoryGrowsWithKprimeOnSparseKeys) {
  // §2.1: higher k' costs memory when the key distribution is sparse.
  Rng rng(8);
  std::vector<uint32_t> keys;
  for (int i = 0; i < 5000; ++i) keys.push_back(rng.Next32());
  PrefixTree k4({.key_len = 4, .kprime = 4});
  PrefixTree k8({.key_len = 4, .kprime = 8});
  for (uint32_t k : keys) {
    k4.Upsert(U32Key(k).data(), 1);
    k8.Upsert(U32Key(k).data(), 1);
  }
  EXPECT_GT(k8.MemoryUsage(), k4.MemoryUsage());
}

TEST(PrefixTreeTest, HandlesKeyLengthNotMultipleOfKprime) {
  // key_bits = 24, kprime = 5 -> last fragment is 4 bits wide.
  PrefixTree tree({.key_len = 3, .kprime = 5});
  std::vector<std::vector<uint8_t>> keys;
  for (int i = 0; i < 256; ++i) {
    keys.push_back({static_cast<uint8_t>(i), static_cast<uint8_t>(255 - i),
                    static_cast<uint8_t>(i * 7)});
    tree.Upsert(keys.back().data(), static_cast<uint64_t>(i));
  }
  for (int i = 0; i < 256; ++i) {
    const ValueList* v = tree.Lookup(keys[static_cast<size_t>(i)].data());
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->first(), static_cast<uint64_t>(i));
  }
}

}  // namespace
}  // namespace qppt
