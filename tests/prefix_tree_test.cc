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

// ---- the top: point descents start below the shared key prefix --------------

struct TopParam {
  size_t key_len;
  size_t kprime;
  // Keys that diverge from 1..200 ever higher, the last one at the root.
  std::vector<int64_t> higher;
};

class PrefixTreeTop : public ::testing::TestWithParam<TopParam> {
 protected:
  // The last key_len bytes of v's order-preserving int64 encoding.
  std::vector<uint8_t> Key(int64_t v) const {
    KeyBuf k;
    k.AppendI64(v);
    return std::vector<uint8_t>(k.data() + 8 - GetParam().key_len,
                                k.data() + 8);
  }

  // 1..200, then the ever-higher keys.
  std::vector<int64_t> Order() const {
    std::vector<int64_t> order;
    for (int64_t k = 1; k <= 200; ++k) order.push_back(k);
    for (int64_t k : GetParam().higher) order.push_back(k);
    return order;
  }

  // Absent keys: some share the prefix of 1..200 (0, 201, 2^20 - 1) or
  // of a higher key (h + 1), and -2 and -200 differ from every positive
  // key in the first byte.
  std::vector<int64_t> Absent() const {
    std::vector<int64_t> absent{0, 201, 250, 256, 4095, (1 << 20) - 1, -2,
                                -200};
    for (int64_t h : GetParam().higher) {
      if (h > 0) absent.push_back(h + 1);
    }
    return absent;
  }

  // Present keys answer with their value and absent ones miss, through
  // Find, Lookup and BatchLookup.
  void ExpectAnswers(const PrefixTree& tree,
                     const std::vector<int64_t>& present,
                     const std::vector<int64_t>& absent) const {
    std::vector<std::vector<uint8_t>> keys;
    for (int64_t k : present) keys.push_back(Key(k));
    for (int64_t k : absent) keys.push_back(Key(k));
    std::vector<PrefixTree::LookupJob> jobs(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) jobs[i].key = keys[i].data();
    tree.BatchLookup(jobs);
    for (size_t i = 0; i < keys.size(); ++i) {
      const bool is_present = i < present.size();
      const int64_t k = is_present ? present[i] : absent[i - present.size()];
      const PrefixTree::ContentNode* c = tree.Find(keys[i].data());
      const ValueList* v = tree.Lookup(keys[i].data());
      if (is_present) {
        ASSERT_NE(c, nullptr) << k;
        ASSERT_NE(v, nullptr) << k;
        ASSERT_EQ(jobs[i].result, c) << k;
        EXPECT_EQ(v->first(), static_cast<uint64_t>(k)) << k;
        EXPECT_EQ(std::memcmp(c->key(), keys[i].data(), keys[i].size()), 0);
      } else {
        EXPECT_EQ(c, nullptr) << k;
        EXPECT_EQ(v, nullptr) << k;
        EXPECT_EQ(jobs[i].result, nullptr) << k;
      }
    }
  }

  PrefixTree::Config Values() const {
    return {.key_len = GetParam().key_len, .kprime = GetParam().kprime};
  }
};

TEST_P(PrefixTreeTop, EmptyOneKeyAndSecondKeyTrees) {
  PrefixTree tree(Values());
  ExpectAnswers(tree, {}, {1, 2, 0, -2});
  // One key: its content node sits in the root.
  tree.Insert(Key(1).data(), 1);
  ExpectAnswers(tree, {1}, {0, 2, 3, 200, -2});
  // The second key shares all but the last bits with the first; dynamic
  // expansion builds the chain down to the node where the two diverge.
  tree.Insert(Key(2).data(), 2);
  ExpectAnswers(tree, {1, 2}, {0, 3, 17, 1 << 20, -1, -2});
  EXPECT_EQ(tree.num_keys(), 2u);
}

TEST_P(PrefixTreeTop, KeysDivergingEverHigherStayFound) {
  PrefixTree tree(Values());
  const std::vector<int64_t> order = Order();
  const std::vector<int64_t> absent = Absent();
  std::vector<int64_t> present;
  for (int64_t k : order) {
    tree.Insert(Key(k).data(), static_cast<uint64_t>(k));
    present.push_back(k);
    ExpectAnswers(tree, present, absent);
  }
  EXPECT_EQ(tree.num_keys(), order.size());
  // A scan from the root still sees the keys in encoded order.
  std::vector<std::vector<uint8_t>> sorted;
  for (int64_t k : order) sorted.push_back(Key(k));
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::vector<uint8_t>> scanned;
  tree.ScanAll([&](const PrefixTree::ContentNode& c) {
    scanned.emplace_back(c.key(), c.key() + GetParam().key_len);
  });
  EXPECT_EQ(scanned, sorted);
}

TEST_P(PrefixTreeTop, FindOrCreateGroupAndUpsertFollowTheTop) {
  PrefixTree groups({.key_len = GetParam().key_len,
                     .kprime = GetParam().kprime,
                     .mode = PrefixTree::PayloadMode::kAggregate,
                     .agg_payload_size = 8});
  PrefixTree upserts(Values());
  const std::vector<int64_t> order = Order();
  std::vector<PrefixTree::ContentNode*> nodes;
  for (size_t i = 0; i < order.size(); ++i) {
    std::vector<uint8_t> key = Key(order[i]);
    bool created = false;
    nodes.push_back(groups.FindOrCreateGroup(key.data(), &created));
    EXPECT_TRUE(created) << order[i];
    upserts.Upsert(key.data(), i);
    // Every earlier group is found, not created again, and folds; every
    // earlier upsert replaces its key's value.
    for (size_t j = 0; j <= i; ++j) {
      std::vector<uint8_t> kj = Key(order[j]);
      ASSERT_EQ(groups.FindOrCreateGroup(kj.data(), &created), nodes[j])
          << order[j] << " after " << order[i];
      EXPECT_FALSE(created);
      *reinterpret_cast<int64_t*>(groups.MutablePayloadOf(nodes[j])) += 1;
      upserts.Upsert(kj.data(), i);
      const ValueList* v = upserts.Lookup(kj.data());
      ASSERT_NE(v, nullptr) << order[j];
      EXPECT_EQ(v->size(), 1u);
      EXPECT_EQ(v->first(), i);
    }
    EXPECT_EQ(groups.num_keys(), i + 1);
    EXPECT_EQ(upserts.num_keys(), i + 1);
  }
  for (size_t j = 0; j < order.size(); ++j) {
    EXPECT_EQ(*reinterpret_cast<const int64_t*>(groups.PayloadOf(nodes[j])),
              static_cast<int64_t>(order.size() - j));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PrefixTreeTop,
    ::testing::Values(
        // int64 keys at k' 4: 1..200 diverge in the last two nibbles.
        TopParam{8, 4, {int64_t{1} << 20, int64_t{1} << 40, -1}},
        // An odd shape: 5-byte keys at k' 3, the last fragment 1 bit.
        TopParam{5, 3, {int64_t{1} << 20, int64_t{1} << 32, -1}}),
    [](const ::testing::TestParamInfo<TopParam>& info) {
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
