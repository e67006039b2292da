#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "index/kiss_tree.h"
#include "util/rng.h"

namespace qppt {
namespace {

std::vector<uint64_t> Collect(const KissTree::ValueRef& ref) {
  std::vector<uint64_t> out;
  ref.ForEach([&](uint64_t v) { out.push_back(v); });
  return out;
}

// ---- CompactSlab ---------------------------------------------------------------

TEST(CompactSlabTest, HandlesResolveToDistinctMemory) {
  CompactSlab slab;
  std::vector<uint32_t> handles;
  for (int i = 0; i < 1000; ++i) {
    uint32_t h = slab.Allocate(24);
    ASSERT_NE(h, CompactSlab::kNullHandle);
    *static_cast<uint64_t*>(slab.Resolve(h)) = static_cast<uint64_t>(i);
    handles.push_back(h);
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(*static_cast<uint64_t*>(
                  slab.Resolve(handles[static_cast<size_t>(i)])),
              static_cast<uint64_t>(i));
  }
}

TEST(CompactSlabTest, SpansMultipleChunks) {
  CompactSlab slab;
  // 3000 x 1 KiB > 1 MiB chunk.
  std::vector<uint32_t> handles;
  for (int i = 0; i < 3000; ++i) handles.push_back(slab.Allocate(1024));
  EXPECT_GT(slab.bytes_reserved(), CompactSlab::kChunkBytes);
  // Handles remain valid across chunk growth.
  *static_cast<uint64_t*>(slab.Resolve(handles.front())) = 1;
  *static_cast<uint64_t*>(slab.Resolve(handles.back())) = 2;
  EXPECT_EQ(*static_cast<uint64_t*>(slab.Resolve(handles.front())), 1u);
}

// ---- KissTree: parameterized over compression and root width --------------------

struct KissParam {
  size_t root_bits;
  bool compress;
};

class KissTreeProperty : public ::testing::TestWithParam<KissParam> {
 protected:
  KissTree::Config ValuesConfig() const {
    return {.root_bits = GetParam().root_bits, .compress = GetParam().compress};
  }
};

TEST_P(KissTreeProperty, RandomUpsertLookupRoundTrip) {
  KissTree tree(ValuesConfig());
  Rng rng(1);
  std::map<uint32_t, uint64_t> reference;
  for (int i = 0; i < 20000; ++i) {
    uint32_t key = rng.Next32();
    uint64_t value = rng.Next() >> 1;
    tree.Upsert(key, value);
    reference[key] = value;
  }
  EXPECT_EQ(tree.num_keys(), reference.size());
  for (const auto& [key, value] : reference) {
    KissTree::ValueRef ref;
    ASSERT_TRUE(tree.Lookup(key, &ref)) << key;
    EXPECT_EQ(ref.front(), value);
    EXPECT_EQ(ref.size(), 1u);
  }
  for (int i = 0; i < 2000; ++i) {
    uint32_t key = rng.Next32();
    if (reference.count(key)) continue;
    EXPECT_FALSE(tree.Contains(key));
  }
}

TEST_P(KissTreeProperty, DuplicatesAccumulate) {
  KissTree tree(ValuesConfig());
  std::multiset<uint64_t> expected;
  for (uint64_t i = 0; i < 500; ++i) {
    tree.Insert(12345, i);
    expected.insert(i);
  }
  KissTree::ValueRef ref;
  ASSERT_TRUE(tree.Lookup(12345, &ref));
  EXPECT_EQ(ref.size(), 500u);
  auto values = Collect(ref);
  std::multiset<uint64_t> actual(values.begin(), values.end());
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(tree.num_keys(), 1u);
}

TEST_P(KissTreeProperty, ScanAllIsSortedAndComplete) {
  KissTree tree(ValuesConfig());
  Rng rng(2);
  std::set<uint32_t> reference;
  for (int i = 0; i < 10000; ++i) {
    // Bounded key range: a scan's cost is proportional to the root span
    // between min and max key, so full-range random keys would make this
    // test do 2^26 bucket probes per scan.
    uint32_t key = rng.Next32() % (1u << 22);
    tree.Upsert(key, key);
    reference.insert(key);
  }
  std::vector<uint32_t> scanned;
  tree.ScanAll([&](uint32_t key, const KissTree::ValueRef& ref) {
    scanned.push_back(key);
    EXPECT_EQ(ref.front(), key);
  });
  ASSERT_EQ(scanned.size(), reference.size());
  auto it = reference.begin();
  for (size_t i = 0; i < scanned.size(); ++i, ++it) {
    EXPECT_EQ(scanned[i], *it);
  }
}

TEST_P(KissTreeProperty, RangeScanMatchesReference) {
  KissTree tree(ValuesConfig());
  Rng rng(3);
  std::set<uint32_t> reference;
  for (int i = 0; i < 5000; ++i) {
    uint32_t key = rng.Next32() % (1u << 22);  // bounded: see ScanAll test
    tree.Upsert(key, 1);
    reference.insert(key);
  }
  for (int trial = 0; trial < 20; ++trial) {
    uint32_t lo = rng.Next32() % (1u << 22);
    uint32_t hi = rng.Next32() % (1u << 22);
    if (lo > hi) std::swap(lo, hi);
    std::vector<uint32_t> expected;
    for (uint32_t k : reference) {
      if (k >= lo && k <= hi) expected.push_back(k);
    }
    std::vector<uint32_t> scanned;
    tree.ScanRange(lo, hi, [&](uint32_t key, const KissTree::ValueRef&) {
      scanned.push_back(key);
    });
    EXPECT_EQ(scanned, expected);
  }
}

TEST_P(KissTreeProperty, BatchLookupAgreesWithPointLookup) {
  KissTree tree(ValuesConfig());
  Rng rng(4);
  std::vector<uint32_t> keys;
  for (int i = 0; i < 5000; ++i) {
    uint32_t key = rng.Next32() % 10000;
    keys.push_back(key);
    if (i % 2 == 0) tree.Insert(key, static_cast<uint64_t>(i));
  }
  std::vector<KissTree::LookupJob> jobs(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) jobs[i].key = keys[i];
  tree.BatchLookup(jobs);
  for (size_t i = 0; i < keys.size(); ++i) {
    KissTree::ValueRef direct;
    bool found = tree.Lookup(keys[i], &direct);
    ASSERT_EQ(jobs[i].found, found) << keys[i];
    if (found) {
      EXPECT_EQ(jobs[i].values.size(), direct.size());
      EXPECT_EQ(jobs[i].values.front(), direct.front());
    }
  }
}

TEST_P(KissTreeProperty, BatchUpsertMatchesSequential) {
  KissTree a(ValuesConfig());
  KissTree b(ValuesConfig());
  Rng rng(5);
  std::vector<KissTree::UpsertJob> jobs;
  for (int i = 0; i < 5000; ++i) {
    jobs.push_back({rng.Next32() % 3000, rng.Next() >> 1});
  }
  for (const auto& j : jobs) a.Upsert(j.key, j.value);
  b.BatchUpsert(jobs);
  EXPECT_EQ(a.num_keys(), b.num_keys());
  a.ScanAll([&](uint32_t key, const KissTree::ValueRef& ref) {
    KissTree::ValueRef other;
    ASSERT_TRUE(b.Lookup(key, &other));
    EXPECT_EQ(ref.front(), other.front());
  });
}

TEST_P(KissTreeProperty, MinMaxTracked) {
  KissTree tree(ValuesConfig());
  tree.Insert(500, 1);
  tree.Insert(100, 1);
  tree.Insert(900, 1);
  EXPECT_EQ(tree.min_key(), 100u);
  EXPECT_EQ(tree.max_key(), 900u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KissTreeProperty,
    ::testing::Values(KissParam{26, false}, KissParam{26, true},
                      KissParam{20, false}, KissParam{16, false}),
    [](const ::testing::TestParamInfo<KissParam>& info) {
      return "root" + std::to_string(info.param.root_bits) +
             (info.param.compress ? "_compressed" : "_uncompressed");
    });

TEST(KissTreeTest, DenseSequentialKeysUncompressed) {
  // The dense case QPPT optimizes for by disabling compression (§2.2).
  KissTree tree({.root_bits = 20, .compress = false});
  constexpr uint32_t kN = 100000;
  for (uint32_t i = 0; i < kN; ++i) tree.Upsert(i, i);
  EXPECT_EQ(tree.num_keys(), kN);
  uint32_t expected = 0;
  tree.ScanAll([&](uint32_t key, const KissTree::ValueRef& ref) {
    EXPECT_EQ(key, expected);
    EXPECT_EQ(ref.front(), expected);
    ++expected;
  });
  EXPECT_EQ(expected, kN);
}

TEST(KissTreeTest, CompressedUsesLessMemoryOnSparseKeys) {
  KissTree sparse_compressed({.root_bits = 26, .compress = true});
  KissTree sparse_flat({.root_bits = 26, .compress = false});
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    uint32_t key = rng.Next32();
    sparse_compressed.Upsert(key, 1);
    sparse_flat.Upsert(key, 1);
  }
  // One key per level-2 node on average: compression should win clearly
  // on slab bytes even counting RCU garbage.
  EXPECT_LT(sparse_compressed.MemoryUsage(), sparse_flat.MemoryUsage());
}

TEST(KissTreeTest, MoveTransfersOwnership) {
  KissTree a({.root_bits = 20, .compress = false});
  a.Insert(1, 10);
  KissTree b(std::move(a));
  KissTree::ValueRef ref;
  ASSERT_TRUE(b.Lookup(1, &ref));
  EXPECT_EQ(ref.front(), 10u);
}

}  // namespace
}  // namespace qppt
