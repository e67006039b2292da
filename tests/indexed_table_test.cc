#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "core/indexed_table.h"
#include "util/rng.h"

namespace qppt {
namespace {

Schema TupleSchema() {
  return Schema({{"orderdate", ValueType::kInt64, nullptr},
                 {"revenue", ValueType::kInt64, nullptr},
                 {"brand", ValueType::kInt64, nullptr}});
}

IndexedTable::Options SmallKiss() {
  IndexedTable::Options opt;
  opt.kiss_root_bits = 20;
  return opt;
}

TEST(IndexedTableTest, SingleIntKeyUsesKiss) {
  auto table = IndexedTable::Create(TupleSchema(), {"orderdate"}, SmallKiss());
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->kind(), IndexedTable::Kind::kKiss);
}

TEST(IndexedTableTest, CompositeKeyUsesPrefixTree) {
  auto table = IndexedTable::Create(TupleSchema(), {"orderdate", "brand"});
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->kind(), IndexedTable::Kind::kPrefix);
}

TEST(IndexedTableTest, PreferKissOffUsesPrefixTree) {
  IndexedTable::Options opt;
  opt.prefer_kiss = false;
  auto table = IndexedTable::Create(TupleSchema(), {"orderdate"}, opt);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->kind(), IndexedTable::Kind::kPrefix);
}

TEST(IndexedTableTest, UnknownKeyColumnFails) {
  EXPECT_FALSE(IndexedTable::Create(TupleSchema(), {"ghost"}).ok());
  EXPECT_FALSE(IndexedTable::Create(TupleSchema(), {}).ok());
}

// A key holds KeyBuf::kCapacity / 8 = 4 encoded columns; a fifth would
// overflow the key buffer on every insert.
TEST(IndexedTableTest, RejectsMoreKeyColumnsThanAKeyHolds) {
  Schema wide({{"c0", ValueType::kInt64, nullptr},
               {"c1", ValueType::kInt64, nullptr},
               {"c2", ValueType::kDouble, nullptr},
               {"c3", ValueType::kInt64, nullptr},
               {"c4", ValueType::kInt64, nullptr}});
  auto five = IndexedTable::Create(wide, {"c0", "c1", "c2", "c3", "c4"});
  EXPECT_TRUE(five.status().IsInvalidArgument()) << five.status();
  auto four = IndexedTable::Create(wide, {"c0", "c1", "c2", "c3"});
  ASSERT_TRUE(four.ok()) << four.status();
  uint64_t row[5] = {SlotFromInt64(-1), SlotFromInt64(2), SlotFromDouble(3.5),
                     SlotFromInt64(4), SlotFromInt64(5)};
  (*four)->Insert(row);
  EXPECT_EQ((*four)->num_keys(), 1u);
}

TEST(IndexedTableTest, InsertAndScanInKeyOrder) {
  auto table = IndexedTable::Create(TupleSchema(), {"orderdate"}, SmallKiss());
  ASSERT_TRUE(table.ok());
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    uint64_t row[3] = {SlotFromInt64(rng.NextBounded(100)),
                       SlotFromInt64(i), SlotFromInt64(i % 7)};
    (*table)->Insert(row);
  }
  EXPECT_EQ((*table)->num_tuples(), 1000u);
  int64_t prev = -1;
  size_t seen = 0;
  (*table)->ScanInOrder([&](const uint64_t* row) {
    int64_t key = Int64FromSlot(row[0]);
    EXPECT_GE(key, prev);
    prev = key;
    ++seen;
  });
  EXPECT_EQ(seen, 1000u);
}

TEST(IndexedTableTest, CompositeKeyScanOrder) {
  auto table = IndexedTable::Create(TupleSchema(), {"brand", "orderdate"});
  ASSERT_TRUE(table.ok());
  Rng rng(2);
  for (int i = 0; i < 500; ++i) {
    uint64_t row[3] = {SlotFromInt64(rng.NextBounded(50)), SlotFromInt64(i),
                       SlotFromInt64(rng.NextBounded(5))};
    (*table)->Insert(row);
  }
  std::pair<int64_t, int64_t> prev{-1, -1};
  (*table)->ScanInOrder([&](const uint64_t* row) {
    std::pair<int64_t, int64_t> cur{Int64FromSlot(row[2]),
                                    Int64FromSlot(row[0])};
    EXPECT_LE(prev, cur);
    prev = cur;
  });
}

TEST(IndexedTableTest, InsertIfAbsentDeduplicates) {
  auto table = IndexedTable::Create(TupleSchema(), {"orderdate"}, SmallKiss());
  ASSERT_TRUE(table.ok());
  uint64_t row[3] = {SlotFromInt64(7), SlotFromInt64(1), SlotFromInt64(2)};
  EXPECT_TRUE((*table)->InsertIfAbsent(row));
  row[1] = SlotFromInt64(99);
  EXPECT_FALSE((*table)->InsertIfAbsent(row));
  EXPECT_EQ((*table)->num_tuples(), 1u);
}

TEST(IndexedTableTest, AggregationGroupsAndSorts) {
  // Reproduces the §3 behaviour: inserting composed (year, brand) keys
  // groups automatically and the result scan is ordered.
  Schema input({{"year", ValueType::kInt64, nullptr},
                {"brand", ValueType::kInt64, nullptr},
                {"revenue", ValueType::kInt64, nullptr}});
  AggSpec agg({{AggFn::kSum, ScalarExpr::Column("revenue"), "sum_revenue"}});
  auto table = IndexedTable::CreateAggregated(
      {{"year", ValueType::kInt64, nullptr},
       {"brand", ValueType::kInt64, nullptr}},
      agg, input);
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE((*table)->aggregated());
  EXPECT_EQ((*table)->kind(), IndexedTable::Kind::kPrefix);

  Rng rng(3);
  std::map<std::pair<int64_t, int64_t>, int64_t> reference;
  for (int i = 0; i < 5000; ++i) {
    int64_t year = 1992 + static_cast<int64_t>(rng.NextBounded(7));
    int64_t brand = static_cast<int64_t>(rng.NextBounded(40));
    int64_t revenue = static_cast<int64_t>(rng.NextBounded(1000));
    uint64_t row[3] = {SlotFromInt64(year), SlotFromInt64(brand),
                       SlotFromInt64(revenue)};
    uint64_t key[2] = {row[0], row[1]};
    (*table)->InsertAggregated(key, row);
    reference[{year, brand}] += revenue;
  }
  EXPECT_EQ((*table)->num_keys(), reference.size());

  auto it = reference.begin();
  size_t groups = 0;
  (*table)->ScanGroups([&](const uint64_t* out) {
    ASSERT_NE(it, reference.end());
    EXPECT_EQ(Int64FromSlot(out[0]), it->first.first);
    EXPECT_EQ(Int64FromSlot(out[1]), it->first.second);
    EXPECT_EQ(Int64FromSlot(out[2]), it->second);
    ++it;
    ++groups;
  });
  EXPECT_EQ(groups, reference.size());
}

// The group directory over a 3-column prefix key: 100k groups, every
// group inserted twice in shuffled order, so the directory doubles many
// times while groups already sit in it. Each aggregate and the group
// order must match a std::map reference.
TEST(GroupDirectoryTest, ManyGroupsMatchMapReference) {
  Schema input({{"a", ValueType::kInt64, nullptr},
                {"b", ValueType::kInt64, nullptr},
                {"c", ValueType::kInt64, nullptr},
                {"v", ValueType::kInt64, nullptr}});
  AggSpec agg({{AggFn::kSum, ScalarExpr::Column("v"), "sum"},
               {AggFn::kCount, {}, "n"},
               {AggFn::kMin, ScalarExpr::Column("v"), "lo"},
               {AggFn::kMax, ScalarExpr::Column("v"), "hi"},
               {AggFn::kAvg, ScalarExpr::Column("v"), "avg"}});
  auto table = IndexedTable::CreateAggregated(
      {{"a", ValueType::kInt64, nullptr},
       {"b", ValueType::kInt64, nullptr},
       {"c", ValueType::kInt64, nullptr}},
      agg, input);
  ASSERT_TRUE(table.ok());
  ASSERT_EQ((*table)->kind(), IndexedTable::Kind::kPrefix);

  // 50 x 40 x 50 = 100k groups; negative a values exercise the sign flip.
  std::vector<std::tuple<int64_t, int64_t, int64_t>> keys;
  for (int64_t a = -25; a < 25; ++a) {
    for (int64_t b = 0; b < 40; ++b) {
      for (int64_t c = 0; c < 50; ++c) keys.emplace_back(a, b, c * 1000003);
    }
  }
  ASSERT_EQ(keys.size(), 100000u);
  std::vector<std::tuple<int64_t, int64_t, int64_t>> inserts = keys;
  inserts.insert(inserts.end(), keys.begin(), keys.end());
  Rng rng(17);
  for (size_t i = inserts.size() - 1; i > 0; --i) {
    std::swap(inserts[i], inserts[rng.NextBounded(i + 1)]);
  }

  struct Ref {
    int64_t sum = 0;
    int64_t n = 0;
    int64_t lo = std::numeric_limits<int64_t>::max();
    int64_t hi = std::numeric_limits<int64_t>::min();
  };
  std::map<std::tuple<int64_t, int64_t, int64_t>, Ref> reference;
  for (const auto& key : inserts) {
    const auto& [a, b, c] = key;
    int64_t v = rng.NextInRange(-1000, 1000);
    uint64_t row[4] = {SlotFromInt64(a), SlotFromInt64(b), SlotFromInt64(c),
                       SlotFromInt64(v)};
    (*table)->InsertAggregated(row, row);
    Ref& ref = reference[key];
    ref.sum += v;
    ++ref.n;
    ref.lo = std::min(ref.lo, v);
    ref.hi = std::max(ref.hi, v);
  }
  EXPECT_EQ((*table)->num_keys(), reference.size());
  EXPECT_EQ((*table)->num_tuples(), inserts.size());

  auto it = reference.begin();
  (*table)->ScanGroups([&](const uint64_t* out) {
    ASSERT_NE(it, reference.end());
    const auto& [a, b, c] = it->first;
    EXPECT_EQ(Int64FromSlot(out[0]), a);
    EXPECT_EQ(Int64FromSlot(out[1]), b);
    EXPECT_EQ(Int64FromSlot(out[2]), c);
    EXPECT_EQ(Int64FromSlot(out[3]), it->second.sum);
    EXPECT_EQ(Int64FromSlot(out[4]), it->second.n);
    EXPECT_EQ(Int64FromSlot(out[5]), it->second.lo);
    EXPECT_EQ(Int64FromSlot(out[6]), it->second.hi);
    EXPECT_DOUBLE_EQ(DoubleFromSlot(out[7]),
                     static_cast<double>(it->second.sum) /
                         static_cast<double>(it->second.n));
    ++it;
  });
  EXPECT_EQ(it, reference.end());
}

// Keys sharing ever longer prefixes: each new key pushes the content node
// of (p, 0) one fragment further down the tree (dynamic expansion), and
// (p, 0) is folded again right after each push. The directory keeps
// finding the same node, so each group accumulates in one payload.
TEST(GroupDirectoryTest, PushedDownGroupsKeepOnePayload) {
  Schema input({{"p", ValueType::kInt64, nullptr},
                {"x", ValueType::kInt64, nullptr},
                {"v", ValueType::kInt64, nullptr}});
  AggSpec agg({{AggFn::kSum, ScalarExpr::Column("v"), "sum"},
               {AggFn::kCount, {}, "n"}});
  auto table = IndexedTable::CreateAggregated(
      {{"p", ValueType::kInt64, nullptr}, {"x", ValueType::kInt64, nullptr}},
      agg, input);
  ASSERT_TRUE(table.ok());
  ASSERT_EQ((*table)->kind(), IndexedTable::Kind::kPrefix);

  std::map<std::pair<int64_t, int64_t>, std::pair<int64_t, int64_t>>
      reference;
  int64_t next_v = 1;
  auto insert = [&](int64_t p, int64_t x) {
    uint64_t row[3] = {SlotFromInt64(p), SlotFromInt64(x),
                       SlotFromInt64(next_v)};
    (*table)->InsertAggregated(row, row);
    auto& ref = reference[{p, x}];
    ref.first += next_v++;
    ++ref.second;
  };
  // x = 2^60, 2^56, ..., 2^4, 1 shares one more 4-bit fragment with
  // x = 0 each time.
  std::vector<int64_t> xs;
  for (int shift = 60; shift >= 0; shift -= 4) {
    xs.push_back(int64_t{1} << shift);
  }
  for (int64_t p : {int64_t{7}, int64_t{-7}, int64_t{1} << 40}) {
    insert(p, 0);
    for (int64_t x : xs) {
      insert(p, x);
      insert(p, 0);
    }
  }
  // Every key once more.
  std::vector<std::pair<int64_t, int64_t>> keys;
  for (const auto& [key, ref] : reference) keys.push_back(key);
  for (const auto& [p, x] : keys) insert(p, x);

  EXPECT_EQ((*table)->num_keys(), reference.size());
  auto it = reference.begin();
  (*table)->ScanGroups([&](const uint64_t* out) {
    ASSERT_NE(it, reference.end());
    EXPECT_EQ(Int64FromSlot(out[0]), it->first.first);
    EXPECT_EQ(Int64FromSlot(out[1]), it->first.second);
    EXPECT_EQ(Int64FromSlot(out[2]), it->second.first);
    EXPECT_EQ(Int64FromSlot(out[3]), it->second.second);
    ++it;
  });
  EXPECT_EQ(it, reference.end());
}

// A double group key: -0.0 and +0.0 encode to different bytes, and so do
// NaNs of different sign or payload. The table must group exactly as the
// prefix tree does on the encoded keys.
TEST(GroupDirectoryTest, DoubleKeysGroupAsTheTreeDoes) {
  Schema input({{"d", ValueType::kDouble, nullptr}});
  AggSpec agg({{AggFn::kCount, {}, "n"}});
  auto table = IndexedTable::CreateAggregated(
      {{"d", ValueType::kDouble, nullptr}}, agg, input);
  ASSERT_TRUE(table.ok());
  ASSERT_EQ((*table)->kind(), IndexedTable::Kind::kPrefix);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  uint64_t other_nan_bits = 0;
  std::memcpy(&other_nan_bits, &nan, sizeof(nan));
  other_nan_bits |= 1;  // another payload
  double other_nan = 0;
  std::memcpy(&other_nan, &other_nan_bits, sizeof(other_nan));
  const std::vector<double> values{-0.0, 0.0, nan, -nan, other_nan, 1.5,
                                   -1.5};

  // The tree alone, fed the same encoded keys.
  PrefixTree::Config cfg;
  cfg.key_len = 8;
  cfg.mode = PrefixTree::PayloadMode::kAggregate;
  cfg.agg_payload_size = sizeof(uint64_t);
  PrefixTree tree(cfg);
  Rng rng(23);
  for (int i = 0; i < 700; ++i) {
    uint64_t slot = SlotFromDouble(values[rng.NextBounded(values.size())]);
    (*table)->InsertAggregated(&slot, &slot);
    KeyBuf key;
    (*table)->EncodeKey(&slot, &key);
    bool created = false;
    std::byte* count = tree.FindOrCreatePayload(key.data(), &created);
    ++*reinterpret_cast<uint64_t*>(count);
  }
  ASSERT_EQ(tree.num_keys(), values.size());
  EXPECT_EQ((*table)->num_keys(), tree.num_keys());

  std::vector<std::pair<std::vector<uint8_t>, uint64_t>> want;
  tree.ScanAll([&](const PrefixTree::ContentNode& c) {
    uint64_t n = 0;
    std::memcpy(&n, tree.PayloadOf(&c), sizeof(n));
    want.emplace_back(std::vector<uint8_t>(c.key(), c.key() + 8), n);
  });
  std::vector<std::pair<std::vector<uint8_t>, uint64_t>> got;
  (*table)->ScanGroups([&](const uint64_t* out) {
    KeyBuf key;
    (*table)->EncodeKey(out, &key);
    got.emplace_back(std::vector<uint8_t>(key.data(), key.data() + 8),
                     static_cast<uint64_t>(Int64FromSlot(out[1])));
  });
  EXPECT_EQ(got, want);
}

// A single integer group key is KISS-eligible, yet an aggregated table
// is always a prefix tree (prefer_kiss applies to plain tables only), so
// negative groups come back signed and first.
TEST(IndexedTableTest, SingleKeyAggregationOnPrefix) {
  Schema input({{"date", ValueType::kInt64, nullptr},
                {"rev", ValueType::kInt64, nullptr}});
  AggSpec agg({{AggFn::kSum, ScalarExpr::Column("rev"), "total"},
               {AggFn::kCount, {}, "n"}});
  IndexedTable::Options opt;
  opt.kiss_root_bits = 20;
  ASSERT_TRUE(opt.prefer_kiss);
  auto table = IndexedTable::CreateAggregated(
      {{"date", ValueType::kInt64, nullptr}}, agg, input, opt);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->kind(), IndexedTable::Kind::kPrefix);

  std::map<int64_t, std::pair<int64_t, int64_t>> reference;
  Rng rng(4);
  for (int i = 0; i < 3000; ++i) {
    int64_t date = static_cast<int64_t>(rng.NextBounded(365)) - 182;
    int64_t rev = static_cast<int64_t>(rng.NextBounded(500));
    uint64_t row[2] = {SlotFromInt64(date), SlotFromInt64(rev)};
    (*table)->InsertAggregated(row, row);
    reference[date].first += rev;
    reference[date].second += 1;
  }
  auto it = reference.begin();
  (*table)->ScanGroups([&](const uint64_t* out) {
    ASSERT_NE(it, reference.end());
    EXPECT_EQ(Int64FromSlot(out[0]), it->first);
    EXPECT_EQ(Int64FromSlot(out[1]), it->second.first);
    EXPECT_EQ(Int64FromSlot(out[2]), it->second.second);
    ++it;
  });
  EXPECT_EQ(it, reference.end());
}

TEST(IndexedTableTest, AggregateKeysMustLead) {
  Schema input({{"a", ValueType::kInt64, nullptr},
                {"b", ValueType::kInt64, nullptr}});
  AggSpec agg({{AggFn::kCount, {}, "n"}});
  // Key named after a non-leading assembled column is fine as long as the
  // key defs passed to CreateAggregated lead the output — this is the
  // supported path.
  auto ok = IndexedTable::CreateAggregated({{"b", ValueType::kInt64, nullptr}},
                                           agg, input);
  EXPECT_TRUE(ok.ok());
}

TEST(IndexedTableTest, MemoryUsageGrows) {
  auto table = IndexedTable::Create(TupleSchema(), {"orderdate"}, SmallKiss());
  ASSERT_TRUE(table.ok());
  size_t before = (*table)->MemoryUsage();
  for (int i = 0; i < 10000; ++i) {
    uint64_t row[3] = {SlotFromInt64(i % 1000), SlotFromInt64(i),
                       SlotFromInt64(0)};
    (*table)->Insert(row);
  }
  EXPECT_GT((*table)->MemoryUsage(), before);
}

}  // namespace
}  // namespace qppt
