#include <gtest/gtest.h>

#include <map>
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

TEST(IndexedTableTest, SingleKeyAggregationOnKiss) {
  Schema input({{"date", ValueType::kInt64, nullptr},
                {"rev", ValueType::kInt64, nullptr}});
  AggSpec agg({{AggFn::kSum, ScalarExpr::Column("rev"), "total"},
               {AggFn::kCount, {}, "n"}});
  IndexedTable::Options opt;
  opt.kiss_root_bits = 20;
  auto table = IndexedTable::CreateAggregated(
      {{"date", ValueType::kInt64, nullptr}}, agg, input, opt);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->kind(), IndexedTable::Kind::kKiss);

  std::map<int64_t, std::pair<int64_t, int64_t>> reference;
  Rng rng(4);
  for (int i = 0; i < 3000; ++i) {
    int64_t date = static_cast<int64_t>(rng.NextBounded(365));
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
