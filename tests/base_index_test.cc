#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <utility>

#include "core/base_index.h"
#include "util/rng.h"

namespace qppt {
namespace {

std::unique_ptr<RowTable> MakePartTable(size_t n) {
  Schema schema({{"partkey", ValueType::kInt64, nullptr},
                 {"brand", ValueType::kInt64, nullptr},
                 {"size", ValueType::kInt64, nullptr}});
  auto table = std::make_unique<RowTable>(schema, "part");
  Rng rng(1);
  for (size_t i = 0; i < n; ++i) {
    uint64_t row[3] = {SlotFromInt64(static_cast<int64_t>(i)),
                       SlotFromInt64(static_cast<int64_t>(rng.NextBounded(40))),
                       SlotFromInt64(static_cast<int64_t>(rng.NextBounded(50)))};
    table->AppendRow(row);
  }
  return table;
}

// fn(value) for every value of the keys `predicate` selects.
template <typename F>
void ForEachSelected(const BaseIndex& index, const KeyPredicate& predicate,
                     F fn) {
  index.ForEachKey(predicate, {},
                   [&](const KissTree::ValueRef& vals) { vals.ForEach(fn); });
}

TEST(BaseIndexTest, SecondaryIndexYieldsRids) {
  auto table = MakePartTable(1000);
  auto index = BaseIndex::Build(table.get(), {"brand"}, {});
  ASSERT_TRUE(index.ok());
  EXPECT_FALSE((*index)->clustered());
  EXPECT_EQ((*index)->num_rows(), 1000u);

  // All rows with brand 7, via the index vs. a full scan.
  std::set<Rid> expected;
  for (Rid r = 0; r < 1000; ++r) {
    if (Int64FromSlot(table->GetSlot(r, 1)) == 7) expected.insert(r);
  }
  std::set<Rid> got;
  ForEachSelected(**index, KeyPredicate::Point(7),
                  [&](uint64_t value) { got.insert(value); });
  EXPECT_EQ(got, expected);
}

TEST(BaseIndexTest, ClusteredIndexAvoidsTableAccess) {
  auto table = MakePartTable(1000);
  auto index =
      BaseIndex::Build(table.get(), {"brand"}, {"partkey", "size"});
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE((*index)->clustered());

  auto partkey = (*index)->BindColumn("partkey");
  auto size = (*index)->BindColumn("size");
  auto brand = (*index)->BindColumn("brand");  // not included -> table
  ASSERT_TRUE(partkey.ok());
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(brand.ok());
  EXPECT_FALSE(partkey->touches_table());
  EXPECT_FALSE(size->touches_table());
  EXPECT_TRUE(brand->touches_table());

  ForEachSelected(**index, KeyPredicate::Point(3), [&](uint64_t value) {
    int64_t pk = Int64FromSlot(partkey->Get(value));
    // Cross-check against the base table.
    EXPECT_EQ(Int64FromSlot(table->GetSlot(static_cast<Rid>(pk), 1)), 3);
    EXPECT_EQ(Int64FromSlot(size->Get(value)),
              Int64FromSlot(table->GetSlot(static_cast<Rid>(pk), 2)));
  });
}

TEST(BaseIndexTest, RidPseudoColumn) {
  auto table = MakePartTable(100);
  auto index = BaseIndex::Build(table.get(), {"partkey"}, {});
  ASSERT_TRUE(index.ok());
  auto rid = (*index)->BindColumn("@rid");
  ASSERT_TRUE(rid.ok());
  ForEachSelected(**index, KeyPredicate::Point(42), [&](uint64_t value) {
    EXPECT_EQ(rid->Get(value), 42u);  // partkey == rid in this table
  });
}

TEST(BaseIndexTest, RangeScan) {
  auto table = MakePartTable(500);
  auto index = BaseIndex::Build(table.get(), {"partkey"}, {});
  ASSERT_TRUE(index.ok());
  size_t count = 0;
  ForEachSelected(**index, KeyPredicate::Range(100, 199),
                  [&](uint64_t) { ++count; });
  EXPECT_EQ(count, 100u);
}

TEST(BaseIndexTest, CompositeKeyUsesPrefixTree) {
  auto table = MakePartTable(300);
  auto index = BaseIndex::Build(table.get(), {"brand", "size"}, {});
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->kind(), BaseIndex::Kind::kPrefix);
  // Point lookup through the composite encoding.
  KeyBuf key;
  uint64_t slots[2] = {SlotFromInt64(3), SlotFromInt64(10)};
  (*index)->EncodeKey(slots, &key);
  size_t via_index = 0;
  const ValueList* vals = (*index)->prefix()->Lookup(key.data());
  if (vals != nullptr) via_index = vals->size();
  size_t via_scan = 0;
  for (Rid r = 0; r < 300; ++r) {
    if (Int64FromSlot(table->GetSlot(r, 1)) == 3 &&
        Int64FromSlot(table->GetSlot(r, 2)) == 10) {
      ++via_scan;
    }
  }
  EXPECT_EQ(via_index, via_scan);
}

TEST(BaseIndexTest, UnknownColumnsFail) {
  auto table = MakePartTable(10);
  EXPECT_FALSE(BaseIndex::Build(table.get(), {"ghost"}, {}).ok());
  EXPECT_FALSE(BaseIndex::Build(table.get(), {"brand"}, {"ghost"}).ok());
  EXPECT_FALSE(BaseIndex::Build(table.get(), {}, {}).ok());
}

TEST(BaseIndexTest, SnapshotIndexRespectsVisibility) {
  Schema schema({{"k", ValueType::kInt64, nullptr}});
  MvccTable table(schema, "t");
  TransactionManager tm;

  Transaction t1 = tm.Begin();
  uint64_t row[1] = {SlotFromInt64(1)};
  table.Insert(t1, row);
  Timestamp ts1 = tm.BeginCommit();
  table.CommitTransaction(t1, ts1);
  tm.FinishCommit(t1, ts1);

  // Uncommitted second row must be invisible to the index snapshot.
  Transaction t2 = tm.Begin();
  uint64_t row2[1] = {SlotFromInt64(2)};
  table.Insert(t2, row2);

  auto index = BaseIndex::BuildFromSnapshot(&table, tm.last_commit_ts(), {"k"});
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->num_rows(), 1u);

  Timestamp ts2 = tm.BeginCommit();
  table.CommitTransaction(t2, ts2);
  tm.FinishCommit(t2, ts2);
  auto index2 =
      BaseIndex::BuildFromSnapshot(&table, tm.last_commit_ts(), {"k"});
  ASSERT_TRUE(index2.ok());
  EXPECT_EQ((*index2)->num_rows(), 2u);
}

// ---- key-ordered layout ---------------------------------------------------------
//
// A bulk build sorts its input by the tree's key order. A partially
// clustered index then stores its partial records in that order (entry i
// is the i-th index entry), and a secondary index holds exactly the trees
// that inserting the input rows one by one would build.

// Columns: ik (small int64 incl. negatives), wide (int64 spanning many
// bytes, incl. negatives), dk (double incl. negatives), a, b (small ints).
Schema MixedSchema() {
  return Schema({{"ik", ValueType::kInt64, nullptr},
                 {"wide", ValueType::kInt64, nullptr},
                 {"dk", ValueType::kDouble, nullptr},
                 {"a", ValueType::kInt64, nullptr},
                 {"b", ValueType::kInt64, nullptr}});
}

std::vector<uint64_t> MixedRow(Rng* rng) {
  int64_t ik = static_cast<int64_t>(rng->NextBounded(600)) - 300;
  int64_t wide = (static_cast<int64_t>(rng->NextBounded(400)) - 200) *
                 int64_t{1'000'000'007};
  double dk = (static_cast<double>(rng->NextBounded(500)) - 250.0) / 8.0;
  return {SlotFromInt64(ik), SlotFromInt64(wide), SlotFromDouble(dk),
          SlotFromInt64(static_cast<int64_t>(rng->NextBounded(7))),
          SlotFromInt64(static_cast<int64_t>(rng->NextBounded(30)))};
}

std::unique_ptr<RowTable> MakeMixedTable(size_t n) {
  auto table = std::make_unique<RowTable>(MixedSchema(), "mixed");
  Rng rng(7);
  for (size_t i = 0; i < n; ++i) table->AppendRow(MixedRow(&rng));
  return table;
}

struct Entry {
  std::vector<uint8_t> key;
  std::vector<uint64_t> values;
  bool operator==(const Entry&) const = default;
};

// A tree's (key bytes, values) in key order.
std::vector<Entry> EntriesOf(const KissTree& tree) {
  std::vector<Entry> out;
  tree.ScanAll([&](uint32_t key, const KissTree::ValueRef& vals) {
    KeyBuf kb;
    kb.AppendU32(key);
    Entry e{{kb.data(), kb.data() + kb.size()}, {}};
    vals.ForEach([&](uint64_t v) { e.values.push_back(v); });
    out.push_back(std::move(e));
  });
  return out;
}

std::vector<Entry> EntriesOf(const PrefixTree& tree) {
  std::vector<Entry> out;
  tree.ScanAll([&](const PrefixTree::ContentNode& c) {
    Entry e{{c.key(), c.key() + tree.key_len()}, {}};
    tree.ValuesOf(&c)->ForEach([&](uint64_t v) { e.values.push_back(v); });
    out.push_back(std::move(e));
  });
  return out;
}

std::vector<Entry> EntriesOf(const BaseIndex& index) {
  return index.kind() == BaseIndex::Kind::kKiss ? EntriesOf(*index.kiss())
                                                : EntriesOf(*index.prefix());
}

// The bytes `index` orders row `rid` by.
std::vector<uint8_t> KeyBytesOf(const BaseIndex& index, const RowTable& table,
                                Rid rid) {
  std::vector<uint64_t> slots;
  for (const auto& name : index.key_column_names()) {
    slots.push_back(table.GetSlot(rid, *table.schema().ColumnIndex(name)));
  }
  KeyBuf kb;
  if (index.kind() == BaseIndex::Kind::kKiss) {
    kb.AppendU32(KissKeyOf(slots[0]));
  } else {
    index.EncodeKey(slots.data(), &kb);
  }
  return {kb.data(), kb.data() + kb.size()};
}

using IndexBuilder = std::function<Result<std::unique_ptr<BaseIndex>>(
    std::vector<std::string> included)>;

// Builds a clustered and a secondary index over input rows `input` (in
// input order) of `table` and checks the three layout properties.
void ExpectKeyOrderedLayout(const RowTable& table,
                            const std::vector<Rid>& input,
                            const IndexBuilder& build) {
  const std::vector<std::string> included = {"a", "dk", "wide"};
  auto clustered = build(included);
  ASSERT_TRUE(clustered.ok()) << clustered.status();
  const BaseIndex& ci = **clustered;
  ASSERT_TRUE(ci.clustered());
  ASSERT_EQ(ci.num_rows(), input.size());

  // (a) Each key's values form one contiguous ordinal range, and the
  // ranges ascend in key order, covering [0, num_rows).
  std::vector<Entry> entries = EntriesOf(ci);
  uint64_t next = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) {
      ASSERT_LT(entries[i - 1].key, entries[i].key);
    }
    std::vector<uint64_t> vals = entries[i].values;
    std::sort(vals.begin(), vals.end());
    for (uint64_t v : vals) ASSERT_EQ(v, next++) << "entry " << i;
  }
  EXPECT_EQ(next, input.size());

  // (b) Every value's @rid and included columns equal the table row, and
  // the row carries the entry's key; every input row appears once.
  auto rid_acc = ci.BindColumn("@rid");
  ASSERT_TRUE(rid_acc.ok());
  std::vector<std::pair<BaseIndex::Accessor, size_t>> cols;
  for (const auto& name : included) {
    auto acc = ci.BindColumn(name);
    ASSERT_TRUE(acc.ok());
    EXPECT_FALSE(acc->touches_table());
    cols.emplace_back(*acc, *table.schema().ColumnIndex(name));
  }
  std::multiset<Rid> seen;
  for (const Entry& e : entries) {
    for (uint64_t v : e.values) {
      Rid rid = rid_acc->Get(v);
      seen.insert(rid);
      EXPECT_EQ(KeyBytesOf(ci, table, rid), e.key);
      for (const auto& [acc, col] : cols) {
        EXPECT_EQ(acc.Get(v), table.GetSlot(rid, col));
      }
    }
  }
  EXPECT_EQ(seen, std::multiset<Rid>(input.begin(), input.end()));

  // (c) A secondary index maps each key to the same rid list, in the same
  // order, as a reference tree fed the input rows one by one.
  auto secondary = build({});
  ASSERT_TRUE(secondary.ok()) << secondary.status();
  const BaseIndex& si = **secondary;
  ASSERT_FALSE(si.clustered());
  std::vector<Entry> want;
  if (si.kind() == BaseIndex::Kind::kKiss) {
    KissTree ref(si.kiss()->config());
    for (Rid rid : input) {
      std::vector<uint8_t> key = KeyBytesOf(si, table, rid);
      ref.Insert(DecodeU32(key.data()), rid);
    }
    want = EntriesOf(ref);
  } else {
    PrefixTree ref(si.prefix()->config());
    for (Rid rid : input) {
      ref.Insert(KeyBytesOf(si, table, rid).data(), rid);
    }
    want = EntriesOf(ref);
  }
  EXPECT_EQ(EntriesOf(si), want);
}

std::vector<Rid> AllRids(const RowTable& table) {
  std::vector<Rid> rids(table.num_rows());
  for (Rid r = 0; r < rids.size(); ++r) rids[r] = r;
  return rids;
}

TEST(BaseIndexLayoutTest, KissKeysWithNegativeValues) {
  auto table = MakeMixedTable(5000);
  ExpectKeyOrderedLayout(*table, AllRids(*table), [&](auto included) {
    auto index = BaseIndex::Build(table.get(), {"ik"}, std::move(included));
    if (index.ok()) {
      EXPECT_EQ((*index)->kind(), BaseIndex::Kind::kKiss);
    }
    return index;
  });
}

TEST(BaseIndexLayoutTest, PrefixKeysWithNegativeAndDoubleValues) {
  auto table = MakeMixedTable(5000);
  TreeOptions prefix;
  prefix.prefer_kiss = false;
  for (const char* column : {"ik", "wide", "dk"}) {
    SCOPED_TRACE(column);
    ExpectKeyOrderedLayout(*table, AllRids(*table), [&](auto included) {
      auto index = BaseIndex::Build(table.get(), {column},
                                    std::move(included), prefix);
      if (index.ok()) {
        EXPECT_EQ((*index)->kind(), BaseIndex::Kind::kPrefix);
      }
      return index;
    });
  }
}

TEST(BaseIndexLayoutTest, CompositePrefixKey) {
  auto table = MakeMixedTable(5000);
  ExpectKeyOrderedLayout(*table, AllRids(*table), [&](auto included) {
    return BaseIndex::Build(table.get(), {"a", "dk", "b"}, std::move(included));
  });
}

TEST(BaseIndexLayoutTest, SnapshotOverSubsetOfRids) {
  MvccTable table(MixedSchema(), "mixed");
  TransactionManager tm;
  Rng rng(11);
  Transaction load = tm.Begin();
  for (int i = 0; i < 3000; ++i) table.Insert(load, MixedRow(&rng));
  Timestamp ts = tm.BeginCommit();
  table.CommitTransaction(load, ts);
  tm.FinishCommit(load, ts);

  // Update and delete some rows: updated rows move to new rids, so the
  // snapshot's rids are a subset in non-ascending order.
  Transaction writes = tm.Begin();
  for (MvccTable::LogicalId id = 0; id < 3000; id += 3) {
    if (id % 2 == 0) {
      ASSERT_TRUE(table.Update(writes, id, MixedRow(&rng)).ok());
    } else {
      ASSERT_TRUE(table.Delete(writes, id).ok());
    }
  }
  ts = tm.BeginCommit();
  table.CommitTransaction(writes, ts);
  tm.FinishCommit(writes, ts);
  Transaction pending = tm.Begin();  // never committed: invisible
  for (int i = 0; i < 100; ++i) table.Insert(pending, MixedRow(&rng));

  const Timestamp read_ts = tm.last_commit_ts();
  std::vector<Rid> input = table.SnapshotRids(read_ts);
  ASSERT_LT(input.size(), table.num_versions());
  ASSERT_FALSE(std::is_sorted(input.begin(), input.end()));
  for (const char* column : {"ik", "wide"}) {
    SCOPED_TRACE(column);
    ExpectKeyOrderedLayout(table.storage(), input, [&](auto included) {
      return BaseIndex::BuildFromSnapshot(&table, read_ts, {column},
                                          std::move(included));
    });
  }
}

TEST(BaseIndexTest, RejectsMoreKeyColumnsThanAKeyHolds) {
  auto table = MakeMixedTable(100);
  auto five =
      BaseIndex::Build(table.get(), {"ik", "wide", "dk", "a", "b"}, {});
  EXPECT_TRUE(five.status().IsInvalidArgument()) << five.status();
  EXPECT_TRUE(
      BaseIndex::Build(table.get(), {"ik", "wide", "dk", "a"}, {}).ok());
}

// ---- Database -----------------------------------------------------------------

TEST(DatabaseTest, TablesAndIndexes) {
  Database db;
  ASSERT_TRUE(db.AddTable(MakePartTable(100)).ok());
  EXPECT_TRUE(db.AddTable(MakePartTable(100)).IsResourceExhausted() ||
              db.AddTable(MakePartTable(100)).code() ==
                  StatusCode::kAlreadyExists);
  ASSERT_TRUE(db.table("part").ok());
  EXPECT_TRUE(db.table("nope").status().IsNotFound());

  ASSERT_TRUE(db.BuildIndex("part_brand", "part", {"brand"}, {"partkey"}).ok());
  EXPECT_EQ(db.BuildIndex("part_brand", "part", {"brand"}).code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(db.index("part_brand").ok());
  EXPECT_TRUE(db.index("nope").status().IsNotFound());
  EXPECT_EQ(db.table_names().size(), 1u);
  EXPECT_EQ(db.index_names().size(), 1u);
  EXPECT_GT(db.MemoryUsage(), 0u);
}

TEST(DatabaseTest, BuildIndexRejectsVersionedTable) {
  Database db;
  Schema schema({{"k", ValueType::kInt64, nullptr}});
  ASSERT_TRUE(
      db.AddVersionedTable(std::make_unique<MvccTable>(schema, "t")).ok());
  MvccTable* table = db.versioned_table("t").value();
  // An uncommitted row a plain index over the version rows would return.
  Transaction txn = db.txn_manager().Begin();
  uint64_t row[1] = {SlotFromInt64(5)};
  table->Insert(txn, row);

  Status built = db.BuildIndex("t_k", "t", {"k"});
  EXPECT_TRUE(built.IsInvalidArgument()) << built;
  EXPECT_NE(built.message().find("BuildLiveIndex"), std::string::npos);
  EXPECT_TRUE(db.index("t_k").status().IsNotFound());

  ASSERT_TRUE(db.BuildLiveIndex("t_k", "t", {"k"}).ok());
  EXPECT_NE(db.index("t_k").value()->mvcc(), nullptr);
}

}  // namespace
}  // namespace qppt
