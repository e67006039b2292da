#include <gtest/gtest.h>

#include "storage/column_table.h"
#include "storage/row_table.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace qppt {
namespace {

// ---- Value / slots -----------------------------------------------------------

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Int(3).is_int());
  EXPECT_TRUE(Value::Real(1.5).is_double());
  EXPECT_TRUE(Value::Str("x").is_string());
  EXPECT_EQ(Value::Int(-9).AsInt(), -9);
  EXPECT_EQ(Value::Real(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::Str("abc").AsString(), "abc");
}

TEST(ValueTest, Equality) {
  EXPECT_EQ(Value::Int(3), Value::Int(3));
  EXPECT_FALSE(Value::Int(3) == Value::Int(4));
  EXPECT_FALSE(Value::Int(3) == Value::Real(3.0));
  EXPECT_EQ(Value::Str("a"), Value::Str("a"));
}

TEST(ValueTest, SlotRoundTrip) {
  EXPECT_EQ(Int64FromSlot(SlotFromInt64(-123456789)), -123456789);
  EXPECT_EQ(DoubleFromSlot(SlotFromDouble(3.14159)), 3.14159);
  EXPECT_EQ(DoubleFromSlot(SlotFromDouble(-0.0)), -0.0);
}

// ---- Dictionary -----------------------------------------------------------------

TEST(DictionaryTest, OrderPreservingCodes) {
  Dictionary dict;
  dict.Add("EUROPE");
  dict.Add("AMERICA");
  dict.Add("ASIA");
  dict.Seal();
  auto america = dict.CodeOf("AMERICA");
  auto asia = dict.CodeOf("ASIA");
  auto europe = dict.CodeOf("EUROPE");
  ASSERT_TRUE(america.ok());
  ASSERT_TRUE(asia.ok());
  ASSERT_TRUE(europe.ok());
  // Lexicographic order: AMERICA < ASIA < EUROPE.
  EXPECT_LT(*america, *asia);
  EXPECT_LT(*asia, *europe);
  EXPECT_EQ(dict.StringOf(*europe), "EUROPE");
}

TEST(DictionaryTest, DuplicateAddsCollapse) {
  Dictionary dict;
  dict.Add("x");
  dict.Add("x");
  dict.Add("y");
  dict.Seal();
  EXPECT_EQ(dict.size(), 2u);
}

TEST(DictionaryTest, MissingEntryIsNotFound) {
  Dictionary dict;
  dict.Add("a");
  dict.Seal();
  EXPECT_TRUE(dict.CodeOf("zzz").status().IsNotFound());
}

// ---- Schema ----------------------------------------------------------------------

Schema TestSchema() {
  auto dict = std::make_shared<Dictionary>();
  dict->Add("red");
  dict->Add("blue");
  dict->Seal();
  return Schema({{"id", ValueType::kInt64, nullptr},
                 {"price", ValueType::kDouble, nullptr},
                 {"color", ValueType::kString, dict}});
}

TEST(SchemaTest, ColumnLookup) {
  Schema s = TestSchema();
  EXPECT_EQ(s.num_columns(), 3u);
  auto idx = s.ColumnIndex("price");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 1u);
  EXPECT_TRUE(s.ColumnIndex("nope").status().IsNotFound());
  EXPECT_TRUE(s.HasColumn("color"));
}

TEST(SchemaTest, Projection) {
  Schema s = TestSchema();
  auto proj = s.Project({"color", "id"});
  ASSERT_TRUE(proj.ok());
  EXPECT_EQ(proj->num_columns(), 2u);
  EXPECT_EQ(proj->column(0).name, "color");
  EXPECT_EQ(proj->column(1).name, "id");
  EXPECT_TRUE(s.Project({"ghost"}).status().IsNotFound());
}

TEST(SchemaTest, ToStringDescribes) {
  EXPECT_EQ(TestSchema().ToString(), "(id:int64, price:double, color:string)");
}

// ---- RowTable ----------------------------------------------------------------------

TEST(RowTableTest, AppendAndRead) {
  RowTable t(TestSchema(), "widgets");
  auto dict = t.schema().column(2).dictionary;
  uint64_t row0[3] = {SlotFromInt64(1), SlotFromDouble(9.5),
                      SlotFromInt64(dict->CodeOf("red").value())};
  uint64_t row1[3] = {SlotFromInt64(2), SlotFromDouble(1.25),
                      SlotFromInt64(dict->CodeOf("blue").value())};
  EXPECT_EQ(t.AppendRow(row0), 0u);
  EXPECT_EQ(t.AppendRow(row1), 1u);
  EXPECT_EQ(t.num_rows(), 2u);

  EXPECT_EQ(t.GetValue(0, 0), Value::Int(1));
  EXPECT_EQ(t.GetValue(1, 1), Value::Real(1.25));
  EXPECT_EQ(t.GetValue(0, 2), Value::Str("red"));
  auto by_name = t.GetValue(1, "color");
  ASSERT_TRUE(by_name.ok());
  EXPECT_EQ(*by_name, Value::Str("blue"));
}

TEST(RowTableTest, RecordPointerIsContiguous) {
  RowTable t(TestSchema());
  uint64_t row[3] = {SlotFromInt64(7), SlotFromDouble(2.0), 0};
  t.AppendRow(row);
  const uint64_t* rec = t.Record(0);
  EXPECT_EQ(Int64FromSlot(rec[0]), 7);
  EXPECT_EQ(DoubleFromSlot(rec[1]), 2.0);
}

TEST(RowTableTest, OutOfRangeRid) {
  RowTable t(TestSchema());
  EXPECT_TRUE(t.GetValue(5, "id").status().code() == StatusCode::kOutOfRange);
}

// ---- ColumnTable ----------------------------------------------------------------------

TEST(ColumnTableTest, FromRowTableTransposes) {
  RowTable rows(TestSchema());
  for (int i = 0; i < 10; ++i) {
    uint64_t row[3] = {SlotFromInt64(i), SlotFromDouble(i * 0.5), 0};
    rows.AppendRow(row);
  }
  ColumnTable cols = ColumnTable::FromRowTable(rows);
  EXPECT_EQ(cols.num_rows(), 10u);
  auto id_col = cols.ColumnByName("id");
  ASSERT_TRUE(id_col.ok());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(Int64FromSlot((**id_col)[static_cast<size_t>(i)]), i);
  }
}

TEST(ColumnTableTest, AppendRowFillsAllColumns) {
  ColumnTable t(TestSchema());
  uint64_t row[3] = {SlotFromInt64(5), SlotFromDouble(0.5), 1};
  t.AppendRow(row);
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.column(2)[0], 1u);
}

}  // namespace
}  // namespace qppt
