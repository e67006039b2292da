#include <gtest/gtest.h>

#include <memory>

#include "core/operators/selection.h"
#include "core/plan.h"

namespace qppt {
namespace {

std::unique_ptr<Database> MakeDb() {
  auto db_ptr = std::make_unique<Database>();
  Database& db = *db_ptr;
  auto dict = std::make_shared<Dictionary>();
  dict->Add("red");
  dict->Add("green");
  dict->Add("blue");
  dict->Seal();
  Schema schema({{"id", ValueType::kInt64, nullptr},
                 {"color", ValueType::kString, dict},
                 {"score", ValueType::kDouble, nullptr}});
  auto table = std::make_unique<RowTable>(schema, "items");
  for (int64_t i = 0; i < 30; ++i) {
    uint64_t row[3] = {SlotFromInt64(i), SlotFromInt64(i % 3),
                       SlotFromDouble(i * 0.5)};
    table->AppendRow(row);
  }
  EXPECT_TRUE(db.AddTable(std::move(table)).ok());
  EXPECT_TRUE(
      db.BuildIndex("items_by_id", "items", {"id"}, {"color", "score"}).ok());
  return db_ptr;
}

TEST(ExecContextTest, SlotLifecycle) {
  auto db_ptr = MakeDb();
  Database& db = *db_ptr;
  ExecContext ctx(&db);
  EXPECT_TRUE(ctx.Get("nope").status().IsNotFound());
  auto table = IndexedTable::Create(
      Schema({{"k", ValueType::kInt64, nullptr}}), {"k"});
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(ctx.Put("slot", std::move(*table)).ok());
  EXPECT_TRUE(ctx.Get("slot").ok());
  auto again = IndexedTable::Create(
      Schema({{"k", ValueType::kInt64, nullptr}}), {"k"});
  EXPECT_EQ(ctx.Put("slot", std::move(*again)).code(),
            StatusCode::kAlreadyExists);
}

TEST(ExtractResultTest, DecodesDictionariesAndDoubles) {
  auto db_ptr = MakeDb();
  Database& db = *db_ptr;
  ExecContext ctx(&db);
  SelectionSpec sel;
  sel.input_index = "items_by_id";
  sel.predicate = KeyPredicate::Range(0, 5);
  sel.carry_columns = {"id", "color", "score"};
  sel.output = {"out", {"id"}, {}};
  SelectionOp op(sel);
  ASSERT_TRUE(op.Execute(&ctx).ok());
  auto result = ExtractResult(**ctx.Get("out"));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 6u);
  EXPECT_EQ(result->rows[0][0], Value::Int(0));
  // Codes are lexicographic ranks: blue=0, green=1, red=2; row i stores
  // code i % 3.
  EXPECT_EQ(result->rows[0][1], Value::Str("blue"));
  EXPECT_EQ(result->rows[1][1], Value::Str("green"));
  EXPECT_EQ(result->rows[2][1], Value::Str("red"));
  EXPECT_EQ(result->rows[4][2], Value::Real(2.0));
}

TEST(QueryResultTest, ToStringTruncates) {
  QueryResult result;
  result.schema = Schema({{"x", ValueType::kInt64, nullptr}});
  for (int i = 0; i < 30; ++i) {
    result.rows.push_back({Value::Int(i)});
  }
  std::string s = result.ToString(/*limit=*/5);
  EXPECT_NE(s.find("(x:int64)"), std::string::npos);
  EXPECT_NE(s.find("... (30 rows total)"), std::string::npos);
}

TEST(PlanTest, EmptyPlanNeedsResultSlot) {
  auto db_ptr = MakeDb();
  Database& db = *db_ptr;
  ExecContext ctx(&db);
  Plan plan;
  EXPECT_TRUE(plan.Run(&ctx).ok());  // running zero operators is fine
  ctx.stats()->Clear();  // PlanStats contract: Clear() before re-running
  EXPECT_TRUE(plan.Execute(&ctx).status().IsInvalidArgument());
}

TEST(PlanTest, MissingResultSlotSurfaces) {
  auto db_ptr = MakeDb();
  Database& db = *db_ptr;
  ExecContext ctx(&db);
  Plan plan;
  plan.set_result_slot("never_written");
  EXPECT_TRUE(plan.Execute(&ctx).status().IsNotFound());
}

TEST(PlanTest, OperatorCountAndStats) {
  auto db_ptr = MakeDb();
  Database& db = *db_ptr;
  ExecContext ctx(&db);
  Plan plan;
  SelectionSpec sel;
  sel.input_index = "items_by_id";
  sel.predicate = KeyPredicate::All();
  sel.carry_columns = {"id"};
  sel.output = {"all", {"id"}, {}};
  plan.Emplace<SelectionOp>(sel);
  EXPECT_EQ(plan.num_operators(), 1u);
  ASSERT_TRUE(plan.Run(&ctx).ok());
  ASSERT_EQ(ctx.stats()->operators.size(), 1u);
  EXPECT_EQ(ctx.stats()->operators[0].output_tuples, 30u);
  EXPECT_GE(ctx.stats()->total_ms, 0.0);
}

}  // namespace
}  // namespace qppt
