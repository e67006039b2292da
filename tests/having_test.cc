#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/operators/having.h"
#include "core/operators/selection.h"
#include "core/plan.h"
#include "util/rng.h"

namespace qppt {
namespace {

class HavingTest : public ::testing::Test {
 public:
  void SetUp() override {
    Schema schema({{"sku", ValueType::kInt64, nullptr},
                   {"amount", ValueType::kInt64, nullptr}});
    auto orders = std::make_unique<RowTable>(schema, "orders");
    Rng rng(1);
    for (int i = 0; i < 5000; ++i) {
      int64_t sku = static_cast<int64_t>(rng.NextBounded(100));
      uint64_t row[2] = {SlotFromInt64(sku),
                         SlotFromInt64(1 + static_cast<int64_t>(
                                               rng.NextBounded(10)))};
      orders->AppendRow(row);
      reference_[sku] += Int64FromSlot(row[1]);
    }
    ASSERT_TRUE(db_.AddTable(std::move(orders)).ok());
    ASSERT_TRUE(
        db_.BuildIndex("orders_by_sku", "orders", {"sku"}, {"amount"}).ok());
  }

  // Builds the group-by plan: sum(amount) per sku, then HAVING.
  Plan MakePlan(std::vector<Residual> residuals) {
    Plan plan;
    SelectionSpec sel;
    sel.input_index = "orders_by_sku";
    sel.predicate = KeyPredicate::All();
    sel.carry_columns = {"sku", "amount"};
    AggSpec agg({{AggFn::kSum, ScalarExpr::Column("amount"), "total"}});
    sel.output = {"by_sku", {"sku"}, agg};
    plan.Emplace<SelectionOp>(sel);

    HavingSpec having;
    having.input_slot = "by_sku";
    having.residuals = std::move(residuals);
    having.output_slot = "result";
    plan.Emplace<HavingOp>(having);
    plan.set_result_slot("result");
    return plan;
  }

  Database db_;
  std::map<int64_t, int64_t> reference_;
};

TEST_F(HavingTest, FiltersOnAggregateValue) {
  ExecContext ctx(&db_);
  Plan plan = MakePlan({Residual::Ge("total", 300)});
  auto result = plan.Execute(&ctx);
  ASSERT_TRUE(result.ok()) << result.status();

  std::map<int64_t, int64_t> expected;
  for (const auto& [sku, total] : reference_) {
    if (total >= 300) expected[sku] = total;
  }
  ASSERT_EQ(result->rows.size(), expected.size());
  auto it = expected.begin();
  for (const auto& row : result->rows) {
    EXPECT_EQ(row[0].AsInt(), it->first);
    EXPECT_EQ(row[1].AsInt(), it->second);
    ++it;
  }
}

TEST_F(HavingTest, FiltersOnGroupKeyToo) {
  // Selection and having are the same physical operator: predicates on
  // the key column work identically.
  ExecContext ctx(&db_);
  Plan plan = MakePlan({Residual::Between("sku", 10, 19)});
  auto result = plan.Execute(&ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 10u);
  for (const auto& row : result->rows) {
    EXPECT_GE(row[0].AsInt(), 10);
    EXPECT_LE(row[0].AsInt(), 19);
  }
}

TEST_F(HavingTest, ConjunctionOfResiduals) {
  ExecContext ctx(&db_);
  Plan plan =
      MakePlan({Residual::Ge("total", 250), Residual::Lt("sku", 50)});
  auto result = plan.Execute(&ctx);
  ASSERT_TRUE(result.ok());
  size_t expected = 0;
  for (const auto& [sku, total] : reference_) {
    if (total >= 250 && sku < 50) ++expected;
  }
  EXPECT_EQ(result->rows.size(), expected);
}

TEST_F(HavingTest, OutputRemainsIndexedAndOrdered) {
  ExecContext ctx(&db_);
  Plan plan = MakePlan({Residual::Ge("total", 0)});
  ASSERT_TRUE(plan.Run(&ctx).ok());
  auto out = ctx.Get("result");
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE((*out)->aggregated());
  int64_t prev = -1;
  (*out)->ScanInOrder([&](const uint64_t* row) {
    EXPECT_GT(Int64FromSlot(row[0]), prev);
    prev = Int64FromSlot(row[0]);
  });
}

TEST_F(HavingTest, RejectsNonAggregatedInput) {
  ExecContext ctx(&db_);
  Plan plan;
  SelectionSpec sel;
  sel.input_index = "orders_by_sku";
  sel.predicate = KeyPredicate::All();
  sel.carry_columns = {"sku"};
  sel.output = {"plain", {"sku"}, {}};
  plan.Emplace<SelectionOp>(sel);
  HavingSpec having;
  having.input_slot = "plain";
  having.output_slot = "out";
  plan.Emplace<HavingOp>(having);
  EXPECT_TRUE(plan.Run(&ctx).IsInvalidArgument());
}

TEST_F(HavingTest, UnknownColumnFails) {
  ExecContext ctx(&db_);
  Plan plan = MakePlan({Residual::Ge("ghost", 1)});
  EXPECT_TRUE(plan.Run(&ctx).IsNotFound());
}

// HAVING on double-valued aggregates compares the decoded value with the
// literal: truncating 2.5 to 2 would pass Le(2), and -2.5 to -2 would
// fail Lt(-2).
class DoubleHavingTest : public ::testing::Test {
 public:
  void SetUp() override {
    Schema schema({{"g", ValueType::kInt64, nullptr},
                   {"x", ValueType::kInt64, nullptr},
                   {"price", ValueType::kDouble, nullptr}});
    auto t = std::make_unique<RowTable>(schema, "t");
    // Per group g: AVG(x) and SUM(price).
    //   g=0: 2.5, 1.5   g=1: -2.5, -1.5   g=2: 2.0, 2.0   g=3: 1.5, 2.5
    struct Row {
      int64_t g, x;
      double price;
    };
    for (const Row& r : {Row{0, 2, 0.75}, Row{0, 3, 0.75}, Row{1, -2, -0.5},
                         Row{1, -3, -1.0}, Row{2, 2, 1.0}, Row{2, 2, 1.0},
                         Row{3, 1, 2.25}, Row{3, 2, 0.25}}) {
      uint64_t row[3] = {SlotFromInt64(r.g), SlotFromInt64(r.x),
                         SlotFromDouble(r.price)};
      t->AppendRow(row);
    }
    ASSERT_TRUE(db_.AddTable(std::move(t)).ok());
    ASSERT_TRUE(db_.BuildIndex("t_by_g", "t", {"g"}, {"x", "price"}).ok());
  }

  // The groups whose aggregate `term` (named "agg") passes `residual`.
  std::vector<int64_t> Groups(AggTerm term, Residual residual) {
    Plan plan;
    SelectionSpec sel;
    sel.input_index = "t_by_g";
    sel.predicate = KeyPredicate::All();
    sel.carry_columns = {"g", "x", "price"};
    term.out_name = "agg";
    sel.output = {"by_g", {"g"}, AggSpec({term})};
    plan.Emplace<SelectionOp>(sel);
    HavingSpec having;
    having.input_slot = "by_g";
    residual.column = "agg";
    having.residuals = {residual};
    having.output_slot = "result";
    plan.Emplace<HavingOp>(having);
    plan.set_result_slot("result");
    ExecContext ctx(&db_);
    auto result = plan.Execute(&ctx);
    EXPECT_TRUE(result.ok()) << result.status();
    std::vector<int64_t> groups;
    if (!result.ok()) return groups;
    for (const auto& row : result->rows) groups.push_back(row[0].AsInt());
    return groups;
  }

  Database db_;
};

TEST_F(DoubleHavingTest, AvgComparesValues) {
  AggTerm avg{AggFn::kAvg, ScalarExpr::Column("x"), ""};
  using G = std::vector<int64_t>;
  EXPECT_EQ(Groups(avg, Residual::Le("", 2)), (G{1, 2, 3}));
  EXPECT_EQ(Groups(avg, Residual::Eq("", 2)), (G{2}));
  EXPECT_EQ(Groups(avg, Residual::Lt("", -2)), (G{1}));
  EXPECT_EQ(Groups(avg, Residual::Between("", -2, 2)), (G{2, 3}));
}

TEST_F(DoubleHavingTest, SumOfDoubleColumnComparesValues) {
  AggTerm sum{AggFn::kSum, ScalarExpr::Column("price"), ""};
  using G = std::vector<int64_t>;
  EXPECT_EQ(Groups(sum, Residual::Le("", 1)), (G{1}));
  EXPECT_EQ(Groups(sum, Residual::Lt("", -1)), (G{1}));
  EXPECT_EQ(Groups(sum, Residual::Ge("", 2)), (G{2, 3}));
  EXPECT_EQ(Groups(sum, Residual::Between("", -1, 2)), (G{0, 2}));
}

}  // namespace
}  // namespace qppt
