// End-to-end operator tests on a toy star schema, differentially checked
// against hand-rolled scans.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "core/operators/select_join.h"
#include "core/operators/selection.h"
#include "core/operators/set_ops.h"
#include "core/operators/star_join.h"
#include "core/plan.h"
#include "engine/scheduler.h"
#include "util/cancel.h"
#include "util/rng.h"

namespace qppt {
namespace {

constexpr int64_t kNumParts = 400;
constexpr int64_t kNumCustomers = 300;
constexpr int64_t kNumDates = 365;
constexpr int64_t kNumSales = 20000;
constexpr int64_t kNumBrands = 25;
constexpr int64_t kNumRegions = 5;

class OperatorsTest : public ::testing::Test {
 public:
  void SetUp() override {
    BaseIndex::Options opt;
    opt.kiss_root_bits = 20;

    {
      Schema schema({{"partkey", ValueType::kInt64, nullptr},
                     {"brand", ValueType::kInt64, nullptr}});
      auto part = std::make_unique<RowTable>(schema, "part");
      Rng rng(1);
      for (int64_t i = 0; i < kNumParts; ++i) {
        uint64_t row[2] = {
            SlotFromInt64(i),
            SlotFromInt64(static_cast<int64_t>(rng.NextBounded(kNumBrands)))};
        part->AppendRow(row);
      }
      ASSERT_TRUE(db_.AddTable(std::move(part)).ok());
      ASSERT_TRUE(
          db_.BuildIndex("part_brand", "part", {"brand"}, {"partkey"}, opt)
              .ok());
      ASSERT_TRUE(
          db_.BuildIndex("part_pk", "part", {"partkey"}, {"brand"}, opt).ok());
    }
    {
      Schema schema({{"custkey", ValueType::kInt64, nullptr},
                     {"region", ValueType::kInt64, nullptr}});
      auto cust = std::make_unique<RowTable>(schema, "customer");
      Rng rng(2);
      for (int64_t i = 0; i < kNumCustomers; ++i) {
        uint64_t row[2] = {
            SlotFromInt64(i),
            SlotFromInt64(static_cast<int64_t>(rng.NextBounded(kNumRegions)))};
        cust->AppendRow(row);
      }
      ASSERT_TRUE(db_.AddTable(std::move(cust)).ok());
      ASSERT_TRUE(db_.BuildIndex("cust_region", "customer", {"region"},
                                 {"custkey"}, opt)
                      .ok());
    }
    {
      Schema schema({{"orderdate", ValueType::kInt64, nullptr},
                     {"custkey", ValueType::kInt64, nullptr},
                     {"partkey", ValueType::kInt64, nullptr},
                     {"amount", ValueType::kInt64, nullptr}});
      auto sales = std::make_unique<RowTable>(schema, "sales");
      Rng rng(3);
      for (int64_t i = 0; i < kNumSales; ++i) {
        uint64_t row[4] = {
            SlotFromInt64(static_cast<int64_t>(rng.NextBounded(kNumDates))),
            SlotFromInt64(
                static_cast<int64_t>(rng.NextBounded(kNumCustomers))),
            SlotFromInt64(static_cast<int64_t>(rng.NextBounded(kNumParts))),
            SlotFromInt64(static_cast<int64_t>(rng.NextBounded(100)))};
        sales->AppendRow(row);
      }
      ASSERT_TRUE(db_.AddTable(std::move(sales)).ok());
      ASSERT_TRUE(db_.BuildIndex("sales_partkey", "sales", {"partkey"},
                                 {"orderdate", "custkey", "amount"}, opt)
                      .ok());
      ASSERT_TRUE(db_.BuildIndex("sales_custkey", "sales", {"custkey"},
                                 {"orderdate", "partkey", "amount"}, opt)
                      .ok());
    }
  }

  PlanKnobs Knobs(size_t buffer = 512) {
    PlanKnobs knobs;
    knobs.join_buffer_size = buffer;
    knobs.table_options.kiss_root_bits = 20;
    return knobs;
  }

  const RowTable& Table(const std::string& name) {
    return *db_.table(name).value();
  }

  int64_t PartBrand(int64_t partkey) {
    return Int64FromSlot(Table("part").GetSlot(static_cast<Rid>(partkey), 1));
  }
  int64_t CustRegion(int64_t custkey) {
    return Int64FromSlot(
        Table("customer").GetSlot(static_cast<Rid>(custkey), 1));
  }

  // sales ⋈ part on partkey: 20000 emitted pairs over two KISS mains.
  static StarJoinSpec SalesPartJoin() {
    StarJoinSpec join;
    join.left = SideRef::Base("sales_partkey");
    join.left_columns = {"orderdate", "amount"};
    join.right = SideRef::Base("part_pk");
    join.right_columns = {};
    join.output = {"result", {"orderdate"}, {}};
    return join;
  }

  Database db_;
};

TEST_F(OperatorsTest, SelectionPointPredicate) {
  ExecContext ctx(&db_, Knobs());
  SelectionSpec spec;
  spec.input_index = "part_brand";
  spec.predicate = KeyPredicate::Point(7);
  spec.carry_columns = {"partkey", "brand"};
  spec.output = {"part_sel", {"partkey"}, {}};
  SelectionOp op(spec);
  ASSERT_TRUE(op.Execute(&ctx).ok());

  auto out = ctx.Get("part_sel");
  ASSERT_TRUE(out.ok());
  size_t expected = 0;
  for (Rid r = 0; r < static_cast<Rid>(kNumParts); ++r) {
    if (Int64FromSlot(Table("part").GetSlot(r, 1)) == 7) ++expected;
  }
  EXPECT_EQ((*out)->num_tuples(), expected);
  (*out)->ScanInOrder([&](const uint64_t* row) {
    EXPECT_EQ(Int64FromSlot(row[1]), 7);  // brand carried correctly
  });
}

TEST_F(OperatorsTest, SelectionRangeWithResidual) {
  ExecContext ctx(&db_, Knobs());
  SelectionSpec spec;
  spec.input_index = "part_brand";
  spec.predicate = KeyPredicate::Range(5, 9);
  spec.residuals = {Residual::Ge("partkey", 100)};
  spec.carry_columns = {"partkey"};
  spec.output = {"sel", {"partkey"}, {}};
  SelectionOp op(spec);
  ASSERT_TRUE(op.Execute(&ctx).ok());

  size_t expected = 0;
  for (Rid r = 0; r < static_cast<Rid>(kNumParts); ++r) {
    int64_t brand = Int64FromSlot(Table("part").GetSlot(r, 1));
    if (brand >= 5 && brand <= 9 && static_cast<int64_t>(r) >= 100) ++expected;
  }
  EXPECT_EQ((*ctx.Get("sel"))->num_tuples(), expected);
}

TEST_F(OperatorsTest, SelectionWithAggregation) {
  // Level-1 composition: the selection's output index aggregates directly.
  ExecContext ctx(&db_, Knobs());
  SelectionSpec spec;
  spec.input_index = "part_brand";
  spec.predicate = KeyPredicate::All();
  spec.carry_columns = {"brand", "partkey"};
  AggSpec agg({{AggFn::kCount, {}, "n"}});
  spec.output = {"by_brand", {"brand"}, agg};
  SelectionOp op(spec);
  ASSERT_TRUE(op.Execute(&ctx).ok());

  std::map<int64_t, int64_t> expected;
  for (Rid r = 0; r < static_cast<Rid>(kNumParts); ++r) {
    expected[Int64FromSlot(Table("part").GetSlot(r, 1))]++;
  }
  auto result = ExtractResult(**ctx.Get("by_brand"));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), expected.size());
  auto it = expected.begin();
  for (const auto& row : result->rows) {
    EXPECT_EQ(row[0].AsInt(), it->first);
    EXPECT_EQ(row[1].AsInt(), it->second);
    ++it;
  }
}

// Reference implementation of: sum(amount) grouped by orderdate over
// sales x part(brand=B) x customer(region=R).
std::map<int64_t, int64_t> ReferenceStarQuery(OperatorsTest* t,
                                              const RowTable& sales,
                                              int64_t brand, int64_t region) {
  std::map<int64_t, int64_t> by_date;
  for (Rid r = 0; r < sales.num_rows(); ++r) {
    int64_t partkey = Int64FromSlot(sales.GetSlot(r, 2));
    int64_t custkey = Int64FromSlot(sales.GetSlot(r, 1));
    if (t->PartBrand(partkey) != brand) continue;
    if (region >= 0 && t->CustRegion(custkey) != region) continue;
    by_date[Int64FromSlot(sales.GetSlot(r, 0))] +=
        Int64FromSlot(sales.GetSlot(r, 3));
  }
  return by_date;
}

TEST_F(OperatorsTest, TwoWayJoinGroup) {
  // selection(part.brand=7) then sales ⋈ part_sel on partkey, grouped by
  // orderdate with sum(amount).
  ExecContext ctx(&db_, Knobs());
  Plan plan;

  SelectionSpec sel;
  sel.input_index = "part_brand";
  sel.predicate = KeyPredicate::Point(7);
  sel.carry_columns = {"partkey"};
  sel.output = {"part_sel", {"partkey"}, {}};
  plan.Emplace<SelectionOp>(sel);

  StarJoinSpec join;
  join.left = SideRef::Base("sales_partkey");
  join.left_columns = {"orderdate", "amount"};
  join.right = SideRef::Slot("part_sel");
  join.right_columns = {};
  AggSpec agg({{AggFn::kSum, ScalarExpr::Column("amount"), "sum_amount"}});
  join.output = {"result", {"orderdate"}, agg};
  plan.Emplace<StarJoinOp>(join);
  plan.set_result_slot("result");

  auto result = plan.Execute(&ctx);
  ASSERT_TRUE(result.ok()) << result.status();

  auto expected = ReferenceStarQuery(this, Table("sales"), 7, -1);
  ASSERT_EQ(result->rows.size(), expected.size());
  auto it = expected.begin();
  for (const auto& row : result->rows) {
    EXPECT_EQ(row[0].AsInt(), it->first);
    EXPECT_EQ(row[1].AsInt(), it->second);
    ++it;
  }
  // Stats were recorded for both operators.
  EXPECT_EQ(ctx.stats()->operators.size(), 2u);
  EXPECT_GT(ctx.stats()->operators[1].output_keys, 0u);
}

TEST_F(OperatorsTest, ThreeWayStarJoinWithAssist) {
  // sales ⋈ part(brand=3) with assisting semi-join customer(region=2),
  // grouped by orderdate.
  ExecContext ctx(&db_, Knobs());
  Plan plan;

  SelectionSpec part_sel;
  part_sel.input_index = "part_brand";
  part_sel.predicate = KeyPredicate::Point(3);
  part_sel.carry_columns = {"partkey"};
  part_sel.output = {"part_sel", {"partkey"}, {}};
  plan.Emplace<SelectionOp>(part_sel);

  SelectionSpec cust_sel;
  cust_sel.input_index = "cust_region";
  cust_sel.predicate = KeyPredicate::Point(2);
  cust_sel.carry_columns = {"custkey"};
  cust_sel.output = {"cust_sel", {"custkey"}, {}};
  plan.Emplace<SelectionOp>(cust_sel);

  StarJoinSpec join;
  join.left = SideRef::Base("sales_partkey");
  join.left_columns = {"orderdate", "custkey", "amount"};
  join.right = SideRef::Slot("part_sel");
  join.right_columns = {};
  join.assists = {{SideRef::Slot("cust_sel"), "custkey", {}}};
  AggSpec agg({{AggFn::kSum, ScalarExpr::Column("amount"), "sum_amount"}});
  join.output = {"result", {"orderdate"}, agg};
  plan.Emplace<StarJoinOp>(join);
  plan.set_result_slot("result");

  auto result = plan.Execute(&ctx);
  ASSERT_TRUE(result.ok()) << result.status();

  auto expected = ReferenceStarQuery(this, Table("sales"), 3, 2);
  ASSERT_EQ(result->rows.size(), expected.size());
  auto it = expected.begin();
  for (const auto& row : result->rows) {
    EXPECT_EQ(row[0].AsInt(), it->first);
    EXPECT_EQ(row[1].AsInt(), it->second);
    ++it;
  }
}

TEST_F(OperatorsTest, AssistCarriesColumns) {
  // The assist extends combinations with a dimension attribute (region),
  // which then serves as group key.
  ExecContext ctx(&db_, Knobs());
  Plan plan;

  SelectionSpec part_sel;
  part_sel.input_index = "part_brand";
  part_sel.predicate = KeyPredicate::Point(3);
  part_sel.carry_columns = {"partkey"};
  part_sel.output = {"part_sel", {"partkey"}, {}};
  plan.Emplace<SelectionOp>(part_sel);

  SelectionSpec cust_all;
  cust_all.input_index = "cust_region";
  cust_all.predicate = KeyPredicate::All();
  cust_all.carry_columns = {"custkey", "region"};
  cust_all.output = {"cust_all", {"custkey"}, {}};
  plan.Emplace<SelectionOp>(cust_all);

  StarJoinSpec join;
  join.left = SideRef::Base("sales_partkey");
  join.left_columns = {"custkey", "amount"};
  join.right = SideRef::Slot("part_sel");
  join.right_columns = {};
  join.assists = {{SideRef::Slot("cust_all"), "custkey", {"region"}}};
  AggSpec agg({{AggFn::kSum, ScalarExpr::Column("amount"), "sum_amount"}});
  join.output = {"result", {"region"}, agg};
  plan.Emplace<StarJoinOp>(join);
  plan.set_result_slot("result");

  auto result = plan.Execute(&ctx);
  ASSERT_TRUE(result.ok()) << result.status();

  std::map<int64_t, int64_t> expected;
  const RowTable& sales = Table("sales");
  for (Rid r = 0; r < sales.num_rows(); ++r) {
    int64_t partkey = Int64FromSlot(sales.GetSlot(r, 2));
    if (PartBrand(partkey) != 3) continue;
    int64_t custkey = Int64FromSlot(sales.GetSlot(r, 1));
    expected[CustRegion(custkey)] += Int64FromSlot(sales.GetSlot(r, 3));
  }
  ASSERT_EQ(result->rows.size(), expected.size());
  auto it = expected.begin();
  for (const auto& row : result->rows) {
    EXPECT_EQ(row[0].AsInt(), it->first);
    EXPECT_EQ(row[1].AsInt(), it->second);
    ++it;
  }
}

TEST_F(OperatorsTest, SelectJoinEquivalentToSelectionPlusJoin) {
  // The composed select-join (§4.3) must produce exactly the plan result
  // of selection + join, for every joinbuffer size.
  for (size_t buffer : {size_t{1}, size_t{64}, size_t{512}}) {
    // Reference: selection + 2-way join.
    ExecContext ctx_ref(&db_, Knobs(buffer));
    Plan ref_plan;
    SelectionSpec sel;
    sel.input_index = "cust_region";
    sel.predicate = KeyPredicate::Point(1);
    sel.carry_columns = {"custkey"};
    sel.output = {"cust_sel", {"custkey"}, {}};
    ref_plan.Emplace<SelectionOp>(sel);

    StarJoinSpec join;
    join.left = SideRef::Base("sales_custkey");
    join.left_columns = {"orderdate", "amount"};
    join.right = SideRef::Slot("cust_sel");
    join.right_columns = {};
    AggSpec agg({{AggFn::kSum, ScalarExpr::Column("amount"), "s"}});
    join.output = {"result", {"orderdate"}, agg};
    ref_plan.Emplace<StarJoinOp>(join);
    ref_plan.set_result_slot("result");
    auto expected = ref_plan.Execute(&ctx_ref);
    ASSERT_TRUE(expected.ok()) << expected.status();

    // Composed: select-join streaming the customer selection into probes
    // of the sales index.
    ExecContext ctx(&db_, Knobs(buffer));
    Plan plan;
    SelectJoinSpec sj;
    sj.input_index = "cust_region";
    sj.predicate = KeyPredicate::Point(1);
    sj.left_columns = {"custkey"};
    sj.probe_column = "custkey";
    sj.right = SideRef::Base("sales_custkey");
    sj.right_columns = {"orderdate", "amount"};
    sj.output = {"result", {"orderdate"}, agg};
    plan.Emplace<SelectJoinOp>(sj);
    plan.set_result_slot("result");
    auto got = plan.Execute(&ctx);
    ASSERT_TRUE(got.ok()) << got.status();

    ASSERT_EQ(got->rows.size(), expected->rows.size()) << "buffer=" << buffer;
    for (size_t i = 0; i < got->rows.size(); ++i) {
      EXPECT_EQ(got->rows[i][0], expected->rows[i][0]);
      EXPECT_EQ(got->rows[i][1], expected->rows[i][1]);
    }
  }
}

TEST_F(OperatorsTest, IntersectMatchesConjunction) {
  // Two rid-keyed selections on part, intersected (§4.1).
  ExecContext ctx(&db_, Knobs());
  Plan plan;

  SelectionSpec s1;
  s1.input_index = "part_brand";
  s1.predicate = KeyPredicate::Range(0, 12);
  s1.carry_columns = {"@rid", "partkey"};
  s1.output = {"s1", {"@rid"}, {}};
  plan.Emplace<SelectionOp>(s1);

  SelectionSpec s2;
  s2.input_index = "part_pk";
  s2.predicate = KeyPredicate::Range(50, 250);
  s2.carry_columns = {"@rid"};
  s2.output = {"s2", {"@rid"}, {}};
  plan.Emplace<SelectionOp>(s2);

  SetOpSpec inter;
  inter.left = SideRef::Slot("s1");
  inter.left_columns = {"partkey"};
  inter.right = SideRef::Slot("s2");
  inter.right_columns = {};
  inter.output = {"both", {"partkey"}, {}};
  plan.Emplace<IntersectOp>(inter);

  ASSERT_TRUE(plan.Run(&ctx).ok());
  size_t expected = 0;
  for (Rid r = 0; r < static_cast<Rid>(kNumParts); ++r) {
    int64_t brand = Int64FromSlot(Table("part").GetSlot(r, 1));
    int64_t pk = Int64FromSlot(Table("part").GetSlot(r, 0));
    if (brand <= 12 && pk >= 50 && pk <= 250) ++expected;
  }
  EXPECT_EQ((*ctx.Get("both"))->num_tuples(), expected);
}

TEST_F(OperatorsTest, UnionDistinctMatchesDisjunction) {
  ExecContext ctx(&db_, Knobs());
  Plan plan;

  SelectionSpec s1;
  s1.input_index = "part_brand";
  s1.predicate = KeyPredicate::Point(3);
  s1.carry_columns = {"@rid", "partkey"};
  s1.output = {"s1", {"@rid"}, {}};
  plan.Emplace<SelectionOp>(s1);

  SelectionSpec s2;
  s2.input_index = "part_brand";
  s2.predicate = KeyPredicate::Point(4);
  s2.carry_columns = {"@rid", "partkey"};
  s2.output = {"s2", {"@rid"}, {}};
  plan.Emplace<SelectionOp>(s2);

  SetOpSpec uni;
  uni.left = SideRef::Slot("s1");
  uni.left_columns = {"@rid", "partkey"};
  uni.right = SideRef::Slot("s2");
  uni.right_columns = {"@rid", "partkey"};
  uni.output = {"either", {"@rid"}, {}};
  plan.Emplace<UnionDistinctOp>(uni);

  ASSERT_TRUE(plan.Run(&ctx).ok());
  size_t expected = 0;
  for (Rid r = 0; r < static_cast<Rid>(kNumParts); ++r) {
    int64_t brand = Int64FromSlot(Table("part").GetSlot(r, 1));
    if (brand == 3 || brand == 4) ++expected;
  }
  EXPECT_EQ((*ctx.Get("either"))->num_tuples(), expected);
}

TEST_F(OperatorsTest, MultidimensionalSelection) {
  // §4.1: conjunctive predicates prefer a multidimensional index as
  // input. Box predicate (brand in [5, 9]) AND (partkey in [100, 300])
  // over a composite (brand, partkey) index.
  BaseIndex::Options opt;
  opt.kiss_root_bits = 20;
  ASSERT_TRUE(db_.BuildIndex("part_brand_pk", "part", {"brand", "partkey"},
                             {"partkey", "brand"}, opt)
                  .ok());
  ExecContext ctx(&db_, Knobs());
  SelectionSpec spec;
  spec.input_index = "part_brand_pk";
  spec.composite_range = {{5, 9}, {100, 300}};
  spec.carry_columns = {"partkey", "brand"};
  spec.output = {"sel", {"partkey"}, {}};
  SelectionOp op(spec);
  ASSERT_TRUE(op.Execute(&ctx).ok());

  size_t expected = 0;
  for (Rid r = 0; r < static_cast<Rid>(kNumParts); ++r) {
    int64_t brand = Int64FromSlot(Table("part").GetSlot(r, 1));
    int64_t pk = Int64FromSlot(Table("part").GetSlot(r, 0));
    if (brand >= 5 && brand <= 9 && pk >= 100 && pk <= 300) ++expected;
  }
  auto out = ctx.Get("sel");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)->num_tuples(), expected);
  (*out)->ScanInOrder([&](const uint64_t* row) {
    EXPECT_GE(Int64FromSlot(row[0]), 100);
    EXPECT_LE(Int64FromSlot(row[0]), 300);
    EXPECT_GE(Int64FromSlot(row[1]), 5);
    EXPECT_LE(Int64FromSlot(row[1]), 9);
  });

  // Wrong arity is rejected.
  ExecContext ctx2(&db_, Knobs());
  SelectionSpec bad = spec;
  bad.composite_range = {{5, 9}};
  SelectionOp bad_op(bad);
  EXPECT_TRUE(bad_op.Execute(&ctx2).IsInvalidArgument());
}

TEST_F(OperatorsTest, PlanErrorsSurface) {
  ExecContext ctx(&db_, Knobs());
  Plan plan;
  SelectionSpec sel;
  sel.input_index = "no_such_index";
  sel.predicate = KeyPredicate::All();
  sel.carry_columns = {"x"};
  sel.output = {"out", {"x"}, {}};
  plan.Emplace<SelectionOp>(sel);
  EXPECT_TRUE(plan.Run(&ctx).IsNotFound());

  Plan empty;
  ExecContext ctx2(&db_, Knobs());
  EXPECT_TRUE(empty.Execute(&ctx2).status().IsInvalidArgument());
}

TEST_F(OperatorsTest, StatsToStringRenders) {
  ExecContext ctx(&db_, Knobs());
  Plan plan;
  SelectionSpec sel;
  sel.input_index = "part_brand";
  sel.predicate = KeyPredicate::Point(1);
  sel.carry_columns = {"partkey"};
  sel.output = {"out", {"partkey"}, {}};
  plan.Emplace<SelectionOp>(sel);
  ASSERT_TRUE(plan.Run(&ctx).ok());
  std::string rendered = ctx.stats()->ToString();
  EXPECT_NE(rendered.find("selection(part_brand)"), std::string::npos);
  EXPECT_NE(rendered.find("TOTAL"), std::string::npos);
}

// The star join must produce the same result whatever index family each
// main uses — including the mixed KISS x prefix pairs with negative and
// >= 2^32 join keys: the KISS side stores the attribute truncated to 32
// bits, and the mixed path probes KISS with the same truncation, so
// every value a KISS x KISS scan can represent joins identically. (Keys
// are chosen alias-free; aliasing values are conflated by ANY
// KISS-backed path by design, which the exact prefix x prefix scan
// legitimately distinguishes.)
TEST(StarJoinFamiliesTest, ExtremeKeysJoinIdenticallyAcrossFamilies) {
  const std::vector<int64_t> keys{-70000, -3,    -1,
                                  0,      5,     70000,
                                  int64_t{5000000000}};  // > 2^32
  auto make_side = [&](bool prefer_kiss, const char* value_col,
                       int64_t value_base, int64_t dups) {
    Schema schema({{"k", ValueType::kInt64, nullptr},
                   {value_col, ValueType::kInt64, nullptr}});
    IndexedTable::Options opt;
    opt.prefer_kiss = prefer_kiss;
    opt.kiss_root_bits = 20;
    auto table = IndexedTable::Create(schema, {"k"}, opt);
    EXPECT_TRUE(table.ok());
    int64_t v = value_base;
    for (int64_t k : keys) {
      for (int64_t d = 0; d < dups; ++d) {
        uint64_t row[2] = {SlotFromInt64(k), SlotFromInt64(v++)};
        (*table)->Insert(row);
      }
    }
    return std::move(table).value();
  };

  Database db;
  auto run = [&](bool left_kiss, bool right_kiss) {
    ExecContext ctx(&db, PlanKnobs{});
    EXPECT_TRUE(
        ctx.Put("l", make_side(left_kiss, "lv", 100, /*dups=*/2)).ok());
    EXPECT_TRUE(
        ctx.Put("r", make_side(right_kiss, "rv", 500, /*dups=*/3)).ok());
    StarJoinSpec join;
    join.left = SideRef::Slot("l");
    join.left_columns = {"k", "lv"};
    join.right = SideRef::Slot("r");
    join.right_columns = {"rv"};
    join.output = {"result", {"k"}, {}};
    Plan plan;
    plan.Emplace<StarJoinOp>(join);
    plan.set_result_slot("result");
    auto result = plan.Execute(&ctx);
    EXPECT_TRUE(result.ok()) << result.status();
    std::multiset<std::tuple<int64_t, int64_t, int64_t>> rows;
    for (const auto& row : result->rows) {
      rows.emplace(row[0].AsInt(), row[1].AsInt(), row[2].AsInt());
    }
    return rows;
  };

  auto reference = run(/*left_kiss=*/true, /*right_kiss=*/true);
  // Every key matches itself: 6 keys x 2 left dups x 3 right dups.
  EXPECT_EQ(reference.size(), keys.size() * 2 * 3);
  EXPECT_EQ(run(true, false), reference) << "kiss x prefix diverged";
  EXPECT_EQ(run(false, true), reference) << "prefix x kiss diverged";
  EXPECT_EQ(run(false, false), reference) << "prefix x prefix diverged";
}

// Regression (qppt-cancel-coverage finding): the SERIAL star-join scan
// paths had no cancellation polls at all — only the parallel morsel
// drivers checked the token, so a single-threaded join of two large
// mains was unstoppable. The operator is driven directly (not through
// Plan::Run) so the plan-boundary check cannot mask a missing in-loop
// poll; a pre-cancelled token must unwind via CancelledException after
// at most kCancelStride emitted pairs.
TEST_F(OperatorsTest, SerialStarJoinPollsCancellationMidScan) {
  CancelToken cancelled;
  cancelled.RequestCancel();
  PlanKnobs knobs = Knobs();
  knobs.cancel = &cancelled;
  ExecContext ctx(&db_, knobs);

  // sales ⋈ part on partkey: 20000 emitted pairs > kCancelStride.
  StarJoinOp op(SalesPartJoin());
  bool unwound = false;
  try {
    Status st = op.Execute(&ctx);
    FAIL() << "serial star join ignored its cancel token: " << st;
  } catch (const CancelledException& e) {
    unwound = true;
    EXPECT_TRUE(e.status().IsCancelled()) << e.status();
  }
  EXPECT_TRUE(unwound);
}

// Regression: the parallel operators built their morsel site without the
// query's cancel token, so neither the per-morsel poll nor the
// merge-shard polls ever ran and a pooled operator kept running past its
// deadline. Each operator first runs uncancelled on a 4-worker pool to
// prove it takes the parallel path (morsels > 0), then under a
// pre-cancelled token, where it must unwind with CancelledException.
TEST_F(OperatorsTest, PooledOperatorsPollCancellationPerMorsel) {
  engine::WorkerPool pool(4);
  auto run = [&](Operator* op, const CancelToken* cancel) {
    PlanKnobs knobs = Knobs();
    knobs.threads = 4;
    knobs.cancel = cancel;
    ExecContext ctx(&db_, knobs);
    ctx.set_worker_pool(&pool);
    Status st = op->Execute(&ctx);
    EXPECT_TRUE(st.ok()) << op->name() << ": " << st;
    return st.ok() ? ctx.stats()->operators.back().morsels : 0;
  };
  auto expect_unwinds = [&](Operator* op) {
    EXPECT_GT(run(op, nullptr), 0u) << op->name() << " ran serially";
    CancelToken cancelled;
    cancelled.RequestCancel();
    try {
      run(op, &cancelled);
      ADD_FAILURE() << op->name() << " ignored its cancel token";
    } catch (const CancelledException& e) {
      EXPECT_TRUE(e.status().IsCancelled())
          << op->name() << ": " << e.status();
    }
  };

  StarJoinOp star(SalesPartJoin());
  expect_unwinds(&star);

  SelectionSpec sel;
  sel.input_index = "sales_partkey";
  sel.predicate = KeyPredicate::All();
  sel.carry_columns = {"orderdate", "amount"};
  sel.output = {"result", {"orderdate"}, {}};
  SelectionOp selection(sel);
  expect_unwinds(&selection);

  SelectJoinSpec sj;
  sj.input_index = "sales_partkey";
  sj.predicate = KeyPredicate::All();
  sj.left_columns = {"partkey", "amount"};
  sj.probe_column = "partkey";
  sj.right = SideRef::Base("part_pk");
  sj.right_columns = {"brand"};
  sj.output = {"result", {"brand"}, {}};
  SelectJoinOp select_join(sj);
  expect_unwinds(&select_join);
}

}  // namespace
}  // namespace qppt
