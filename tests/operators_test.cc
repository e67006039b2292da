// End-to-end operator tests on a toy star schema, differentially checked
// against hand-rolled scans.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/operators/select_join.h"
#include "core/operators/selection.h"
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
          db_.BuildIndex("part_brand", "part", {"brand"}, {"partkey"}).ok());
      ASSERT_TRUE(
          db_.BuildIndex("part_pk", "part", {"partkey"}, {"brand"}).ok());
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
      ASSERT_TRUE(
          db_.BuildIndex("cust_region", "customer", {"region"}, {"custkey"})
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
                                 {"orderdate", "custkey", "amount"})
                      .ok());
      ASSERT_TRUE(db_.BuildIndex("sales_custkey", "sales", {"custkey"},
                                 {"orderdate", "partkey", "amount"})
                      .ok());
    }
  }

  PlanKnobs Knobs(size_t buffer = 512) {
    PlanKnobs knobs;
    knobs.join_buffer_size = buffer;
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

TEST_F(OperatorsTest, MultidimensionalSelection) {
  // §4.1: conjunctive predicates prefer a multidimensional index as
  // input. Box predicate (brand in [5, 9]) AND (partkey in [100, 300])
  // over a composite (brand, partkey) index.
  ASSERT_TRUE(db_.BuildIndex("part_brand_pk", "part", {"brand", "partkey"},
                             {"partkey", "brand"})
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

  // So is a one-column point, IN or range predicate on the two-column
  // key (its encoding would read a key slot that is not there), in a
  // selection and in a select-join; all still scans every key.
  for (const KeyPredicate& pred :
       {KeyPredicate::Point(5), KeyPredicate::In({5, 6}),
        KeyPredicate::Range(5, 9)}) {
    ExecContext ctx3(&db_, Knobs());
    SelectionSpec one_column = spec;
    one_column.composite_range.clear();
    one_column.predicate = pred;
    SelectionOp one_column_op(one_column);
    EXPECT_TRUE(one_column_op.Execute(&ctx3).IsInvalidArgument());
    SelectJoinSpec sj;
    sj.input_index = "part_brand_pk";
    sj.predicate = pred;
    sj.left_columns = {"partkey", "brand"};
    sj.probe_column = "partkey";
    sj.right = SideRef::Base("part_pk");
    sj.right_columns = {};
    sj.output = {"sj", {"partkey"}, {}};
    SelectJoinOp sj_op(sj);
    EXPECT_TRUE(sj_op.Execute(&ctx3).IsInvalidArgument());
  }
  ExecContext ctx4(&db_, Knobs());
  SelectionSpec all = spec;
  all.composite_range.clear();
  all.predicate = KeyPredicate::All();
  SelectionOp all_op(all);
  ASSERT_TRUE(all_op.Execute(&ctx4).ok());
  EXPECT_EQ(ctx4.Get("sel").value()->num_tuples(),
            static_cast<size_t>(kNumParts));
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
    TreeOptions opt;
    opt.prefer_kiss = prefer_kiss;
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
// poll. An inline run also polls once before its one morsel, so the
// token's deadline is set to expire after that poll, early in a scan of
// a million emitted pairs (sales self-joined on partkey), which must
// then unwind via CancelledException from its per-pair ticks.
TEST_F(OperatorsTest, SerialStarJoinPollsCancellationMidScan) {
  CancelToken token;
  PlanKnobs knobs = Knobs();
  knobs.cancel = &token;
  ExecContext ctx(&db_, knobs);

  StarJoinSpec join;
  join.left = SideRef::Base("sales_partkey");
  join.left_columns = {"orderdate", "amount"};
  join.right = SideRef::Base("sales_partkey");
  join.right_columns = {"custkey"};
  join.output = {"result", {"orderdate"}, {}};
  StarJoinOp op(join);
  token.SetDeadlineAfter(2);
  bool unwound = false;
  try {
    Status st = op.Execute(&ctx);
    FAIL() << "serial star join ignored its cancel token: " << st;
  } catch (const CancelledException& e) {
    unwound = true;
    EXPECT_TRUE(e.status().IsDeadlineExceeded()) << e.status();
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

// The synchronous scans walk both mains' trees in lock step, and a
// hand-built plan can still pair mains of different shapes: two prefix
// mains of different key widths, or a KISS main with a prefix main that
// is not one 8-byte key. Such a star join is an InvalidArgument before
// any scan, inline and on a pool. Each join runs under a pre-cancelled
// token, so a scan would unwind with CancelledException before its first
// morsel, as the matching control pair does.
class StarJoinShapeTest : public OperatorsTest {
 public:
  void SetUp() override {
    OperatorsTest::SetUp();
    ASSERT_TRUE(db_.BuildIndex("sales_pk_prefix", "sales", {"partkey"},
                               {"amount"}, TreeOptions{.prefer_kiss = false})
                    .ok());
    ASSERT_TRUE(db_.BuildIndex("sales_pk_cust", "sales",
                               {"partkey", "custkey"}, {"amount"})
                    .ok());
  }

  // The star join of `left` with `right`: its Status, or the Status of
  // the CancelledException a scan threw.
  Status Run(const char* left, const char* right, bool pooled) {
    CancelToken cancelled;
    cancelled.RequestCancel();
    PlanKnobs knobs = Knobs();
    knobs.cancel = &cancelled;
    ExecContext ctx(&db_, knobs);
    if (pooled) ctx.set_worker_pool(&pool_);
    StarJoinSpec join;
    join.left = SideRef::Base(left);
    join.left_columns = {"amount"};
    join.right = SideRef::Base(right);
    join.right_columns = {};
    join.output = {"result", {"amount"}, {}};
    StarJoinOp op(join);
    try {
      Status st = op.Execute(&ctx);
      EXPECT_FALSE(ctx.Get("result").ok());
      EXPECT_TRUE(ctx.stats()->operators.empty());
      return st;
    } catch (const CancelledException& e) {
      return e.status();
    }
  }

  // `a` and `b` are rejected in either order, and `a` with `control`
  // reaches its scan.
  void ExpectRejected(const char* a, const char* b, const char* control) {
    for (bool pooled : {false, true}) {
      const std::string where = pooled ? "pooled" : "inline";
      Status ab = Run(a, b, pooled);
      EXPECT_TRUE(ab.IsInvalidArgument()) << where << ": " << ab;
      Status ba = Run(b, a, pooled);
      EXPECT_TRUE(ba.IsInvalidArgument()) << where << ": " << ba;
      Status scanned = Run(a, control, pooled);
      EXPECT_TRUE(scanned.IsCancelled()) << where << ": " << scanned;
    }
  }

  engine::WorkerPool pool_{4};
};

TEST_F(StarJoinShapeTest, RejectsPrefixMainsOfDifferentKeyWidths) {
  ExpectRejected("sales_pk_prefix", "sales_pk_cust", "sales_pk_prefix");
}

TEST_F(StarJoinShapeTest, RejectsKissMainWithTwoColumnPrefixMain) {
  ExpectRejected("sales_partkey", "sales_pk_cust", "sales_pk_prefix");
}

// KISS keys are KissKeyOf(v), the low 32 bits of v, so a range whose
// bounds straddle zero maps to two key ranges (BaseIndex::KissRangesOf).
// Selection and select-join over a KISS base index must return the rows
// a prefix base index returns, inline and forked, for every predicate
// kind: ranges, a point, IN with a repeated point, all, and a composite
// range (selection only; over the two-column prefix index t_kg, and as
// a one-column box over t_kiss and t_prefix). Rows must equal the
// generating rules at 1 and 4 workers; point and IN never fork, nothing
// forks without a pool, and the wide scans fork on both families.
TEST(NegativeKeyRangeTest, KissMatchesPrefixSeriallyAndInParallel) {
  constexpr int64_t kSpan = 10000;
  constexpr int64_t kGroups = 50;
  auto group_of = [](int64_t k) { return ((k % kGroups) + kGroups) % kGroups; };
  Database db;
  {
    Schema schema({{"k", ValueType::kInt64, nullptr},
                   {"g", ValueType::kInt64, nullptr}});
    auto t = std::make_unique<RowTable>(schema, "t");
    for (int64_t k = -kSpan; k <= kSpan; ++k) {
      uint64_t row[2] = {SlotFromInt64(k), SlotFromInt64(group_of(k))};
      t->AppendRow(row);
    }
    ASSERT_TRUE(db.AddTable(std::move(t)).ok());
    Schema dim_schema({{"g", ValueType::kInt64, nullptr},
                       {"label", ValueType::kInt64, nullptr}});
    auto dim = std::make_unique<RowTable>(dim_schema, "dim");
    for (int64_t g = 0; g < kGroups; ++g) {
      uint64_t row[2] = {SlotFromInt64(g), SlotFromInt64(g * 7)};
      dim->AppendRow(row);
    }
    ASSERT_TRUE(db.AddTable(std::move(dim)).ok());
  }
  TreeOptions kiss;
  TreeOptions prefix{.prefer_kiss = false};
  ASSERT_TRUE(db.BuildIndex("t_kiss", "t", {"k"}, {"g"}, kiss).ok());
  ASSERT_TRUE(db.BuildIndex("t_prefix", "t", {"k"}, {"g"}, prefix).ok());
  ASSERT_TRUE(db.BuildIndex("t_kg", "t", {"k", "g"}, {}, prefix).ok());
  ASSERT_TRUE(db.BuildIndex("dim_g", "dim", {"g"}, {"label"}, kiss).ok());
  ASSERT_EQ(db.index("t_kiss").value()->kind(), BaseIndex::Kind::kKiss);
  ASSERT_EQ(db.index("t_prefix").value()->kind(), BaseIndex::Kind::kPrefix);

  engine::WorkerPool pool(4);
  using Rows = std::multiset<std::vector<int64_t>>;
  auto run = [&](std::unique_ptr<Operator> op, size_t threads,
                 uint64_t* morsels) {
    ExecContext ctx(&db, PlanKnobs{});
    if (threads > 1) ctx.set_worker_pool(&pool);
    Plan plan;
    plan.Add(std::move(op));
    plan.set_result_slot("result");
    auto result = plan.Execute(&ctx);
    EXPECT_TRUE(result.ok()) << result.status();
    Rows rows;
    if (!result.ok()) return rows;
    for (const auto& row : result->rows) {
      std::vector<int64_t> r;
      for (const auto& v : row) r.push_back(v.AsInt());
      rows.insert(r);
    }
    *morsels = ctx.stats()->TotalMorsels();
    return rows;
  };
  auto selection = [](const std::string& index, const KeyPredicate& pred,
                      const CompositeRange& box = {}) {
    SelectionSpec sel;
    sel.input_index = index;
    sel.predicate = pred;
    sel.composite_range = box;
    sel.carry_columns = {"k", "g"};
    sel.output = {"result", {"k"}, {}};
    return std::make_unique<SelectionOp>(sel);
  };
  auto select_join = [](const std::string& index, const KeyPredicate& pred) {
    SelectJoinSpec sj;
    sj.input_index = index;
    sj.predicate = pred;
    sj.left_columns = {"k", "g"};
    sj.probe_column = "g";
    sj.right = SideRef::Base("dim_g");
    sj.right_columns = {"label"};
    sj.output = {"result", {"k"}, {}};
    return std::make_unique<SelectJoinOp>(sj);
  };

  // Each case: a predicate (or, when `box` is set, a composite range),
  // the keys it selects, the indexes it runs on, and whether a 4-worker
  // run must fork into more than one morsel (`wide`) or not at all
  // (`inline_only`).
  struct Case {
    std::string name;
    KeyPredicate pred;
    CompositeRange box;
    std::function<bool(int64_t k)> selects;
    std::vector<std::string> indexes;
    bool wide = false;
    bool inline_only = false;
  };
  const std::vector<std::string> both{"t_kiss", "t_prefix"};
  std::vector<Case> cases;
  for (const auto& [lo, hi] : std::vector<std::pair<int64_t, int64_t>>{
           {-5, -1}, {-5, 3}, {0, 3}, {3, -5}, {-kSpan, kSpan}}) {
    cases.push_back({"range [" + std::to_string(lo) + ", " +
                         std::to_string(hi) + "]",
                     KeyPredicate::Range(lo, hi),
                     {},
                     [lo, hi](int64_t k) { return k >= lo && k <= hi; },
                     both,
                     lo == -kSpan && hi == kSpan});
  }
  cases.push_back({"point -7", KeyPredicate::Point(-7), {},
                   [](int64_t k) { return k == -7; }, both, false, true});
  cases.push_back({"in {-7, 3, -7, 9999}",
                   KeyPredicate::In({-7, 3, -7, 9999}),
                   {},
                   [](int64_t k) { return k == -7 || k == 3 || k == 9999; },
                   both, false, true});
  cases.push_back({"all", KeyPredicate::All(), {},
                   [](int64_t) { return true; }, both, true});
  cases.push_back({"composite (k, g) in [-6000, 6000] x [10, 20]",
                   {},
                   {{-6000, 6000}, {10, 20}},
                   [&](int64_t k) {
                     return k >= -6000 && k <= 6000 && group_of(k) >= 10 &&
                            group_of(k) <= 20;
                   },
                   {"t_kg"},
                   true});
  cases.push_back({"composite k in [-3000, 2000]",
                   {},
                   {{-3000, 2000}},
                   [](int64_t k) { return k >= -3000 && k <= 2000; },
                   both,
                   true});

  for (const Case& c : cases) {
    Rows want_sel;
    Rows want_join;
    for (int64_t k = -kSpan; k <= kSpan; ++k) {
      if (!c.selects(k)) continue;
      want_sel.insert({k, group_of(k)});
      want_join.insert({k, group_of(k), group_of(k) * 7});
    }
    for (size_t threads : {size_t{1}, size_t{4}}) {
      for (const std::string& index : c.indexes) {
        const std::string label =
            index + " " + c.name + " threads=" + std::to_string(threads);
        uint64_t morsels = 0;
        EXPECT_EQ(run(selection(index, c.pred, c.box), threads, &morsels),
                  want_sel)
            << "selection over " << label;
        if (threads == 1 || c.inline_only) {
          EXPECT_EQ(morsels, 0u) << "selection over " << label;
        } else if (c.wide) {
          EXPECT_GT(morsels, 1u) << "selection over " << label;
        }
        if (!c.box.empty()) continue;  // select-join takes no box
        EXPECT_EQ(run(select_join(index, c.pred), threads, &morsels),
                  want_join)
            << "select-join over " << label;
        if (threads == 1 || c.inline_only) {
          EXPECT_EQ(morsels, 0u) << "select-join over " << label;
        } else if (c.wide) {
          EXPECT_GT(morsels, 1u) << "select-join over " << label;
        }
      }
    }
  }
}

// IN is a set: a point listed twice selects its rows once, and on a
// KISS index points equal modulo 2^32 name one key (KissKeyOf). Checked
// for a dimension selection and a fact select-join over KISS and prefix
// indexes.
TEST(InListTest, DuplicatePointsSelectRowsOnce) {
  constexpr int64_t kParts = 40;
  constexpr int64_t kMfgrs = 5;
  constexpr int64_t kSales = 4000;
  Database db;
  {
    Schema schema({{"partkey", ValueType::kInt64, nullptr},
                   {"mfgr", ValueType::kInt64, nullptr}});
    auto part = std::make_unique<RowTable>(schema, "part");
    for (int64_t p = 0; p < kParts; ++p) {
      uint64_t row[2] = {SlotFromInt64(p), SlotFromInt64(p % kMfgrs)};
      part->AppendRow(row);
    }
    ASSERT_TRUE(db.AddTable(std::move(part)).ok());
    Schema sales_schema({{"partkey", ValueType::kInt64, nullptr},
                         {"amount", ValueType::kInt64, nullptr}});
    auto sales = std::make_unique<RowTable>(sales_schema, "sales");
    for (int64_t i = 0; i < kSales; ++i) {
      uint64_t row[2] = {SlotFromInt64((i * 7) % kParts), SlotFromInt64(i)};
      sales->AppendRow(row);
    }
    ASSERT_TRUE(db.AddTable(std::move(sales)).ok());
  }
  TreeOptions kiss;
  TreeOptions prefix{.prefer_kiss = false};
  for (const auto& [suffix, opt] :
       {std::pair{"_kiss", kiss}, std::pair{"_prefix", prefix}}) {
    std::string s(suffix);
    ASSERT_TRUE(db.BuildIndex("part_mfgr" + s, "part", {"mfgr"}, {"partkey"},
                              opt)
                    .ok());
    ASSERT_TRUE(db.BuildIndex("sales_partkey" + s, "sales", {"partkey"},
                              {"amount"}, opt)
                    .ok());
  }
  ASSERT_TRUE(
      db.BuildIndex("part_pk", "part", {"partkey"}, {"mfgr"}, kiss).ok());

  using Rows = std::vector<std::vector<int64_t>>;
  auto run = [&](std::unique_ptr<Operator> op) {
    ExecContext ctx(&db, PlanKnobs{});
    Plan plan;
    plan.Add(std::move(op));
    plan.set_result_slot("result");
    auto result = plan.Execute(&ctx);
    EXPECT_TRUE(result.ok()) << result.status();
    Rows rows;
    if (!result.ok()) return rows;
    for (const auto& row : result->rows) {
      std::vector<int64_t> r;
      for (const auto& v : row) r.push_back(v.AsInt());
      rows.push_back(r);
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  // Dimension selection: the parts of the listed manufacturers.
  auto selection = [](const std::string& index, std::vector<int64_t> in) {
    SelectionSpec sel;
    sel.input_index = index;
    sel.predicate = KeyPredicate::In(std::move(in));
    sel.carry_columns = {"partkey", "mfgr"};
    sel.output = {"result", {"partkey"}, {}};
    return std::make_unique<SelectionOp>(sel);
  };
  // Fact select-join: the sales of the listed parts, joined with part and
  // summed per manufacturer.
  auto select_join = [](const std::string& index, std::vector<int64_t> in) {
    SelectJoinSpec sj;
    sj.input_index = index;
    sj.predicate = KeyPredicate::In(std::move(in));
    sj.left_columns = {"partkey", "amount"};
    sj.probe_column = "partkey";
    sj.right = SideRef::Base("part_pk");
    sj.right_columns = {"mfgr"};
    AggSpec agg({{AggFn::kSum, ScalarExpr::Column("amount"), "revenue"},
                 {AggFn::kCount, {}, "n"}});
    sj.output = {"result", {"mfgr"}, agg};
    return std::make_unique<SelectJoinOp>(sj);
  };

  // References from the generating rules.
  Rows want_sel;
  for (int64_t p = 0; p < kParts; ++p) {
    if (p % kMfgrs == 1) want_sel.push_back({p, 1});
  }
  Rows want_join;
  {
    int64_t revenue = 0;
    int64_t n = 0;
    for (int64_t i = 0; i < kSales; ++i) {
      if ((i * 7) % kParts == 6) {
        revenue += i;
        ++n;
      }
    }
    want_join.push_back({6 % kMfgrs, revenue, n});
  }

  for (const char* suffix : {"_kiss", "_prefix"}) {
    const std::string dim = std::string("part_mfgr") + suffix;
    const std::string fact = std::string("sales_partkey") + suffix;
    EXPECT_EQ(run(selection(dim, {1})), want_sel) << dim;
    EXPECT_EQ(run(selection(dim, {1, 1})), want_sel) << dim;
    EXPECT_EQ(run(select_join(fact, {6})), want_join) << fact;
    EXPECT_EQ(run(select_join(fact, {6, 6})), want_join) << fact;
  }
  // KISS keys are v mod 2^32, so 1 + 2^32 names key 1 there.
  constexpr int64_t kWrap = int64_t{1} << 32;
  EXPECT_EQ(run(selection("part_mfgr_kiss", {1, 1 + kWrap})), want_sel);
  EXPECT_EQ(run(select_join("sales_partkey_kiss", {6 + kWrap, 6})),
            want_join);
  // A prefix index compares whole values: 1 + 2^32 is another key.
  EXPECT_EQ(run(selection("part_mfgr_prefix", {1 + kWrap, 1})), want_sel);
}

// Residuals on a double column compare its value with the literal, not
// the value's IEEE bits with the int64 literal (under which every
// positive price passes Ge(2) and every negative one fails it).
class DoubleResidualTest : public ::testing::Test {
 public:
  void SetUp() override {
    Schema schema({{"id", ValueType::kInt64, nullptr},
                   {"price", ValueType::kDouble, nullptr}});
    auto items = std::make_unique<RowTable>(schema, "items");
    Schema grp_schema({{"id", ValueType::kInt64, nullptr},
                       {"grp", ValueType::kInt64, nullptr}});
    auto groups = std::make_unique<RowTable>(grp_schema, "groups");
    const double prices[] = {0.5, 1.5, 2.5, 3.5, -1.5};
    for (int64_t i = 0; i < 5; ++i) {
      uint64_t row[2] = {SlotFromInt64(i), SlotFromDouble(prices[i])};
      items->AppendRow(row);
      uint64_t grp[2] = {SlotFromInt64(i), SlotFromInt64(i % 2)};
      groups->AppendRow(grp);
    }
    ASSERT_TRUE(db_.AddTable(std::move(items)).ok());
    ASSERT_TRUE(db_.AddTable(std::move(groups)).ok());
    // The residual reads price from the index payload in one index and
    // from the base table in the other.
    ASSERT_TRUE(
        db_.BuildIndex("items_payload", "items", {"id"}, {"price"}).ok());
    ASSERT_TRUE(db_.BuildIndex("items_table", "items", {"id"}).ok());
    ASSERT_TRUE(db_.BuildIndex("groups_pk", "groups", {"id"}, {"grp"}).ok());
  }

  // The sorted prices (column 1) of the plan's "result" rows.
  std::vector<double> Prices(std::unique_ptr<Operator> op) {
    ExecContext ctx(&db_);
    Plan plan;
    plan.Add(std::move(op));
    plan.set_result_slot("result");
    auto result = plan.Execute(&ctx);
    EXPECT_TRUE(result.ok()) << result.status();
    std::vector<double> prices;
    if (!result.ok()) return prices;
    for (const auto& row : result->rows) prices.push_back(row[1].AsDouble());
    std::sort(prices.begin(), prices.end());
    return prices;
  }

  Database db_;
};

TEST_F(DoubleResidualTest, SelectionComparesValues) {
  auto selection = [](const std::string& index, Residual r) {
    SelectionSpec sel;
    sel.input_index = index;
    sel.predicate = KeyPredicate::All();
    sel.residuals = {std::move(r)};
    sel.carry_columns = {"id", "price"};
    sel.output = {"result", {"id"}, {}};
    return std::make_unique<SelectionOp>(sel);
  };
  using P = std::vector<double>;
  for (const char* index : {"items_payload", "items_table"}) {
    EXPECT_EQ(Prices(selection(index, Residual::Ge("price", 2))),
              (P{2.5, 3.5}))
        << index;
    EXPECT_EQ(Prices(selection(index, Residual::Lt("price", 1))),
              (P{-1.5, 0.5}))
        << index;
    EXPECT_EQ(Prices(selection(index, Residual::Lt("price", -1))), (P{-1.5}))
        << index;
    EXPECT_EQ(Prices(selection(index, Residual::Between("price", -1, 2))),
              (P{0.5, 1.5}))
        << index;
  }
}

TEST_F(DoubleResidualTest, SelectJoinComparesValues) {
  auto select_join = [](const std::string& index, Residual r) {
    SelectJoinSpec sj;
    sj.input_index = index;
    sj.predicate = KeyPredicate::All();
    sj.residuals = {std::move(r)};
    sj.left_columns = {"id", "price"};
    sj.probe_column = "id";
    sj.right = SideRef::Base("groups_pk");
    sj.right_columns = {"grp"};
    sj.output = {"result", {"id"}, {}};
    return std::make_unique<SelectJoinOp>(sj);
  };
  using P = std::vector<double>;
  for (const char* index : {"items_payload", "items_table"}) {
    EXPECT_EQ(Prices(select_join(index, Residual::Ge("price", 2))),
              (P{2.5, 3.5}))
        << index;
    EXPECT_EQ(Prices(select_join(index, Residual::Between("price", -2, 1))),
              (P{-1.5, 0.5}))
        << index;
  }
}

// A forked operator's materialize_ms ends before the fold of its
// partials, which is merge_ms alone, so the two never add up past the
// operator's total_ms. Checked for a range selection, a select-join and
// a star join on a 4-worker pool, each with a 60k-tuple plain output.
TEST(PhaseTimesTest, MaterializeExcludesTheFold) {
  constexpr int64_t kRows = 60000;
  constexpr int64_t kGroups = 100;
  Database db;
  {
    Schema schema({{"k", ValueType::kInt64, nullptr},
                   {"g", ValueType::kInt64, nullptr}});
    auto fact = std::make_unique<RowTable>(schema, "fact");
    for (int64_t k = 0; k < kRows; ++k) {
      uint64_t row[2] = {SlotFromInt64(k), SlotFromInt64(k % kGroups)};
      fact->AppendRow(row);
    }
    ASSERT_TRUE(db.AddTable(std::move(fact)).ok());
    Schema dim_schema({{"g", ValueType::kInt64, nullptr},
                       {"label", ValueType::kInt64, nullptr}});
    auto dim = std::make_unique<RowTable>(dim_schema, "dim");
    for (int64_t g = 0; g < kGroups; ++g) {
      uint64_t row[2] = {SlotFromInt64(g), SlotFromInt64(g * 3)};
      dim->AppendRow(row);
    }
    ASSERT_TRUE(db.AddTable(std::move(dim)).ok());
  }
  ASSERT_TRUE(db.BuildIndex("fact_k", "fact", {"k"}, {"g"}).ok());
  ASSERT_TRUE(db.BuildIndex("fact_g", "fact", {"g"}, {"k"}).ok());
  ASSERT_TRUE(db.BuildIndex("dim_g", "dim", {"g"}, {"label"}).ok());

  engine::WorkerPool pool(4);
  auto run = [&](std::unique_ptr<Operator> op) {
    ExecContext ctx(&db, PlanKnobs{});
    ctx.set_worker_pool(&pool);
    Plan plan;
    plan.Add(std::move(op));
    EXPECT_TRUE(plan.Run(&ctx).ok());
    return ctx.stats()->operators.back();
  };
  SelectionSpec sel;
  sel.input_index = "fact_k";
  sel.predicate = KeyPredicate::Range(0, kRows - 1);
  sel.carry_columns = {"k", "g"};
  sel.output = {"result", {"k"}, {}};
  SelectJoinSpec sj;
  sj.input_index = "fact_k";
  sj.predicate = KeyPredicate::Range(0, kRows - 1);
  sj.left_columns = {"k", "g"};
  sj.probe_column = "g";
  sj.right = SideRef::Base("dim_g");
  sj.right_columns = {"label"};
  sj.output = {"result", {"k"}, {}};
  StarJoinSpec join;
  join.left = SideRef::Base("fact_g");
  join.left_columns = {"k", "g"};
  join.right = SideRef::Base("dim_g");
  join.right_columns = {"label"};
  join.output = {"result", {"k"}, {}};
  for (const OperatorStats& st :
       {run(std::make_unique<SelectionOp>(sel)),
        run(std::make_unique<SelectJoinOp>(sj)),
        run(std::make_unique<StarJoinOp>(join))}) {
    EXPECT_EQ(st.output_tuples, static_cast<uint64_t>(kRows)) << st.name;
    EXPECT_GT(st.morsels, 0u) << st.name;
    EXPECT_GT(st.merge_ms, 0.0) << st.name;
    EXPECT_LE(st.materialize_ms + st.merge_ms, st.total_ms) << st.name;
  }
}

TEST(KissRangesOfTest, WrapsAroundZero) {
  using R = BaseIndex::KissRanges;
  auto check = [](const R& r, std::vector<std::pair<uint32_t, uint32_t>> want) {
    ASSERT_EQ(r.count, want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(r.lo[i], want[i].first) << i;
      EXPECT_EQ(r.hi[i], want[i].second) << i;
    }
  };
  constexpr uint32_t kMax = 0xFFFFFFFFu;
  check(BaseIndex::KissRangesOf(0, 3), {{0, 3}});
  check(BaseIndex::KissRangesOf(3, 0), {});
  check(BaseIndex::KissRangesOf(-5, -1), {{kMax - 4, kMax}});
  check(BaseIndex::KissRangesOf(-5, 3), {{kMax - 4, kMax}, {0, 3}});
  // Keys in [2^31, 2^32) that do not wrap stay one range.
  check(BaseIndex::KissRangesOf(int64_t{1} << 31, kMax),
        {{uint32_t{1} << 31, kMax}});
  // Crossing 2^32 wraps like crossing zero.
  check(BaseIndex::KissRangesOf(int64_t{kMax}, int64_t{kMax} + 2),
        {{kMax, kMax}, {0, 1}});
  // 2^32 or more values cover every key, listed from lo mod 2^32 up.
  check(BaseIndex::KissRangesOf(-1, int64_t{kMax} - 1),
        {{kMax, kMax}, {0, kMax - 1}});
  check(BaseIndex::KissRangesOf(std::numeric_limits<int32_t>::min(),
                                std::numeric_limits<int32_t>::max()),
        {{uint32_t{1} << 31, kMax}, {0, (uint32_t{1} << 31) - 1}});
  check(BaseIndex::KissRangesOf(0, int64_t{kMax} + 5), {{0, kMax}});
  check(BaseIndex::KissRangesOf(std::numeric_limits<int64_t>::min(),
                                std::numeric_limits<int64_t>::max()),
        {{0, kMax}});
}

}  // namespace
}  // namespace qppt
