// Query-API unit tests: QueryBuilder -> QuerySpec -> planner on a tiny
// non-SSB star, spec validation errors, ORDER-BY strategy, parameter
// re-binding, the prepared-query plan cache, and group keys across index
// families.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/query/planner.h"
#include "core/query/query_spec.h"
#include "engine/session.h"
#include "util/rng.h"

namespace qppt {
namespace {

// A small products/orders star with hand-checkable aggregates.
class QueryApiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    {
      Schema schema({{"product_id", ValueType::kInt64, nullptr},
                     {"category", ValueType::kInt64, nullptr},
                     {"price", ValueType::kInt64, nullptr}});
      auto products = std::make_unique<RowTable>(schema, "products");
      Rng rng(1);
      for (int64_t id = 0; id < 500; ++id) {
        int64_t price = 10 + static_cast<int64_t>(rng.NextBounded(90));
        uint64_t row[3] = {SlotFromInt64(id), SlotFromInt64(id % 8),
                           SlotFromInt64(price)};
        products->AppendRow(row);
        price_[id] = price;
        category_[id] = id % 8;
      }
      ASSERT_TRUE(db_.AddTable(std::move(products)).ok());
    }
    {
      Schema schema({{"product_id", ValueType::kInt64, nullptr},
                     {"amount", ValueType::kInt64, nullptr}});
      auto orders = std::make_unique<RowTable>(schema, "orders");
      Rng rng(2);
      for (int i = 0; i < 20000; ++i) {
        int64_t product = static_cast<int64_t>(rng.NextBounded(500));
        int64_t amount = 1 + static_cast<int64_t>(rng.NextBounded(5));
        uint64_t row[2] = {SlotFromInt64(product), SlotFromInt64(amount)};
        orders->AppendRow(row);
        orders_.emplace_back(product, amount);
      }
      ASSERT_TRUE(db_.AddTable(std::move(orders)).ok());
    }
    ASSERT_TRUE(db_.BuildIndex("products_by_price", "products", {"price"},
                               {"product_id", "category"})
                    .ok());
    ASSERT_TRUE(db_.BuildIndex("orders_by_product", "orders", {"product_id"},
                               {"amount"})
                    .ok());
  }

  query::QuerySpec GadgetSpec(int64_t price_lo, int64_t price_hi) {
    query::QueryBuilder b("test.gadgets");
    b.From("orders").FactIndex("orders_by_product").FactColumns({"amount"});
    b.Dim("gadgets")
        .Select("products_by_price", KeyPredicate::Range(price_lo, price_hi))
        .Key("product_id")
        .ProbeFrom("product_id")
        .Carry({"category"});
    b.GroupBy({"category"})
        .Aggregate(AggFn::kSum, ScalarExpr::Column("amount"), "total")
        .Aggregate(AggFn::kCount, {}, "orders");
    return std::move(b).Build();
  }

  // Reference aggregation straight off the raw rows.
  std::map<int64_t, std::pair<int64_t, int64_t>> Reference(int64_t lo,
                                                           int64_t hi) {
    std::map<int64_t, std::pair<int64_t, int64_t>> by_category;
    for (const auto& [product, amount] : orders_) {
      if (price_[product] < lo || price_[product] > hi) continue;
      auto& acc = by_category[category_[product]];
      acc.first += amount;
      acc.second += 1;
    }
    return by_category;
  }

  Database db_;
  std::map<int64_t, int64_t> price_;
  std::map<int64_t, int64_t> category_;
  std::vector<std::pair<int64_t, int64_t>> orders_;
};

TEST_F(QueryApiTest, PlansAndExecutesStarQuery) {
  query::QuerySpec spec = GadgetSpec(40, 60);
  auto plan = query::PlanQuery(db_, spec, PlanKnobs{});
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->OperatorNames(),
            (std::vector<std::string>{
                "selection(products_by_price)",
                "2-way-join(orders_by_product x gadgets_sel)"}));
  EXPECT_EQ(plan->OperatorLabels(),
            (std::vector<std::string>{"sel:gadgets_sel", "join:result"}));

  ExecContext ctx(&db_);
  auto result = plan->Execute(&ctx);
  ASSERT_TRUE(result.ok()) << result.status();
  auto want = Reference(40, 60);
  ASSERT_EQ(result->rows.size(), want.size());
  for (const auto& row : result->rows) {
    int64_t category = row[0].AsInt();
    ASSERT_TRUE(want.count(category)) << category;
    EXPECT_EQ(row[1].AsInt(), want[category].first) << category;
    EXPECT_EQ(row[2].AsInt(), want[category].second) << category;
  }
  // Executed stats rows carry the stage labels.
  ASSERT_EQ(ctx.stats()->operators.size(), 2u);
  EXPECT_EQ(ctx.stats()->operators[0].name, "sel:gadgets_sel");
  EXPECT_EQ(ctx.stats()->operators[1].name, "join:result");
}

TEST_F(QueryApiTest, DimensionFreeQueryIsASelection) {
  query::QueryBuilder b("test.prices");
  b.From("products")
      .FactIndex("products_by_price")
      .FactColumns({"category", "price"})
      .Where(KeyPredicate::Range(40, 60));
  b.GroupBy({"category"})
      .Aggregate(AggFn::kSum, ScalarExpr::Column("price"), "price_sum");
  query::QuerySpec spec = std::move(b).Build();
  auto plan = query::PlanQuery(db_, spec, PlanKnobs{});
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->OperatorNames(),
            (std::vector<std::string>{"selection(products_by_price)"}));

  ExecContext ctx(&db_);
  auto result = plan->Execute(&ctx);
  ASSERT_TRUE(result.ok());
  std::map<int64_t, int64_t> want;
  for (const auto& [product, price] : price_) {
    if (price >= 40 && price <= 60) want[category_[product]] += price;
  }
  ASSERT_EQ(result->rows.size(), want.size());
  for (const auto& row : result->rows) {
    EXPECT_EQ(row[1].AsInt(), want[row[0].AsInt()]);
  }
}

TEST_F(QueryApiTest, OrderByPostSortAndFreeOrder) {
  query::QuerySpec spec = GadgetSpec(20, 80);
  spec.order_by = {{"total", true}};  // not an index order: post-sort
  auto plan = query::PlanQuery(db_, spec, PlanKnobs{});
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->result_order().size(), 1u);
  ExecContext ctx(&db_);
  auto result = plan->Execute(&ctx);
  ASSERT_TRUE(result.ok());
  for (size_t i = 1; i < result->rows.size(); ++i) {
    EXPECT_GE(result->rows[i - 1][1].AsInt(), result->rows[i][1].AsInt());
  }

  spec.order_by = {{"category", false}};  // ascending group prefix: free
  auto free_plan = query::PlanQuery(db_, spec, PlanKnobs{});
  ASSERT_TRUE(free_plan.ok());
  EXPECT_TRUE(free_plan->result_order().empty());

  auto explain = query::ExplainPlan(db_, spec, PlanKnobs{});
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->find("order-by: index order (free)"),
            std::string::npos);
}

TEST_F(QueryApiTest, RejectsInvalidSpecs) {
  // Unknown fact index.
  {
    query::QuerySpec spec = GadgetSpec(40, 60);
    spec.fact.index = "no_such_index";
    EXPECT_FALSE(query::PlanQuery(db_, spec, PlanKnobs{}).ok());
  }
  // A dimension needs exactly one access path.
  {
    query::QuerySpec spec = GadgetSpec(40, 60);
    spec.dimensions[0].probe_index = "products_by_price";
    auto plan = query::PlanQuery(db_, spec, PlanKnobs{});
    ASSERT_FALSE(plan.ok());
    EXPECT_TRUE(plan.status().IsInvalidArgument());
  }
  // Probe-path dimensions cannot carry a filter.
  {
    query::QueryBuilder b("bad.probe_filter");
    b.From("orders").FactIndex("orders_by_product").FactColumns({"amount"});
    b.Dim("gadgets")
        .Probe("products_by_price")
        .ProbeFrom("product_id")
        .Carry({"category"});
    b.GroupBy({"category"}).Aggregate(AggFn::kCount, {}, "n");
    query::QuerySpec spec = std::move(b).Build();
    spec.dimensions[0].predicate = KeyPredicate::Point(3);
    EXPECT_FALSE(query::PlanQuery(db_, spec, PlanKnobs{}).ok());
  }
  // ORDER BY must reference a result column.
  {
    query::QuerySpec spec = GadgetSpec(40, 60);
    spec.order_by = {{"price", false}};
    EXPECT_FALSE(query::PlanQuery(db_, spec, PlanKnobs{}).ok());
  }
  // Group-by columns must originate from the fact or a dimension carry.
  {
    query::QuerySpec spec = GadgetSpec(40, 60);
    spec.group_by = {"no_such_column"};
    EXPECT_FALSE(query::PlanQuery(db_, spec, PlanKnobs{}).ok());
  }
  // An unfiltered fact side must enter through the first dim's probe key.
  {
    query::QuerySpec spec = GadgetSpec(40, 60);
    spec.fact.index = "products_by_price";  // keyed on price, not product_id
    auto plan = query::PlanQuery(db_, spec, PlanKnobs{});
    ASSERT_FALSE(plan.ok());
    EXPECT_TRUE(plan.status().IsInvalidArgument());
  }
}

TEST_F(QueryApiTest, BindParamsPatchesPredicateConstants) {
  query::QuerySpec spec = GadgetSpec(40, 60);
  auto bound = query::BindParams(
      spec, {query::ParamBinding::Lo("gadgets", 10),
             query::ParamBinding::Hi("gadgets", 90)});
  ASSERT_TRUE(bound.ok()) << bound.status();
  EXPECT_EQ(bound->dimensions[0].predicate.lo, 10);
  EXPECT_EQ(bound->dimensions[0].predicate.hi, 90);
  // The original spec is untouched.
  EXPECT_EQ(spec.dimensions[0].predicate.lo, 40);

  // Kind mismatch and unknown targets fail.
  EXPECT_FALSE(
      query::BindParams(spec, {query::ParamBinding::Point("gadgets", 5)})
          .ok());
  EXPECT_FALSE(
      query::BindParams(spec, {query::ParamBinding::Point("nope", 5)}).ok());
  // Duplicate (target, field) bindings are rejected — they would alias
  // two different binding outcomes to one prepared-plan cache key.
  EXPECT_FALSE(
      query::BindParams(spec, {query::ParamBinding::Lo("gadgets", 10),
                               query::ParamBinding::Lo("gadgets", 20)})
          .ok());
  EXPECT_FALSE(query::ParamsKey({query::ParamBinding::Lo("gadgets", 10),
                                 query::ParamBinding::Lo("gadgets", 20)})
                   .ok());
}

TEST_F(QueryApiTest, PreparedQueryCachesPlansPerKnobsAndParams) {
  engine::EngineConfig cfg;
  cfg.threads = 1;
  engine::EngineRunner runner(cfg);
  auto prepared = runner.Prepare(db_, GadgetSpec(40, 60));
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  EXPECT_EQ(prepared->plans_cached(), 1u);  // warmed at Prepare

  // Repeated default executions reuse the cached plan.
  auto a = runner.Execute(*prepared);
  auto b = runner.Execute(*prepared);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(prepared->plan_cache_hits(), 2u);
  EXPECT_EQ(prepared->plan_cache_misses(), 1u);
  EXPECT_EQ(prepared->plans_cached(), 1u);

  // New parameter values compile one more plan, then hit.
  query::QueryParams wide = {query::ParamBinding::Lo("gadgets", 10),
                             query::ParamBinding::Hi("gadgets", 99)};
  auto c = runner.Execute(*prepared, wide);
  auto d = runner.Execute(*prepared, wide);
  ASSERT_TRUE(c.ok() && d.ok());
  EXPECT_EQ(prepared->plans_cached(), 2u);
  EXPECT_EQ(prepared->plan_cache_misses(), 2u);
  EXPECT_GE(c->rows.size(), a->rows.size());

  // Structural knobs key the cache too.
  PlanKnobs no_fusion;
  no_fusion.use_select_join = false;
  auto e = runner.Execute(*prepared, {}, no_fusion);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(prepared->plans_cached(), 3u);

  // Results through the prepared path match the ad-hoc planner path.
  auto want = Reference(10, 99);
  ASSERT_EQ(c->rows.size(), want.size());
  for (const auto& row : c->rows) {
    EXPECT_EQ(row[1].AsInt(), want[row[0].AsInt()].first);
  }
}

TEST_F(QueryApiTest, HavingFiltersFinalizedGroups) {
  query::QuerySpec spec = GadgetSpec(20, 80);
  spec.having = {Residual::Ge("total", 500)};
  auto plan = query::PlanQuery(db_, spec, PlanKnobs{});
  ASSERT_TRUE(plan.ok()) << plan.status();
  // The aggregating join lands in a pre-HAVING slot; HavingOp filters
  // its group rows into the result.
  std::vector<std::string> names = plan->OperatorNames();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[2], "having(result_agg)");
  EXPECT_EQ(plan->OperatorLabels()[2], "having:result");

  ExecContext ctx(&db_);
  auto result = plan->Execute(&ctx);
  ASSERT_TRUE(result.ok()) << result.status();
  size_t expected = 0;
  for (const auto& [category, acc] : Reference(20, 80)) {
    if (acc.first >= 500) ++expected;
  }
  EXPECT_EQ(result->rows.size(), expected);
  for (const auto& row : result->rows) {
    EXPECT_GE(row[1].AsInt(), 500);
  }

  // HAVING without aggregates and unknown HAVING columns are rejected.
  query::QuerySpec bad = GadgetSpec(20, 80);
  bad.aggregates = AggSpec{};
  bad.group_by = {"category"};
  bad.having = {Residual::Ge("total", 500)};
  EXPECT_FALSE(query::PlanQuery(db_, bad, PlanKnobs{}).ok());
  query::QuerySpec bad_col = GadgetSpec(20, 80);
  bad_col.having = {Residual::Ge("no_such", 1)};
  EXPECT_FALSE(query::PlanQuery(db_, bad_col, PlanKnobs{}).ok());
}

TEST_F(QueryApiTest, RejectsSlotAndNameCollisions) {
  // Duplicate dimension names fail at planning time, not execution.
  {
    query::QuerySpec spec = GadgetSpec(40, 60);
    query::DimensionSpec dup = spec.dimensions[0];
    dup.carry_columns = {};
    spec.dimensions.push_back(dup);
    auto plan = query::PlanQuery(db_, spec, PlanKnobs{});
    ASSERT_FALSE(plan.ok());
    EXPECT_TRUE(plan.status().IsInvalidArgument());
  }
  // A dimension slot equal to the result slot collides.
  {
    query::QuerySpec spec = GadgetSpec(40, 60);
    spec.dimensions[0].slot = "result";
    EXPECT_FALSE(query::PlanQuery(db_, spec, PlanKnobs{}).ok());
  }
  // Planner-generated join slots are reserved.
  {
    query::QuerySpec spec = GadgetSpec(40, 60);
    spec.dimensions[0].slot = "join1";
    EXPECT_FALSE(query::PlanQuery(db_, spec, PlanKnobs{}).ok());
  }
  // "fact" is reserved for parameter bindings.
  {
    query::QuerySpec spec = GadgetSpec(40, 60);
    spec.dimensions[0].name = "fact";
    EXPECT_FALSE(query::PlanQuery(db_, spec, PlanKnobs{}).ok());
  }
}

TEST_F(QueryApiTest, PreparedPlanCacheIsBounded) {
  engine::EngineConfig cfg;
  cfg.threads = 1;
  engine::EngineRunner runner(cfg);
  auto prepared = runner.Prepare(db_, GadgetSpec(40, 60));
  ASSERT_TRUE(prepared.ok());
  // A workload with ever-changing parameter values must not grow the
  // cache without bound (FIFO eviction kicks in).
  for (int64_t lo = 0; lo < 100; ++lo) {
    auto r = runner.Execute(
        *prepared, {query::ParamBinding::Lo("gadgets", lo),
                    query::ParamBinding::Hi("gadgets", lo + 5)});
    ASSERT_TRUE(r.ok()) << r.status();
  }
  EXPECT_LE(prepared->plans_cached(), 64u);
  // The prepared query still answers correctly after evictions.
  auto r = runner.Execute(*prepared);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), Reference(40, 60).size());
}

// Grouping on more columns than a key holds (4) fails cleanly instead of
// overflowing the output table's key buffer.
TEST(QueryApiWideGroupTest, RejectsMoreGroupColumnsThanAKeyHolds) {
  Database db;
  Schema schema({{"id", ValueType::kInt64, nullptr},
                 {"c1", ValueType::kInt64, nullptr},
                 {"c2", ValueType::kInt64, nullptr},
                 {"c3", ValueType::kInt64, nullptr},
                 {"c4", ValueType::kInt64, nullptr},
                 {"c5", ValueType::kInt64, nullptr}});
  auto table = std::make_unique<RowTable>(schema, "wide");
  for (int64_t id = 0; id < 100; ++id) {
    uint64_t row[6] = {SlotFromInt64(id),     SlotFromInt64(id % 2),
                       SlotFromInt64(id % 3), SlotFromInt64(id % 5),
                       SlotFromInt64(id % 7), SlotFromInt64(id)};
    table->AppendRow(row);
  }
  ASSERT_TRUE(db.AddTable(std::move(table)).ok());
  ASSERT_TRUE(db.BuildIndex("wide_by_id", "wide", {"id"},
                            {"c1", "c2", "c3", "c4", "c5"})
                  .ok());
  auto spec = [](std::vector<std::string> group) {
    query::QueryBuilder b("test.wide");
    b.From("wide")
        .FactIndex("wide_by_id")
        .FactColumns({"c1", "c2", "c3", "c4", "c5"})
        .Where(KeyPredicate::Range(0, 99));
    b.GroupBy(std::move(group)).Aggregate(AggFn::kCount, {}, "n");
    return std::move(b).Build();
  };

  engine::EngineConfig cfg;
  cfg.threads = 1;
  engine::EngineRunner runner(cfg);
  auto five = runner.Execute(db, spec({"c1", "c2", "c3", "c4", "c5"}),
                             PlanKnobs{});
  EXPECT_TRUE(five.status().IsInvalidArgument()) << five.status();
  auto four = runner.Execute(db, spec({"c1", "c2", "c3", "c4"}), PlanKnobs{});
  ASSERT_TRUE(four.ok()) << four.status();
  // id mod 2, 3, 5, 7 determine id mod 210: every id is its own group.
  EXPECT_EQ(four->rows.size(), 100u);
}

// Group keys keep their sign and their full 64-bit width whatever index
// family the planner prefers: GROUP BY g ORDER BY g returns -2..2 in
// order, and 1 and 1 + 2^32 stay two groups. (An aggregated KISS output
// once returned 0, 1, 2, 4294967294, 4294967295 and merged 1 + 2^32
// into 1: a KISS key keeps only the low 32 bits.)
TEST(GroupKeyTest, KeepsSignAndWidthWithAndWithoutKiss) {
  Database db;
  Schema schema({{"id", ValueType::kInt64, nullptr},
                 {"g", ValueType::kInt64, nullptr},
                 {"wide", ValueType::kInt64, nullptr}});
  auto table = std::make_unique<RowTable>(schema, "t");
  constexpr int64_t kRows = 1000;
  const int64_t two32 = int64_t{1} << 32;
  for (int64_t i = 0; i < kRows; ++i) {
    uint64_t row[3] = {SlotFromInt64(i), SlotFromInt64(i % 5 - 2),
                       SlotFromInt64(i % 2 == 0 ? 1 : 1 + two32)};
    table->AppendRow(row);
  }
  ASSERT_TRUE(db.AddTable(std::move(table)).ok());
  ASSERT_TRUE(db.BuildIndex("t_by_id", "t", {"id"}, {"g", "wide"}).ok());
  auto spec = [](const std::string& group) {
    query::QueryBuilder b("test.group_" + group);
    b.From("t").FactIndex("t_by_id").FactColumns({"g", "wide"}).Where(
        KeyPredicate::Range(0, kRows - 1));
    b.GroupBy({group}).Aggregate(AggFn::kCount, {}, "n");
    query::QuerySpec built = std::move(b).Build();
    built.order_by = {{group, false}};
    return built;
  };

  engine::EngineRunner runner;
  for (bool prefer_kiss : {true, false}) {
    SCOPED_TRACE(prefer_kiss ? "prefer_kiss on" : "prefer_kiss off");
    PlanKnobs knobs;
    knobs.table_options.prefer_kiss = prefer_kiss;
    auto signed_groups = runner.Execute(db, spec("g"), knobs);
    ASSERT_TRUE(signed_groups.ok()) << signed_groups.status();
    ASSERT_EQ(signed_groups->rows.size(), 5u);
    for (int64_t g = -2; g <= 2; ++g) {
      const auto& row = signed_groups->rows[static_cast<size_t>(g + 2)];
      EXPECT_EQ(row[0].AsInt(), g);
      EXPECT_EQ(row[1].AsInt(), kRows / 5);
    }
    auto wide_groups = runner.Execute(db, spec("wide"), knobs);
    ASSERT_TRUE(wide_groups.ok()) << wide_groups.status();
    ASSERT_EQ(wide_groups->rows.size(), 2u);
    EXPECT_EQ(wide_groups->rows[0][0].AsInt(), 1);
    EXPECT_EQ(wide_groups->rows[1][0].AsInt(), 1 + two32);
    EXPECT_EQ(wide_groups->rows[0][1].AsInt(), kRows / 2);
    EXPECT_EQ(wide_groups->rows[1][1].AsInt(), kRows / 2);
  }
}

TEST_F(QueryApiTest, EngineExecutesSpecsDirectly) {
  engine::EngineConfig cfg;
  cfg.threads = 1;
  engine::EngineRunner runner(cfg);
  PlanStats stats;
  auto result = runner.Execute(db_, GadgetSpec(40, 60), PlanKnobs{}, &stats);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->rows.size(), Reference(40, 60).size());
  EXPECT_EQ(stats.operators.size(), 2u);
}

}  // namespace
}  // namespace qppt
