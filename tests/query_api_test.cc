// Query-API unit tests: QueryBuilder -> QuerySpec -> planner on a tiny
// non-SSB star, spec validation errors, ORDER-BY strategy, parameter
// re-binding, and the prepared-query plan cache.

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
