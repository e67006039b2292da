// Golden planner tests (ISSUE 3): for every SSB query across the knob
// grid (select-join fusion on/off x join-ways 2/3/4/multi) the rule-based
// planner must emit exactly the operator sequences the hand-built plans
// produced before the redesign — recorded below as literal golden data —
// and the executed results must be identical across the whole grid.
// Where the pre-redesign code varied with a knob (Q1.x fusion, Q4.1
// join-ways), the golden sequences are the pre-redesign ones verbatim;
// the remaining chains are the planner's uniform arity rule applied to
// queries the hand-built code never split.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/query/planner.h"
#include "engine/session.h"
#include "ssb/queries_qppt.h"

namespace qppt::ssb {
namespace {

class PlannerGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SsbConfig cfg;
    cfg.scale_factor = 0.01;  // scale-mini: ~60k lineorder rows
    cfg.seed = 7;
    auto data = Generate(cfg);
    ASSERT_TRUE(data.ok());
    data_ = data->release();
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }

  static SsbData* data_;
};

SsbData* PlannerGoldenTest::data_ = nullptr;

struct KnobConfig {
  bool fusion;
  int ways;  // 0 = multi
};

const KnobConfig kGrid[] = {{true, 2},  {true, 3},  {true, 4},  {true, 0},
                            {false, 2}, {false, 3}, {false, 4}, {false, 0}};

std::string ConfigLabel(const KnobConfig& c) {
  return std::string(c.fusion ? "fusion" : "nofusion") + "/ways=" +
         (c.ways == 0 ? "multi" : std::to_string(c.ways));
}

// The golden operator-name sequences. Literal data, not derived from the
// planner: Q1.x and Q4.1 are the pre-redesign hand-built sequences for
// every knob setting; Q2/Q3/Q4.2/Q4.3 are the pre-redesign sequences at
// their composed arity plus the uniform chain expansion below the cap.
std::vector<std::string> GoldenSequence(const std::string& id, bool fusion,
                                        int ways) {
  if (id[0] == '1') {
    std::string date_sel =
        id == "1.2" ? "selection(d_yearmonthnum)" : "selection(d_year)";
    if (fusion) {
      return {date_sel, "2-way-select-join(lo_discount x date_sel)"};
    }
    return {date_sel, "selection(lo_discount)",
            "2-way-join(lo_sel x date_sel)"};
  }
  if (id[0] == '2') {
    std::vector<std::string> ops = {
        id == "2.1" ? "selection(p_category)" : "selection(p_brand1)",
        "selection(s_region)"};
    if (ways == 2) {
      ops.push_back("2-way-join(lo_partkey x part_sel)");
      ops.push_back("2-way-join(join1 x supp_sel)");
      ops.push_back("2-way-join(join2 x d_datekey)");
    } else {
      ops.push_back("3-way-join(lo_partkey x part_sel)");
      ops.push_back("2-way-join(join1 x d_datekey)");
    }
    return ops;
  }
  if (id[0] == '3') {
    std::vector<std::string> ops;
    if (id == "3.1") {
      ops = {"selection(c_region)", "selection(s_region)",
             "selection(d_year)"};
    } else if (id == "3.2") {
      ops = {"selection(c_nation)", "selection(s_nation)",
             "selection(d_year)"};
    } else if (id == "3.3") {
      ops = {"selection(c_city)", "selection(s_city)", "selection(d_year)"};
    } else {
      ops = {"selection(c_city)", "selection(s_city)",
             "selection(d_yearmonthnum)"};
    }
    if (ways == 2) {
      ops.push_back("2-way-join(lo_custkey x cust_sel)");
      ops.push_back("2-way-join(join1 x supp_sel)");
      ops.push_back("2-way-join(join2 x date_sel)");
    } else if (ways == 3) {
      ops.push_back("3-way-join(lo_custkey x cust_sel)");
      ops.push_back("2-way-join(join1 x date_sel)");
    } else {
      ops.push_back("4-way-join(lo_custkey x cust_sel)");
    }
    return ops;
  }
  // Q4.x: only Q4.1 probes the date base index directly; 4.2/4.3 filter
  // the date dimension into a selection slot.
  std::vector<std::string> ops;
  std::string date_side = "date_sel";
  if (id == "4.1") {
    ops = {"selection(c_region)", "selection(s_region)", "selection(p_mfgr)"};
    date_side = "d_datekey";
  } else if (id == "4.2") {
    ops = {"selection(c_region)", "selection(s_region)", "selection(p_mfgr)",
           "selection(d_year)"};
  } else {
    ops = {"selection(c_region)", "selection(s_nation)",
           "selection(p_category)", "selection(d_year)"};
  }
  if (ways == 2) {
    ops.push_back("2-way-join(lo_custkey x cust_sel)");
    ops.push_back("2-way-join(join1 x supp_sel)");
    ops.push_back("2-way-join(join2 x part_sel)");
    ops.push_back("2-way-join(join3 x " + date_side + ")");
  } else if (ways == 3) {
    ops.push_back("3-way-join(lo_custkey x cust_sel)");
    ops.push_back("2-way-join(join1 x part_sel)");
    ops.push_back("2-way-join(join2 x " + date_side + ")");
  } else if (ways == 4) {
    ops.push_back("4-way-join(lo_custkey x cust_sel)");
    ops.push_back("2-way-join(join1 x " + date_side + ")");
  } else {
    ops.push_back("5-way-join(lo_custkey x cust_sel)");
  }
  return ops;
}

TEST_F(PlannerGoldenTest, OperatorSequencesMatchGolden) {
  for (const auto& id : AllQueryIds()) {
    for (const KnobConfig& config : kGrid) {
      PlanKnobs knobs;
      knobs.use_select_join = config.fusion;
      knobs.max_join_ways = config.ways;
      auto plan = BuildQpptPlan(*data_, id, knobs);
      ASSERT_TRUE(plan.ok()) << "Q" << id << " " << ConfigLabel(config)
                             << ": " << plan.status();
      EXPECT_EQ(plan->OperatorNames(), GoldenSequence(id, config.fusion,
                                                      config.ways))
          << "Q" << id << " " << ConfigLabel(config);
    }
  }
}

TEST_F(PlannerGoldenTest, ResultsIdenticalAcrossKnobGrid) {
  for (const auto& id : AllQueryIds()) {
    auto reference = RunQppt(*data_, id, PlanKnobs{});
    ASSERT_TRUE(reference.ok()) << "Q" << id << ": " << reference.status();
    for (const KnobConfig& config : kGrid) {
      PlanKnobs knobs;
      knobs.use_select_join = config.fusion;
      knobs.max_join_ways = config.ways;
      auto got = RunQppt(*data_, id, knobs);
      ASSERT_TRUE(got.ok()) << "Q" << id << " " << ConfigLabel(config);
      ASSERT_EQ(got->rows.size(), reference->rows.size())
          << "Q" << id << " " << ConfigLabel(config);
      for (size_t r = 0; r < reference->rows.size(); ++r) {
        ASSERT_EQ(got->rows[r], reference->rows[r])
            << "Q" << id << " " << ConfigLabel(config) << " row " << r;
      }
    }
  }
}

TEST_F(PlannerGoldenTest, ExplainLinesUpWithExecutedStats) {
  PlanKnobs knobs;
  auto spec = BuildQuerySpec(*data_, "2.1");
  ASSERT_TRUE(spec.ok());
  auto explain = query::ExplainPlan(data_->db, *spec, knobs);
  ASSERT_TRUE(explain.ok());
  auto plan = query::PlanQuery(data_->db, *spec, knobs);
  ASSERT_TRUE(plan.ok());

  PlanStats stats;
  {
    ExecContext ctx(&data_->db, knobs);
    auto result = plan->Execute(&ctx);
    ASSERT_TRUE(result.ok());
    stats = *ctx.stats();
  }
  std::vector<std::string> labels = plan->OperatorLabels();
  ASSERT_EQ(stats.operators.size(), labels.size());
  for (size_t i = 0; i < labels.size(); ++i) {
    // Executed stats rows carry exactly the planner's stage names...
    EXPECT_EQ(stats.operators[i].name, labels[i]) << "stage " << i;
    // ...and every stage name appears as an ExplainPlan line.
    EXPECT_NE(explain->find("  " + labels[i]), std::string::npos)
        << *explain << "missing " << labels[i];
  }
  EXPECT_NE(explain->find("order-by: index order (free)"), std::string::npos)
      << *explain;

  // Q3.1's revenue-desc ORDER BY is the one the index cannot provide.
  auto spec3 = BuildQuerySpec(*data_, "3.1");
  ASSERT_TRUE(spec3.ok());
  auto explain3 = query::ExplainPlan(data_->db, *spec3, knobs);
  ASSERT_TRUE(explain3.ok());
  EXPECT_NE(explain3->find("post-sort(d_year asc, revenue desc)"),
            std::string::npos)
      << *explain3;
}

TEST_F(PlannerGoldenTest, PreparedExecutionMatchesAdHoc) {
  engine::EngineConfig cfg;
  cfg.threads = 2;
  engine::EngineRunner runner(cfg);
  for (const auto& id : AllQueryIds()) {
    auto reference = RunQppt(*data_, id, PlanKnobs{});
    ASSERT_TRUE(reference.ok());
    auto spec = BuildQuerySpec(*data_, id);
    ASSERT_TRUE(spec.ok());
    auto prepared = runner.Prepare(data_->db, std::move(*spec));
    ASSERT_TRUE(prepared.ok()) << "Q" << id << ": " << prepared.status();
    for (int round = 0; round < 2; ++round) {
      auto got = runner.Execute(*prepared);
      ASSERT_TRUE(got.ok()) << "Q" << id;
      ASSERT_EQ(got->rows.size(), reference->rows.size()) << "Q" << id;
      for (size_t r = 0; r < reference->rows.size(); ++r) {
        ASSERT_EQ(got->rows[r], reference->rows[r]) << "Q" << id;
      }
    }
    // Prepare warmed the cache; both executions hit it.
    EXPECT_EQ(prepared->plan_cache_hits(), 2u) << "Q" << id;
    EXPECT_EQ(prepared->plan_cache_misses(), 1u) << "Q" << id;
  }
}

}  // namespace
}  // namespace qppt::ssb
