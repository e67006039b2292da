// Engine x SSB differential tests: the 13-query flight must produce
// byte-identical results serially, through a serial EngineRunner, through
// a parallel EngineRunner (morsel-parallel operators with per-worker
// partial merges), when many client threads are admitted at once, and
// over a versioned lineorder under live indexes, also while a writer
// commits. Runs under the TSan CI job together with engine_test/
// parallel_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/operators/select_join.h"
#include "core/operators/star_join.h"
#include "core/parallel.h"
#include "engine/session.h"
#include "engine/write_session.h"
#include "ssb/queries_baseline.h"
#include "ssb/queries_qppt.h"
#include "util/cancel.h"
#include "util/rng.h"

namespace qppt::ssb {
namespace {

class EngineQueryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SsbConfig cfg;
    cfg.scale_factor = 0.02;  // ~120k lineorder rows: above the morsel
    cfg.seed = 11;            // threshold, small enough for CI + TSan
    auto data = Generate(cfg);
    ASSERT_TRUE(data.ok());
    data_ = data->release();
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }

  static void ExpectSameResults(const QueryResult& a, const QueryResult& b,
                                const std::string& label) {
    ASSERT_EQ(a.rows.size(), b.rows.size()) << label;
    for (size_t i = 0; i < a.rows.size(); ++i) {
      ASSERT_EQ(a.rows[i].size(), b.rows[i].size()) << label << " row " << i;
      for (size_t c = 0; c < a.rows[i].size(); ++c) {
        ASSERT_EQ(a.rows[i][c], b.rows[i][c])
            << label << " row " << i << " col " << c;
      }
    }
  }

  static SsbData* data_;
};

SsbData* EngineQueryTest::data_ = nullptr;

class EngineQueryParam : public EngineQueryTest,
                         public ::testing::WithParamInterface<std::string> {};

TEST_P(EngineQueryParam, ParallelEngineAgreesWithSerial) {
  const std::string& id = GetParam();
  PlanKnobs knobs;
  auto serial = RunQppt(*data_, id, knobs);
  ASSERT_TRUE(serial.ok()) << serial.status();

  engine::EngineConfig serial_cfg;
  serial_cfg.threads = 1;
  engine::EngineRunner serial_runner(serial_cfg);
  auto engine_serial = RunQppt(serial_runner, *data_, id, knobs);
  ASSERT_TRUE(engine_serial.ok()) << engine_serial.status();
  ExpectSameResults(*serial, *engine_serial, "engine(t=1), Q" + id);

  engine::EngineConfig par_cfg;
  par_cfg.threads = 4;
  engine::EngineRunner par_runner(par_cfg);
  PlanStats stats;
  auto engine_par = RunQppt(par_runner, *data_, id, knobs, &stats);
  ASSERT_TRUE(engine_par.ok()) << engine_par.status();
  ExpectSameResults(*serial, *engine_par, "engine(t=4), Q" + id);
  EXPECT_EQ(stats.threads, 4u);
  EXPECT_GT(stats.wall_ms, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllQueries, EngineQueryParam,
                         ::testing::ValuesIn(AllQueryIds()),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           std::string name = "Q" + i.param;
                           name[name.find('.')] = '_';
                           return name;
                         });

// The big lineorder-driven queries must actually take the morsel path at
// this scale — otherwise the parallel engine silently degrades to serial
// and the differential above proves nothing.
TEST_F(EngineQueryTest, HotQueriesRunMorselParallel) {
  engine::EngineConfig cfg;
  cfg.threads = 4;
  engine::EngineRunner runner(cfg);
  for (const std::string id : {"1.1", "2.1", "3.1", "4.1"}) {
    PlanStats stats;
    auto result = RunQppt(runner, *data_, id, PlanKnobs{}, &stats);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_GT(stats.TotalMorsels(), 1u) << "Q" << id << " stayed serial";
  }
}

// Multi-query admission: concurrent client threads against one runner,
// every result identical to the serial reference.
TEST_F(EngineQueryTest, ConcurrentClientsAgreeWithSerial) {
  PlanKnobs knobs;
  std::map<std::string, QueryResult> reference;
  for (const auto& id : AllQueryIds()) {
    auto serial = RunQppt(*data_, id, knobs);
    ASSERT_TRUE(serial.ok()) << serial.status();
    reference[id] = std::move(serial).value();
  }

  engine::EngineConfig cfg;
  cfg.threads = 4;
  engine::EngineRunner runner(cfg);
  constexpr size_t kClients = 4;
  std::atomic<int> failures{0};
  ForkJoin fork(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    fork.Spawn([&, c] {
      // Stagger the flight so clients hit different operators at once.
      const auto& ids = AllQueryIds();
      for (size_t i = 0; i < ids.size(); ++i) {
        const std::string& id = ids[(i + c * 3) % ids.size()];
        auto result = RunQppt(runner, *data_, id, knobs);
        if (!result.ok()) {
          failures++;
          continue;
        }
        const QueryResult& want = reference[id];
        if (result->rows.size() != want.rows.size()) {
          failures++;
          continue;
        }
        for (size_t r = 0; r < want.rows.size(); ++r) {
          if (result->rows[r] != want.rows[r]) {
            failures++;
            break;
          }
        }
      }
    });
  }
  fork.Join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(runner.queries_admitted(), kClients * AllQueryIds().size());
}

// The fail-safe acceptance gate: a deadline that expires mid-flight on
// the deepest query (Q4.1) must surface DeadlineExceeded well inside
// 50 ms of wall clock, release every slot and pin, and leave the SAME
// runner able to complete the whole 13-query flight with results
// identical to the serial reference.
TEST_F(EngineQueryTest, ExpiredDeadlineReturnsPromptlyAndRunnerStaysHealthy) {
  engine::EngineConfig cfg;
  cfg.threads = 4;
  engine::EngineRunner runner(cfg);

  PlanKnobs timed;
  timed.deadline_ms = 0.01;  // expires before the first morsel boundary
  auto t0 = std::chrono::steady_clock::now();
  auto result = RunQppt(runner, *data_, "4.1", timed);
  double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded()) << result.status();
  EXPECT_LT(elapsed_ms, 50.0);
  EXPECT_EQ(runner.queries_running(), 0u);
  EXPECT_EQ(runner.pinned_snapshots(), 0u);

  // A generous deadline changes nothing about the results.
  PlanKnobs generous;
  generous.deadline_ms = 60000;
  auto unhurried = RunQppt(runner, *data_, "4.1", generous);
  ASSERT_TRUE(unhurried.ok()) << unhurried.status();

  for (const auto& id : AllQueryIds()) {
    auto serial = RunQppt(*data_, id, PlanKnobs{});
    ASSERT_TRUE(serial.ok()) << serial.status();
    auto engine_result = RunQppt(runner, *data_, id, PlanKnobs{});
    ASSERT_TRUE(engine_result.ok()) << engine_result.status();
    ExpectSameResults(*serial, *engine_result, "post-deadline Q" + id);
  }
}

// A token cancelled before submission: the query never runs, and a
// token cancelled from another thread stops a query mid-flight.
TEST_F(EngineQueryTest, CancelTokenStopsQueries) {
  engine::EngineConfig cfg;
  cfg.threads = 4;
  engine::EngineRunner runner(cfg);

  CancelToken pre_cancelled;
  pre_cancelled.RequestCancel();
  PlanKnobs knobs;
  knobs.cancel = &pre_cancelled;
  auto result = RunQppt(runner, *data_, "4.1", knobs);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status();
  EXPECT_EQ(runner.queries_running(), 0u);
  EXPECT_EQ(runner.pinned_snapshots(), 0u);

  // Mid-flight: fire the token from a second thread while the flight
  // loops; every outcome must be clean (ok before the flip, Cancelled
  // after), and the runner stays healthy.
  CancelToken token;
  PlanKnobs cancellable;
  cancellable.cancel = &token;
  std::atomic<bool> done{false};
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    token.RequestCancel();
    done = true;
  });
  for (int i = 0; i < 1000 && !done.load(); ++i) {
    auto r = RunQppt(runner, *data_, "4.1", cancellable);
    if (!r.ok()) {
      EXPECT_TRUE(r.status().IsCancelled()) << r.status();
    }
  }
  canceller.join();
  // The flip happened mid-loop; the queries after it must have failed.
  auto post = RunQppt(runner, *data_, "4.1", cancellable);
  ASSERT_FALSE(post.ok());
  EXPECT_TRUE(post.status().IsCancelled());
  EXPECT_EQ(runner.queries_running(), 0u);
  EXPECT_EQ(runner.pinned_snapshots(), 0u);
}

// ---- the flight over a versioned lineorder ----------------------------------
//
// The same data (same seed and scale) with lineorder stored as an MVCC
// table under live secondary indexes: every star join and select-join on
// lineorder reads rows and version stamps at random, through the staged
// path (StagingRing, core/operators/common.h). Results must equal the
// plain data set's, serially and on the morsel path, also while a writer
// commits behind the flight's pinned snapshot.
class VersionedFlightTest : public EngineQueryTest {
 protected:
  static void SetUpTestSuite() {
    EngineQueryTest::SetUpTestSuite();
    SsbConfig cfg = data_->config;
    cfg.versioned_lineorder = true;
    auto data = Generate(cfg);
    ASSERT_TRUE(data.ok());
    versioned_ = data->release();
    // The bulk load's snapshot: later writes (the writer test) stay
    // invisible to every versioned query of the suite.
    load_ts_ = versioned_->db.txn_manager().last_commit_ts();
  }
  static void TearDownTestSuite() {
    delete versioned_;
    versioned_ = nullptr;
    EngineQueryTest::TearDownTestSuite();
  }

  static PlanKnobs Pinned(Timestamp read_ts) {
    PlanKnobs knobs;
    knobs.read_ts = read_ts;
    return knobs;
  }

  static engine::EngineConfig Threads(size_t threads) {
    engine::EngineConfig cfg;
    cfg.threads = threads;
    return cfg;
  }

  static SsbData* versioned_;
  static Timestamp load_ts_;
};

SsbData* VersionedFlightTest::versioned_ = nullptr;
Timestamp VersionedFlightTest::load_ts_ = 0;

class VersionedQueryParam : public VersionedFlightTest,
                            public ::testing::WithParamInterface<std::string> {
};

TEST_P(VersionedQueryParam, MatchesPlainSerialResult) {
  const std::string& id = GetParam();
  auto plain = RunQppt(*data_, id, PlanKnobs{});
  ASSERT_TRUE(plain.ok()) << plain.status();
  for (size_t threads : {size_t{1}, size_t{4}}) {
    engine::EngineRunner runner(Threads(threads));
    auto got = RunQppt(runner, *versioned_, id, Pinned(load_ts_));
    ASSERT_TRUE(got.ok()) << got.status();
    ExpectSameResults(*plain, *got,
                      "versioned t=" + std::to_string(threads) + ", Q" + id);
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, VersionedQueryParam,
                         ::testing::ValuesIn(AllQueryIds()),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           std::string name = "Q" + i.param;
                           name[name.find('.')] = '_';
                           return name;
                         });

TEST_F(VersionedFlightTest, HotQueriesRunMorselParallel) {
  engine::EngineRunner runner(Threads(4));
  for (const std::string id : {"1.1", "3.1", "4.1"}) {
    PlanStats stats;
    auto result =
        RunQppt(runner, *versioned_, id, Pinned(load_ts_), &stats);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_GT(stats.TotalMorsels(), 1u) << "Q" << id << " stayed serial";
  }
}

// A writer commits updates, deletes and inserts — each commit feeds the
// live indexes while the flight's staged reads scan them — and every
// query pinned before the first write still returns the plain result.
TEST_F(VersionedFlightTest, PinnedFlightIgnoresConcurrentWrites) {
  MvccTable* lineorder = versioned_->db.versioned_table("lineorder").value();
  const RowTable& storage = lineorder->storage();
  const Schema& schema = storage.schema();
  const size_t revenue = schema.ColumnIndex("lo_revenue").value();
  const size_t discount = schema.ColumnIndex("lo_discount").value();
  const size_t quantity = schema.ColumnIndex("lo_quantity").value();
  const uint64_t initial = lineorder->num_logical_rows();
  const size_t indexed_before =
      versioned_->db.index("lo_custkey").value()->num_rows();
  const Timestamp pinned = versioned_->db.txn_manager().last_commit_ts();

  engine::EngineRunner runner(Threads(4));
  std::atomic<bool> stop{false};
  std::atomic<int> committed{0};
  std::atomic<int> failed{0};
  std::thread writer([&] {
    constexpr int kMaxTxns = 2000;
    Rng rng(5);
    std::set<uint64_t> touched;  // each logical row updated/deleted once
    auto fresh_id = [&] {
      uint64_t id = rng.NextBounded(initial);
      while (!touched.insert(id).second) id = rng.NextBounded(initial);
      return id;
    };
    std::vector<uint64_t> row(schema.num_columns());
    // Initial logical row i is physical row i (one bulk-load transaction).
    auto redraw = [&](uint64_t rid) {
      for (size_t c = 0; c < row.size(); ++c) row[c] = storage.GetSlot(rid, c);
      row[quantity] = SlotFromInt64(1 + rng.NextBounded(50));
      row[discount] = SlotFromInt64(rng.NextBounded(11));
      row[revenue] = SlotFromInt64(rng.NextBounded(1000000));
    };
    for (int t = 0; t < kMaxTxns && !stop.load(); ++t) {
      engine::WriteSession ws = runner.OpenWriteSession(&versioned_->db);
      Status st;
      for (int n = 0; n < 4 && st.ok(); ++n) {
        uint64_t id = fresh_id();
        redraw(id);
        st = ws.Update("lineorder", id, row);
      }
      for (int n = 0; n < 2 && st.ok(); ++n) {
        st = ws.Delete("lineorder", fresh_id());
      }
      for (int n = 0; n < 4 && st.ok(); ++n) {
        redraw(rng.NextBounded(initial));
        st = ws.Insert("lineorder", row).status();
      }
      if (st.ok()) st = ws.Commit().status();
      if (!st.ok()) {
        ADD_FAILURE() << "writer: " << st;
        failed++;
        return;
      }
      committed++;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });
  // The flight starts once a commit has landed behind its snapshot.
  while (committed.load() == 0 && failed.load() == 0) {
    std::this_thread::yield();
  }
  // No ASSERT until the writer is joined: an early return would destroy
  // a joinable thread.
  for (const auto& id : AllQueryIds()) {
    auto plain = RunQppt(*data_, id, PlanKnobs{});
    PlanStats stats;
    auto got = RunQppt(runner, *versioned_, id, Pinned(pinned), &stats);
    EXPECT_TRUE(plain.ok() && got.ok()) << "Q" << id;
    if (plain.ok() && got.ok()) {
      ExpectSameResults(*plain, *got, "pinned under writes, Q" + id);
    }
    // Q1.x select-joins the live lo_discount index, whose eleven keys
    // share one root bucket: its morsels are duplicate-segment runs
    // (RunValueMorsels' run mode), captured while the writer appends.
    // Key-range morsels would be one morsel for the one bucket.
    if (id[0] == '1' && got.ok()) {
      auto sjoin = std::find_if(
          stats.operators.begin(), stats.operators.end(),
          [](const OperatorStats& op) {
            return op.name.starts_with("sjoin:");
          });
      EXPECT_TRUE(sjoin != stats.operators.end() && sjoin->morsels > 1)
          << "Q" << id << " took no run morsels";
    }
  }
  stop = true;
  writer.join();
  EXPECT_EQ(failed.load(), 0);
  EXPECT_GT(committed.load(), 0);
  EXPECT_GT(versioned_->db.index("lo_custkey").value()->num_rows(),
            indexed_before);
}

// The staging ring's edges on the serial path: 0, 1, kStagingDepth - 1,
// kStagingDepth and kStagingDepth + 1 visible qualifying rows. A star
// join and a select-join over a live index (beside superseded, aborted
// and non-qualifying version rows) must equal the same queries over a
// plain partially clustered index holding just the visible rows.
TEST(StagingRingEdgesTest, LiveIndexMatchesClusteredIndex) {
  constexpr int64_t kGroups = 4;
  Schema fact_schema({{"g", ValueType::kInt64, nullptr},
                      {"amount", ValueType::kInt64, nullptr}});
  constexpr auto kDepth = static_cast<int64_t>(kStagingDepth);
  for (int64_t n : {int64_t{0}, int64_t{1}, kDepth - 1, kDepth, kDepth + 1}) {
    Database db;
    Schema dim_schema({{"g", ValueType::kInt64, nullptr},
                       {"label", ValueType::kInt64, nullptr}});
    auto dim = std::make_unique<RowTable>(dim_schema, "dim");
    for (int64_t g = 0; g < kGroups; ++g) {
      uint64_t row[2] = {SlotFromInt64(g), SlotFromInt64(100 + g)};
      dim->AppendRow(row);
    }
    auto plain = std::make_unique<RowTable>(fact_schema, "fact_plain");
    for (int64_t i = 0; i < n; ++i) {
      uint64_t row[2] = {SlotFromInt64(i % kGroups), SlotFromInt64(i)};
      plain->AppendRow(row);
    }
    auto live = std::make_unique<MvccTable>(fact_schema, "fact_live");
    TransactionManager& tm = db.txn_manager();
    auto commit = [&](Transaction& txn) {
      Timestamp ts = tm.BeginCommit();
      live->CommitTransaction(txn, ts);
      tm.FinishCommit(txn, ts);
    };
    // n rows loaded with stale amounts, then all updated: the first n
    // version rows are superseded.
    Transaction load = tm.Begin();
    for (int64_t i = 0; i < n; ++i) {
      uint64_t row[2] = {SlotFromInt64(i % kGroups), SlotFromInt64(-1 - i)};
      live->Insert(load, row);
      // A visible row no dimension key matches.
      uint64_t stray[2] = {SlotFromInt64(kGroups + 7), SlotFromInt64(1000)};
      live->Insert(load, stray);
    }
    commit(load);
    Transaction update = tm.Begin();
    for (int64_t i = 0; i < n; ++i) {
      uint64_t row[2] = {SlotFromInt64(i % kGroups), SlotFromInt64(i)};
      ASSERT_TRUE(live->Update(update, static_cast<uint64_t>(2 * i), row).ok());
    }
    commit(update);
    Transaction aborted = tm.Begin();
    for (int64_t g = 0; g < kGroups; ++g) {
      uint64_t row[2] = {SlotFromInt64(g), SlotFromInt64(2000 + g)};
      live->Insert(aborted, row);
    }
    live->AbortTransaction(aborted);

    ASSERT_TRUE(db.AddTable(std::move(dim)).ok());
    ASSERT_TRUE(db.AddTable(std::move(plain)).ok());
    ASSERT_TRUE(db.AddVersionedTable(std::move(live)).ok());
    ASSERT_TRUE(db.BuildIndex("dim_g", "dim", {"g"}, {"label"}).ok());
    ASSERT_TRUE(db.BuildIndex("plain_g", "fact_plain", {"g"}, {"amount"}).ok());
    ASSERT_TRUE(db.BuildLiveIndex("live_g", "fact_live", {"g"}).ok());

    PlanKnobs knobs;
    {
      // The staged path is chosen at bind, from the side itself.
      ExecContext ctx(&db, knobs);
      auto live_side =
          BoundSide::Bind(ctx, SideRef::Base("live_g"), {"amount"});
      auto plain_side =
          BoundSide::Bind(ctx, SideRef::Base("plain_g"), {"amount"});
      ASSERT_TRUE(live_side.ok() && plain_side.ok());
      EXPECT_TRUE(live_side->staged());
      EXPECT_FALSE(plain_side->staged());
    }
    auto run = [&](std::unique_ptr<Operator> op) {
      ExecContext ctx(&db, knobs);
      Plan plan;
      plan.Add(std::move(op));
      plan.set_result_slot("result");
      auto result = plan.Execute(&ctx);
      EXPECT_TRUE(result.ok()) << result.status();
      std::vector<std::vector<int64_t>> rows;
      if (!result.ok()) return rows;
      for (const auto& row : result->rows) {
        std::vector<int64_t> r;
        for (const auto& v : row) r.push_back(v.AsInt());
        rows.push_back(r);
      }
      return rows;
    };
    auto star = [](const std::string& fact) {
      StarJoinSpec join;
      join.left = SideRef::Base(fact);
      join.left_columns = {"amount"};
      join.right = SideRef::Base("dim_g");
      join.right_columns = {"label"};
      join.output = {"result", {"amount"}, {}};
      return std::make_unique<StarJoinOp>(join);
    };
    auto select_join = [](const std::string& fact) {
      SelectJoinSpec sj;
      sj.input_index = fact;
      sj.predicate = KeyPredicate::All();
      sj.left_columns = {"g", "amount"};
      sj.probe_column = "g";
      sj.right = SideRef::Base("dim_g");
      sj.right_columns = {"label"};
      sj.output = {"result", {"amount"}, {}};
      return std::make_unique<SelectJoinOp>(sj);
    };
    auto want_star = run(star("plain_g"));
    EXPECT_EQ(want_star.size(), static_cast<size_t>(n));
    EXPECT_EQ(run(star("live_g")), want_star) << "star join, n=" << n;
    auto want_sj = run(select_join("plain_g"));
    EXPECT_EQ(want_sj.size(), static_cast<size_t>(n));
    EXPECT_EQ(run(select_join("live_g")), want_sj) << "select-join, n=" << n;
  }
}

}  // namespace
}  // namespace qppt::ssb
