// Chaos suite for the deterministic fault-injection layer
// (util/failpoint.h): every catalogued failpoint is armed in turn and
// the engine must degrade cleanly — a proper error Status out of the
// front door, no crash, no stuck admission slot, no leaked snapshot pin
// — then answer the same query correctly once disarmed. A final chaos
// run fires probabilistic faults under concurrent writers and pinned
// readers. Built only when QPPT_FAILPOINTS is compiled in (Debug /
// sanitizer builds); the TSan and ASan CI jobs run it with
// QPPT_DBG_INVARIANTS=1.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/agg.h"
#include "core/operators/selection.h"
#include "core/parallel.h"
#include "core/plan.h"
#include "engine/session.h"
#include "engine/write_session.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace qppt {
namespace {

using engine::EngineConfig;
using engine::EngineRunner;
using engine::WriteSession;

// Enough committed rows that the engine takes the parallel path
// (>= engine::kMinParallelInputTuples) and the partitioned merge runs.
constexpr int64_t kInitialRows = 8192;
// Keys repeat so the output indexes build duplicate chains — the
// allocation failpoints (arena_grow / page_arena_grow) live on the
// value-list and duplicate-chain growth paths that unique keys never
// touch.
constexpr int64_t kDistinctKeys = 1024;

Schema ItemsSchema() {
  return Schema({{"k", ValueType::kInt64, nullptr},
                 {"v", ValueType::kInt64, nullptr}});
}

std::unique_ptr<Database> MakeDb() {
  auto db = std::make_unique<Database>();
  auto table = std::make_unique<MvccTable>(ItemsSchema(), "items");
  TransactionManager& tm = db->txn_manager();
  Transaction txn = tm.Begin();
  for (int64_t i = 0; i < kInitialRows; ++i) {
    uint64_t row[2] = {SlotFromInt64(i % kDistinctKeys), SlotFromInt64(i)};
    table->Insert(txn, row);
  }
  Timestamp ts = tm.BeginCommit();
  table->CommitTransaction(txn, ts);
  tm.FinishCommit(txn, ts);
  EXPECT_TRUE(db->AddVersionedTable(std::move(table)).ok());
  BaseIndex::Options opt;
  opt.kiss_root_bits = 16;
  EXPECT_TRUE(db->BuildLiveIndex("items_by_k", "items", {"k"}, opt).ok());
  return db;
}

// Grouped full scan: touches selection, output-table allocation, and —
// parallel — the morsel driver plus the fold of the partial outputs.
Plan ScanPlan() {
  SelectionSpec sel;
  sel.input_index = "items_by_k";
  sel.predicate = KeyPredicate::All();
  sel.carry_columns = {"k", "v"};
  sel.output = {"out", {"k"}, {}};
  Plan plan;
  plan.Emplace<SelectionOp>(sel);
  plan.set_result_slot("out");
  return plan;
}

// Aggregating variant: group-by-key accumulators live in content nodes
// of the output prefix tree, allocated from its node arena — reaching
// the allocation failpoints the plain scan misses.
Plan AggPlan() {
  SelectionSpec sel;
  sel.input_index = "items_by_k";
  sel.predicate = KeyPredicate::All();
  sel.carry_columns = {"k", "v"};
  sel.output = {"out",
                {"k"},
                AggSpec({{AggFn::kSum, ScalarExpr::Column("v"), "sum_v"}})};
  Plan plan;
  plan.Emplace<SelectionOp>(sel);
  plan.set_result_slot("out");
  return plan;
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fail::Enabled()) {
      GTEST_SKIP() << "failpoints compiled out (QPPT_FAILPOINTS off)";
    }
    fail::DisarmAll();
  }
  void TearDown() override { fail::DisarmAll(); }

  // The engine must be fully sane: nothing running, nothing pinned, and
  // the reference query answers correctly.
  void ExpectEngineClean(EngineRunner& runner, const Database& db) {
    EXPECT_EQ(runner.queries_running(), 0u);
    EXPECT_EQ(runner.pinned_snapshots(), 0u);
    Plan plan = ScanPlan();
    auto result = runner.Execute(db, plan, ParallelKnobs());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->rows.size(), static_cast<size_t>(kInitialRows));
  }

  static PlanKnobs ParallelKnobs() {
    PlanKnobs knobs;
    knobs.threads = 2;
    return knobs;
  }

  static engine::EngineConfig ParallelConfig() {
    EngineConfig cfg;
    cfg.threads = 2;
    cfg.clamp_threads_to_hardware = false;  // tiny CI boxes
    return cfg;
  }

  // Runs plans until `tag` fires: the plain scan first, then the
  // aggregation — different tags live on different paths (the KISS slab
  // and duplicate-chain arenas grow under the plain scan, the output
  // prefix tree's node arena under the aggregation).
  Result<QueryResult> RunUntilHit(EngineRunner& runner, const Database& db,
                                  const char* tag) {
    Plan scan = ScanPlan();
    auto result = runner.Execute(db, scan, ParallelKnobs());
    if (fail::HitCount(tag) > 0) return result;
    Plan agg = AggPlan();
    return runner.Execute(db, agg, ParallelKnobs());
  }
};

// Every query-path failpoint: armed one at a time, the query must come
// back with the injected error (never crash, never hang), and the very
// next run — disarmed — must succeed with full results.
TEST_F(FaultInjectionTest, QueryPathFaultsSurfaceAsStatusAndRecover) {
  auto db = MakeDb();
  EngineRunner runner(ParallelConfig());
  const char* tags[] = {
      "arena_grow",    "page_arena_grow", "slab_grow",
      "merge_partial", "morsel_exec",     "sched_submit",
  };
  for (const char* tag : tags) {
    SCOPED_TRACE(tag);
    fail::Arm(tag, {fail::Action::kStatus, StatusCode::kIOError,
                    "injected", /*count=*/1});
    auto result = RunUntilHit(runner, *db, tag);
    if (fail::HitCount(tag) > 0) {
      EXPECT_FALSE(result.ok()) << "hit " << tag << " but query succeeded";
      EXPECT_EQ(result.status().code(), StatusCode::kIOError)
          << result.status().ToString();
    }
    EXPECT_GT(fail::HitCount(tag), 0u)
        << tag << " never fired: the choke point is no longer exercised "
        << "by this plan shape — fix the test or the failpoint placement";
    fail::DisarmAll();
    ExpectEngineClean(runner, *db);
  }
}

// Simulated allocation failure (std::bad_alloc at arena growth) must
// unwind to ResourceExhausted, not terminate.
TEST_F(FaultInjectionTest, InjectedBadAllocBecomesResourceExhausted) {
  auto db = MakeDb();
  EngineRunner runner(ParallelConfig());
  fail::FailConfig config;
  config.action = fail::Action::kBadAlloc;
  config.count = 1;
  fail::Arm("arena_grow", config);
  auto result = RunUntilHit(runner, *db, "arena_grow");
  ASSERT_GT(fail::HitCount("arena_grow"), 0u);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted())
      << result.status().ToString();
  fail::DisarmAll();
  ExpectEngineClean(runner, *db);
}

// A failed commit publish must roll back like an Abort: no rows visible,
// chains clean, and the session finished.
TEST_F(FaultInjectionTest, FailedCommitRollsBackCleanly) {
  auto db = MakeDb();
  EngineRunner runner(EngineConfig{.threads = 1});
  fail::Arm("commit_publish", {fail::Action::kStatus, StatusCode::kIOError,
                               "injected publish failure", /*count=*/1});
  WriteSession ws = runner.OpenWriteSession(db.get());
  uint64_t row[2] = {SlotFromInt64(kInitialRows + 1), SlotFromInt64(7)};
  ASSERT_TRUE(ws.Insert("items", row).ok());
  auto ts = ws.Commit();
  ASSERT_FALSE(ts.ok());
  EXPECT_EQ(ts.status().code(), StatusCode::kIOError);
  EXPECT_FALSE(ws.active());
  EXPECT_EQ(fail::HitCount("commit_publish"), 1u);
  EXPECT_EQ(runner.write_stats().aborted, 1u);
  fail::DisarmAll();

  // The injected failure left nothing behind; a clean commit works.
  {
    WriteSession retry = runner.OpenWriteSession(db.get());
    ASSERT_TRUE(retry.Insert("items", row).ok());
    ASSERT_TRUE(retry.Commit().ok());
  }
  SelectionSpec sel;
  sel.input_index = "items_by_k";
  sel.predicate = KeyPredicate::Range(kInitialRows + 1, kInitialRows + 1);
  sel.carry_columns = {"k", "v"};
  sel.output = {"out", {"k"}, {}};
  Plan probe;
  probe.Emplace<SelectionOp>(sel);
  probe.set_result_slot("out");
  auto result = runner.Execute(*db, probe, PlanKnobs{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 1u);  // the retry's row, not the failed one
}

// The shared-read batcher: a leader whose scan faults must hand the
// error to every follower — silently-empty results are the bug this
// path exists to prevent.
TEST_F(FaultInjectionTest, ReadBatchLeaderErrorReachesEveryFollower) {
  Schema schema({{"k", ValueType::kInt64, nullptr},
                 {"v", ValueType::kInt64, nullptr}});
  auto table_or = IndexedTable::Create(schema, {"k"});
  ASSERT_TRUE(table_or.ok());
  std::unique_ptr<IndexedTable> table = std::move(table_or).value();
  for (int i = 0; i < 1000; ++i) {
    uint64_t row[2] = {SlotFromInt64(i % 50), SlotFromInt64(i)};
    table->Insert(row);
  }
  EngineConfig cfg;
  cfg.threads = 2;
  cfg.read_batch_window_us = 500;  // wide window: force shared batches
  EngineRunner runner(cfg);
  fail::FailConfig config;
  config.action = fail::Action::kThrow;
  config.code = StatusCode::kIOError;
  config.message = "injected scan failure";
  fail::Arm("read_batch_scan", config);

  constexpr size_t kClients = 8;
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> empties{0};
  ForkJoin fork(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    fork.Spawn([&, c] {
      auto ids = runner.PointRead(*table, static_cast<int64_t>(c % 50));
      if (!ids.ok()) {
        errors++;
      } else if (ids->empty()) {
        empties++;  // silent data loss: key c%50 has 20 rows
      }
    });
  }
  fork.Join();
  EXPECT_EQ(errors.load(), kClients);
  EXPECT_EQ(empties.load(), 0u);

  fail::DisarmAll();
  auto clean = runner.PointRead(*table, 0);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->size(), 20u);
}

// Version reclamation faulting mid-sweep (writer lock held) must unwind
// without wedging later writers or sweeps.
TEST_F(FaultInjectionTest, ReclaimFaultDoesNotWedgeWriters) {
  auto db = MakeDb();
  EngineRunner runner(EngineConfig{.threads = 1});
  fail::Arm("reclaim_sweep", {fail::Action::kThrow, StatusCode::kInternal,
                              "injected sweep failure", /*count=*/1});
  EXPECT_THROW(runner.ReclaimVersions(db.get()), fail::InjectedFault);
  fail::DisarmAll();

  WriteSession ws = runner.OpenWriteSession(db.get());
  uint64_t row[2] = {SlotFromInt64(0), SlotFromInt64(999)};
  ASSERT_TRUE(ws.Update("items", 0, row).ok());
  ASSERT_TRUE(ws.Commit().ok());
  // The superseded version reclaims on the next (clean) sweep.
  EXPECT_GE(runner.ReclaimVersions(db.get()), 1u);
}

// The chaos run: probabilistic faults across every choke point while
// writers commit and readers query pinned snapshots. Nothing may crash;
// every query either succeeds with a consistent snapshot or fails with
// a Status; afterwards the engine is fully clean. ASan/TSan (the CI
// chaos jobs) turn leaked state or racy unwinding into hard failures.
TEST_F(FaultInjectionTest, ChaosRunDegradesCleanlyUnderConcurrency) {
  auto db = MakeDb();
  EngineConfig cfg = ParallelConfig();
  cfg.max_concurrent_queries = 3;
  cfg.admission_timeout_ms = 200;
  EngineRunner runner(cfg);

  for (const char* tag : {"arena_grow", "merge_partial", "morsel_exec",
                          "commit_publish", "sched_submit"}) {
    fail::FailConfig config;
    config.action = tag == std::string("commit_publish")
                        ? fail::Action::kStatus
                        : fail::Action::kThrow;
    config.code = StatusCode::kIOError;
    config.message = "chaos";
    config.probability = 0.05;
    fail::Arm(tag, config);
  }

  constexpr size_t kWriters = 2;
  constexpr size_t kReaders = 4;
  constexpr size_t kOpsPerThread = 30;
  std::atomic<uint64_t> commits{0};
  std::atomic<uint64_t> crashes{0};  // non-Status outcomes: must stay 0

  ForkJoin fork(kWriters + kReaders);
  for (size_t w = 0; w < kWriters; ++w) {
    fork.Spawn([&, w] {
      Rng rng(40 + w);
      for (size_t i = 0; i < kOpsPerThread; ++i) {
        try {
          WriteSession ws = runner.OpenWriteSession(db.get());
          uint64_t row[2] = {
              SlotFromInt64(static_cast<int64_t>(rng.NextBounded(
                  static_cast<uint64_t>(kInitialRows)))),
              SlotFromInt64(static_cast<int64_t>(i))};
          if (ws.Insert("items", row).ok() && ws.Commit().ok()) {
            commits.fetch_add(1, std::memory_order_relaxed);
          }
        } catch (...) {
          crashes.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (size_t r = 0; r < kReaders; ++r) {
    fork.Spawn([&, r] {
      Rng rng(80 + r);
      for (size_t i = 0; i < kOpsPerThread; ++i) {
        try {
          PlanKnobs knobs;
          knobs.threads = 2;
          Plan plan = ScanPlan();
          auto result = runner.Execute(*db, plan, knobs);
          if (result.ok()) {
            // A consistent snapshot always yields every initial key.
            if (result->rows.size() < static_cast<size_t>(kInitialRows)) {
              crashes.fetch_add(1, std::memory_order_relaxed);
            }
          }
        } catch (...) {
          crashes.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  fork.Join();

  EXPECT_EQ(crashes.load(), 0u);
  fail::DisarmAll();
  EXPECT_EQ(runner.queries_running(), 0u);
  EXPECT_EQ(runner.pinned_snapshots(), 0u);
  // Clean engine after the storm: full scan matches initial rows plus
  // every row the writers managed to commit.
  Plan plan = ScanPlan();
  auto result = runner.Execute(*db, plan, ParallelKnobs());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(),
            static_cast<size_t>(kInitialRows) + commits.load());
}

// Env-var arming: the syntax documented in util/failpoint.h parses into
// working configs, and malformed input is rejected.
TEST_F(FaultInjectionTest, ArmFromEnvParsesTheDocumentedSyntax) {
  setenv("QPPT_FAILPOINTS",
         "arena_grow=badalloc:1,merge_partial=status(io)@0.5,"
         "sched_submit=sleep(2):3,commit_publish=throw(resource_exhausted)",
         1);
  ASSERT_TRUE(fail::ArmFromEnv().ok());
  unsetenv("QPPT_FAILPOINTS");
  fail::DisarmAll();

  setenv("QPPT_FAILPOINTS", "no_equals_sign", 1);
  EXPECT_FALSE(fail::ArmFromEnv().ok());
  unsetenv("QPPT_FAILPOINTS");
  fail::DisarmAll();
}

}  // namespace
}  // namespace qppt
