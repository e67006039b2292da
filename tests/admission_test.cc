// Tiered admission under load: more clients than slots, mixed
// priorities, per-query queue timeouts, load shedding, mid-wait
// cancellation — and the slot accounting that must survive all of it.
// Runs under the TSan CI job with QPPT_DBG_INVARIANTS=1 (`ctest -L
// engine`). Also holds the WorkerPool nested-Run death test.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel.h"
#include "core/plan.h"
#include "dbg/invariants.h"
#include "engine/scheduler.h"
#include "engine/session.h"
#include "util/cancel.h"
#include "util/rng.h"

namespace qppt {
namespace {

using engine::EngineConfig;
using engine::EngineRunner;

// Holds its admission slot until `release` flips (or for sleep_ms), so
// tests can control how long a slot stays occupied.
class HoldOp : public Operator {
 public:
  HoldOp(std::atomic<int>* started, std::atomic<bool>* release)
      : started_(started), release_(release) {}
  explicit HoldOp(double sleep_ms) : sleep_ms_(sleep_ms) {}
  std::string name() const override { return "hold"; }
  Status Execute(ExecContext* ctx) override {
    if (started_ != nullptr) started_->fetch_add(1);
    if (release_ != nullptr) {
      while (!release_->load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    } else {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(sleep_ms_));
    }
    Schema schema({{"k", ValueType::kInt64, nullptr}});
    QPPT_ASSIGN_OR_RETURN(auto table, IndexedTable::Create(schema, {"k"}));
    QPPT_RETURN_NOT_OK(ctx->Put("result", std::move(table)));
    return Status::OK();
  }

 private:
  std::atomic<int>* started_ = nullptr;
  std::atomic<bool>* release_ = nullptr;
  double sleep_ms_ = 0;
};

Plan GatePlan(std::atomic<int>* started, std::atomic<bool>* release) {
  Plan plan;
  plan.Emplace<HoldOp>(started, release);
  plan.set_result_slot("result");
  return plan;
}

Plan SleepPlan(double ms) {
  Plan plan;
  plan.Emplace<HoldOp>(ms);
  plan.set_result_slot("result");
  return plan;
}

TEST(TieredAdmissionTest, QueueTimeoutReturnsResourceExhausted) {
  EngineConfig cfg;
  cfg.threads = 1;
  cfg.max_concurrent_queries = 1;
  EngineRunner runner(cfg);
  Database db;
  std::atomic<int> started{0};
  std::atomic<bool> release{false};
  Plan gate = GatePlan(&started, &release);
  std::thread holder([&] {
    EXPECT_TRUE(runner.Execute(db, gate, PlanKnobs{}).ok());
  });
  while (started.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  PlanKnobs timed;
  timed.queue_timeout_ms = 25;
  Plan second = SleepPlan(0);
  auto t0 = std::chrono::steady_clock::now();
  auto result = runner.Execute(db, second, timed);
  double waited_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted())
      << result.status().ToString();
  EXPECT_GE(waited_ms, 25.0);

  release = true;
  holder.join();
  // The timed-out query must not have leaked its (never-held) slot.
  EXPECT_EQ(runner.queries_running(), 0u);
  EXPECT_TRUE(runner.Execute(db, second, PlanKnobs{}).ok());
}

TEST(TieredAdmissionTest, MidWaitCancellationUnblocksTheWaiter) {
  EngineConfig cfg;
  cfg.threads = 1;
  cfg.max_concurrent_queries = 1;
  EngineRunner runner(cfg);
  Database db;
  std::atomic<int> started{0};
  std::atomic<bool> release{false};
  Plan gate = GatePlan(&started, &release);
  std::thread holder([&] {
    EXPECT_TRUE(runner.Execute(db, gate, PlanKnobs{}).ok());
  });
  while (started.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  CancelToken token;
  PlanKnobs knobs;
  knobs.cancel = &token;
  Plan second = SleepPlan(0);
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    token.RequestCancel();
  });
  auto result = runner.Execute(db, second, knobs);
  canceller.join();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();

  release = true;
  holder.join();
  EXPECT_EQ(runner.queries_running(), 0u);
}

TEST(TieredAdmissionTest, BatchShedsWhenQueueIsOverThreshold) {
  EngineConfig cfg;
  cfg.threads = 1;
  cfg.max_concurrent_queries = 1;
  cfg.shed_batch_waiting_threshold = 1;
  EngineRunner runner(cfg);
  Database db;
  std::atomic<int> started{0};
  std::atomic<bool> release{false};
  Plan gate = GatePlan(&started, &release);
  std::thread holder([&] {
    EXPECT_TRUE(runner.Execute(db, gate, PlanKnobs{}).ok());
  });
  while (started.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Park one interactive waiter so the queue is at the threshold.
  Plan waiting = SleepPlan(0);
  std::thread waiter([&] {
    EXPECT_TRUE(runner.Execute(db, waiting, PlanKnobs{}).ok());
  });
  while (runner.queries_waiting() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // A batch arrival must now be shed immediately, not queued.
  PlanKnobs batch;
  batch.priority = QueryPriority::kBatch;
  Plan shed_me = SleepPlan(0);
  auto t0 = std::chrono::steady_clock::now();
  auto result = runner.Execute(db, shed_me, batch);
  double waited_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted())
      << result.status().ToString();
  EXPECT_LT(waited_ms, 1000.0);  // immediate, not a queue timeout

  // Interactive arrivals are NOT shed by the batch threshold: with an
  // explicit queue limit unset they queue normally.
  release = true;
  holder.join();
  waiter.join();
  EXPECT_EQ(runner.queries_running(), 0u);
}

TEST(TieredAdmissionTest, BatchCapLeavesInteractiveHeadroom) {
  EngineConfig cfg;
  cfg.threads = 1;
  cfg.max_concurrent_queries = 4;
  cfg.max_concurrent_batch = 1;
  EngineRunner runner(cfg);
  Database db;
  std::atomic<int> started{0};
  std::atomic<bool> release{false};
  Plan gate = GatePlan(&started, &release);
  PlanKnobs batch;
  batch.priority = QueryPriority::kBatch;
  std::thread batch_holder([&] {
    EXPECT_TRUE(runner.Execute(db, gate, batch).ok());
  });
  while (started.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Second batch query: blocked by the batch cap, times out.
  PlanKnobs batch_timed = batch;
  batch_timed.queue_timeout_ms = 20;
  Plan second_batch = SleepPlan(0);
  auto rejected = runner.Execute(db, second_batch, batch_timed);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsResourceExhausted());

  // Interactive queries still run: the total cap has headroom.
  Plan interactive = SleepPlan(0);
  EXPECT_TRUE(runner.Execute(db, interactive, PlanKnobs{}).ok());

  release = true;
  batch_holder.join();
  EXPECT_EQ(runner.queries_running(), 0u);
}

// The stress gate: many more clients than slots, mixed priorities, tight
// queue timeouts, and random mid-wait cancellations. Every outcome must
// be one of {ok, ResourceExhausted, Cancelled}, and when the dust
// settles no slot may be lost or double-released.
TEST(TieredAdmissionTest, StressNeverLosesOrDoubleReleasesSlots) {
  EngineConfig cfg;
  cfg.threads = 1;
  cfg.max_concurrent_queries = 2;
  cfg.max_concurrent_batch = 1;
  cfg.admission_timeout_ms = 15;
  cfg.shed_batch_waiting_threshold = 6;
  EngineRunner runner(cfg);
  Database db;

  constexpr size_t kClients = 12;
  constexpr size_t kQueriesPerClient = 20;
  std::atomic<uint64_t> ok_count{0};
  std::atomic<uint64_t> exhausted_count{0};
  std::atomic<uint64_t> cancelled_count{0};
  std::atomic<uint64_t> other_count{0};

  ForkJoin fork(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    fork.Spawn([&, c] {
      Rng rng(7700 + c);
      for (size_t q = 0; q < kQueriesPerClient; ++q) {
        PlanKnobs knobs;
        if (rng.NextBounded(2) == 0) {
          knobs.priority = QueryPriority::kBatch;
        }
        CancelToken token;
        std::thread canceller;
        if (rng.NextBounded(4) == 0) {
          knobs.cancel = &token;
          canceller = std::thread([&token] {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            token.RequestCancel();
          });
        }
        Plan plan = SleepPlan(static_cast<double>(rng.NextBounded(3)));
        auto result = runner.Execute(db, plan, knobs);
        if (result.ok()) {
          ok_count++;
        } else if (result.status().IsResourceExhausted()) {
          exhausted_count++;
        } else if (result.status().IsCancelled()) {
          cancelled_count++;
        } else {
          other_count++;
        }
        if (canceller.joinable()) canceller.join();
      }
    });
  }
  fork.Join();

  EXPECT_EQ(ok_count + exhausted_count + cancelled_count + other_count,
            kClients * kQueriesPerClient);
  EXPECT_EQ(other_count.load(), 0u);
  EXPECT_GT(ok_count.load(), 0u);
  // Clients outnumber slots 6:1 with 15 ms timeouts: some queries must
  // have been turned away, or the test isn't stressing admission.
  EXPECT_GT(exhausted_count.load(), 0u);

  // Slot accounting intact: nothing running, nothing waiting, and the
  // engine still admits fresh work at full capacity.
  EXPECT_EQ(runner.queries_running(), 0u);
  EXPECT_EQ(runner.queries_waiting(), 0u);
  Plan final_check = SleepPlan(0);
  EXPECT_TRUE(runner.Execute(db, final_check, PlanKnobs{}).ok());
}

// ---- WorkerPool nested-Run rule ---------------------------------------------

// Run() from inside a morsel would block the worker on its own batch —
// a silent deadlock. The dbg invariant turns it into a deterministic
// abort on the worker. Two workers, so that without the invariant the
// nested batch runs on the other one and the test fails instead of
// hanging.
void NestedRunFromMorsel() {
  dbg::SetInvariantsEnabled(true);
  engine::WorkerPool pool(2);
  pool.Run(1, [&](size_t, size_t) {
    pool.Run(1, [](size_t, size_t) {});
  });
}

TEST(WorkerPoolDeathTest, NestedRunFromMorselAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(NestedRunFromMorsel(), "inside a morsel");
}

}  // namespace
}  // namespace qppt
