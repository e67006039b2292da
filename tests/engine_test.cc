// Engine-layer unit tests: work-stealing scheduler, per-worker partial
// output merge, and the shared-scan read batching of the session front
// door. These (plus parallel_test) are the suite the TSan CI job runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/agg.h"
#include "core/indexed_table.h"
#include "core/parallel.h"
#include "engine/parallel_ops.h"
#include "engine/scheduler.h"
#include "engine/session.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace qppt {
namespace {

// ---- WorkerPool ------------------------------------------------------------

TEST(WorkerPoolTest, RunsEveryMorselExactlyOnce) {
  engine::WorkerPool pool(4);
  EXPECT_EQ(pool.num_workers(), 4u);
  for (size_t morsels : {1, 3, 4, 17, 100}) {
    std::vector<std::atomic<int>> hits(morsels);
    for (auto& h : hits) h = 0;
    pool.Run(morsels, [&](size_t worker, size_t m) {
      ASSERT_LT(worker, 4u);
      ASSERT_LT(m, morsels);
      hits[m]++;
    });
    for (size_t m = 0; m < morsels; ++m) {
      EXPECT_EQ(hits[m].load(), 1) << "morsel " << m << " of " << morsels;
    }
  }
}

TEST(WorkerPoolTest, ZeroWorkersRunsInline) {
  engine::WorkerPool pool(0);
  EXPECT_EQ(pool.num_workers(), 1u);
  std::vector<int> hits(5, 0);
  pool.Run(5, [&](size_t worker, size_t m) {
    EXPECT_EQ(worker, 0u);
    hits[m]++;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(WorkerPoolTest, ZeroMorselsIsANoop) {
  engine::WorkerPool pool(2);
  pool.Run(0, [&](size_t, size_t) { FAIL() << "no morsels to run"; });
}

TEST(WorkerPoolTest, ConcurrentBatchesInterleave) {
  engine::WorkerPool pool(4);
  constexpr size_t kClients = 6;
  constexpr size_t kMorsels = 64;
  std::atomic<uint64_t> total{0};
  ForkJoin fork(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    fork.Spawn([&pool, &total, c] {
      pool.Run(kMorsels, [&](size_t, size_t m) {
        total += c * 1000 + m;
      });
    });
  }
  fork.Join();
  uint64_t expected = 0;
  for (size_t c = 0; c < kClients; ++c) {
    for (size_t m = 0; m < kMorsels; ++m) expected += c * 1000 + m;
  }
  EXPECT_EQ(total.load(), expected);
}

TEST(WorkerPoolTest, MorselExceptionPropagatesToSubmitter) {
  engine::WorkerPool pool(3);
  EXPECT_THROW(
      pool.Run(32,
               [&](size_t, size_t m) {
                 if (m == 7) throw std::runtime_error("morsel 7 boom");
               }),
      std::runtime_error);
  // The pool survives a failed batch and keeps scheduling.
  std::atomic<int> ran{0};
  pool.Run(8, [&](size_t, size_t) { ran++; });
  EXPECT_EQ(ran.load(), 8);
}

// Worker 0 holds its first morsel until every other morsel has finished,
// so the rest of its deque (the batch is dealt round-robin) can only run
// on worker 1, taken from worker 0's deque: the steal counter must move.
// The hold gives up after 10 s, so a pool that cannot steal fails the
// test instead of hanging it.
TEST(WorkerPoolTest, IdleWorkerStealsFromABlockedOne) {
  auto& reg = obs::MetricsRegistry::Global();
  const uint64_t before =
      reg.Snapshot().CounterValue("engine_tasks_stolen_total");
  engine::WorkerPool pool(2);
  constexpr size_t kMorsels = 8;
  std::atomic<size_t> finished{0};
  std::atomic<bool> held{false};
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  pool.Run(kMorsels, [&](size_t worker, size_t) {
    if (worker == 0 && !held.exchange(true)) {
      while (finished.load() < kMorsels - 1 &&
             std::chrono::steady_clock::now() < give_up) {
        std::this_thread::yield();
      }
    }
    finished.fetch_add(1);
  });
  EXPECT_EQ(finished.load(), kMorsels);
  const uint64_t after =
      reg.Snapshot().CounterValue("engine_tasks_stolen_total");
  EXPECT_GE(after - before, 1u);
}

// ---- partial outputs & merge -----------------------------------------------

Schema AggInputSchema() {
  return Schema({{"g", ValueType::kInt64, nullptr},
                 {"x", ValueType::kInt64, nullptr}});
}

AggSpec FullAggSpec() {
  return AggSpec({{AggFn::kSum, ScalarExpr::Column("x"), "sum_x"},
                  {AggFn::kCount, ScalarExpr::Column("x"), "cnt"},
                  {AggFn::kMin, ScalarExpr::Column("x"), "min_x"},
                  {AggFn::kMax, ScalarExpr::Column("x"), "max_x"},
                  {AggFn::kAvg, ScalarExpr::Column("x"), "avg_x"}});
}

// Splitting inserts across CloneEmpty partials and merging must equal
// inserting everything into one table — for every aggregate function.
TEST(PartialOutputsTest, AggregateMergeMatchesSerialKiss) {
  Schema input = AggInputSchema();
  auto serial_or = IndexedTable::CreateAggregated(
      {{"g", ValueType::kInt64, nullptr}}, FullAggSpec(), input);
  ASSERT_TRUE(serial_or.ok());
  auto serial = std::move(serial_or).value();
  ASSERT_EQ(serial->kind(), IndexedTable::Kind::kKiss);

  auto merged = serial->CloneEmpty();
  engine::PartialOutputs partials(*merged, 3);

  Rng rng(99);
  for (int i = 0; i < 5000; ++i) {
    uint64_t g = SlotFromInt64(static_cast<int64_t>(rng.NextBounded(40)));
    uint64_t x = SlotFromInt64(static_cast<int64_t>(rng.NextBounded(1000)) -
                               500);
    uint64_t row[2] = {g, x};
    serial->InsertAggregated(&g, row);
    partials.worker(i % 3)->InsertAggregated(&g, row);
  }
  partials.MergeInto(merged.get());

  EXPECT_EQ(merged->num_tuples(), serial->num_tuples());
  EXPECT_EQ(merged->num_keys(), serial->num_keys());
  std::vector<std::vector<uint64_t>> expected;
  serial->ScanGroups([&](const uint64_t* row) {
    expected.emplace_back(row, row + serial->schema().num_columns());
  });
  size_t at = 0;
  merged->ScanGroups([&](const uint64_t* row) {
    ASSERT_LT(at, expected.size());
    for (size_t c = 0; c < expected[at].size(); ++c) {
      EXPECT_EQ(row[c], expected[at][c]) << "group " << at << " col " << c;
    }
    ++at;
  });
  EXPECT_EQ(at, expected.size());
}

TEST(PartialOutputsTest, AggregateMergeMatchesSerialPrefix) {
  // Two key columns force the prefix-tree path.
  Schema input = Schema({{"g1", ValueType::kInt64, nullptr},
                         {"g2", ValueType::kInt64, nullptr},
                         {"x", ValueType::kInt64, nullptr}});
  AggSpec agg({{AggFn::kSum, ScalarExpr::Column("x"), "sum_x"},
               {AggFn::kMin, ScalarExpr::Column("x"), "min_x"}});
  auto serial_or = IndexedTable::CreateAggregated(
      {{"g1", ValueType::kInt64, nullptr}, {"g2", ValueType::kInt64, nullptr}},
      agg, input);
  ASSERT_TRUE(serial_or.ok());
  auto serial = std::move(serial_or).value();
  ASSERT_EQ(serial->kind(), IndexedTable::Kind::kPrefix);

  auto merged = serial->CloneEmpty();
  engine::PartialOutputs partials(*merged, 4);

  Rng rng(5);
  for (int i = 0; i < 3000; ++i) {
    uint64_t keys[2] = {
        SlotFromInt64(static_cast<int64_t>(rng.NextBounded(12))),
        SlotFromInt64(static_cast<int64_t>(rng.NextBounded(9)))};
    uint64_t row[3] = {keys[0], keys[1],
                       SlotFromInt64(static_cast<int64_t>(rng.NextBounded(77)))};
    serial->InsertAggregated(keys, row);
    partials.worker(i % 4)->InsertAggregated(keys, row);
  }
  partials.MergeInto(merged.get());

  EXPECT_EQ(merged->num_keys(), serial->num_keys());
  std::vector<std::vector<uint64_t>> expected;
  serial->ScanGroups([&](const uint64_t* row) {
    expected.emplace_back(row, row + serial->schema().num_columns());
  });
  size_t at = 0;
  merged->ScanGroups([&](const uint64_t* row) {
    ASSERT_LT(at, expected.size());
    for (size_t c = 0; c < expected[at].size(); ++c) {
      EXPECT_EQ(row[c], expected[at][c]) << "group " << at << " col " << c;
    }
    ++at;
  });
  EXPECT_EQ(at, expected.size());
}

TEST(PartialOutputsTest, PlainMergeKeepsAllTuples) {
  Schema schema({{"k", ValueType::kInt64, nullptr},
                 {"v", ValueType::kInt64, nullptr}});
  auto final_or = IndexedTable::Create(schema, {"k"});
  ASSERT_TRUE(final_or.ok());
  auto final_table = std::move(final_or).value();
  engine::PartialOutputs partials(*final_table, 2);
  std::multiset<std::pair<int64_t, int64_t>> reference;
  for (int i = 0; i < 1000; ++i) {
    uint64_t row[2] = {SlotFromInt64(i % 50), SlotFromInt64(i)};
    partials.worker(i % 2)->Insert(row);
    reference.emplace(i % 50, i);
  }
  partials.MergeInto(final_table.get());
  EXPECT_EQ(final_table->num_tuples(), 1000u);
  std::multiset<std::pair<int64_t, int64_t>> got;
  int64_t last_key = -1;
  final_table->ScanInOrder([&](const uint64_t* row) {
    int64_t k = Int64FromSlot(row[0]);
    EXPECT_GE(k, last_key);  // still in index order
    last_key = k;
    got.emplace(k, Int64FromSlot(row[1]));
  });
  EXPECT_EQ(got, reference);
}

// ---- key-range-partitioned parallel merge ----------------------------------

// Inserting tuples round-robin into N partials, then merging with the
// partitioned parallel merge, must equal serial insertion — tuples,
// keys, and index order.
TEST(PartialOutputsTest, ParallelMergeMatchesSerialKissPlain) {
  Schema schema({{"k", ValueType::kInt64, nullptr},
                 {"v", ValueType::kInt64, nullptr}});
  auto serial_or = IndexedTable::Create(schema, {"k"});
  ASSERT_TRUE(serial_or.ok());
  auto serial = std::move(serial_or).value();
  ASSERT_EQ(serial->kind(), IndexedTable::Kind::kKiss);
  auto merged = serial->CloneEmpty();

  engine::WorkerPool pool(4);
  engine::PartialOutputs partials(*merged, 3);
  Rng rng(31);
  constexpr int kTuples = 20000;  // above the parallel-merge threshold
  for (int i = 0; i < kTuples; ++i) {
    int64_t k = static_cast<int64_t>(rng.NextBounded(5000));
    uint64_t row[2] = {SlotFromInt64(k), SlotFromInt64(i)};
    serial->Insert(row);
    partials.worker(static_cast<size_t>(i) % 3)->Insert(row);
  }
  size_t merge_morsels = partials.MergeInto(&pool, merged.get());
  EXPECT_GT(merge_morsels, 1u) << "parallel merge did not partition";

  EXPECT_EQ(merged->num_tuples(), serial->num_tuples());
  EXPECT_EQ(merged->num_keys(), serial->num_keys());
  std::multiset<std::pair<int64_t, int64_t>> want, got;
  serial->ScanInOrder([&](const uint64_t* row) {
    want.emplace(Int64FromSlot(row[0]), Int64FromSlot(row[1]));
  });
  int64_t last = -1;
  merged->ScanInOrder([&](const uint64_t* row) {
    int64_t k = Int64FromSlot(row[0]);
    EXPECT_GE(k, last);  // still in ascending index order
    last = k;
    got.emplace(k, Int64FromSlot(row[1]));
  });
  EXPECT_EQ(got, want);
}

TEST(PartialOutputsTest, ParallelMergeMatchesSerialPrefixPlain) {
  // Composite (two-column) key forces the prefix tree; int64 encoding
  // makes every key share a long prefix, so this also exercises the
  // branching-level range planning and the chain pre-build.
  Schema schema({{"k1", ValueType::kInt64, nullptr},
                 {"k2", ValueType::kInt64, nullptr},
                 {"v", ValueType::kInt64, nullptr}});
  auto serial_or = IndexedTable::Create(schema, {"k1", "k2"});
  ASSERT_TRUE(serial_or.ok());
  auto serial = std::move(serial_or).value();
  ASSERT_EQ(serial->kind(), IndexedTable::Kind::kPrefix);
  auto merged = serial->CloneEmpty();

  engine::WorkerPool pool(4);
  engine::PartialOutputs partials(*merged, 4);
  Rng rng(37);
  constexpr int kTuples = 20000;
  for (int i = 0; i < kTuples; ++i) {
    uint64_t row[3] = {
        SlotFromInt64(static_cast<int64_t>(rng.NextBounded(12))),
        SlotFromInt64(static_cast<int64_t>(rng.NextBounded(9))),
        SlotFromInt64(i)};
    serial->Insert(row);
    partials.worker(static_cast<size_t>(i) % 4)->Insert(row);
  }
  size_t merge_morsels = partials.MergeInto(&pool, merged.get());
  EXPECT_GT(merge_morsels, 1u) << "parallel merge did not partition";

  EXPECT_EQ(merged->num_tuples(), serial->num_tuples());
  EXPECT_EQ(merged->num_keys(), serial->num_keys());
  std::multiset<std::vector<int64_t>> want, got;
  serial->ScanInOrder([&](const uint64_t* row) {
    want.insert({Int64FromSlot(row[0]), Int64FromSlot(row[1]),
                 Int64FromSlot(row[2])});
  });
  std::vector<int64_t> last_key;
  merged->ScanInOrder([&](const uint64_t* row) {
    std::vector<int64_t> key{Int64FromSlot(row[0]), Int64FromSlot(row[1])};
    EXPECT_GE(key, last_key);  // ascending composite order preserved
    last_key = key;
    got.insert({key[0], key[1], Int64FromSlot(row[2])});
  });
  EXPECT_EQ(got, want);
}

// ---- aggregated key-range-partitioned parallel merge ------------------------

// Builds an aggregated table with one term of `fn` over "x", keyed on
// "g" (KISS) — used by the identity grid below.
std::unique_ptr<IndexedTable> MakeKissAgg(AggFn fn) {
  Schema input = AggInputSchema();
  auto table_or = IndexedTable::CreateAggregated(
      {{"g", ValueType::kInt64, nullptr}},
      AggSpec({{fn, ScalarExpr::Column("x"), "out"}}), input);
  EXPECT_TRUE(table_or.ok());
  return std::move(table_or).value();
}

std::unique_ptr<IndexedTable> MakePrefixAgg(AggFn fn) {
  Schema input = Schema({{"g1", ValueType::kInt64, nullptr},
                         {"g2", ValueType::kInt64, nullptr},
                         {"x", ValueType::kInt64, nullptr}});
  auto table_or = IndexedTable::CreateAggregated(
      {{"g1", ValueType::kInt64, nullptr}, {"g2", ValueType::kInt64, nullptr}},
      AggSpec({{fn, ScalarExpr::Column("x"), "out"}}), input);
  EXPECT_TRUE(table_or.ok());
  return std::move(table_or).value();
}

void ExpectSameGroups(const IndexedTable& got, const IndexedTable& want,
                      const std::string& label) {
  ASSERT_EQ(got.num_tuples(), want.num_tuples()) << label;
  ASSERT_EQ(got.num_keys(), want.num_keys()) << label;
  std::vector<std::vector<uint64_t>> expected;
  want.ScanGroups([&](const uint64_t* row) {
    expected.emplace_back(row, row + want.schema().num_columns());
  });
  size_t at = 0;
  got.ScanGroups([&](const uint64_t* row) {
    ASSERT_LT(at, expected.size()) << label;
    for (size_t c = 0; c < expected[at].size(); ++c) {
      EXPECT_EQ(row[c], expected[at][c])
          << label << " group " << at << " col " << c;
    }
    ++at;
  });
  EXPECT_EQ(at, expected.size()) << label;
}

// The partitioned aggregated merge must equal the serial accumulator
// merge for every aggregate kind, both index families, and every worker
// count — and must actually partition at 8 workers.
TEST(PartialOutputsTest, AggParallelMergeMatchesSerialAllKindsAndFamilies) {
  constexpr int kRows = 20000;
  constexpr int kGroups = 2000;  // >= kMinParallelAggGroups, many buckets
  for (AggFn fn : {AggFn::kCount, AggFn::kSum, AggFn::kMin, AggFn::kMax}) {
    for (bool kiss : {true, false}) {
      for (size_t threads : {1, 2, 8}) {
        engine::WorkerPool pool(threads);
        auto serial = kiss ? MakeKissAgg(fn) : MakePrefixAgg(fn);
        ASSERT_EQ(serial->kind(), kiss ? IndexedTable::Kind::kKiss
                                       : IndexedTable::Kind::kPrefix);
        auto merged = serial->CloneEmpty();
        engine::PartialOutputs partials(*merged, pool.num_workers());
        Rng rng(fn == AggFn::kCount ? 11 : 12);
        for (int i = 0; i < kRows; ++i) {
          int64_t g = static_cast<int64_t>(rng.NextBounded(kGroups));
          int64_t x = static_cast<int64_t>(rng.NextBounded(100000)) - 50000;
          if (kiss) {
            // Spread the groups over many level-2 buckets.
            uint64_t key = SlotFromInt64(g * 37);
            uint64_t row[2] = {key, SlotFromInt64(x)};
            serial->InsertAggregated(&key, row);
            partials.worker(static_cast<size_t>(i) % pool.num_workers())
                ->InsertAggregated(&key, row);
          } else {
            uint64_t keys[2] = {SlotFromInt64(g / 40), SlotFromInt64(g % 40)};
            uint64_t row[3] = {keys[0], keys[1], SlotFromInt64(x)};
            serial->InsertAggregated(keys, row);
            partials.worker(static_cast<size_t>(i) % pool.num_workers())
                ->InsertAggregated(keys, row);
          }
        }
        size_t merge_morsels = partials.MergeInto(&pool, merged.get());
        std::string label = std::string(AggFnToString(fn)) +
                            (kiss ? " kiss" : " prefix") + " t=" +
                            std::to_string(threads);
        if (threads >= 8) {
          EXPECT_GT(merge_morsels, 1u)
              << label << ": aggregated merge did not partition";
        }
        ExpectSameGroups(*merged, *serial, label);
      }
    }
  }
}

// Partials whose key spans do not overlap at all (one worker saw only
// low keys, another only high keys) still merge correctly — the range
// plan covers the union span, and the clamped outer bounds keep the
// destination's key statistics exact.
TEST(PartialOutputsTest, ParallelMergeHandlesDisjointPartialSpans) {
  Schema schema({{"k", ValueType::kInt64, nullptr},
                 {"v", ValueType::kInt64, nullptr}});
  auto serial_or = IndexedTable::Create(schema, {"k"});
  ASSERT_TRUE(serial_or.ok());
  auto serial = std::move(serial_or).value();
  auto merged = serial->CloneEmpty();

  engine::WorkerPool pool(4);
  engine::PartialOutputs partials(*merged, 2);
  constexpr int kTuplesPerSide = 10000;
  for (int i = 0; i < kTuplesPerSide; ++i) {
    // Partial 0: keys [3, 103); partial 1: keys [4000003, 4000103).
    int64_t lo_key = 3 + (i % 100);
    int64_t hi_key = 4000003 + (i % 100);
    uint64_t lo_row[2] = {SlotFromInt64(lo_key), SlotFromInt64(i)};
    uint64_t hi_row[2] = {SlotFromInt64(hi_key), SlotFromInt64(i)};
    serial->Insert(lo_row);
    serial->Insert(hi_row);
    partials.worker(0)->Insert(lo_row);
    partials.worker(1)->Insert(hi_row);
  }
  size_t merge_morsels = partials.MergeInto(&pool, merged.get());
  EXPECT_GT(merge_morsels, 1u);
  EXPECT_EQ(merged->num_tuples(), serial->num_tuples());
  EXPECT_EQ(merged->num_keys(), serial->num_keys());
  // Clamped outer range bounds keep min/max exact (not bucket-aligned).
  EXPECT_EQ(merged->kiss()->min_key(), serial->kiss()->min_key());
  EXPECT_EQ(merged->kiss()->max_key(), serial->kiss()->max_key());
  std::multiset<std::pair<int64_t, int64_t>> want, got;
  serial->ScanInOrder([&](const uint64_t* row) {
    want.emplace(Int64FromSlot(row[0]), Int64FromSlot(row[1]));
  });
  merged->ScanInOrder([&](const uint64_t* row) {
    got.emplace(Int64FromSlot(row[0]), Int64FromSlot(row[1]));
  });
  EXPECT_EQ(got, want);
}

// ---- Release-mode merge hardening (non-covering range plans) ----------------

// Clears the test-only plan mutator on scope exit so a failing test
// cannot poison later ones.
struct PlanMutatorGuard {
  explicit PlanMutatorGuard(engine::PartialOutputs::PlanMutator m) {
    engine::PartialOutputs::SetPlanMutatorForTest(std::move(m));
  }
  ~PlanMutatorGuard() {
    engine::PartialOutputs::SetPlanMutatorForTest(nullptr);
  }
};

// A range plan with a hole (a middle range dropped) must be rejected by
// the runtime coverage check — the merge falls back to the serial path
// (returns 0 shards) and the result stays complete. This used to be a
// Debug-only assert that compiled out in Release.
TEST(PartialOutputsTest, NonCoveringKissPlanFallsBackToSerialMerge) {
  Schema schema({{"k", ValueType::kInt64, nullptr},
                 {"v", ValueType::kInt64, nullptr}});
  auto serial_or = IndexedTable::Create(schema, {"k"});
  ASSERT_TRUE(serial_or.ok());
  auto serial = std::move(serial_or).value();
  auto merged = serial->CloneEmpty();

  engine::WorkerPool pool(4);
  engine::PartialOutputs partials(*merged, 3);
  Rng rng(47);
  constexpr int kTuples = 20000;
  for (int i = 0; i < kTuples; ++i) {
    int64_t k = static_cast<int64_t>(rng.NextBounded(5000));
    uint64_t row[2] = {SlotFromInt64(k), SlotFromInt64(i)};
    serial->Insert(row);
    partials.worker(static_cast<size_t>(i) % 3)->Insert(row);
  }
  PlanMutatorGuard guard(
      [](std::vector<IndexedTable::MergeKeyRange>* ranges) {
        if (ranges->size() > 2) ranges->erase(ranges->begin() + 1);
      });
  EXPECT_EQ(partials.MergeInto(&pool, merged.get()), 0u)
      << "non-covering plan must fall back to the serial merge";
  EXPECT_EQ(merged->num_tuples(), serial->num_tuples());
  EXPECT_EQ(merged->num_keys(), serial->num_keys());
  std::multiset<std::pair<int64_t, int64_t>> want, got;
  serial->ScanInOrder([&](const uint64_t* row) {
    want.emplace(Int64FromSlot(row[0]), Int64FromSlot(row[1]));
  });
  merged->ScanInOrder([&](const uint64_t* row) {
    got.emplace(Int64FromSlot(row[0]), Int64FromSlot(row[1]));
  });
  EXPECT_EQ(got, want);
}

// Same hardening for prefix-tree outputs: a truncated last range (the
// plan no longer reaches the union max key) is rejected at runtime.
TEST(PartialOutputsTest, NonCoveringPrefixPlanFallsBackToSerialMerge) {
  Schema schema({{"k1", ValueType::kInt64, nullptr},
                 {"k2", ValueType::kInt64, nullptr},
                 {"v", ValueType::kInt64, nullptr}});
  auto serial_or = IndexedTable::Create(schema, {"k1", "k2"});
  ASSERT_TRUE(serial_or.ok());
  auto serial = std::move(serial_or).value();
  ASSERT_EQ(serial->kind(), IndexedTable::Kind::kPrefix);
  auto merged = serial->CloneEmpty();

  engine::WorkerPool pool(4);
  engine::PartialOutputs partials(*merged, 4);
  Rng rng(53);
  constexpr int kTuples = 20000;
  for (int i = 0; i < kTuples; ++i) {
    uint64_t row[3] = {
        SlotFromInt64(static_cast<int64_t>(rng.NextBounded(12))),
        SlotFromInt64(static_cast<int64_t>(rng.NextBounded(9))),
        SlotFromInt64(i)};
    serial->Insert(row);
    partials.worker(static_cast<size_t>(i) % 4)->Insert(row);
  }
  PlanMutatorGuard guard(
      [](std::vector<IndexedTable::MergeKeyRange>* ranges) {
        if (!ranges->empty()) ranges->pop_back();
      });
  EXPECT_EQ(partials.MergeInto(&pool, merged.get()), 0u)
      << "truncated plan must fall back to the serial merge";
  EXPECT_EQ(merged->num_tuples(), serial->num_tuples());
  EXPECT_EQ(merged->num_keys(), serial->num_keys());
  std::multiset<std::vector<int64_t>> want, got;
  serial->ScanInOrder([&](const uint64_t* row) {
    want.insert({Int64FromSlot(row[0]), Int64FromSlot(row[1]),
                 Int64FromSlot(row[2])});
  });
  merged->ScanInOrder([&](const uint64_t* row) {
    got.insert({Int64FromSlot(row[0]), Int64FromSlot(row[1]),
                Int64FromSlot(row[2])});
  });
  EXPECT_EQ(got, want);
}

// The coverage validators themselves: gaps, inversions, truncations.
TEST(MergeRangeValidationTest, DetectsGapsAndTruncations) {
  using engine::merge_detail::KissRangesCoverSpan;
  std::vector<IndexedTable::MergeKeyRange> ranges(3);
  ranges[0].kiss_lo = 10;
  ranges[0].kiss_hi = 63;
  ranges[1].kiss_lo = 64;
  ranges[1].kiss_hi = 127;
  ranges[2].kiss_lo = 128;
  ranges[2].kiss_hi = 200;
  EXPECT_TRUE(KissRangesCoverSpan(ranges, 10, 200));
  EXPECT_FALSE(KissRangesCoverSpan(ranges, 5, 200));    // span starts below
  EXPECT_FALSE(KissRangesCoverSpan(ranges, 10, 300));   // span ends above
  auto gap = ranges;
  gap.erase(gap.begin() + 1);
  EXPECT_FALSE(KissRangesCoverSpan(gap, 10, 200));      // hole in the tiling
  auto inverted = ranges;
  std::swap(inverted[1].kiss_lo, inverted[1].kiss_hi);
  EXPECT_FALSE(KissRangesCoverSpan(inverted, 10, 200));
  EXPECT_FALSE(KissRangesCoverSpan({}, 0, 0));
}

TEST(PartialOutputsTest, ParallelMergeFallsBackWhenSerialIsRight) {
  engine::WorkerPool pool(4);
  // Aggregated output with only a handful of groups: the accumulator
  // merge is per-group work, so it stays serial below the threshold.
  Schema input = AggInputSchema();
  auto agg_or = IndexedTable::CreateAggregated(
      {{"g", ValueType::kInt64, nullptr}}, FullAggSpec(), input);
  ASSERT_TRUE(agg_or.ok());
  auto agg = std::move(agg_or).value();
  engine::PartialOutputs agg_partials(*agg, 2);
  for (int i = 0; i < 10000; ++i) {
    uint64_t g = SlotFromInt64(i % 7);
    uint64_t row[2] = {g, SlotFromInt64(i)};
    agg_partials.worker(static_cast<size_t>(i) % 2)->InsertAggregated(&g,
                                                                      row);
  }
  EXPECT_EQ(agg_partials.MergeInto(&pool, agg.get()), 0u);
  EXPECT_EQ(agg->num_keys(), 7u);

  // Small plain output: below the threshold, stays serial.
  Schema schema({{"k", ValueType::kInt64, nullptr}});
  auto small_or = IndexedTable::Create(schema, {"k"});
  ASSERT_TRUE(small_or.ok());
  auto small = std::move(small_or).value();
  engine::PartialOutputs small_partials(*small, 2);
  for (int i = 0; i < 100; ++i) {
    uint64_t row[1] = {SlotFromInt64(i)};
    small_partials.worker(static_cast<size_t>(i) % 2)->Insert(row);
  }
  EXPECT_EQ(small_partials.MergeInto(&pool, small.get()), 0u);
  EXPECT_EQ(small->num_tuples(), 100u);
}

// ---- value morsels over few root buckets -----------------------------------

// RunKissValueMorsels over keys spanning fewer root buckets than workers
// takes its run mode: morsels are even slices of the qualifying values,
// read in place from inline values and duplicate segments. Keys mix
// inline single values, short lists and lists of several 4 KiB segments
// (510 values each) over three root buckets of 4096 keys.
TEST(KissValueMorselsTest, RunMorselsVisitEveryValueOnce) {
  KissTree::Config cfg;
  cfg.root_bits = 20;  // 12-bit level-2 fragment: 4096 keys per bucket
  KissTree tree(cfg);
  uint64_t next = 0;
  auto add = [&](uint32_t key, size_t n) {
    for (size_t i = 0; i < n; ++i) tree.Insert(key, next++);
  };
  for (uint32_t bucket = 0; bucket < 3; ++bucket) {
    const uint32_t base = bucket << 12;
    for (uint32_t k = 0; k < 10; ++k) add(base + k, 1);
    for (uint32_t k = 10; k < 20; ++k) add(base + k, 3);
    for (uint32_t k = 20; k < 23; ++k) add(base + k, 1500 + 700 * k);
  }

  for (size_t threads : {size_t{2}, size_t{4}, size_t{8}}) {
    engine::WorkerPool pool(threads);
    engine::MorselSite site;
    site.pool = &pool;
    // One whole bucket; keys 15–21 of bucket 0 (short lists and two long
    // ones); with more than three workers also key 5 of bucket 0 through
    // key 21 of bucket 2.
    std::vector<std::pair<uint32_t, uint32_t>> spans{{0, 4095}, {15, 21}};
    if (threads > 3) spans.push_back({5, (2u << 12) + 21});
    for (const auto& [lo, hi] : spans) {
      std::vector<uint64_t> want;
      tree.ScanRange(lo, hi, [&](uint32_t, const KissTree::ValueRef& vals) {
        vals.ForEach([&](uint64_t v) { want.push_back(v); });
      });
      std::sort(want.begin(), want.end());

      // Per worker: values seen, values since the worker's last
      // end_morsel, and the value count of each morsel it ended.
      std::vector<std::vector<uint64_t>> seen(threads);
      std::vector<size_t> pending(threads, 0);
      std::vector<std::vector<size_t>> ended(threads);
      size_t morsels = engine::RunKissValueMorsels(
          site, tree, lo, hi,
          [&](size_t w, uint64_t v) {
            seen[w].push_back(v);
            ++pending[w];
          },
          [&](size_t w) {
            ended[w].push_back(pending[w]);
            pending[w] = 0;
          });

      const std::string label = "threads=" + std::to_string(threads) +
                                " [" + std::to_string(lo) + ", " +
                                std::to_string(hi) + "]";
      std::vector<uint64_t> got;
      std::vector<size_t> sizes;
      for (size_t w = 0; w < threads; ++w) {
        got.insert(got.end(), seen[w].begin(), seen[w].end());
        sizes.insert(sizes.end(), ended[w].begin(), ended[w].end());
        EXPECT_EQ(pending[w], 0u) << label << ": values after end_morsel";
      }
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, want) << label;
      ASSERT_EQ(sizes.size(), morsels) << label;
      // More morsels than buckets: the run mode split the values.
      EXPECT_GT(morsels, 3u) << label;
      auto [smallest, largest] =
          std::minmax_element(sizes.begin(), sizes.end());
      EXPECT_LE(*largest - *smallest, 1u) << label;
    }

    // Nothing qualifies: outside the populated span, and a gap between
    // keys inside one populated bucket.
    std::atomic<size_t> calls{0};
    auto count = [&](size_t, uint64_t) { ++calls; };
    auto end = [&](size_t) { ++calls; };
    EXPECT_EQ(engine::RunKissValueMorsels(site, tree, 5u << 12, 6u << 12,
                                          count, end),
              0u);
    EXPECT_EQ(engine::RunKissValueMorsels(site, tree, 100, 200, count, end),
              0u);
    EXPECT_EQ(calls.load(), 0u);
  }
}

// ---- session front door: shared-scan reads ---------------------------------

class SessionReadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema schema({{"k", ValueType::kInt64, nullptr},
                   {"v", ValueType::kInt64, nullptr}});
    auto table_or = IndexedTable::Create(schema, {"k"});
    ASSERT_TRUE(table_or.ok());
    table_ = std::move(table_or).value();
    Rng rng(21);
    for (int i = 0; i < 20000; ++i) {
      int64_t k = static_cast<int64_t>(rng.NextBounded(2000));
      uint64_t row[2] = {SlotFromInt64(k), SlotFromInt64(i)};
      table_->Insert(row);
      reference_[k].insert(static_cast<uint64_t>(i));
    }
  }

  // Resolves returned tuple ids to the "v" column for comparison.
  std::multiset<uint64_t> Resolve(const std::vector<uint64_t>& ids) {
    std::multiset<uint64_t> out;
    for (uint64_t id : ids) {
      out.insert(static_cast<uint64_t>(Int64FromSlot(table_->Tuple(id)[1])));
    }
    return out;
  }

  std::unique_ptr<IndexedTable> table_;
  std::map<int64_t, std::multiset<uint64_t>> reference_;
};

TEST_F(SessionReadTest, ConcurrentPointReadsMatchReference) {
  engine::EngineConfig cfg;
  cfg.threads = 2;
  cfg.clamp_threads_to_hardware = false;  // tiny CI boxes
  cfg.read_batch_window_us = 500;
  engine::EngineRunner runner(cfg);
  constexpr size_t kClients = 8;
  constexpr size_t kReadsPerClient = 200;
  std::atomic<int> mismatches{0};
  ForkJoin fork(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    fork.Spawn([&, c] {
      Rng rng(1000 + c);
      for (size_t i = 0; i < kReadsPerClient; ++i) {
        int64_t key = static_cast<int64_t>(rng.NextBounded(2200));
        auto ids = runner.PointRead(*table_, key);
        if (!ids.ok()) {
          mismatches++;
          continue;
        }
        auto it = reference_.find(key);
        std::multiset<uint64_t> want =
            it == reference_.end() ? std::multiset<uint64_t>{} : it->second;
        if (Resolve(*ids) != want) mismatches++;
      }
    });
  }
  fork.Join();
  EXPECT_EQ(mismatches.load(), 0);
  auto rs = runner.read_stats();
  EXPECT_EQ(rs.reads, kClients * kReadsPerClient);
  EXPECT_EQ(rs.batched_keys, kClients * kReadsPerClient);
  EXPECT_GT(rs.shared_scans, 0u);
  // Batching must never *increase* the scan count beyond one per read.
  EXPECT_LE(rs.shared_scans, rs.reads);
}

TEST_F(SessionReadTest, RangeReadsAscendAndMatchReference) {
  engine::EngineRunner runner(engine::EngineConfig{.threads = 1});
  auto result = runner.RangeRead(*table_, 100, 140);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::vector<uint64_t>& ids = *result;
  std::multiset<uint64_t> want;
  for (int64_t k = 100; k <= 140; ++k) {
    auto it = reference_.find(k);
    if (it != reference_.end()) {
      for (uint64_t v : it->second) want.insert(v);
    }
  }
  EXPECT_EQ(Resolve(ids), want);
  // Ascending key order across the returned ids.
  int64_t last = -1;
  for (uint64_t id : ids) {
    int64_t k = Int64FromSlot(table_->Tuple(id)[0]);
    EXPECT_GE(k, last);
    last = k;
  }
  // Degenerate inputs.
  EXPECT_TRUE(runner.RangeRead(*table_, 50, 40)->empty());
  EXPECT_TRUE(runner.PointRead(*table_, 999999)->empty());
}

TEST_F(SessionReadTest, ReleaseReadsEvictsBatcherAndLaterReadsStillWork) {
  engine::EngineRunner runner(engine::EngineConfig{.threads = 1});
  int64_t key = reference_.begin()->first;
  auto before = runner.PointRead(*table_, key);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(Resolve(*before), reference_[key]);

  // Evict the per-table batcher (the short-lived-intermediate pattern):
  // the next read must build a fresh one and answer identically.
  runner.ReleaseReads(*table_);
  auto after = runner.PointRead(*table_, key);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(Resolve(*after), reference_[key]);

  // Releasing an unknown / already-released table is a no-op.
  runner.ReleaseReads(*table_);
  auto rs = runner.read_stats();
  EXPECT_EQ(rs.reads, 2u);
  EXPECT_EQ(rs.batched_keys, 2u);
}

// KISS range reads over negative keys: a KISS key is the low 32 bits of
// the int64, so [-5, 3] covers two key ranges. RangeRead must return the
// rows a prefix table returns, in ascending key order — alone and when
// wrapping and non-wrapping requests are answered in one batch.
TEST(SessionNegativeRangeTest, KissRangeReadsMatchPrefix) {
  Schema schema({{"k", ValueType::kInt64, nullptr},
                 {"v", ValueType::kInt64, nullptr}});
  auto make = [&](bool prefer_kiss) {
    IndexedTable::Options opt;
    opt.prefer_kiss = prefer_kiss;
    opt.kiss_root_bits = 20;
    auto table = IndexedTable::Create(schema, {"k"}, opt);
    EXPECT_TRUE(table.ok());
    for (int64_t k = -100; k <= 100; ++k) {
      for (int64_t d = 0; d < 2; ++d) {
        uint64_t row[2] = {SlotFromInt64(k), SlotFromInt64(k * 10 + d)};
        (*table)->Insert(row);
      }
    }
    return std::move(table).value();
  };
  auto kiss = make(true);
  auto prefix = make(false);
  ASSERT_EQ(kiss->kind(), IndexedTable::Kind::kKiss);
  ASSERT_EQ(prefix->kind(), IndexedTable::Kind::kPrefix);

  // (k, v) pairs in returned order.
  auto keys_of = [](const IndexedTable& t, const std::vector<uint64_t>& ids) {
    std::vector<std::pair<int64_t, int64_t>> out;
    for (uint64_t id : ids) {
      out.emplace_back(Int64FromSlot(t.Tuple(id)[0]),
                       Int64FromSlot(t.Tuple(id)[1]));
    }
    return out;
  };
  auto sorted = [](std::vector<std::pair<int64_t, int64_t>> rows) {
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  // The last range spans 2^32 values: it covers every KISS key.
  const std::vector<std::pair<int64_t, int64_t>> ranges{
      {-5, -1},
      {-5, 3},
      {0, 3},
      {3, -5},
      {-100, 100},
      {std::numeric_limits<int32_t>::min(),
       std::numeric_limits<int32_t>::max()}};
  std::vector<size_t> want_rows{10, 18, 8, 0, 402, 402};

  engine::EngineRunner serial(engine::EngineConfig{.threads = 1});
  for (size_t i = 0; i < ranges.size(); ++i) {
    auto [lo, hi] = ranges[i];
    auto from_kiss = serial.RangeRead(*kiss, lo, hi);
    auto from_prefix = serial.RangeRead(*prefix, lo, hi);
    ASSERT_TRUE(from_kiss.ok() && from_prefix.ok());
    auto k_rows = keys_of(*kiss, *from_kiss);
    auto p_rows = keys_of(*prefix, *from_prefix);
    EXPECT_EQ(p_rows.size(), want_rows[i]) << lo << ".." << hi;
    EXPECT_EQ(sorted(k_rows), sorted(p_rows)) << lo << ".." << hi;
    for (size_t r = 1; r < k_rows.size(); ++r) {
      EXPECT_LE(k_rows[r - 1].first, k_rows[r].first)
          << "KISS range read not ascending over " << lo << ".." << hi;
    }
  }
  auto point = serial.PointRead(*kiss, -5);
  ASSERT_TRUE(point.ok());
  EXPECT_EQ(point->size(), 2u);

  // One client per range, released together into a wide batch window:
  // the leader answers wrapping and plain ranges in one batch.
  engine::EngineConfig cfg;
  cfg.threads = 1;
  cfg.read_batch_window_us = 50000;
  cfg.read_batch_max = ranges.size() - 1;  // the empty range never waits
  engine::EngineRunner batched(cfg);
  constexpr size_t kRounds = 3;
  for (size_t round = 0; round < kRounds; ++round) {
    std::atomic<int> mismatches{0};
    ForkJoin fork(ranges.size());
    for (size_t i = 0; i < ranges.size(); ++i) {
      fork.Spawn([&, i] {
        auto [lo, hi] = ranges[i];
        auto got = batched.RangeRead(*kiss, lo, hi);
        auto want = serial.RangeRead(*prefix, lo, hi);
        if (!got.ok() || !want.ok()) {
          mismatches++;
          return;
        }
        auto rows = keys_of(*kiss, *got);
        if (sorted(rows) != sorted(keys_of(*prefix, *want)) ||
            !std::is_sorted(rows.begin(), rows.end(),
                            [](const auto& a, const auto& b) {
                              return a.first < b.first;
                            })) {
          mismatches++;
        }
      });
    }
    fork.Join();
    EXPECT_EQ(mismatches.load(), 0) << "round " << round;
  }
}

// ---- admission control ------------------------------------------------------

// Blocks inside Execute until released, so the test can observe the
// admission semaphore holding the second query back.
class GateOp : public Operator {
 public:
  GateOp(std::atomic<int>* started, std::atomic<bool>* release)
      : started_(started), release_(release) {}
  std::string name() const override { return "gate"; }
  Status Execute(ExecContext* ctx) override {
    started_->fetch_add(1);
    while (!release_->load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    Schema schema({{"k", ValueType::kInt64, nullptr}});
    QPPT_ASSIGN_OR_RETURN(auto table, IndexedTable::Create(schema, {"k"}));
    QPPT_RETURN_NOT_OK(ctx->Put("result", std::move(table)));
    return Status::OK();
  }

 private:
  std::atomic<int>* started_;
  std::atomic<bool>* release_;
};

TEST(AdmissionControlTest, ExcessQueriesBlockUntilASlotFrees) {
  engine::EngineConfig cfg;
  cfg.threads = 1;
  cfg.max_concurrent_queries = 1;
  engine::EngineRunner runner(cfg);
  Database db;
  std::atomic<int> started{0};
  std::atomic<bool> release{false};
  std::atomic<int> succeeded{0};

  auto make_plan = [&] {
    Plan plan;
    plan.Add(std::make_unique<GateOp>(&started, &release));
    plan.set_result_slot("result");
    return plan;
  };
  Plan plan1 = make_plan();
  Plan plan2 = make_plan();

  std::thread first([&] {
    if (runner.Execute(db, plan1, PlanKnobs{}).ok()) succeeded++;
  });
  while (started.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread second([&] {
    if (runner.Execute(db, plan2, PlanKnobs{}).ok()) succeeded++;
  });
  // The second query must park on the semaphore, not start executing.
  for (int i = 0; i < 5000 && runner.queries_waiting() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(runner.queries_waiting(), 1u);
  EXPECT_EQ(started.load(), 1);

  release = true;
  first.join();
  second.join();
  EXPECT_EQ(started.load(), 2);
  EXPECT_EQ(succeeded.load(), 2);
  EXPECT_EQ(runner.queries_waiting(), 0u);
  EXPECT_EQ(runner.queries_admitted(), 2u);
}

TEST(AdmissionControlTest, UnlimitedByDefault) {
  engine::EngineConfig cfg;
  cfg.threads = 1;
  engine::EngineRunner runner(cfg);
  EXPECT_EQ(runner.queries_waiting(), 0u);
}

}  // namespace
}  // namespace qppt
