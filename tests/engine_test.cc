// Engine-layer unit tests: work-stealing scheduler, the serial fold of
// per-worker partial outputs, and the shared-scan read batching of the
// session front door. These (plus parallel_test) are the suite the TSan
// CI job runs.

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
#include "core/base_index.h"
#include "core/indexed_table.h"
#include "core/parallel.h"
#include "engine/parallel_ops.h"
#include "engine/scheduler.h"
#include "engine/session.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/cancel.h"
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

// ---- partial outputs: the serial fold --------------------------------------

// The output shapes a parallel operator folds: plain KISS (single int
// key), plain prefix (composite key), and aggregated prefix with every
// aggregate over an int and a double column.
enum class FoldShape { kKissPlain, kPrefixPlain, kAggregated };
// How the rows spread over the partials.
enum class Spread {
  kOverlapping,  // round-robin: every partial holds most keys
  kDisjoint,     // partial w holds the w-th key range only
  kOneSided,     // the last partial holds every row, the others none
  kNoRows,       // every partial stays empty
};

const char* ShapeName(FoldShape shape) {
  switch (shape) {
    case FoldShape::kKissPlain: return "kiss plain";
    case FoldShape::kPrefixPlain: return "prefix plain";
    case FoldShape::kAggregated: return "prefix aggregated";
  }
  return "?";
}

const char* SpreadName(Spread spread) {
  switch (spread) {
    case Spread::kOverlapping: return "overlapping";
    case Spread::kDisjoint: return "disjoint";
    case Spread::kOneSided: return "one-sided";
    case Spread::kNoRows: return "no rows";
  }
  return "?";
}

// Rows are (g1, g2, x, y): int keys g1 >= 0 and g2 (negative ones
// included), an
// int x and a double y. y is a multiple of 0.25 well below 2^40, so
// every double sum is exact in any fold order.
Schema FoldSchema() {
  return Schema({{"g1", ValueType::kInt64, nullptr},
                 {"g2", ValueType::kInt64, nullptr},
                 {"x", ValueType::kInt64, nullptr},
                 {"y", ValueType::kDouble, nullptr}});
}

Result<std::unique_ptr<IndexedTable>> CreateFoldTable(FoldShape shape) {
  switch (shape) {
    case FoldShape::kKissPlain:
      return IndexedTable::Create(FoldSchema(), {"g1"});
    case FoldShape::kPrefixPlain:
      return IndexedTable::Create(FoldSchema(), {"g1", "g2"});
    case FoldShape::kAggregated:
      break;
  }
  std::vector<AggTerm> terms;
  for (const std::string col : {"x", "y"}) {
    terms.push_back({AggFn::kCount, ScalarExpr::Column(col), "cnt_" + col});
    terms.push_back({AggFn::kSum, ScalarExpr::Column(col), "sum_" + col});
    terms.push_back({AggFn::kMin, ScalarExpr::Column(col), "min_" + col});
    terms.push_back({AggFn::kMax, ScalarExpr::Column(col), "max_" + col});
    terms.push_back({AggFn::kAvg, ScalarExpr::Column(col), "avg_" + col});
  }
  return IndexedTable::CreateAggregated(
      {{"g1", ValueType::kInt64, nullptr}, {"g2", ValueType::kInt64, nullptr}},
      AggSpec(std::move(terms)), FoldSchema());
}

std::unique_ptr<IndexedTable> MakeFoldTable(FoldShape shape) {
  auto table = CreateFoldTable(shape);
  EXPECT_TRUE(table.ok()) << table.status();
  return std::move(table).value();
}

// The i-th of kFoldRows rows; with `disjoint`, g1 ascends with i so each
// contiguous block of rows owns one key range.
constexpr int kFoldRows = 6000;
std::vector<uint64_t> FoldRow(int i, bool disjoint, Rng* rng) {
  int64_t g1 = disjoint ? i / 20 : static_cast<int64_t>(rng->NextBounded(300));
  int64_t g2 = static_cast<int64_t>(rng->NextBounded(7)) - 3;
  int64_t x = static_cast<int64_t>(rng->NextBounded(100000)) - 50000;
  double y = static_cast<double>(rng->NextBounded(4000)) * 0.25 - 500.0;
  return {SlotFromInt64(g1), SlotFromInt64(g2), SlotFromInt64(x),
          SlotFromDouble(y)};
}

void Feed(IndexedTable* table, const std::vector<uint64_t>& row) {
  if (table->aggregated()) {
    table->InsertAggregated(row.data(), row.data());
  } else {
    table->Insert(row.data());
  }
}

// The output's rows in scan order. Plain tables leave the order of one
// key's duplicates unspecified, so their rows are compared as a sorted
// multiset alongside the scanned key sequence.
struct Scanned {
  std::vector<std::vector<uint64_t>> rows;
  std::vector<std::vector<uint64_t>> keys;  // scan-order key columns
};

Scanned ScanOutput(const IndexedTable& table) {
  Scanned out;
  const size_t width = table.schema().num_columns();
  auto take = [&](const uint64_t* row) {
    out.rows.emplace_back(row, row + width);
    std::vector<uint64_t> key;
    for (size_t pos : table.key_column_positions()) key.push_back(row[pos]);
    out.keys.push_back(std::move(key));
  };
  if (table.aggregated()) {
    table.ScanGroups(take);
  } else {
    table.ScanInOrder(take);
    std::sort(out.rows.begin(), out.rows.end());
  }
  return out;
}

void ExpectSameOutput(const IndexedTable& got, const IndexedTable& want,
                      const std::string& label) {
  EXPECT_EQ(got.num_tuples(), want.num_tuples()) << label;
  EXPECT_EQ(got.num_keys(), want.num_keys()) << label;
  if (got.kind() == IndexedTable::Kind::kKiss && want.num_keys() > 0) {
    // The key span bounds every later KISS scan of the output.
    EXPECT_EQ(got.kiss()->min_key(), want.kiss()->min_key()) << label;
    EXPECT_EQ(got.kiss()->max_key(), want.kiss()->max_key()) << label;
  }
  Scanned g = ScanOutput(got);
  Scanned w = ScanOutput(want);
  EXPECT_EQ(g.keys, w.keys) << label << ": key order differs";
  EXPECT_EQ(g.rows, w.rows) << label << ": rows differ";
}

// Folding the partials equals one table fed every row: for both plain
// index families and the aggregated prefix shape, every spread of rows
// over the partials, and pools of 1 and 4 workers.
TEST(PartialOutputsTest, FoldEqualsOneTableFedEveryRow) {
  engine::WorkerPool one(1);
  engine::WorkerPool four(4);
  for (FoldShape shape : {FoldShape::kKissPlain, FoldShape::kPrefixPlain,
                          FoldShape::kAggregated}) {
    for (Spread spread : {Spread::kOverlapping, Spread::kDisjoint,
                          Spread::kOneSided, Spread::kNoRows}) {
      for (engine::WorkerPool* pool : {&one, &four}) {
        const size_t workers = pool->num_workers();
        const std::string label = std::string(ShapeName(shape)) + ", " +
                                  SpreadName(spread) + ", " +
                                  std::to_string(workers) + " workers";
        auto reference = MakeFoldTable(shape);
        auto output = reference->CloneEmpty();
        engine::MorselSite site;
        site.pool = pool;
        engine::PartialOutputs partials(site, output.get());
        Rng rng(17);
        const int rows = spread == Spread::kNoRows ? 0 : kFoldRows;
        for (int i = 0; i < rows; ++i) {
          auto row = FoldRow(i, spread == Spread::kDisjoint, &rng);
          size_t w = 0;
          switch (spread) {
            case Spread::kOverlapping:
              w = static_cast<size_t>(i) % workers;
              break;
            case Spread::kDisjoint:
              w = static_cast<size_t>(i) * workers / kFoldRows;
              break;
            case Spread::kOneSided:
            case Spread::kNoRows:
              w = workers - 1;
              break;
          }
          Feed(reference.get(), row);
          Feed(partials.worker(w), row);
        }
        double ms = partials.MergeInto(site);
        EXPECT_GE(ms, 0.0) << label;
        ExpectSameOutput(*output, *reference, label);
      }
    }
  }
}

// The fold enters every group it creates in the output's group
// directory, so later inserts fold into the merged groups instead of
// creating duplicates.
TEST(PartialOutputsTest, InsertAfterMergeFoldsIntoMergedGroups) {
  auto reference = MakeFoldTable(FoldShape::kAggregated);
  auto output = reference->CloneEmpty();
  engine::WorkerPool pool(4);
  engine::MorselSite site;
  site.pool = &pool;
  engine::PartialOutputs partials(site, output.get());
  Rng rng(29);
  for (int i = 0; i < kFoldRows; ++i) {
    auto row = FoldRow(i, /*disjoint=*/false, &rng);
    Feed(reference.get(), row);
    Feed(partials.worker(static_cast<size_t>(i) % 4), row);
  }
  (void)partials.MergeInto(site);
  const size_t groups = output->num_keys();
  // Old groups again, then new ones (g1 past the first batch's range).
  Rng again(29);
  for (int i = 0; i < kFoldRows; ++i) {
    auto row = FoldRow(i, /*disjoint=*/false, &again);
    Feed(reference.get(), row);
    Feed(output.get(), row);
  }
  EXPECT_EQ(output->num_keys(), groups);
  for (int i = 0; i < 50; ++i) {
    auto row = FoldRow(i, /*disjoint=*/false, &rng);
    row[0] = SlotFromInt64(1000 + i);
    Feed(reference.get(), row);
    Feed(output.get(), row);
  }
  EXPECT_EQ(output->num_keys(), groups + 50);
  ExpectSameOutput(*output, *reference, "insert after merge");
}

// A cancelled query's fold throws before it touches the output.
TEST(PartialOutputsTest, CancelledTokenThrowsBeforeAnyFold) {
  engine::WorkerPool pool(4);
  for (FoldShape shape : {FoldShape::kKissPlain, FoldShape::kAggregated}) {
    auto output = MakeFoldTable(shape);
    CancelToken token;
    engine::MorselSite site;
    site.pool = &pool;
    site.cancel = &token;
    engine::PartialOutputs partials(site, output.get());
    Rng rng(31);
    for (int i = 0; i < 400; ++i) {
      Feed(partials.worker(static_cast<size_t>(i) % 4),
           FoldRow(i, /*disjoint=*/false, &rng));
    }
    token.RequestCancel();
    EXPECT_THROW((void)partials.MergeInto(site), CancelledException)
        << ShapeName(shape);
    EXPECT_EQ(output->num_tuples(), 0u) << ShapeName(shape);
    EXPECT_EQ(output->num_keys(), 0u) << ShapeName(shape);
  }
}

// A traced fold is one kMerge span on the driver lane, under the site's
// label, and the returned merge time is that span's duration.
TEST(PartialOutputsTest, TracedMergeRecordsOneSpan) {
  auto output = MakeFoldTable(FoldShape::kPrefixPlain);
  engine::WorkerPool pool(4);
  obs::QueryTrace trace(4);
  engine::MorselSite site;
  site.pool = &pool;
  site.trace = &trace;
  site.label = "sel:fold";
  engine::PartialOutputs partials(site, output.get());
  Rng rng(37);
  for (int i = 0; i < 2000; ++i) {
    Feed(partials.worker(static_cast<size_t>(i) % 4),
         FoldRow(i, /*disjoint=*/false, &rng));
  }
  const double ms = partials.MergeInto(site);
  EXPECT_EQ(output->num_tuples(), 2000u);
  size_t merges = 0;
  trace.ForEachSpan([&](const obs::TraceSpan& span) {
    ASSERT_EQ(span.kind, obs::SpanKind::kMerge);
    ++merges;
    EXPECT_EQ(span.worker, trace.driver_lane());
    EXPECT_STREQ(span.label, "sel:fold");
    EXPECT_NEAR((span.t_end_us - span.t_start_us) / 1000.0, ms, 1e-9);
  });
  EXPECT_EQ(merges, 1u);
}

// Without a pool (an inline run), worker 0 writes the output itself:
// nothing is cloned, and the fold returns 0 and records no span.
TEST(PartialOutputsTest, PoolLessSiteHandsOutTheOutput) {
  auto output = MakeFoldTable(FoldShape::kPrefixPlain);
  obs::QueryTrace trace(1);
  engine::MorselSite site;
  site.trace = &trace;
  site.label = "sel:inline";
  engine::PartialOutputs partials(site, output.get());
  ASSERT_EQ(partials.worker(0), output.get());
  Rng rng(41);
  for (int i = 0; i < 500; ++i) {
    Feed(partials.worker(0), FoldRow(i, /*disjoint=*/false, &rng));
  }
  EXPECT_EQ(partials.MergeInto(site), 0.0);
  EXPECT_EQ(output->num_tuples(), 500u);
  size_t spans = 0;
  trace.ForEachSpan([&](const obs::TraceSpan&) { ++spans; });
  EXPECT_EQ(spans, 0u);
}

// ---- value morsels over few root buckets -----------------------------------

// RunValueMorsels over keys spanning fewer root buckets than workers, or
// over a prefix index, takes its run mode: morsels are even slices of
// the qualifying values, read in place from inline values and duplicate
// segments. Keys mix single rows, short duplicate lists and lists of
// several 4 KiB segments (510 values each) over three KISS root buckets
// of 64 keys (the 26/6 split). Without a pool the driver runs one inline
// morsel as worker 0 and counts none.
TEST(ValueMorselsTest, RunMorselsVisitEveryValueOnce) {
  Database db;
  {
    Schema schema({{"k", ValueType::kInt64, nullptr}});
    auto table = std::make_unique<RowTable>(schema, "t");
    auto add = [&](int64_t key, size_t n) {
      uint64_t row[1] = {SlotFromInt64(key)};
      for (size_t i = 0; i < n; ++i) table->AppendRow(row);
    };
    for (int64_t bucket = 0; bucket < 3; ++bucket) {
      const int64_t base = bucket << 6;
      for (int64_t k = 0; k < 10; ++k) add(base + k, 1);
      for (int64_t k = 10; k < 20; ++k) add(base + k, 3);
      for (int64_t k = 20; k < 23; ++k) add(base + k, 1500 + 700 * k);
    }
    ASSERT_TRUE(db.AddTable(std::move(table)).ok());
  }
  ASSERT_TRUE(db.BuildIndex("t_kiss", "t", {"k"}).ok());
  ASSERT_TRUE(db.BuildIndex("t_prefix", "t", {"k"}, {},
                            TreeOptions{.prefer_kiss = false})
                  .ok());
  const RowTable& table = *db.table("t").value();

  for (const char* name : {"t_kiss", "t_prefix"}) {
    const BaseIndex& index = *db.index(name).value();
    for (size_t threads : {size_t{0}, size_t{2}, size_t{4}, size_t{8}}) {
      std::unique_ptr<engine::WorkerPool> pool;
      engine::MorselSite site;
      if (threads > 0) {
        pool = std::make_unique<engine::WorkerPool>(threads);
        site.pool = pool.get();
      }
      const size_t workers = site.workers();
      // One whole bucket; keys 15–21 of bucket 0 (short lists and two
      // long ones); with more than three workers, a prefix index or
      // inline also key 5 of bucket 0 through key 21 of bucket 2.
      std::vector<std::pair<int64_t, int64_t>> spans{{0, 63}, {15, 21}};
      if (threads != 2 || index.kiss() == nullptr) {
        spans.push_back({5, (int64_t{2} << 6) + 21});
      }
      for (const auto& [lo, hi] : spans) {
        std::vector<uint64_t> want;  // the rids of keys in [lo, hi]
        for (Rid r = 0; r < table.num_rows(); ++r) {
          int64_t k = Int64FromSlot(table.GetSlot(r, 0));
          if (k >= lo && k <= hi) want.push_back(r);
        }

        // Per worker: values seen, values since the worker's last
        // end_morsel, and the value count of each morsel it ended.
        std::vector<std::vector<uint64_t>> seen(workers);
        std::vector<size_t> pending(workers, 0);
        std::vector<std::vector<size_t>> ended(workers);
        size_t morsels = engine::RunValueMorsels(
            site, index, KeyPredicate::Range(lo, hi), {},
            [&](size_t w, uint64_t v) {
              seen[w].push_back(v);
              ++pending[w];
            },
            [&](size_t w) {
              ended[w].push_back(pending[w]);
              pending[w] = 0;
            });

        const std::string label = std::string(name) +
                                  " threads=" + std::to_string(threads) +
                                  " [" + std::to_string(lo) + ", " +
                                  std::to_string(hi) + "]";
        std::vector<uint64_t> got;
        std::vector<size_t> sizes;
        for (size_t w = 0; w < workers; ++w) {
          got.insert(got.end(), seen[w].begin(), seen[w].end());
          sizes.insert(sizes.end(), ended[w].begin(), ended[w].end());
          EXPECT_EQ(pending[w], 0u) << label << ": values after end_morsel";
        }
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, want) << label;
        if (threads == 0) {
          EXPECT_EQ(morsels, 0u) << label;
          EXPECT_EQ(sizes.size(), 1u) << label << ": one inline morsel";
          continue;
        }
        ASSERT_EQ(sizes.size(), morsels) << label;
        // More morsels than buckets: the run mode split the values.
        EXPECT_GT(morsels, 3u) << label;
        auto [smallest, largest] =
            std::minmax_element(sizes.begin(), sizes.end());
        EXPECT_LE(*largest - *smallest, 1u) << label;
      }
      if (threads == 0) continue;

      // Nothing qualifies: outside the populated span, and a gap between
      // keys inside one populated bucket.
      std::atomic<size_t> calls{0};
      auto count = [&](size_t, uint64_t) { ++calls; };
      auto end = [&](size_t) { ++calls; };
      EXPECT_EQ(engine::RunValueMorsels(site, index,
                                        KeyPredicate::Range(5 << 6, 6 << 6),
                                        {}, count, end),
                0u);
      EXPECT_EQ(engine::RunValueMorsels(site, index,
                                        KeyPredicate::Range(30, 60), {},
                                        count, end),
                0u);
      EXPECT_EQ(calls.load(), 0u);
    }
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
    TreeOptions opt;
    opt.prefer_kiss = prefer_kiss;
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
