// The engine write path end to end: WriteSession transactions against a
// versioned table, committed rows flowing into live base indexes, and
// snapshot-consistent OLAP reads racing the writers — the TSan target for
// the HTAP machinery (`ctest -L engine`).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/operators/selection.h"
#include "core/plan.h"
#include "engine/retry.h"
#include "engine/session.h"
#include "engine/write_session.h"
#include "obs/metrics.h"

namespace qppt {
namespace {

using engine::EngineConfig;
using engine::EngineRunner;
using engine::WriteSession;

constexpr int64_t kInitialRows = 64;

Schema ItemsSchema() {
  return Schema({{"k", ValueType::kInt64, nullptr},
                 {"v", ValueType::kInt64, nullptr}});
}

// A database with one versioned table "items" (kInitialRows committed
// rows: k = i, v = i) and a live KISS index "items_by_k" on k.
std::unique_ptr<Database> MakeDb() {
  auto db = std::make_unique<Database>();
  auto table = std::make_unique<MvccTable>(ItemsSchema(), "items");
  TransactionManager& tm = db->txn_manager();
  Transaction txn = tm.Begin();
  for (int64_t i = 0; i < kInitialRows; ++i) {
    uint64_t row[2] = {SlotFromInt64(i), SlotFromInt64(i)};
    table->Insert(txn, row);
  }
  Timestamp ts = tm.BeginCommit();
  table->CommitTransaction(txn, ts);
  tm.FinishCommit(txn, ts);
  EXPECT_TRUE(db->AddVersionedTable(std::move(table)).ok());
  EXPECT_TRUE(db->BuildLiveIndex("items_by_k", "items", {"k"}).ok());
  return db;
}

// SELECT k, v FROM items WHERE k BETWEEN lo AND hi (via the live index).
Plan RangePlan(int64_t lo, int64_t hi) {
  SelectionSpec sel;
  sel.input_index = "items_by_k";
  sel.predicate = KeyPredicate::Range(lo, hi);
  sel.carry_columns = {"k", "v"};
  sel.output = {"out", {"k"}, {}};
  Plan plan;
  plan.Emplace<SelectionOp>(sel);
  plan.set_result_slot("out");
  return plan;
}

TEST(WriteSessionTest, CommitMakesRowsVisibleToNewQueries) {
  auto db = MakeDb();
  EngineRunner engine(EngineConfig{.threads = 1});

  WriteSession ws = engine.OpenWriteSession(db.get());
  uint64_t row[2] = {SlotFromInt64(1000), SlotFromInt64(7)};
  auto id = ws.Insert("items", row);
  ASSERT_TRUE(id.ok());

  // Uncommitted: a fresh query must not see k=1000.
  auto before = engine.Execute(*db, RangePlan(1000, 1000), PlanKnobs{});
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->rows.size(), 0u);

  auto ts = ws.Commit();
  ASSERT_TRUE(ts.ok());
  EXPECT_FALSE(ws.active());

  auto after = engine.Execute(*db, RangePlan(1000, 1000), PlanKnobs{});
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->rows.size(), 1u);
  EXPECT_EQ(after->rows[0][1], Value::Int(7));
  EXPECT_EQ(engine.write_stats().committed, 1u);
}

TEST(WriteSessionTest, PinnedSnapshotIgnoresLaterCommits) {
  auto db = MakeDb();
  EngineRunner engine(EngineConfig{.threads = 1});

  Timestamp before_ts = db->txn_manager().last_commit_ts();
  {
    WriteSession ws = engine.OpenWriteSession(db.get());
    uint64_t row[2] = {SlotFromInt64(2000), SlotFromInt64(1)};
    ASSERT_TRUE(ws.Insert("items", row).ok());
    ASSERT_TRUE(ws.Commit().ok());
  }

  // A query pinned BEFORE the commit misses the row; the default pin
  // (latest at admission) sees it.
  PlanKnobs pinned;
  pinned.read_ts = before_ts;
  auto old_snap = engine.Execute(*db, RangePlan(2000, 2000), pinned);
  ASSERT_TRUE(old_snap.ok());
  EXPECT_EQ(old_snap->rows.size(), 0u);

  PlanStats stats;
  auto latest = engine.Execute(*db, RangePlan(2000, 2000), PlanKnobs{},
                               &stats);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->rows.size(), 1u);
  EXPECT_EQ(stats.read_ts, before_ts + 1);
}

TEST(WriteSessionTest, UpdateReplacesRowInQueryResults) {
  auto db = MakeDb();
  EngineRunner engine(EngineConfig{.threads = 1});

  {
    WriteSession ws = engine.OpenWriteSession(db.get());
    uint64_t row[2] = {SlotFromInt64(3), SlotFromInt64(333)};
    ASSERT_TRUE(ws.Update("items", /*id=*/3, row).ok());
    ASSERT_TRUE(ws.Commit().ok());
  }

  // Both physical versions of k=3 are in the live index; only the new
  // one is visible.
  auto result = engine.Execute(*db, RangePlan(3, 3), PlanKnobs{});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][1], Value::Int(333));
}

TEST(WriteSessionTest, DeleteHidesRowFromQueries) {
  auto db = MakeDb();
  EngineRunner engine(EngineConfig{.threads = 1});

  {
    WriteSession ws = engine.OpenWriteSession(db.get());
    ASSERT_TRUE(ws.Delete("items", /*id=*/5).ok());
    ASSERT_TRUE(ws.Commit().ok());
  }
  auto result = engine.Execute(*db, RangePlan(5, 5), PlanKnobs{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 0u);

  // The full scan loses exactly that one row.
  auto all = engine.Execute(*db, RangePlan(0, kInitialRows - 1), PlanKnobs{});
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->rows.size(), static_cast<size_t>(kInitialRows - 1));
}

TEST(WriteSessionTest, AbortLeavesNoTrace) {
  auto db = MakeDb();
  EngineRunner engine(EngineConfig{.threads = 1});

  {
    WriteSession ws = engine.OpenWriteSession(db.get());
    uint64_t row[2] = {SlotFromInt64(4000), SlotFromInt64(1)};
    ASSERT_TRUE(ws.Insert("items", row).ok());
    uint64_t upd[2] = {SlotFromInt64(1), SlotFromInt64(111)};
    ASSERT_TRUE(ws.Update("items", /*id=*/1, upd).ok());
    ASSERT_TRUE(ws.Abort().ok());
  }
  // Destructor-abort path: session dropped while active.
  {
    WriteSession ws = engine.OpenWriteSession(db.get());
    uint64_t row[2] = {SlotFromInt64(4001), SlotFromInt64(1)};
    ASSERT_TRUE(ws.Insert("items", row).ok());
  }
  EXPECT_EQ(engine.write_stats().aborted, 2u);

  auto result = engine.Execute(*db, RangePlan(0, 5000), PlanKnobs{});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), static_cast<size_t>(kInitialRows));
  for (const auto& r : result->rows) {
    EXPECT_EQ(r[0], r[1]);  // k == v everywhere: the update never landed
  }
}

TEST(WriteSessionTest, FirstUpdaterWinsAcrossSessions) {
  auto db = MakeDb();
  EngineRunner engine(EngineConfig{.threads = 1});

  WriteSession first = engine.OpenWriteSession(db.get());
  WriteSession second = engine.OpenWriteSession(db.get());
  uint64_t row[2] = {SlotFromInt64(2), SlotFromInt64(222)};
  ASSERT_TRUE(first.Update("items", /*id=*/2, row).ok());
  EXPECT_EQ(second.Update("items", /*id=*/2, row).code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(first.Commit().ok());
  ASSERT_TRUE(second.Abort().ok());

  auto result = engine.Execute(*db, RangePlan(2, 2), PlanKnobs{});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][1], Value::Int(222));
}

TEST(WriteSessionTest, ReclaimRespectsInFlightSnapshots) {
  auto db = MakeDb();
  EngineRunner engine(EngineConfig{.threads = 1});

  for (int64_t i = 0; i < 10; ++i) {
    WriteSession ws = engine.OpenWriteSession(db.get());
    uint64_t row[2] = {SlotFromInt64(0), SlotFromInt64(100 + i)};
    ASSERT_TRUE(ws.Update("items", /*id=*/0, row).ok());
    ASSERT_TRUE(ws.Commit().ok());
  }
  // No query in flight: the horizon is the latest commit, so the 10
  // superseded versions of row 0 unlink.
  EXPECT_EQ(engine.ReclaimVersions(db.get()), 10u);
  EXPECT_EQ(engine.ReclaimVersions(db.get()), 0u);

  // Queries still read the surviving version.
  auto result = engine.Execute(*db, RangePlan(0, 0), PlanKnobs{});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][1], Value::Int(109));
}

// The write path reports into the global metrics registry (ISSUE 7):
// commit/abort/conflict counters, live-index upserts, version
// reclamation, and the version-chain-length histogram must all move
// when the corresponding MVCC events happen. Deltas, not absolutes —
// the registry is process-wide and other tests also write to it.
TEST(WriteSessionTest, HtapMetricsCountTheWorkload) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::MetricsSnapshot before = reg.Snapshot();

  auto db = MakeDb();
  EngineRunner engine(EngineConfig{.threads = 1});
  {
    WriteSession ws = engine.OpenWriteSession(db.get());
    uint64_t row[2] = {SlotFromInt64(9000), SlotFromInt64(1)};
    ASSERT_TRUE(ws.Insert("items", row).ok());
    ASSERT_TRUE(ws.Commit().ok());
  }
  {
    WriteSession first = engine.OpenWriteSession(db.get());
    WriteSession second = engine.OpenWriteSession(db.get());
    uint64_t row[2] = {SlotFromInt64(2), SlotFromInt64(222)};
    ASSERT_TRUE(first.Update("items", /*id=*/2, row).ok());
    EXPECT_EQ(second.Update("items", /*id=*/2, row).code(),
              StatusCode::kAlreadyExists);
    ASSERT_TRUE(first.Commit().ok());
    ASSERT_TRUE(second.Abort().ok());
  }
  size_t reclaimed = engine.ReclaimVersions(db.get());
  EXPECT_EQ(reclaimed, 1u);  // the superseded version of row 2

  obs::MetricsSnapshot after = reg.Snapshot();
  auto delta = [&](std::string_view name) {
    return after.CounterValue(name) - before.CounterValue(name);
  };
  EXPECT_EQ(delta("engine_txns_begun_total"), 3u);
  EXPECT_EQ(delta("engine_txns_committed_total"), 2u);
  EXPECT_EQ(delta("engine_txns_aborted_total"), 1u);
  EXPECT_EQ(delta("engine_first_updater_conflicts_total"), 1u);
  // Insert + update each published one row into the one live index.
  EXPECT_EQ(delta("engine_live_index_upserts_total"), 2u);
  EXPECT_EQ(delta("engine_versions_reclaimed_total"), 1u);

  const obs::MetricValue* publish = after.Find("engine_commit_publish_ms");
  ASSERT_NE(publish, nullptr);
  EXPECT_GE(publish->count, 2u);
  // The reclaim sweep walked every logical row's chain into the
  // histogram (ReclaimVersions observes chain lengths before unlinking).
  const obs::MetricValue* chains_b = before.Find("engine_version_chain_length");
  const obs::MetricValue* chains_a = after.Find("engine_version_chain_length");
  ASSERT_NE(chains_a, nullptr);
  uint64_t chains_before = chains_b != nullptr ? chains_b->count : 0;
  EXPECT_GE(chains_a->count - chains_before,
            static_cast<uint64_t>(kInitialRows));
}

// The HTAP race, end to end: one writer thread committing transactions
// (each inserts a batch AND updates row 0) while reader threads run OLAP
// selections through the engine. Every query's result must be exactly
// consistent with its pinned snapshot: commit number c (1-based) adds
// kBatch rows and sets row 0's v to c, so a snapshot at base_ts + c must
// see kInitialRows + c*kBatch rows and v(k=0) == c. TSan target.
TEST(WriteSessionTest, ConcurrentWritersAndSnapshotReaders) {
  auto db = MakeDb();
  EngineRunner engine(EngineConfig{.threads = 2});

  constexpr int64_t kCommits = 60;
  constexpr int64_t kBatch = 8;
  const Timestamp base_ts = db->txn_manager().last_commit_ts();

  std::atomic<bool> done{false};
  std::thread writer([&] {
    // Inner lambda so a failed ASSERT still reaches the done-store and
    // the readers terminate instead of spinning.
    [&] {
      for (int64_t c = 1; c <= kCommits; ++c) {
        WriteSession ws = engine.OpenWriteSession(db.get());
        for (int64_t j = 0; j < kBatch; ++j) {
          int64_t k = kInitialRows + (c - 1) * kBatch + j;
          uint64_t row[2] = {SlotFromInt64(k), SlotFromInt64(k)};
          ASSERT_TRUE(ws.Insert("items", row).ok());
        }
        uint64_t head[2] = {SlotFromInt64(0), SlotFromInt64(c)};
        ASSERT_TRUE(ws.Update("items", /*id=*/0, head).ok());
        ASSERT_TRUE(ws.Commit().ok());
      }
    }();
    done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      Plan scan = RangePlan(0, kInitialRows + kCommits * kBatch);
      while (!done.load(std::memory_order_acquire)) {
        PlanStats stats;
        auto result = engine.Execute(*db, scan, PlanKnobs{}, &stats);
        ASSERT_TRUE(result.ok());
        ASSERT_GE(stats.read_ts, base_ts);
        int64_t c = static_cast<int64_t>(stats.read_ts - base_ts);
        ASSERT_EQ(result->rows.size(),
                  static_cast<size_t>(kInitialRows + c * kBatch));
        // Row 0 tracks the commit counter exactly.
        bool found = false;
        for (const auto& row : result->rows) {
          if (row[0] == Value::Int(0)) {
            EXPECT_EQ(row[1], Value::Int(c));
            found = true;
            break;
          }
        }
        EXPECT_TRUE(found);
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();

  // Quiesced identity check: re-running at the final snapshot matches.
  PlanStats stats;
  auto final_result = engine.Execute(
      *db, RangePlan(0, kInitialRows + kCommits * kBatch), PlanKnobs{},
      &stats);
  ASSERT_TRUE(final_result.ok());
  EXPECT_EQ(stats.read_ts, base_ts + kCommits);
  EXPECT_EQ(final_result->rows.size(),
            static_cast<size_t>(kInitialRows + kCommits * kBatch));
  EXPECT_EQ(engine.write_stats().committed,
            static_cast<uint64_t>(kCommits));
}

// A live PREFIX index whose top moves at every commit, read by point and
// IN selections racing the writer. Commit c (1-based) inserts one key
// that diverges from every earlier key one fragment higher than the last
// did (1, 2, then 16^1 .. 16^15: in the order-preserving encoding each
// one parts from the others at the next nibble up), so the writer
// publishes a new top with each insert. A reader at snapshot base_ts + c
// must find exactly the keys of commits 1..c. TSan target.
TEST(WriteSessionTest, LivePrefixTopMovesUnderSnapshotReaders) {
  std::vector<int64_t> keys{1, 2};
  for (int nibble = 1; nibble <= 15; ++nibble) {
    keys.push_back(int64_t{1} << (4 * nibble));
  }
  for (int round = 0; round < 4; ++round) {
    auto db = std::make_unique<Database>();
    ASSERT_TRUE(db->AddVersionedTable(
                      std::make_unique<MvccTable>(ItemsSchema(), "items"))
                    .ok());
    TreeOptions opt;
    opt.prefer_kiss = false;
    ASSERT_TRUE(db->BuildLiveIndex("items_by_k", "items", {"k"}, opt).ok());
    EngineRunner engine(EngineConfig{.threads = 2});
    const Timestamp base_ts = db->txn_manager().last_commit_ts();
    auto run = [&](KeyPredicate predicate, PlanStats* stats) {
      SelectionSpec sel;
      sel.input_index = "items_by_k";
      sel.predicate = std::move(predicate);
      sel.carry_columns = {"k", "v"};
      sel.output = {"out", {"k"}, {}};
      Plan plan;
      plan.Emplace<SelectionOp>(sel);
      plan.set_result_slot("out");
      return engine.Execute(*db, plan, PlanKnobs{}, stats);
    };

    std::atomic<bool> done{false};
    std::thread writer([&] {
      [&] {
        for (size_t c = 1; c <= keys.size(); ++c) {
          WriteSession ws = engine.OpenWriteSession(db.get());
          uint64_t row[2] = {SlotFromInt64(keys[c - 1]),
                             SlotFromInt64(static_cast<int64_t>(c))};
          ASSERT_TRUE(ws.Insert("items", row).ok());
          ASSERT_TRUE(ws.Commit().ok());
        }
      }();
      done.store(true, std::memory_order_release);
    });
    std::vector<std::thread> readers;
    for (int r = 0; r < 3; ++r) {
      readers.emplace_back([&, r] {
        size_t probe = static_cast<size_t>(r);
        while (!done.load(std::memory_order_acquire)) {
          // A point read of one commit's key: visible iff committed.
          probe = (probe + 1) % keys.size();
          PlanStats stats;
          auto point = run(KeyPredicate::Point(keys[probe]), &stats);
          ASSERT_TRUE(point.ok()) << point.status();
          size_t c = static_cast<size_t>(stats.read_ts - base_ts);
          ASSERT_EQ(point->rows.size(), probe < c ? 1u : 0u)
              << "key " << keys[probe] << " at commit " << c;
          // IN over every commit's key: exactly commits 1..c.
          auto in = run(KeyPredicate::In(keys), &stats);
          ASSERT_TRUE(in.ok()) << in.status();
          c = static_cast<size_t>(stats.read_ts - base_ts);
          ASSERT_EQ(in->rows.size(), c);
          for (const auto& row : in->rows) {
            const int64_t v = row[1].AsInt();
            ASSERT_GE(v, 1);
            ASSERT_LE(static_cast<size_t>(v), c);
            EXPECT_EQ(row[0], Value::Int(keys[static_cast<size_t>(v) - 1]));
          }
        }
      });
    }
    writer.join();
    for (auto& t : readers) t.join();
    PlanStats stats;
    auto all = run(KeyPredicate::In(keys), &stats);
    ASSERT_TRUE(all.ok()) << all.status();
    EXPECT_EQ(stats.read_ts, base_ts + keys.size());
    EXPECT_EQ(all->rows.size(), keys.size());
  }
}

// ---- RetryTxn -----------------------------------------------------------

// v of logical row `id` in `ws`'s snapshot (through its own writes).
Result<int64_t> ReadV(const Database& db, const WriteSession& ws,
                      MvccTable::LogicalId id) {
  QPPT_ASSIGN_OR_RETURN(std::optional<Rid> rid, ws.Read("items", id));
  if (!rid) return Status::NotFound("row not visible");
  QPPT_ASSIGN_OR_RETURN(const MvccTable* table, db.versioned_table("items"));
  return Int64FromSlot(table->storage().GetSlot(*rid, 1));
}

int64_t CommittedV(EngineRunner& engine, const Database& db, int64_t k) {
  auto result = engine.Execute(db, RangePlan(k, k), PlanKnobs{});
  EXPECT_TRUE(result.ok()) << result.status();
  if (!result.ok() || result->rows.size() != 1) return -1;
  return result->rows[0][1].AsInt();
}

// A rival commits the row between the first attempt's read and its
// update: that update loses first-updater-wins, and the retry re-reads
// the rival's value, so the increment is not lost.
TEST(RetryTxnTest, ConflictInFirstAttemptRetriesOnceWithoutLostUpdate) {
  auto db = MakeDb();
  EngineRunner engine(EngineConfig{.threads = 1});
  int attempts = 0;
  Status st = engine::RetryTxn(
      &engine, db.get(), [&](WriteSession& ws) -> Status {
        ++attempts;
        QPPT_ASSIGN_OR_RETURN(int64_t v, ReadV(*db, ws, 2));
        if (attempts == 1) {
          WriteSession rival = engine.OpenWriteSession(db.get());
          uint64_t row[2] = {SlotFromInt64(2), SlotFromInt64(500)};
          QPPT_RETURN_NOT_OK(rival.Update("items", /*id=*/2, row));
          QPPT_RETURN_NOT_OK(rival.Commit().status());
        }
        uint64_t row[2] = {SlotFromInt64(2), SlotFromInt64(v + 1)};
        return ws.Update("items", /*id=*/2, row);
      });
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(engine.write_stats().retries, 1u);
  EXPECT_EQ(CommittedV(engine, *db, 2), 501);
}

TEST(RetryTxnTest, NonConflictErrorReturnsAfterOneAttempt) {
  auto db = MakeDb();
  EngineRunner engine(EngineConfig{.threads = 1});
  int attempts = 0;
  Status st = engine::RetryTxn(
      &engine, db.get(), [&](WriteSession& ws) -> Status {
        ++attempts;
        uint64_t row[2] = {SlotFromInt64(3), SlotFromInt64(0)};
        QPPT_RETURN_NOT_OK(ws.Update("items", /*id=*/3, row));
        return Status::InvalidArgument("rejected by the client");
      });
  EXPECT_TRUE(st.IsInvalidArgument()) << st;
  EXPECT_EQ(attempts, 1);
  EXPECT_EQ(engine.write_stats().retries, 0u);
  EXPECT_EQ(engine.write_stats().aborted, 1u);
  EXPECT_EQ(CommittedV(engine, *db, 3), 3);  // the update never landed
}

// Another session's uncommitted write holds the row through every
// attempt: the call gives up after max_attempts with the conflict.
TEST(RetryTxnTest, HeldRowExhaustsAttempts) {
  auto db = MakeDb();
  EngineRunner engine(EngineConfig{.threads = 1});
  WriteSession holder = engine.OpenWriteSession(db.get());
  uint64_t held[2] = {SlotFromInt64(4), SlotFromInt64(44)};
  ASSERT_TRUE(holder.Update("items", /*id=*/4, held).ok());

  engine::RetryOptions opts;
  opts.max_attempts = 3;
  int attempts = 0;
  Status st = engine::RetryTxn(
      &engine, db.get(),
      [&](WriteSession& ws) -> Status {
        ++attempts;
        uint64_t row[2] = {SlotFromInt64(4), SlotFromInt64(45)};
        return ws.Update("items", /*id=*/4, row);
      },
      opts);
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists) << st;
  EXPECT_EQ(attempts, opts.max_attempts);
  EXPECT_EQ(engine.write_stats().retries,
            static_cast<uint64_t>(opts.max_attempts - 1));
  ASSERT_TRUE(holder.Abort().ok());
  EXPECT_EQ(CommittedV(engine, *db, 4), 4);
}

}  // namespace
}  // namespace qppt
