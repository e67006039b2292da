// Mixed HTAP workload: a sustained OLTP upsert stream through engine
// write sessions racing the 13-query SSB OLAP flight over a *versioned*
// lineorder table (SsbConfig::versioned_lineorder) with live fact
// indexes.
//
// Phases:
//
//  1. quiesced — the flight with no writers, the OLAP baseline.
//
//  2. mixed — QPPT_HTAP_WRITERS writer threads loop transactions (each
//     inserts a batch of fresh lineorder rows cloned-and-perturbed from
//     committed ones, then updates a few existing logical rows) while
//     QPPT_ENGINE_CLIENTS client threads run the flight through the same
//     runner. Every query records the snapshot it was pinned to
//     (PlanStats::read_ts) and its full result.
//
//  3. identity check — writers quiesced, every mixed-phase query is
//     re-run with knobs.read_ts pinned to its recorded snapshot; the
//     rows must match EXACTLY. This is the snapshot-consistency
//     acceptance gate: a query that raced 100 commits returns the same
//     result as the engine at rest reading that timestamp.
//
//  4. reclaim — EngineRunner::ReclaimVersions sweeps the superseded
//     version-chain tails (runs after the identity check, which still
//     needs the old versions reachable).
//
// `--json` emits BENCH_engine_htap.json (path overridable with
// QPPT_BENCH_JSON_PATH).
//
// Knobs: QPPT_SSB_SF (default 0.1), QPPT_ENGINE_THREADS (default
//        hardware_concurrency), QPPT_ENGINE_CLIENTS (default 2),
//        QPPT_BENCH_REPS (default 3), QPPT_HTAP_WRITERS (default 1),
//        QPPT_HTAP_INSERTS (default 8/txn), QPPT_HTAP_UPDATES
//        (default 4/txn), QPPT_PREFER_KISS (default 1).

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "engine/retry.h"
#include "engine/session.h"
#include "engine/write_session.h"
#include "ssb/queries_qppt.h"

namespace qppt {
namespace {

std::unique_ptr<ssb::SsbData> LoadVersionedSsb() {
  ssb::SsbConfig cfg;
  cfg.scale_factor = bench::SsbScaleFactor();
  cfg.seed = 42;
  cfg.prefer_kiss = GetEnvInt64("QPPT_PREFER_KISS", 1) != 0;
  cfg.versioned_lineorder = true;
  auto data = ssb::Generate(cfg);
  if (!data.ok()) {
    std::fprintf(stderr, "SSB generation failed: %s\n",
                 data.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(data).value();
}

struct RecordedQuery {
  std::string id;
  Timestamp read_ts = 0;
  std::vector<std::vector<Value>> rows;
};

struct FlightResult {
  double wall_ms = 0;
  uint64_t morsels = 0;
  size_t queries = 0;
  bench::LatencyRecorder lat;
  std::vector<RecordedQuery> recorded;
};

FlightResult RunFlight(engine::EngineRunner& runner, const ssb::SsbData& data,
                       const PlanKnobs& knobs, bool record) {
  FlightResult r;
  Timer wall;
  for (const auto& id : ssb::AllQueryIds()) {
    PlanStats stats;
    auto result = ssb::RunQppt(runner, data, id, knobs, &stats);
    if (!result.ok()) {
      std::fprintf(stderr, "Q%s failed: %s\n", id.c_str(),
                   result.status().ToString().c_str());
      std::exit(1);
    }
    r.lat.Add(stats.wall_ms);
    r.morsels += stats.TotalMorsels();
    ++r.queries;
    if (record) {
      r.recorded.push_back({id, stats.read_ts, std::move(result->rows)});
    }
  }
  r.wall_ms = wall.ElapsedMs();
  return r;
}

// One writer thread: loops upsert transactions until `stop`. Inserted
// rows are committed lineorder rows re-sampled with fresh quantity /
// discount / price (valid dimension keys for free); updates rewrite an
// existing logical row the same way. Write-write conflicts (possible
// with several writers) abort the transaction and retry with new ids.
void WriterLoop(engine::EngineRunner& runner, ssb::SsbData& data,
                size_t inserts, size_t updates, uint64_t seed,
                const std::atomic<bool>& stop, std::atomic<uint64_t>& commits,
                std::atomic<uint64_t>& aborts, std::atomic<uint64_t>& rows) {
  MvccTable& lineorder = **data.db.versioned_table("lineorder");
  const RowTable& storage = lineorder.storage();
  const size_t initial = lineorder.num_logical_rows();
  const size_t width = storage.schema().num_columns();
  std::mt19937_64 rng(seed);
  std::vector<uint64_t> row(width);

  auto fill_from = [&](size_t rid) {
    for (size_t c = 0; c < width; ++c) row[c] = storage.GetSlot(rid, c);
    int64_t quantity = 1 + static_cast<int64_t>(rng() % 50);
    int64_t discount = static_cast<int64_t>(rng() % 11);
    int64_t extendedprice = 90000 + static_cast<int64_t>(rng() % 1000000);
    row[4] = SlotFromInt64(quantity);
    row[5] = SlotFromInt64(extendedprice);
    row[6] = SlotFromInt64(discount);
    row[7] = SlotFromInt64(extendedprice * (100 - discount) / 100);
  };

  while (!stop.load(std::memory_order_acquire)) {
    // First-updater-wins conflicts (AlreadyExists) abort the whole
    // transaction; RetryTxn re-runs it with jittered backoff, and the
    // closure re-draws its ids so every attempt targets fresh rows.
    engine::RetryOptions backoff;
    backoff.seed = rng();
    Status st = engine::RetryTxn(
        &runner, &data.db,
        [&](engine::WriteSession& ws) -> Status {
          for (size_t i = 0; i < inserts; ++i) {
            fill_from(rng() % initial);
            QPPT_RETURN_NOT_OK(ws.Insert("lineorder", row).status());
          }
          for (size_t u = 0; u < updates; ++u) {
            MvccTable::LogicalId id = rng() % initial;
            fill_from(id);
            QPPT_RETURN_NOT_OK(ws.Update("lineorder", id, row));
          }
          return Status::OK();
        },
        backoff);
    if (st.ok()) {
      commits.fetch_add(1, std::memory_order_relaxed);
      rows.fetch_add(inserts + updates, std::memory_order_relaxed);
    } else {
      aborts.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void Run(bench::JsonReport& json) {
  size_t threads = bench::EngineThreads();
  size_t clients =
      static_cast<size_t>(GetEnvInt64("QPPT_ENGINE_CLIENTS", 2));
  size_t writers = static_cast<size_t>(GetEnvInt64("QPPT_HTAP_WRITERS", 1));
  size_t inserts = static_cast<size_t>(GetEnvInt64("QPPT_HTAP_INSERTS", 8));
  size_t updates = static_cast<size_t>(GetEnvInt64("QPPT_HTAP_UPDATES", 4));
  int reps = bench::Repetitions();
  auto data = LoadVersionedSsb();
  PlanKnobs knobs;
  knobs.table_options.prefer_kiss = GetEnvInt64("QPPT_PREFER_KISS", 1) != 0;

  engine::EngineConfig cfg;
  cfg.threads = threads;
  engine::EngineRunner runner(cfg);
  threads = runner.threads();  // post-clamp
  std::printf(
      "engine HTAP: SSB SF=%.2f (versioned lineorder), %zu workers, "
      "%zu OLAP clients, %zu writers (%zu ins + %zu upd per txn), %d reps\n",
      bench::SsbScaleFactor(), threads, clients, writers, inserts, updates,
      reps);
  bench::PrintThroughputHeader();
  std::string tlabel = "t=" + std::to_string(threads);

  // ---- phase 1: quiesced OLAP baseline -----------------------------------
  RunFlight(runner, *data, knobs, false);  // warm-up
  FlightResult quiesced;
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    FlightResult r = RunFlight(runner, *data, knobs, false);
    if (r.wall_ms < best) {
      best = r.wall_ms;
      quiesced = std::move(r);
    }
  }
  bench::PrintThroughputRow("olap-quiesced", tlabel, quiesced.queries,
                            quiesced.wall_ms, quiesced.lat, quiesced.morsels);
  json.Add({"olap-quiesced", tlabel, "", threads, quiesced.queries,
            quiesced.wall_ms,
            1000.0 * static_cast<double>(quiesced.queries) / quiesced.wall_ms,
            quiesced.lat.Percentile(50), quiesced.lat.Percentile(99),
            quiesced.morsels, 0});

  // ---- phase 2: mixed — upsert stream vs concurrent flights --------------
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> commits{0};
  std::atomic<uint64_t> aborts{0};
  std::atomic<uint64_t> upserted{0};
  std::vector<std::thread> writer_threads;
  for (size_t w = 0; w < writers; ++w) {
    writer_threads.emplace_back([&, w] {
      WriterLoop(runner, *data, inserts, updates, /*seed=*/7u + w, stop,
                 commits, aborts, upserted);
    });
  }

  std::mutex mu;
  bench::LatencyRecorder mixed_lat;
  uint64_t mixed_morsels = 0;
  size_t mixed_queries = 0;
  std::vector<RecordedQuery> recorded;
  Timer mixed_wall;
  std::vector<std::thread> client_threads;
  for (size_t c = 0; c < clients; ++c) {
    client_threads.emplace_back([&] {
      for (int rep = 0; rep < reps; ++rep) {
        FlightResult r = RunFlight(runner, *data, knobs, true);
        std::lock_guard<std::mutex> lock(mu);
        mixed_lat.Merge(r.lat);
        mixed_morsels += r.morsels;
        mixed_queries += r.queries;
        for (auto& q : r.recorded) recorded.push_back(std::move(q));
      }
    });
  }
  for (auto& t : client_threads) t.join();
  double mixed_ms = mixed_wall.ElapsedMs();
  stop.store(true, std::memory_order_release);
  for (auto& t : writer_threads) t.join();

  std::string mlabel = "c=" + std::to_string(clients) + ",w=" +
                       std::to_string(writers) + "," + tlabel;
  bench::PrintThroughputRow("olap-mixed", mlabel, mixed_queries, mixed_ms,
                            mixed_lat, mixed_morsels);
  json.Add({"olap-mixed", mlabel, "", threads, mixed_queries, mixed_ms,
            1000.0 * static_cast<double>(mixed_queries) / mixed_ms,
            mixed_lat.Percentile(50), mixed_lat.Percentile(99), mixed_morsels,
            0});
  double txn_s = 1000.0 * static_cast<double>(commits.load()) / mixed_ms;
  engine::EngineRunner::WriteStats wstats = runner.write_stats();
  std::printf(
      "(oltp stream: %llu txns committed (%llu aborted, %llu conflict "
      "retries), %.0f txn/s, %llu rows upserted)\n",
      static_cast<unsigned long long>(commits.load()),
      static_cast<unsigned long long>(aborts.load()),
      static_cast<unsigned long long>(wstats.retries), txn_s,
      static_cast<unsigned long long>(upserted.load()));
  // Upserted rows and conflict retries stay in the text line above: the
  // row's morsels and merge_wall_ms columns do not measure them.
  json.Add({"oltp", mlabel, "", threads, commits.load(), mixed_ms, txn_s, 0,
            0, 0, 0});

  // ---- phase 3: snapshot-consistency identity check ----------------------
  // Writers are quiesced; superseded versions are still reachable (the
  // reclaim sweep runs AFTER this). Every mixed-phase result must equal
  // the engine at rest reading the same pinned timestamp.
  size_t checked = 0;
  size_t mismatched = 0;
  for (const auto& q : recorded) {
    PlanKnobs pinned = knobs;
    pinned.read_ts = q.read_ts;
    auto replay = ssb::RunQppt(runner, *data, q.id, pinned);
    if (!replay.ok()) {
      std::fprintf(stderr, "replay of Q%s @ts=%llu failed: %s\n",
                   q.id.c_str(),
                   static_cast<unsigned long long>(q.read_ts),
                   replay.status().ToString().c_str());
      std::exit(1);
    }
    ++checked;
    if (replay->rows != q.rows) {
      ++mismatched;
      std::fprintf(stderr,
                   "SNAPSHOT MISMATCH: Q%s @ts=%llu (%zu rows live, %zu "
                   "rows replayed)\n",
                   q.id.c_str(),
                   static_cast<unsigned long long>(q.read_ts), q.rows.size(),
                   replay->rows.size());
    }
  }
  std::printf("(snapshot identity: %zu/%zu mixed-phase queries match their "
              "quiesced replay)\n",
              checked - mismatched, checked);
  json.Add({"identity",
            mismatched == 0 ? "match" : "MISMATCH", "", threads, checked, 0,
            0, 0, 0, mismatched, 0});

  // ---- phase 4: version reclamation --------------------------------------
  size_t reclaimed = runner.ReclaimVersions(&data->db);
  std::printf("(reclaimed %zu superseded versions)\n", reclaimed);
  json.Add({"reclaim", tlabel, "", threads, reclaimed, 0, 0, 0, 0, 0, 0});

  if (mismatched != 0) std::exit(1);
}

}  // namespace
}  // namespace qppt

int main(int argc, char** argv) {
  qppt::bench::JsonReport json(argc, argv, "BENCH_engine_htap.json");
  qppt::Run(json);
  return 0;
}
