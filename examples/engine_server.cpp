// engine_server — the engine layer as an in-process "database server".
//
// Simulates the deployment the engine was built for: one EngineRunner
// (fixed morsel worker pool) admitting a mixed workload from several
// client threads at once —
//   * OLAP clients running *prepared* SSB queries through the runner
//     (planned once at startup, cached plans shared across clients), and
//   * lookup clients hammering point/range reads against a materialized
//     indexed table, answered by batched shared synchronous scans.
//
// After the workload the materialized table's read batcher is evicted
// with ReleaseReads — the pattern for serving reads from short-lived
// intermediates.
//
// Usage: ./engine_server [scale_factor] [workers] [clients]
//        (defaults: 0.05, hardware threads, 4)
// Exits 1, naming the failing Status, when any client's query or read
// fails.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/parallel.h"
#include "core/query/planner.h"
#include "core/query/query_spec.h"
#include "engine/session.h"
#include "obs/metrics.h"
#include "ssb/dbgen.h"
#include "ssb/queries_qppt.h"

using namespace qppt;

int main(int argc, char** argv) {
  double sf = argc > 1 ? std::atof(argv[1]) : 0.05;
  size_t workers = argc > 2 ? static_cast<size_t>(std::atoi(argv[2]))
                            : std::thread::hardware_concurrency();
  size_t clients = argc > 3 ? static_cast<size_t>(std::atoi(argv[3])) : 4;

  std::printf("generating SSB data at SF=%.2f ...\n", sf);
  ssb::SsbConfig cfg;
  cfg.scale_factor = sf;
  cfg.seed = 7;
  auto data_or = ssb::Generate(cfg);
  if (!data_or.ok()) {
    std::fprintf(stderr, "%s\n", data_or.status().ToString().c_str());
    return 1;
  }
  auto data = std::move(data_or).value();

  engine::EngineConfig engine_cfg;
  engine_cfg.threads = workers;
  engine::EngineRunner runner(engine_cfg);
  std::printf("engine up: %zu morsel workers, %zu clients\n",
              runner.threads(), clients);

  // Materialize a lineorder slice keyed on lo_orderdate once — a
  // dimension-free query spec (full scan, indexed by day); the lookup
  // clients then serve "order activity on day X" reads from it.
  query::QueryBuilder mb("server.by_date");
  mb.From("lineorder")
      .FactIndex("lo_discount")
      .FactColumns({"lo_orderdate", "lo_extendedprice"})
      .GroupBy({"lo_orderdate"})
      .ResultSlot("by_date");
  auto mat_plan = query::PlanQuery(data->db, std::move(mb).Build(),
                                   PlanKnobs{});
  if (!mat_plan.ok()) {
    std::fprintf(stderr, "%s\n", mat_plan.status().ToString().c_str());
    return 1;
  }
  ExecContext mat_ctx(&data->db);
  if (auto st = mat_plan->Run(&mat_ctx); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  const IndexedTable* by_date = mat_ctx.Get("by_date").value();
  std::printf("materialized by_date: %zu tuples, %zu distinct days\n\n",
              by_date->num_tuples(), by_date->num_keys());

  // Prepare the OLAP flight once; every client executes the shared
  // cached plans (no replanning on the hot path).
  const std::vector<std::string> olap_ids = {"1.1", "2.1", "3.1", "4.1"};
  std::vector<engine::PreparedQuery> prepared;
  for (const auto& id : olap_ids) {
    auto spec = ssb::BuildQuerySpec(*data, id);
    if (!spec.ok()) {
      std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
      return 1;
    }
    auto p = runner.Prepare(data->db, std::move(spec).value());
    if (!p.ok()) {
      std::fprintf(stderr, "%s\n", p.status().ToString().c_str());
      return 1;
    }
    prepared.push_back(std::move(p).value());
  }

  // Mixed workload: even client ids run OLAP flights, odd ids run lookups.
  // A client stops at its first failed query or read and records why.
  ForkJoin fork(clients);
  std::vector<std::string> reports(clients);
  std::vector<Status> failures(clients);
  for (size_t c = 0; c < clients; ++c) {
    fork.Spawn([&, c] {
      char buf[160];
      if (c % 2 == 0) {
        for (size_t q = 0; q < olap_ids.size(); ++q) {
          const std::string& id = olap_ids[q];
          PlanStats stats;
          auto result = runner.Execute(prepared[q], {}, PlanKnobs{}, &stats);
          if (!result.ok()) {
            failures[c] = result.status();
            return;
          }
          std::snprintf(buf, sizeof(buf),
                        "  client %zu: Q%s -> %4zu rows  %7.2f ms  "
                        "%3llu morsels\n",
                        c, id.c_str(), result->rows.size(), stats.wall_ms,
                        static_cast<unsigned long long>(stats.TotalMorsels()));
          reports[c] += buf;
        }
      } else {
        uint64_t hits = 0;
        size_t reads = 400;
        for (size_t i = 0; i < reads; ++i) {
          // A valid d_datekey: y*10000 + m*100 + d in the SSB domain.
          int64_t day = (1992 + static_cast<int64_t>(i % 7)) * 10000 +
                        (1 + static_cast<int64_t>((i / 7) % 12)) * 100 +
                        (1 + static_cast<int64_t>((c + i) % 28));
          auto ids = runner.PointRead(*by_date, day);
          if (!ids.ok()) {
            failures[c] = ids.status();
            return;
          }
          hits += ids->size();
        }
        std::snprintf(buf, sizeof(buf),
                      "  client %zu: %zu point reads -> %llu order rows\n",
                      c, reads, static_cast<unsigned long long>(hits));
        reports[c] += buf;
      }
    });
  }
  fork.Join();

  std::printf("workload report:\n");
  for (const auto& r : reports) std::printf("%s", r.c_str());
  auto rs = runner.read_stats();
  uint64_t cache_hits = 0;
  for (const auto& p : prepared) cache_hits += p.plan_cache_hits();
  std::printf("\nengine totals: %llu queries admitted (%llu plan-cache "
              "hits), %llu reads answered by %llu shared scans "
              "(%.1f reads/scan)\n",
              static_cast<unsigned long long>(runner.queries_admitted()),
              static_cast<unsigned long long>(cache_hits),
              static_cast<unsigned long long>(rs.reads),
              static_cast<unsigned long long>(rs.shared_scans),
              rs.shared_scans > 0 ? static_cast<double>(rs.batched_keys) /
                                        static_cast<double>(rs.shared_scans)
                                  : 0.0);

  // The same numbers (and much more: steal counts, admission waits,
  // per-worker busy time) are in the global metrics registry — dump the
  // Prometheus-text view a scrape endpoint would serve.
  std::printf("\nmetrics snapshot:\n%s",
              obs::MetricsRegistry::Global().Snapshot()
                  .ToPrometheusText().c_str());

  // by_date is about to go out of scope with mat_ctx: evict its read
  // batcher so the runner holds no dangling table reference.
  runner.ReleaseReads(*by_date);

  int exit_code = 0;
  for (size_t c = 0; c < clients; ++c) {
    if (failures[c].ok()) continue;
    std::fprintf(stderr, "client %zu failed: %s\n", c,
                 failures[c].ToString().c_str());
    exit_code = 1;
  }
  return exit_code;
}
