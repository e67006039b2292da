// Engine throughput: the SSB QPPT query flight through the morsel engine.
//
// Three experiments, all in the shared row format (bench_common.h):
//
//  1. flight — the 13-query SSB flight run back-to-back by ONE client,
//     once on a serial EngineRunner (threads=1) and once on a parallel
//     one (threads=QPPT_ENGINE_THREADS, default hardware_concurrency;
//     higher requests are clamped by the runner). The speedup line at
//     the end is the intra-query morsel-parallelism payoff (ISSUE 2
//     acceptance: >= 3x at 8 workers on an 8-core machine).
//
//  2. closed-loop — QPPT_ENGINE_CLIENTS concurrent client threads, each
//     looping the flight against the SAME parallel runner for
//     QPPT_BENCH_REPS rounds, no think time. Reports aggregate
//     queries/sec and per-query p50/p99 latency — the multi-query
//     admission story.
//
//  3. prepared vs replanned — the flight once through the ad-hoc path
//     (BuildQuerySpec + PlanQuery per execution) and once through
//     EngineRunner::Prepare handles (plan compiled once, cached, shared).
//     Prepared execution must be no slower than replanning (ISSUE 3
//     acceptance); the plan-cache hit count is reported.
//
// `--json` additionally emits BENCH_engine.json rows — per-query
// (query, threads, wall, morsels, merge_wall) for the flight plus the
// aggregate rows — so the perf trajectory is machine-readable across
// PRs (bench_common.h JsonReport).
//
//  4. deadline — the flight again on the parallel runner, every query
//     carrying a deadline (`--deadline-ms=<x>` / QPPT_DEADLINE_MS,
//     default 60000). The generous default completes every query and so
//     measures the pure cost of the cancellation machinery — the
//     morsel-boundary polls and serial-loop ticks — against experiment
//     1's undeadlined flight (ISSUE 9 acceptance: within noise). A
//     tight value instead counts prompt DeadlineExceeded returns;
//     expired queries are reported, not fatal. 0 disables the flight.
//
// Knobs: QPPT_SSB_SF (default 0.1), QPPT_ENGINE_THREADS (default
//        hardware_concurrency), QPPT_ENGINE_CLIENTS (default 4),
//        QPPT_BENCH_REPS (default 3), QPPT_PREFER_KISS (default 1; 0
//        builds prefix-tree base indexes and intermediates, exercising
//        the prefix/mixed star-join paths), QPPT_DEADLINE_MS (above).
//
// Tracing: QPPT_TRACE_QUERY=4.1 additionally runs that one query with
// PlanKnobs::trace enabled on the parallel runner and writes its
// chrome://tracing timeline to QPPT_TRACE_PATH (default
// TRACE_Q<id>.json) — CI uploads it as an artifact.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/parallel.h"
#include "engine/session.h"
#include "obs/trace.h"
#include "ssb/queries_qppt.h"

namespace qppt {
namespace {

struct QueryRow {
  std::string id;
  double wall_ms = 0;
  uint64_t morsels = 0;
  double merge_ms = 0;
};

struct FlightResult {
  double wall_ms = 0;
  uint64_t morsels = 0;
  double merge_ms = 0;
  bench::LatencyRecorder lat;
  size_t queries = 0;
  std::vector<QueryRow> rows;
};

// One pass over all 13 queries on `runner`.
FlightResult RunFlight(engine::EngineRunner& runner, const ssb::SsbData& data,
                       const PlanKnobs& knobs) {
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
    r.merge_ms += stats.TotalMergeMs();
    r.rows.push_back(
        {id, stats.wall_ms, stats.TotalMorsels(), stats.TotalMergeMs()});
    ++r.queries;
  }
  r.wall_ms = wall.ElapsedMs();
  return r;
}

void Run(bench::JsonReport& json, double deadline_ms) {
  size_t threads = bench::EngineThreads();
  size_t clients = static_cast<size_t>(GetEnvInt64("QPPT_ENGINE_CLIENTS", 4));
  int reps = bench::Repetitions();
  auto data = bench::LoadSsb();
  PlanKnobs knobs;
  knobs.table_options.prefer_kiss =
      GetEnvInt64("QPPT_PREFER_KISS", 1) != 0;

  std::printf("engine throughput: SSB SF=%.2f, %zu workers, %zu clients, "
              "%d reps\n",
              bench::SsbScaleFactor(), threads, clients, reps);
  bench::PrintThroughputHeader();

  // ---- experiment 1: single-client flight, serial vs parallel ------------
  double flight_ms[2] = {0, 0};
  size_t actual_threads[2] = {1, threads};
  size_t config_threads[2] = {1, threads};
  for (int c = 0; c < 2; ++c) {
    engine::EngineConfig cfg;
    cfg.threads = config_threads[c];
    engine::EngineRunner runner(cfg);
    actual_threads[c] = runner.threads();  // post-clamp
    if (c == 1 && actual_threads[1] == 1) {
      // Clamped to one thread: the t=1 flight above already measured it.
      flight_ms[1] = flight_ms[0];
      break;
    }
    std::string label = "t=" + std::to_string(actual_threads[c]);
    FlightResult best;
    double best_ms = 1e300;
    for (int rep = 0; rep < reps; ++rep) {
      FlightResult r = RunFlight(runner, *data, knobs);
      if (r.wall_ms < best_ms) {
        best_ms = r.wall_ms;
        best = r;
      }
    }
    flight_ms[c] = best_ms;
    bench::PrintThroughputRow("flight", label, best.queries, best.wall_ms,
                              best.lat, best.morsels);
    for (const auto& q : best.rows) {
      json.Add({"flight", label, q.id, actual_threads[c], 1, q.wall_ms, 0,
                0, 0, q.morsels, q.merge_ms});
    }
    json.Add({"flight", label, "", actual_threads[c], best.queries,
              best.wall_ms,
              best.wall_ms > 0
                  ? 1000.0 * static_cast<double>(best.queries) / best.wall_ms
                  : 0,
              best.lat.Percentile(50), best.lat.Percentile(99), best.morsels,
              best.merge_ms});
  }
  if (actual_threads[1] > 1) {
    std::printf("(flight speedup: %.2fx at t=%zu over t=1)\n",
                flight_ms[0] / flight_ms[1], actual_threads[1]);
  }

  // ---- experiment 4 (interleaved here so the undeadlined flight above is
  // the freshest comparison point): the flight under per-query deadlines.
  if (deadline_ms > 0) {
    engine::EngineConfig cfg;
    cfg.threads = threads;
    engine::EngineRunner runner(cfg);
    PlanKnobs timed = knobs;
    timed.deadline_ms = deadline_ms;
    RunFlight(runner, *data, knobs);  // warm-up

    FlightResult best;
    double best_ms = 1e300;
    size_t expired = 0;
    for (int rep = 0; rep < reps; ++rep) {
      FlightResult r;
      size_t rep_expired = 0;
      Timer wall;
      for (const auto& id : ssb::AllQueryIds()) {
        PlanStats stats;
        auto result = ssb::RunQppt(runner, *data, id, timed, &stats);
        if (!result.ok()) {
          if (result.status().IsDeadlineExceeded()) {
            ++rep_expired;
            continue;
          }
          std::fprintf(stderr, "deadline flight Q%s failed: %s\n",
                       id.c_str(), result.status().ToString().c_str());
          std::exit(1);
        }
        r.lat.Add(stats.wall_ms);
        r.morsels += stats.TotalMorsels();
        r.merge_ms += stats.TotalMergeMs();
        r.rows.push_back(
            {id, stats.wall_ms, stats.TotalMorsels(), stats.TotalMergeMs()});
        ++r.queries;
      }
      r.wall_ms = wall.ElapsedMs();
      if (r.wall_ms < best_ms) {
        best_ms = r.wall_ms;
        best = r;
        expired = rep_expired;
      }
    }
    char label[64];
    std::snprintf(label, sizeof(label), "t=%zu,dl=%gms", runner.threads(),
                  deadline_ms);
    bench::PrintThroughputRow("deadline", label, best.queries, best.wall_ms,
                              best.lat, best.morsels);
    for (const auto& q : best.rows) {
      json.Add({"deadline", label, q.id, runner.threads(), 1, q.wall_ms, 0,
                0, 0, q.morsels, q.merge_ms});
    }
    json.Add({"deadline", label, "", runner.threads(), best.queries,
              best.wall_ms,
              best.wall_ms > 0
                  ? 1000.0 * static_cast<double>(best.queries) / best.wall_ms
                  : 0,
              best.lat.Percentile(50), best.lat.Percentile(99), best.morsels,
              best.merge_ms});
    if (expired > 0) {
      std::printf("(deadline flight: %zu of %zu queries exceeded %g ms)\n",
                  expired, ssb::AllQueryIds().size(), deadline_ms);
    } else if (flight_ms[1] > 0) {
      std::printf("(deadline overhead: %.3fx vs the undeadlined flight)\n",
                  best_ms / flight_ms[1]);
    }
  }

  // ---- experiment 2: closed-loop concurrent clients ----------------------
  {
    engine::EngineConfig cfg;
    cfg.threads = threads;
    engine::EngineRunner runner(cfg);
    RunFlight(runner, *data, knobs);  // warm-up

    std::mutex mu;
    bench::LatencyRecorder all_lat;
    uint64_t all_morsels = 0;
    double all_merge_ms = 0;
    size_t all_queries = 0;
    Timer wall;
    ForkJoin fork(clients);
    for (size_t c = 0; c < clients; ++c) {
      fork.Spawn([&] {
        bench::LatencyRecorder lat;
        uint64_t morsels = 0;
        double merge_ms = 0;
        size_t queries = 0;
        for (int rep = 0; rep < reps; ++rep) {
          for (const auto& id : ssb::AllQueryIds()) {
            PlanStats stats;
            auto result = ssb::RunQppt(runner, *data, id, knobs, &stats);
            if (!result.ok()) std::exit(1);
            lat.Add(stats.wall_ms);
            morsels += stats.TotalMorsels();
            merge_ms += stats.TotalMergeMs();
            ++queries;
          }
        }
        std::lock_guard<std::mutex> lock(mu);
        all_lat.Merge(lat);
        all_morsels += morsels;
        all_merge_ms += merge_ms;
        all_queries += queries;
      });
    }
    fork.Join();
    double ms = wall.ElapsedMs();
    std::string label = "c=" + std::to_string(clients) + ",t=" +
                        std::to_string(runner.threads());
    bench::PrintThroughputRow("closed-loop", label, all_queries, ms, all_lat,
                              all_morsels);
    json.Add({"closed-loop", label, "", runner.threads(), all_queries, ms,
              ms > 0 ? 1000.0 * static_cast<double>(all_queries) / ms : 0,
              all_lat.Percentile(50), all_lat.Percentile(99), all_morsels,
              all_merge_ms});
  }

  // ---- experiment 3: prepared vs replanned (single client) ---------------
  {
    engine::EngineConfig cfg;
    cfg.threads = threads;
    engine::EngineRunner runner(cfg);
    std::vector<engine::PreparedQuery> prepared;
    for (const auto& id : ssb::AllQueryIds()) {
      auto spec = ssb::BuildQuerySpec(*data, id);
      if (!spec.ok()) std::exit(1);
      auto p = runner.Prepare(data->db, std::move(spec).value());
      if (!p.ok()) std::exit(1);
      prepared.push_back(std::move(p).value());
    }
    RunFlight(runner, *data, knobs);  // warm-up

    auto run_prepared_flight = [&] {
      FlightResult r;
      Timer wall;
      for (const auto& p : prepared) {
        PlanStats stats;
        auto result = runner.Execute(p, {}, knobs, &stats);
        if (!result.ok()) std::exit(1);
        r.lat.Add(stats.wall_ms);
        r.morsels += stats.TotalMorsels();
        r.merge_ms += stats.TotalMergeMs();
        ++r.queries;
      }
      r.wall_ms = wall.ElapsedMs();
      return r;
    };

    double replanned_ms = 1e300;
    double prepared_ms = 1e300;
    FlightResult best_replanned;
    FlightResult best_prepared;
    for (int rep = 0; rep < reps; ++rep) {
      FlightResult r = RunFlight(runner, *data, knobs);
      if (r.wall_ms < replanned_ms) {
        replanned_ms = r.wall_ms;
        best_replanned = r;
      }
      FlightResult p = run_prepared_flight();
      if (p.wall_ms < prepared_ms) {
        prepared_ms = p.wall_ms;
        best_prepared = p;
      }
    }
    std::string label = "t=" + std::to_string(runner.threads());
    bench::PrintThroughputRow("replanned", label, best_replanned.queries,
                              replanned_ms, best_replanned.lat,
                              best_replanned.morsels);
    bench::PrintThroughputRow("prepared", label, best_prepared.queries,
                              prepared_ms, best_prepared.lat,
                              best_prepared.morsels);
    json.Add({"replanned", label, "", runner.threads(),
              best_replanned.queries, replanned_ms, 0,
              best_replanned.lat.Percentile(50),
              best_replanned.lat.Percentile(99), best_replanned.morsels,
              best_replanned.merge_ms});
    json.Add({"prepared", label, "", runner.threads(), best_prepared.queries,
              prepared_ms, 0, best_prepared.lat.Percentile(50),
              best_prepared.lat.Percentile(99), best_prepared.morsels,
              best_prepared.merge_ms});
    uint64_t hits = 0;
    for (const auto& p : prepared) hits += p.plan_cache_hits();
    std::printf("(prepared/replanned flight: %.3fx, %llu plan-cache hits)\n",
                prepared_ms / replanned_ms,
                static_cast<unsigned long long>(hits));
  }

  // ---- optional: one traced query, dumped as chrome://tracing JSON -------
  std::string trace_query = GetEnvString("QPPT_TRACE_QUERY", "");
  if (!trace_query.empty()) {
    engine::EngineConfig cfg;
    cfg.threads = threads;
    engine::EngineRunner runner(cfg);
    PlanKnobs traced = knobs;
    traced.trace = true;
    PlanStats stats;
    auto result = ssb::RunQppt(runner, *data, trace_query, traced, &stats);
    if (!result.ok()) {
      std::fprintf(stderr, "trace run Q%s failed: %s\n", trace_query.c_str(),
                   result.status().ToString().c_str());
      std::exit(1);
    }
    std::string path = GetEnvString("QPPT_TRACE_PATH",
                                    ("TRACE_Q" + trace_query + ".json"));
    if (stats.trace == nullptr) {
      std::fprintf(stderr, "trace run Q%s produced no trace\n",
                   trace_query.c_str());
      std::exit(1);
    }
    std::string body = obs::TraceToJson(*stats.trace);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::perror(("cannot open " + path).c_str());
      std::exit(1);
    }
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    std::printf("(wrote Q%s trace: %zu spans across %zu worker lanes to "
                "%s)\n",
                trace_query.c_str(), stats.trace->num_spans(),
                stats.trace->num_worker_lanes(), path.c_str());
  }
}

}  // namespace
}  // namespace qppt

int main(int argc, char** argv) {
  qppt::bench::JsonReport json(argc, argv);
  double deadline_ms = static_cast<double>(
      qppt::GetEnvInt64("QPPT_DEADLINE_MS", 60000));
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--deadline-ms=", 0) == 0) {
      deadline_ms = std::atof(arg.c_str() + 14);
    } else if (arg == "--deadline-ms" && i + 1 < argc) {
      deadline_ms = std::atof(argv[++i]);
    }
  }
  qppt::Run(json, deadline_ms);
  return 0;
}
