#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/indexed_table.h"
#include "core/parallel.h"
#include "core/query/planner.h"
#include "core/sync_scan.h"
#include "engine/retry.h"
#include "engine/session.h"
#include "engine/write_session.h"
#include "ssb/queries_baseline.h"
#include "ssb/queries_qppt.h"

namespace qppt::bench {

namespace {

using Rows = std::vector<std::vector<Value>>;

// setup_s is the median of this many complete setups per run.
constexpr int kSetups = 3;

// point-reads: 90% PointRead(k), 10% RangeRead(k, k + 15).
constexpr double kReadScaleFactor = 0.5;
constexpr size_t kReadClients = 4;
constexpr uint64_t kRangeEvery = 10;
constexpr int64_t kRangeWidth = 15;
constexpr size_t kWarmupReads = 1000;

// htap: one open-loop writer; each txn inserts 8 rows and updates 4.
constexpr double kWriterTxnPerS = 1000;
constexpr size_t kTxnInserts = 8;
constexpr size_t kTxnUpdates = 4;
constexpr size_t kReplaySample = 26;

// Index probes after the traced window.
constexpr size_t kProbeLookups = 200000;
constexpr size_t kProbeScans = 20000;
constexpr size_t kProbeBatch = 512;
constexpr uint64_t kSyncScanSampleEvery = 8;

// Chrome-trace tracks: clients use 1..n, the writer this one, engine
// worker lanes 1000 + lane.
constexpr uint32_t kWriterTid = 99;

// Keeps probe results observable so the timed loops are not elided.
volatile uint64_t g_sink = 0;

[[noreturn]] void SetupError(const std::string& what, const Status& st) {
  throw std::runtime_error(what + ": " + st.ToString());
}

template <typename T>
T Take(Result<T> result, const std::string& what) {
  if (!result.ok()) SetupError(what, result.status());
  return std::move(result).value();
}

const std::vector<std::string>& QueryIds() { return ssb::AllQueryIds(); }

void Shuffle(std::vector<size_t>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->NextBounded(i)]);
  }
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

void Note(const char* name, double value, const char* unit) {
  std::printf("  %-28s %14.4f %s\n", name, value, unit);
}

// Sets up kSetups times, freeing each copy before the next, and keeps the
// last. Returns the median setup time in seconds; `generate_s` collects
// the data-generation part of each setup.
template <typename State, typename Setup>
double RepeatSetup(State* state, std::vector<double>* generate_s,
                   Setup&& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < kSetups; ++i) {
    *state = State{};
    double gen = 0;
    double t0 = NowUs();
    *state = setup(&gen);
    seconds.push_back((NowUs() - t0) / 1e6);
    generate_s->push_back(gen);
  }
  std::printf("  setups (s):");
  for (double s : seconds) std::printf(" %.3f", s);
  std::printf("\n");
  return Median(seconds);
}

// Every metric the traced run reports. Layers a workload does not use
// stay 0 (README.md maps each metric to the layer it measures).
struct LayerMetrics {
  // planner
  double plan_us = 0;
  double plan_cache_hit_ratio = 0;
  // engine query path
  double overhead_us = 0;
  double morsels_per_query = 0;
  double merge_ms_per_query = 0;
  double merge_share = 0;
  double tuner_refines = 0;
  double tuner_coarsens = 0;
  double worker_busy_ratio = 0;
  double flight_speedup = 0;
  double tasks_stolen_per_query = 0;
  double steal_failure_ratio = 0;
  // engine read path
  double read_batch_keys = 0;
  double read_leader_share = 0;
  // engine write path and the open-loop load generator
  double txn_apply_us = 0;
  double commit_us = 0;
  double commit_publish_ms_p99 = 0;
  double conflict_retries = 0;
  double writer_late_ms_p99 = 0;
  // operators, per query (tuples and MB per flight of the 13 queries)
  double selection_ms = 0;
  double select_join_ms = 0;
  double join_ms = 0;
  double materialize_ms = 0;
  double index_build_ms = 0;
  double input_tuples = 0;
  double output_tuples = 0;
  double output_mb = 0;
  // index
  double lookup_ns = 0;
  double batch_lookup_ns = 0;
  double scan_ns_per_key = 0;
  double sync_scan_ms = 0;
  double index_memory_mb = 0;
  // storage
  double version_chain_len_p99 = 0;
  double reclaim_ms = 0;
  double versions_reclaimed = 0;
  // setup and tracing
  double generate_s = 0;
  double trace_overhead = 0;
  // per closed-loop request, by Layer
  std::vector<double> self_us = std::vector<double>(kNumLayers, 0.0);
};

void AddPerLayer(const LayerMetrics& m, Report* r) {
  r->Add("planner.plan_us", m.plan_us, "us");
  r->Add("engine.plan_cache_hit_ratio", m.plan_cache_hit_ratio, "ratio");
  r->Add("engine.overhead_us", m.overhead_us, "us");
  r->Add("engine.morsels_per_query", m.morsels_per_query, "count");
  r->Add("engine.merge_ms_per_query", m.merge_ms_per_query, "ms");
  r->Add("engine.merge_share", m.merge_share, "ratio");
  r->Add("engine.tuner_refines", m.tuner_refines, "count");
  r->Add("engine.tuner_coarsens", m.tuner_coarsens, "count");
  r->Add("engine.worker_busy_ratio", m.worker_busy_ratio, "ratio");
  r->Add("engine.flight_speedup", m.flight_speedup, "ratio");
  r->Add("engine.tasks_stolen_per_query", m.tasks_stolen_per_query, "count");
  r->Add("engine.steal_failure_ratio", m.steal_failure_ratio, "ratio");
  r->Add("engine.read_batch_keys", m.read_batch_keys, "count");
  r->Add("engine.read_leader_share", m.read_leader_share, "ratio");
  r->Add("engine.txn_apply_us", m.txn_apply_us, "us");
  r->Add("engine.commit_us", m.commit_us, "us");
  r->Add("engine.commit_publish_ms_p99", m.commit_publish_ms_p99, "ms");
  r->Add("engine.conflict_retries", m.conflict_retries, "count");
  r->Add("load.writer_late_ms_p99", m.writer_late_ms_p99, "ms");
  r->Add("operators.selection_ms", m.selection_ms, "ms");
  r->Add("operators.select_join_ms", m.select_join_ms, "ms");
  r->Add("operators.join_ms", m.join_ms, "ms");
  r->Add("operators.materialize_ms", m.materialize_ms, "ms");
  r->Add("operators.index_build_ms", m.index_build_ms, "ms");
  r->Add("operators.input_tuples", m.input_tuples, "count");
  r->Add("operators.output_tuples", m.output_tuples, "count");
  r->Add("operators.output_mb", m.output_mb, "MB");
  r->Add("index.lookup_ns", m.lookup_ns, "ns");
  r->Add("index.batch_lookup_ns", m.batch_lookup_ns, "ns");
  r->Add("index.scan_ns_per_key", m.scan_ns_per_key, "ns");
  r->Add("index.sync_scan_ms", m.sync_scan_ms, "ms");
  r->Add("index.memory_mb", m.index_memory_mb, "MB");
  r->Add("storage.version_chain_len_p99", m.version_chain_len_p99, "count");
  r->Add("storage.reclaim_ms", m.reclaim_ms, "ms");
  r->Add("storage.versions_reclaimed", m.versions_reclaimed, "count");
  r->Add("ssb.generate_s", m.generate_s, "s");
  r->Add("trace.overhead", m.trace_overhead, "ratio");
  for (size_t l = 0; l < kNumLayers; ++l) {
    r->Add(std::string("self_us.") + LayerName(static_cast<Layer>(l)),
           m.self_us[l], "us");
  }
}

void AddEndToEnd(double setup_s, double ops_per_s, double geomean_ms,
                 double tail_ms, Report* r) {
  r->Add("setup_s", setup_s, "s");
  r->Add("ops_per_s", ops_per_s, "1/s");
  r->Add("latency_geomean_ms", geomean_ms, "ms");
  r->Add("latency_tail_ms", tail_ms, "ms");
  r->Add("peak_rss_mb", PeakRssMb(), "MB");
}

// Scheduler, plan-cache, read-batcher and commit metrics of one window,
// from the engine's registry.
void FillRegistryMetrics(const RegistryDelta& d, double queries,
                         LayerMetrics* m) {
  double busy = static_cast<double>(d.Counter("engine_worker_busy_ns_total"));
  double idle = static_cast<double>(d.Counter("engine_worker_idle_ns_total"));
  double executed =
      static_cast<double>(d.Counter("engine_tasks_executed_total"));
  double stolen = static_cast<double>(d.Counter("engine_tasks_stolen_total"));
  double no_work =
      static_cast<double>(d.Counter("engine_steal_failures_total"));
  double hits = static_cast<double>(d.Counter("engine_plan_cache_hits_total"));
  double misses =
      static_cast<double>(d.Counter("engine_plan_cache_misses_total"));
  double leaders = static_cast<double>(d.Counter("engine_read_leader_total"));
  double followers =
      static_cast<double>(d.Counter("engine_read_follower_total"));
  m->worker_busy_ratio = Ratio(busy, busy + idle);
  m->tasks_stolen_per_query = Ratio(stolen, queries);
  m->steal_failure_ratio = Ratio(no_work, executed + no_work);
  m->tuner_refines =
      static_cast<double>(d.Counter("engine_tuner_refines_total"));
  m->tuner_coarsens =
      static_cast<double>(d.Counter("engine_tuner_coarsens_total"));
  m->plan_cache_hit_ratio = Ratio(hits, hits + misses);
  m->read_leader_share = Ratio(leaders, leaders + followers);
  m->commit_publish_ms_p99 =
      d.HistogramQuantile("engine_commit_publish_ms", 0.99);
}

// ---- index probes -----------------------------------------------------------
//
// Called directly on a workload's own lo_partkey tree with keys drawn
// from its present keys: the cost floor under the engine's reads and
// joins.

template <typename Body>
double MedianNsPer(size_t items, Body&& body) {
  std::vector<double> ns;
  for (int rep = 0; rep < 3; ++rep) {
    double t0 = NowUs();
    body();
    ns.push_back((NowUs() - t0) * 1000.0 / static_cast<double>(items));
  }
  return Median(ns);
}

void ProbeKiss(const KissTree& tree, const std::vector<int64_t>& keys,
               uint64_t seed, LayerMetrics* m) {
  Rng rng = StreamRng(seed, 400);
  std::vector<uint32_t> draws(kProbeLookups);
  for (auto& k : draws) {
    k = static_cast<uint32_t>(keys[rng.NextBounded(keys.size())]);
  }
  uint64_t sink = 0;
  m->lookup_ns = MedianNsPer(draws.size(), [&] {
    for (uint32_t k : draws) {
      KissTree::ValueRef vals;
      if (tree.Lookup(k, &vals)) sink += vals.size();
    }
  });
  std::vector<KissTree::LookupJob> jobs(kProbeBatch);
  m->batch_lookup_ns = MedianNsPer(draws.size(), [&] {
    for (size_t i = 0; i + kProbeBatch <= draws.size(); i += kProbeBatch) {
      for (size_t j = 0; j < kProbeBatch; ++j) {
        jobs[j] = KissTree::LookupJob{};
        jobs[j].key = draws[i + j];
      }
      tree.BatchLookup(jobs);
      for (const auto& job : jobs) sink += job.found ? job.values.size() : 0;
    }
  });
  size_t visited = 0;
  double t0 = NowUs();
  for (size_t i = 0; i < kProbeScans; ++i) {
    tree.ScanRange(draws[i], static_cast<uint32_t>(draws[i] + kRangeWidth),
                   [&](uint32_t, const KissTree::ValueRef& vals) {
                     ++visited;
                     sink += vals.size();
                   });
  }
  m->scan_ns_per_key = Ratio((NowUs() - t0) * 1000.0,
                             static_cast<double>(visited));
  KissTree::Config cfg;
  cfg.root_bits = tree.config().root_bits;
  KissTree probe(cfg);
  for (size_t i = 0; i < keys.size(); ++i) {
    if (rng.NextBounded(kSyncScanSampleEvery) == 0) {
      probe.Insert(static_cast<uint32_t>(keys[i]), i);
    }
  }
  std::vector<double> ms;
  for (int rep = 0; rep < 5; ++rep) {
    double s0 = NowUs();
    SynchronousScan(probe, tree,
                    [&](uint32_t, const KissTree::ValueRef&,
                        const KissTree::ValueRef& vals) {
                      sink += vals.size();
                    });
    ms.push_back((NowUs() - s0) / 1000.0);
  }
  m->sync_scan_ms = Median(ms);
  g_sink = sink;
}

int64_t DecodeI64Key(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
  return static_cast<int64_t>(v ^ (uint64_t{1} << 63));
}

void ProbePrefix(const PrefixTree& tree, const std::vector<int64_t>& keys,
                 uint64_t seed, LayerMetrics* m) {
  Rng rng = StreamRng(seed, 400);
  const size_t len = tree.key_len();
  std::vector<int64_t> draws(kProbeLookups);
  std::vector<uint8_t> encoded(kProbeLookups * len);
  KeyBuf buf;
  for (size_t i = 0; i < draws.size(); ++i) {
    draws[i] = keys[rng.NextBounded(keys.size())];
    buf.clear();
    buf.AppendI64(draws[i]);
    std::copy(buf.data(), buf.data() + len, encoded.data() + i * len);
  }
  uint64_t sink = 0;
  m->lookup_ns = MedianNsPer(draws.size(), [&] {
    for (size_t i = 0; i < draws.size(); ++i) {
      const ValueList* vals = tree.Lookup(encoded.data() + i * len);
      if (vals != nullptr) sink += vals->size();
    }
  });
  std::vector<PrefixTree::LookupJob> jobs(kProbeBatch);
  m->batch_lookup_ns = MedianNsPer(draws.size(), [&] {
    for (size_t i = 0; i + kProbeBatch <= draws.size(); i += kProbeBatch) {
      for (size_t j = 0; j < kProbeBatch; ++j) {
        jobs[j] = PrefixTree::LookupJob{};
        jobs[j].key = encoded.data() + (i + j) * len;
      }
      tree.BatchLookup(jobs);
      for (const auto& job : jobs) sink += job.result != nullptr ? 1 : 0;
    }
  });
  size_t visited = 0;
  KeyBuf lo;
  KeyBuf hi;
  double t0 = NowUs();
  for (size_t i = 0; i < kProbeScans; ++i) {
    lo.clear();
    lo.AppendI64(draws[i]);
    hi.clear();
    hi.AppendI64(draws[i] + kRangeWidth);
    tree.ScanRange(lo.data(), hi.data(), [&](const PrefixTree::ContentNode& c) {
      ++visited;
      sink += tree.ValuesOf(&c)->size();
    });
  }
  m->scan_ns_per_key = Ratio((NowUs() - t0) * 1000.0,
                             static_cast<double>(visited));
  PrefixTree::Config cfg;
  cfg.key_len = len;
  cfg.kprime = tree.config().kprime;
  PrefixTree probe(cfg);
  for (size_t i = 0; i < keys.size(); ++i) {
    if (rng.NextBounded(kSyncScanSampleEvery) == 0) {
      buf.clear();
      buf.AppendI64(keys[i]);
      probe.Insert(buf.data(), i);
    }
  }
  std::vector<double> ms;
  for (int rep = 0; rep < 5; ++rep) {
    double s0 = NowUs();
    SynchronousScan(probe, tree,
                    [&](const uint8_t*, const ValueList*,
                        const ValueList* vals) { sink += vals->size(); });
    ms.push_back((NowUs() - s0) / 1000.0);
  }
  m->sync_scan_ms = Median(ms);
  g_sink = sink;
}

// Probes a base index keyed on one int64 column, KISS or prefix.
void ProbeBaseIndex(const BaseIndex& index, uint64_t seed, LayerMetrics* m) {
  std::vector<int64_t> keys;
  if (index.kiss() != nullptr) {
    index.kiss()->ScanAll([&](uint32_t k, const KissTree::ValueRef&) {
      keys.push_back(k);
    });
    ProbeKiss(*index.kiss(), keys, seed, m);
  } else {
    index.prefix()->ScanAll([&](const PrefixTree::ContentNode& c) {
      keys.push_back(DecodeI64Key(c.key()));
    });
    ProbePrefix(*index.prefix(), keys, seed, m);
  }
}

// =============================================================================
// Query workloads: ssb-flight, ssb-clients, htap
// =============================================================================

struct QueryShape {
  double scale_factor = 0;
  bool prefer_kiss = true;
  bool versioned = false;  // versioned lineorder, live indexes, a writer
  size_t clients = 1;
  bool prepared = false;   // prepared handles instead of plan-per-query
};

struct QueryState {
  std::unique_ptr<ssb::SsbData> data;
  std::vector<engine::PreparedQuery> prepared;  // by query index
  size_t initial_rows = 0;  // versioned lineorder rows after setup
};

QueryState SetupQueries(const QueryShape& shape, uint64_t seed,
                        engine::EngineRunner& runner, double* generate_s) {
  ssb::SsbConfig cfg;
  cfg.scale_factor = shape.scale_factor;
  cfg.seed = seed;
  cfg.prefer_kiss = shape.prefer_kiss;
  cfg.versioned_lineorder = shape.versioned;
  QueryState st;
  double t0 = NowUs();
  st.data = Take(ssb::Generate(cfg), "SSB generation");
  *generate_s = (NowUs() - t0) / 1e6;
  if (shape.prepared) {
    for (const auto& id : QueryIds()) {
      query::QuerySpec spec =
          Take(ssb::BuildQuerySpec(*st.data, id), "spec Q" + id);
      st.prepared.push_back(Take(runner.Prepare(st.data->db, std::move(spec)),
                                 "prepare Q" + id));
    }
  }
  if (shape.versioned) {
    st.initial_rows =
        Take(st.data->db.versioned_table("lineorder"), "lineorder")
            ->num_logical_rows();
  }
  return st;
}

// The 13 results of the column-at-a-time engine, which shares no
// execution code with QPPT, on a separately generated copy of the data.
std::vector<Rows> ColumnOracle(double scale_factor, uint64_t seed) {
  ssb::SsbConfig cfg;
  cfg.scale_factor = scale_factor;
  cfg.seed = seed;
  cfg.build_indexes = false;
  auto data = Take(ssb::Generate(cfg), "oracle data");
  std::vector<Rows> out;
  for (const auto& id : QueryIds()) {
    out.push_back(Take(ssb::RunColumn(*data, id), "oracle Q" + id).rows);
  }
  return out;
}

struct QuerySample {
  size_t query = 0;         // index into QueryIds()
  double latency_ms = 0;    // the request as its client timed it
  double plan_us = 0;       // ad-hoc requests only
  double overhead_ms = 0;   // Execute wall minus PlanStats::total_ms
  double total_ms = 0;      // PlanStats::total_ms
  double merge_ms = 0;
  double selection_ms = 0;
  double select_join_ms = 0;
  double join_ms = 0;
  double materialize_ms = 0;
  double index_ms = 0;
  uint64_t morsels = 0;
  uint64_t input_tuples = 0;
  uint64_t output_tuples = 0;
  uint64_t output_bytes = 0;
};

// A mixed-phase htap result, replayed at its snapshot after the window.
struct Recorded {
  size_t query = 0;
  Timestamp read_ts = 0;
  Rows rows;
};

struct ClientLog {
  ClientLog(uint32_t tid, Rng sample_rng)
      : sample_rng(sample_rng), spans(tid) {}

  // Keeps a uniform sample of kReplaySample of the results passed in
  // (reservoir sampling), so memory does not grow with the query rate.
  void Record(Recorded r) {
    ++results;
    if (recorded.size() < kReplaySample) {
      recorded.push_back(std::move(r));
      return;
    }
    const uint64_t j = sample_rng.NextBounded(results);
    if (j < kReplaySample) recorded[j] = std::move(r);
  }

  std::vector<QuerySample> samples;
  std::vector<Recorded> recorded;
  uint64_t results = 0;
  Rng sample_rng;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double last_done_us = 0;
  SpanLog spans;
};

void NoteFailure(const std::string& what, uint64_t* failed) {
  if (++*failed <= 5) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
}

struct QueryContext {
  const QueryShape& shape;
  engine::EngineRunner& runner;
  QueryState& state;
  const std::vector<Rows>& oracle;
  PlanKnobs knobs;
  uint64_t seed = 1;
};

// How a query result is checked: against the oracle, or recorded for the
// htap snapshot replay.
enum class Check { kOracle, kRecord };

// One client request: plan (ad hoc) or look up the prepared plan, then
// execute. The check runs after the timed interval.
void RunQueryRequest(const QueryContext& ctx, size_t q, bool traced,
                     Check check, ClientLog* log) {
  const std::string& id = QueryIds()[q];
  PlanKnobs knobs = ctx.knobs;
  knobs.trace = traced;
  PlanStats stats;
  bool planned = false;
  double plan0 = 0;
  double plan1 = 0;
  const double t0 = NowUs();
  double exec0 = t0;
  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    if (ctx.shape.prepared) {
      return ctx.runner.Execute(ctx.state.prepared[q], {}, knobs, &stats);
    }
    // The ad-hoc path of ssb::RunQppt(runner, ...), split so planning and
    // execution are timed apart.
    plan0 = NowUs();
    QPPT_ASSIGN_OR_RETURN(query::QuerySpec spec,
                          ssb::BuildQuerySpec(*ctx.state.data, id));
    QPPT_ASSIGN_OR_RETURN(Plan plan,
                          query::PlanQuery(ctx.state.data->db, spec, knobs));
    plan1 = exec0 = NowUs();
    planned = true;
    return ctx.runner.Execute(ctx.state.data->db, plan, knobs, &stats);
  }();
  const double t1 = NowUs();
  log->last_done_us = t1;
  ++log->attempted;
  if (traced) {
    SpanLog& spans = log->spans;
    uint64_t request = spans.NewId();
    spans.Add("Q" + id, Layer::kRequest, t0, t1, request, 0, request);
    if (planned) {
      spans.Add("planner.plan", Layer::kPlanner, plan0, plan1, spans.NewId(),
                request, request);
    }
    if (planned || ctx.shape.prepared) {
      uint64_t execute = spans.NewId();
      spans.Add("engine.execute", Layer::kEngine, exec0, t1, execute, request,
                request);
      if (stats.trace != nullptr) {
        spans.ImportQueryTrace(*stats.trace, execute, request);
      }
    }
  }
  if (!result.ok()) {
    NoteFailure("Q" + id + ": " + result.status().ToString(), &log->failed);
    return;
  }
  if (check == Check::kOracle) {
    if (result->rows != ctx.oracle[q]) {
      NoteFailure("Q" + id + " differs from the column-engine result",
                  &log->failed);
      return;
    }
  } else {
    log->Record({q, stats.read_ts, std::move(result->rows)});
  }
  QuerySample s;
  s.query = q;
  s.latency_ms = (t1 - t0) / 1000.0;
  s.plan_us = planned ? plan1 - plan0 : 0;
  s.overhead_ms = (t1 - exec0) / 1000.0 - stats.total_ms;
  s.total_ms = stats.total_ms;
  s.merge_ms = stats.TotalMergeMs();
  s.morsels = stats.TotalMorsels();
  for (const OperatorStats& op : stats.operators) {
    if (op.name.starts_with("sel:")) s.selection_ms += op.total_ms;
    if (op.name.starts_with("sjoin:")) s.select_join_ms += op.total_ms;
    if (op.name.starts_with("join:")) s.join_ms += op.total_ms;
    s.materialize_ms += op.materialize_ms;
    s.index_ms += op.index_ms;
    s.input_tuples += op.input_tuples;
    s.output_tuples += op.output_tuples;
    s.output_bytes += op.output_bytes;
  }
  log->samples.push_back(s);
}

// Closed loop: the 13 queries in a fresh seeded order per pass, until
// the window closes.
void QueryClientLoop(const QueryContext& ctx, uint64_t stream, double end_us,
                     bool traced, Check check, ClientLog* log) {
  Rng rng = StreamRng(ctx.seed, stream);
  std::vector<size_t> order(QueryIds().size());
  std::iota(order.begin(), order.end(), size_t{0});
  for (;;) {
    Shuffle(&order, &rng);
    for (size_t q : order) {
      if (NowUs() >= end_us) return;
      RunQueryRequest(ctx, q, traced, check, log);
    }
  }
}

struct WriterLog {
  std::vector<double> commit_ms;  // from the txn's scheduled time
  std::vector<double> late_ms;    // start minus scheduled time
  std::vector<double> apply_us;
  std::vector<double> commit_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t committed = 0;
  SpanLog spans{kWriterTid};
};

// Open loop: txn i is due at start + i / rate whether or not earlier
// ones finished, and its commit latency counts from that due time.
void WriterLoop(const QueryContext& ctx, uint64_t stream, double start_us,
                double end_us, bool traced, WriterLog* log) {
  Database& db = ctx.state.data->db;
  MvccTable& lineorder = *Take(db.versioned_table("lineorder"), "lineorder");
  const RowTable& storage = lineorder.storage();
  const Schema& schema = storage.schema();
  const size_t quantity = Take(schema.ColumnIndex("lo_quantity"), "column");
  const size_t price = Take(schema.ColumnIndex("lo_extendedprice"), "column");
  const size_t discount = Take(schema.ColumnIndex("lo_discount"), "column");
  const size_t revenue = Take(schema.ColumnIndex("lo_revenue"), "column");
  const uint64_t initial = ctx.state.initial_rows;
  Rng rng = StreamRng(ctx.seed, stream);
  std::vector<uint64_t> row(schema.num_columns());
  // A committed row re-drawn with fresh measures: valid dimension keys.
  auto fill_from = [&](uint64_t rid) {
    for (size_t c = 0; c < row.size(); ++c) row[c] = storage.GetSlot(rid, c);
    int64_t q = 1 + static_cast<int64_t>(rng.NextBounded(50));
    int64_t d = static_cast<int64_t>(rng.NextBounded(11));
    int64_t p = 90000 + static_cast<int64_t>(rng.NextBounded(1000000));
    row[quantity] = SlotFromInt64(q);
    row[price] = SlotFromInt64(p);
    row[discount] = SlotFromInt64(d);
    row[revenue] = SlotFromInt64(p * (100 - d) / 100);
  };
  const double period_us = 1e6 / kWriterTxnPerS;
  for (uint64_t i = 0;; ++i) {
    const double due = start_us + static_cast<double>(i) * period_us;
    if (due >= end_us) break;
    double now = NowUs();
    if (now < due) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::micro>(due - now));
    }
    const double t0 = NowUs();
    double apply0 = t0;
    double apply1 = t0;
    engine::RetryOptions backoff;
    backoff.seed = rng.Next();
    Status st = engine::RetryTxn(
        &ctx.runner, &db,
        [&](engine::WriteSession& ws) -> Status {
          apply0 = NowUs();
          for (size_t n = 0; n < kTxnInserts; ++n) {
            fill_from(rng.NextBounded(initial));
            QPPT_RETURN_NOT_OK(ws.Insert("lineorder", row).status());
          }
          for (size_t n = 0; n < kTxnUpdates; ++n) {
            MvccTable::LogicalId id = rng.NextBounded(initial);
            fill_from(id);
            QPPT_RETURN_NOT_OK(ws.Update("lineorder", id, row));
          }
          apply1 = NowUs();
          return Status::OK();
        },
        backoff);
    const double t1 = NowUs();
    ++log->attempted;
    if (!st.ok()) {
      NoteFailure("txn not committed: " + st.ToString(), &log->failed);
      continue;
    }
    ++log->committed;
    log->commit_ms.push_back((t1 - due) / 1000.0);
    log->late_ms.push_back((t0 - due) / 1000.0);
    log->apply_us.push_back(apply1 - apply0);
    log->commit_us.push_back(t1 - apply1);
    if (traced) {
      SpanLog& spans = log->spans;
      uint64_t request = spans.NewId();
      spans.Add("txn", Layer::kRequest, t0, t1, request, 0, request);
      spans.Add("engine.txn.apply", Layer::kEngine, apply0, apply1,
                spans.NewId(), request, request);
      spans.Add("engine.txn.commit", Layer::kEngine, apply1, t1,
                spans.NewId(), request, request);
    }
  }
}

struct QueryWindow {
  double elapsed_s = 0;
  std::vector<std::unique_ptr<ClientLog>> clients;
  std::unique_ptr<WriterLog> writer;
  obs::MetricsSnapshot before;
  obs::MetricsSnapshot after;
  uint64_t retries = 0;

  std::vector<const QuerySample*> Samples() const {
    std::vector<const QuerySample*> out;
    for (const auto& c : clients) {
      for (const auto& s : c->samples) out.push_back(&s);
    }
    return out;
  }
  double OpsPerS() const {
    return Ratio(static_cast<double>(Samples().size()), elapsed_s);
  }
};

QueryWindow RunQueryWindow(const QueryContext& ctx, double seconds,
                           bool traced, uint64_t stream_base) {
  QueryWindow w;
  for (size_t c = 0; c < ctx.shape.clients; ++c) {
    w.clients.push_back(std::make_unique<ClientLog>(
        static_cast<uint32_t>(c + 1),
        StreamRng(ctx.seed, stream_base + 60 + c)));
  }
  if (ctx.shape.versioned) w.writer = std::make_unique<WriterLog>();
  const Check check = ctx.shape.versioned ? Check::kRecord : Check::kOracle;
  const uint64_t retries0 = ctx.runner.write_stats().retries;
  w.before = obs::MetricsRegistry::Global().Snapshot();
  const double start = NowUs();
  const double end = start + seconds * 1e6;
  {
    ForkJoin fork(ctx.shape.clients + 1);
    for (size_t c = 0; c < ctx.shape.clients; ++c) {
      fork.Spawn([&, c] {
        QueryClientLoop(ctx, stream_base + c, end, traced, check,
                        w.clients[c].get());
      });
    }
    if (w.writer != nullptr) {
      fork.Spawn([&] {
        WriterLoop(ctx, stream_base + 50, start, end, traced, w.writer.get());
      });
    }
    fork.Join();
  }
  w.after = obs::MetricsRegistry::Global().Snapshot();
  w.retries = ctx.runner.write_stats().retries - retries0;
  double last = start;
  for (const auto& c : w.clients) last = std::max(last, c->last_done_us);
  w.elapsed_s = (last - start) / 1e6;
  return w;
}

// The flight at the runner's thread count against a serial runner on the
// same data (the t=nproc / t=1 record).
double FlightSpeedup(const QueryContext& ctx) {
  engine::EngineConfig serial_cfg;
  serial_cfg.threads = 1;
  engine::EngineRunner serial(serial_cfg);
  auto flight_ms = [&](engine::EngineRunner& runner) {
    double t0 = NowUs();
    for (const auto& id : QueryIds()) {
      Take(ssb::RunQppt(runner, *ctx.state.data, id, ctx.knobs),
           "speedup flight Q" + id);
    }
    return (NowUs() - t0) / 1000.0;
  };
  flight_ms(serial);
  flight_ms(ctx.runner);
  std::vector<double> t1;
  std::vector<double> tn;
  for (int rep = 0; rep < 3; ++rep) {
    t1.push_back(flight_ms(serial));
    tn.push_back(flight_ms(ctx.runner));
  }
  return Ratio(Median(t1), Median(tn));
}

// htap, after the windows: replay a seeded sample of the mixed-phase
// queries at their snapshots, check the row count the committed txns
// imply, then reclaim versions once.
void FinishHtap(const QueryContext& ctx,
                const std::vector<const QueryWindow*>& windows, Report* report,
                LayerMetrics* m) {
  std::vector<const Recorded*> recorded;
  uint64_t committed = 0;
  for (const QueryWindow* w : windows) {
    for (const auto& c : w->clients) {
      for (const auto& r : c->recorded) recorded.push_back(&r);
    }
    committed += w->writer->committed;
  }
  Rng rng = StreamRng(ctx.seed, 500);
  std::vector<size_t> order(recorded.size());
  std::iota(order.begin(), order.end(), size_t{0});
  Shuffle(&order, &rng);
  order.resize(std::min(order.size(), kReplaySample));
  size_t mismatched = 0;
  for (size_t i : order) {
    const Recorded& r = *recorded[i];
    PlanKnobs pinned = ctx.knobs;
    pinned.read_ts = r.read_ts;
    auto replay =
        ssb::RunQppt(ctx.runner, *ctx.state.data, QueryIds()[r.query], pinned);
    if (!replay.ok() || replay->rows != r.rows) {
      ++mismatched;
      NoteFailure("Q" + QueryIds()[r.query] + " @ts=" +
                      std::to_string(r.read_ts) +
                      " differs from its replay at that snapshot",
                  &report->failed);
    }
  }
  std::printf("  snapshot replay: %zu/%zu sampled mixed-phase queries match\n",
              order.size() - mismatched, order.size());
  MvccTable& lineorder =
      *Take(ctx.state.data->db.versioned_table("lineorder"), "lineorder");
  const uint64_t expected = ctx.state.initial_rows + committed * kTxnInserts;
  if (lineorder.num_logical_rows() != expected) {
    report->Fail("lineorder has " +
                 std::to_string(lineorder.num_logical_rows()) +
                 " logical rows; committed txns imply " +
                 std::to_string(expected));
  }
  obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  double t0 = NowUs();
  m->versions_reclaimed =
      static_cast<double>(ctx.runner.ReclaimVersions(&ctx.state.data->db));
  m->reclaim_ms = (NowUs() - t0) / 1000.0;
  obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();
  m->version_chain_len_p99 = RegistryDelta(before, after).HistogramQuantile(
      "engine_version_chain_length", 0.99);
}

void FillQueryLayers(const QueryContext& ctx, double untraced_ops_per_s,
                     const QueryWindow& traced, LayerMetrics* m) {
  std::vector<const QuerySample*> samples = traced.Samples();
  const double n = static_cast<double>(samples.size());
  std::vector<double> plan_us;
  std::vector<double> overhead_us;
  QuerySample sum;
  std::vector<const QuerySample*> first(QueryIds().size(), nullptr);
  for (const QuerySample* s : samples) {
    if (s->plan_us > 0) plan_us.push_back(s->plan_us);
    overhead_us.push_back(s->overhead_ms * 1000.0);
    sum.total_ms += s->total_ms;
    sum.merge_ms += s->merge_ms;
    sum.morsels += s->morsels;
    sum.selection_ms += s->selection_ms;
    sum.select_join_ms += s->select_join_ms;
    sum.join_ms += s->join_ms;
    sum.materialize_ms += s->materialize_ms;
    sum.index_ms += s->index_ms;
    if (first[s->query] == nullptr) first[s->query] = s;
  }
  m->selection_ms = Ratio(sum.selection_ms, n);
  m->select_join_ms = Ratio(sum.select_join_ms, n);
  m->join_ms = Ratio(sum.join_ms, n);
  m->materialize_ms = Ratio(sum.materialize_ms, n);
  m->index_build_ms = Ratio(sum.index_ms, n);
  // Cardinalities per flight: one execution of each query.
  for (const QuerySample* s : first) {
    if (s == nullptr) continue;
    m->input_tuples += static_cast<double>(s->input_tuples);
    m->output_tuples += static_cast<double>(s->output_tuples);
    m->output_mb += static_cast<double>(s->output_bytes) / 1e6;
  }
  m->plan_us = Median(plan_us);
  m->overhead_us = Median(overhead_us);
  m->morsels_per_query = Ratio(static_cast<double>(sum.morsels), n);
  m->merge_ms_per_query = Ratio(sum.merge_ms, n);
  m->merge_share = Ratio(sum.merge_ms, sum.total_ms);
  FillRegistryMetrics(RegistryDelta(traced.before, traced.after), n, m);
  m->trace_overhead = Ratio(untraced_ops_per_s, traced.OpsPerS());
  std::vector<const SpanLog*> logs;
  for (const auto& c : traced.clients) logs.push_back(&c->spans);
  std::vector<double> self = SelfTimeByLayer(logs);
  for (size_t l = 0; l < kNumLayers; ++l) m->self_us[l] = Ratio(self[l], n);
  if (traced.writer != nullptr) {
    const WriterLog& w = *traced.writer;
    m->txn_apply_us = Median(w.apply_us);
    m->commit_us = Median(w.commit_us);
    m->writer_late_ms_p99 = Quantile(w.late_ms, 0.99);
    m->conflict_retries = static_cast<double>(traced.retries);
  }
  const Database& db = ctx.state.data->db;
  for (const auto& name : db.index_names()) {
    m->index_memory_mb +=
        static_cast<double>(Take(db.index(name), name)->MemoryUsage()) / 1e6;
  }
  ProbeBaseIndex(*Take(db.index("lo_partkey"), "lo_partkey index"), ctx.seed,
                 m);
  m->flight_speedup = FlightSpeedup(ctx);
}

bool WriteTrace(const Options& opt, const std::vector<const SpanLog*>& logs) {
  std::string path = opt.out_dir + "/" + opt.workload + ".trace.json";
  if (!WriteChromeTrace(logs, path)) return false;
  size_t spans = 0;
  for (const SpanLog* log : logs) spans += log->spans().size();
  std::printf("  wrote %zu spans to %s\n", spans, path.c_str());
  return true;
}

Report RunQueryWorkload(const QueryShape& shape, const Options& opt) {
  Report report;
  engine::EngineRunner runner;  // default threads: every hardware thread
  std::vector<Rows> oracle = ColumnOracle(shape.scale_factor, opt.seed);
  std::vector<double> generate_s;
  QueryState state;
  const double setup_s = RepeatSetup(&state, &generate_s, [&](double* gen) {
    return SetupQueries(shape, opt.seed, runner, gen);
  });
  PlanKnobs knobs;
  knobs.table_options.prefer_kiss = shape.prefer_kiss;
  QueryContext ctx{shape, runner, state, oracle, knobs, opt.seed};

  // Warm-up: one checked pass before any writes.
  ClientLog warmup(1, Rng());
  for (size_t q = 0; q < QueryIds().size(); ++q) {
    RunQueryRequest(ctx, q, false, Check::kOracle, &warmup);
  }
  report.attempted += warmup.attempted;
  report.failed += warmup.failed;

  // The traced run puts its untraced quarters on both sides of the
  // traced half, so drift over the run cancels out of trace.overhead.
  std::vector<QueryWindow> untraced;
  std::optional<QueryWindow> traced;
  if (opt.trace) {
    untraced.push_back(RunQueryWindow(ctx, opt.seconds / 4, false, 100));
    traced = RunQueryWindow(ctx, opt.seconds / 2, true, 200);
    untraced.push_back(RunQueryWindow(ctx, opt.seconds / 4, false, 300));
  } else {
    untraced.push_back(RunQueryWindow(ctx, opt.seconds, false, 100));
  }
  std::vector<const QueryWindow*> windows;
  for (const auto& w : untraced) windows.push_back(&w);
  if (traced) windows.push_back(&*traced);
  for (const QueryWindow* w : windows) {
    for (const auto& c : w->clients) {
      report.attempted += c->attempted;
      report.failed += c->failed;
    }
    if (w->writer != nullptr) {
      report.attempted += w->writer->attempted;
      report.failed += w->writer->failed;
    }
  }
  LayerMetrics layers;
  if (shape.versioned) FinishHtap(ctx, windows, &report, &layers);

  std::vector<std::vector<double>> by_query(QueryIds().size());
  std::vector<double> all;
  std::vector<double> commit_ms;
  double elapsed_s = 0;
  for (const QueryWindow& w : untraced) {
    for (const QuerySample* s : w.Samples()) {
      by_query[s->query].push_back(s->latency_ms);
      all.push_back(s->latency_ms);
    }
    if (w.writer != nullptr) {
      commit_ms.insert(commit_ms.end(), w.writer->commit_ms.begin(),
                       w.writer->commit_ms.end());
    }
    elapsed_s += w.elapsed_s;
  }
  std::vector<double> medians;
  for (const auto& v : by_query) {
    if (!v.empty()) medians.push_back(Median(v));
  }
  const double ops_per_s = Ratio(static_cast<double>(all.size()), elapsed_s);
  const double query_geomean = Geomean(medians);
  const double query_p95 = Quantile(all, 0.95);
  std::printf("%s seed=%llu: %zu queries in %.2f s from %zu clients\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              all.size(), elapsed_s, shape.clients);
  Note("queries_per_s", ops_per_s, "1/s");
  Note("query_geomean_ms", query_geomean, "ms");
  Note("query_p95_ms", query_p95, "ms");
  double geomean = query_geomean;
  double tail = query_p95;
  if (shape.versioned) {
    // Two request classes: each end-to-end latency is the geometric
    // mean of the query figure and the commit figure.
    const double commit_p50 = Median(commit_ms);
    const double commit_p99 = Quantile(commit_ms, 0.99);
    Note("commit_p50_ms", commit_p50, "ms");
    Note("commit_p99_ms", commit_p99, "ms");
    Note("txns_committed", static_cast<double>(commit_ms.size()), "");
    geomean = std::sqrt(query_geomean * commit_p50);
    tail = std::sqrt(query_p95 * commit_p99);
  }
  Note("error_rate", Ratio(static_cast<double>(report.failed),
                           static_cast<double>(report.attempted)),
       "failed/attempted");

  if (!opt.trace) {
    AddEndToEnd(setup_s, ops_per_s, geomean, tail, &report);
    return report;
  }
  FillQueryLayers(ctx, ops_per_s, *traced, &layers);
  layers.generate_s = Median(generate_s);
  AddPerLayer(layers, &report);
  std::vector<const SpanLog*> logs;
  for (const auto& c : traced->clients) logs.push_back(&c->spans);
  if (traced->writer != nullptr) logs.push_back(&traced->writer->spans);
  if (!WriteTrace(opt, logs)) report.Fail("trace file not written");
  return report;
}

// =============================================================================
// point-reads
// =============================================================================

struct ReadState {
  std::unique_ptr<ssb::SsbData> data;
  std::unique_ptr<IndexedTable> table;  // lineorder keyed on lo_partkey
};

ReadState SetupReads(uint64_t seed, double* generate_s) {
  ssb::SsbConfig cfg;
  cfg.scale_factor = kReadScaleFactor;
  cfg.seed = seed;
  cfg.build_indexes = false;
  ReadState st;
  double t0 = NowUs();
  st.data = Take(ssb::Generate(cfg), "SSB generation");
  *generate_s = (NowUs() - t0) / 1e6;
  const RowTable& lineorder =
      *Take(st.data->db.table("lineorder"), "lineorder");
  st.table = Take(IndexedTable::Create(lineorder.schema(), {"lo_partkey"}),
                  "lineorder by lo_partkey");
  for (Rid rid = 0; rid < lineorder.num_rows(); ++rid) {
    st.table->Insert(lineorder.Record(rid));
  }
  return st;
}

// Row counts per lo_partkey, read straight from the row table: what every
// read is checked against.
struct ReadReference {
  std::vector<int64_t> keys;     // present keys, ascending
  std::vector<uint64_t> before;  // before[k] = rows with key < k

  uint64_t Count(int64_t lo, int64_t hi) const {
    auto at = [&](int64_t k) {
      return before[static_cast<size_t>(
          std::clamp<int64_t>(k, 0, static_cast<int64_t>(before.size()) - 1))];
    };
    return at(hi + 1) - at(lo);
  }
};

ReadReference BuildReference(const RowTable& lineorder) {
  const size_t col =
      Take(lineorder.schema().ColumnIndex("lo_partkey"), "column");
  std::vector<uint64_t> count;
  for (Rid rid = 0; rid < lineorder.num_rows(); ++rid) {
    size_t k = static_cast<size_t>(Int64FromSlot(lineorder.GetSlot(rid, col)));
    if (k >= count.size()) count.resize(k + 1, 0);
    ++count[k];
  }
  ReadReference ref;
  ref.before.assign(count.size() + 1, 0);
  for (size_t k = 0; k < count.size(); ++k) {
    ref.before[k + 1] = ref.before[k] + count[k];
    if (count[k] > 0) ref.keys.push_back(static_cast<int64_t>(k));
  }
  return ref;
}

struct ReadSample {
  bool range = false;
  double latency_ms = 0;
  double overhead_us = 0;  // traced: read latency minus a direct tree read
};

struct ReadLog {
  explicit ReadLog(uint32_t tid) : spans(tid) {}
  std::vector<ReadSample> samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double last_done_us = 0;
  SpanLog spans;
};

// The same answer straight from the KISS-Tree, without the engine.
void DirectRead(const KissTree& tree, int64_t lo, int64_t hi,
                std::vector<uint64_t>* out) {
  out->clear();
  auto push = [&](uint64_t id) { out->push_back(id); };
  if (lo == hi) {
    KissTree::ValueRef vals;
    if (tree.Lookup(static_cast<uint32_t>(lo), &vals)) vals.ForEach(push);
  } else {
    tree.ScanRange(static_cast<uint32_t>(lo), static_cast<uint32_t>(hi),
                   [&](uint32_t, const KissTree::ValueRef& vals) {
                     vals.ForEach(push);
                   });
  }
}

void RunReadRequest(engine::EngineRunner& runner, const IndexedTable& table,
                    const ReadReference& ref, Rng* rng, bool traced,
                    ReadLog* log, std::vector<uint64_t>* scratch) {
  const int64_t k = ref.keys[rng->NextBounded(ref.keys.size())];
  const bool range = rng->NextBounded(kRangeEvery) == 0;
  const int64_t hi = range ? k + kRangeWidth : k;
  const double t0 = NowUs();
  auto result = range ? runner.RangeRead(table, k, hi)
                      : runner.PointRead(table, k);
  const double t1 = NowUs();
  log->last_done_us = t1;
  ++log->attempted;
  ReadSample s;
  s.range = range;
  s.latency_ms = (t1 - t0) / 1000.0;
  if (traced) {
    double d0 = NowUs();
    DirectRead(*table.kiss(), k, hi, scratch);
    s.overhead_us = (t1 - t0) - (NowUs() - d0);
    SpanLog& spans = log->spans;
    uint64_t request = spans.NewId();
    spans.Add(range ? "range" : "point", Layer::kRequest, t0, t1, request, 0,
              request);
    spans.Add(range ? "engine.range_read" : "engine.point_read",
              Layer::kEngine, t0, t1, spans.NewId(), request, request);
  }
  auto what = [&] {
    return (range ? "RangeRead(" + std::to_string(k) + ", " +
                        std::to_string(hi)
                  : "PointRead(" + std::to_string(k)) +
           ")";
  };
  if (!result.ok()) {
    NoteFailure(what() + ": " + result.status().ToString(), &log->failed);
    return;
  }
  const size_t key_pos = table.key_column_positions()[0];
  bool keys_ok = true;
  for (uint64_t id : *result) {
    int64_t key = Int64FromSlot(table.Tuple(id)[key_pos]);
    keys_ok = keys_ok && key >= k && key <= hi;
  }
  if (!keys_ok || result->size() != ref.Count(k, hi)) {
    NoteFailure(what() + " returned " + std::to_string(result->size()) +
                    " rows; the row table has " +
                    std::to_string(ref.Count(k, hi)),
                &log->failed);
    return;
  }
  log->samples.push_back(s);
}

struct ReadWindow {
  double elapsed_s = 0;
  std::vector<std::unique_ptr<ReadLog>> clients;
  obs::MetricsSnapshot before;
  obs::MetricsSnapshot after;
  engine::EngineRunner::ReadStats stats_before;
  engine::EngineRunner::ReadStats stats_after;

  std::vector<const ReadSample*> Samples() const {
    std::vector<const ReadSample*> out;
    for (const auto& c : clients) {
      for (const auto& s : c->samples) out.push_back(&s);
    }
    return out;
  }
  double OpsPerS() const {
    return Ratio(static_cast<double>(Samples().size()), elapsed_s);
  }
};

// kReadClients closed-loop clients until `seconds` pass, or (seconds <=
// 0) for kWarmupReads reads each.
ReadWindow RunReadWindow(engine::EngineRunner& runner, const ReadState& st,
                         const ReadReference& ref, uint64_t seed,
                         double seconds, bool traced, uint64_t stream_base) {
  ReadWindow w;
  for (size_t c = 0; c < kReadClients; ++c) {
    w.clients.push_back(
        std::make_unique<ReadLog>(static_cast<uint32_t>(c + 1)));
  }
  w.stats_before = runner.read_stats();
  w.before = obs::MetricsRegistry::Global().Snapshot();
  const double start = NowUs();
  const double end = start + seconds * 1e6;
  {
    ForkJoin fork(kReadClients);
    for (size_t c = 0; c < kReadClients; ++c) {
      fork.Spawn([&, c] {
        Rng rng = StreamRng(seed, stream_base + c);
        std::vector<uint64_t> scratch;
        ReadLog* log = w.clients[c].get();
        while (seconds > 0 ? NowUs() < end : log->attempted < kWarmupReads) {
          RunReadRequest(runner, *st.table, ref, &rng, traced, log, &scratch);
        }
      });
    }
    fork.Join();
  }
  w.after = obs::MetricsRegistry::Global().Snapshot();
  w.stats_after = runner.read_stats();
  double last = start;
  for (const auto& c : w.clients) last = std::max(last, c->last_done_us);
  w.elapsed_s = (last - start) / 1e6;
  return w;
}

Report RunPointReads(const Options& opt) {
  Report report;
  engine::EngineRunner runner;
  std::vector<double> generate_s;
  ReadState state;
  const double setup_s =
      RepeatSetup(&state, &generate_s,
                  [&](double* gen) { return SetupReads(opt.seed, gen); });
  const ReadReference ref = BuildReference(
      *Take(state.data->db.table("lineorder"), "lineorder"));
  auto window = [&](double seconds, bool traced, uint64_t stream_base) {
    return RunReadWindow(runner, state, ref, opt.seed, seconds, traced,
                         stream_base);
  };

  // Warm-up, then the measured windows (see RunQueryWorkload for the
  // traced run's layout).
  ReadWindow warmup = window(0, false, 100);
  std::vector<ReadWindow> untraced;
  std::optional<ReadWindow> traced;
  if (opt.trace) {
    untraced.push_back(window(opt.seconds / 4, false, 200));
    traced = window(opt.seconds / 2, true, 300);
    untraced.push_back(window(opt.seconds / 4, false, 400));
  } else {
    untraced.push_back(window(opt.seconds, false, 200));
  }
  std::vector<const ReadWindow*> windows = {&warmup};
  for (const auto& w : untraced) windows.push_back(&w);
  if (traced) windows.push_back(&*traced);
  for (const ReadWindow* w : windows) {
    for (const auto& c : w->clients) {
      report.attempted += c->attempted;
      report.failed += c->failed;
    }
  }

  std::vector<double> point_ms;
  std::vector<double> range_ms;
  std::vector<double> all;
  double elapsed_s = 0;
  for (const ReadWindow& w : untraced) {
    for (const ReadSample* s : w.Samples()) {
      (s->range ? range_ms : point_ms).push_back(s->latency_ms);
      all.push_back(s->latency_ms);
    }
    elapsed_s += w.elapsed_s;
  }
  const double ops_per_s = Ratio(static_cast<double>(all.size()), elapsed_s);
  const double geomean = Geomean({Median(point_ms), Median(range_ms)});
  const double p99 = Quantile(all, 0.99);
  std::printf("point-reads seed=%llu: %zu reads in %.2f s from %zu clients\n",
              static_cast<unsigned long long>(opt.seed), all.size(), elapsed_s,
              kReadClients);
  Note("reads_per_s", ops_per_s, "1/s");
  Note("read_p50_us", Median(all) * 1000.0, "us");
  Note("read_p99_us", p99 * 1000.0, "us");
  Note("point_p50_us", Median(point_ms) * 1000.0, "us");
  Note("range_p50_us", Median(range_ms) * 1000.0, "us");
  Note("error_rate", Ratio(static_cast<double>(report.failed),
                           static_cast<double>(report.attempted)),
       "failed/attempted");
  if (!opt.trace) {
    AddEndToEnd(setup_s, ops_per_s, geomean, p99, &report);
    return report;
  }

  LayerMetrics m;
  std::vector<double> overhead;
  for (const ReadSample* s : traced->Samples()) {
    overhead.push_back(s->overhead_us);
  }
  const double n = static_cast<double>(overhead.size());
  m.overhead_us = Median(overhead);
  m.read_batch_keys = Ratio(
      static_cast<double>(traced->stats_after.batched_keys -
                          traced->stats_before.batched_keys),
      static_cast<double>(traced->stats_after.shared_scans -
                          traced->stats_before.shared_scans));
  FillRegistryMetrics(RegistryDelta(traced->before, traced->after), 0, &m);
  m.trace_overhead = Ratio(ops_per_s, traced->OpsPerS());
  std::vector<const SpanLog*> logs;
  for (const auto& c : traced->clients) logs.push_back(&c->spans);
  std::vector<double> self = SelfTimeByLayer(logs);
  for (size_t l = 0; l < kNumLayers; ++l) m.self_us[l] = Ratio(self[l], n);
  m.index_memory_mb = static_cast<double>(state.table->MemoryUsage()) / 1e6;
  ProbeKiss(*state.table->kiss(), ref.keys, opt.seed, &m);
  m.generate_s = Median(generate_s);
  AddPerLayer(m, &report);
  if (!WriteTrace(opt, logs)) report.Fail("trace file not written");
  return report;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"ssb-flight", "ssb-clients",
                                                  "point-reads", "htap"};
  return kNames;
}

Report RunWorkload(const Options& opt) {
  // Scale factors: lineorder at SF 0.5 (3M rows) is several times the
  // 105 MiB L3 of the reference box; SF 0.1 roughly fits in it.
  if (opt.workload == "ssb-flight") {
    return RunQueryWorkload({.scale_factor = 0.5, .clients = 1}, opt);
  }
  if (opt.workload == "ssb-clients") {
    // 3 clients, not 4: with the 4 morsel workers, 4 clients
    // oversubscribed the 4-thread box and repeated worse.
    return RunQueryWorkload({.scale_factor = 0.1,
                             .prefer_kiss = false,
                             .clients = 3,
                             .prepared = true},
                            opt);
  }
  if (opt.workload == "point-reads") return RunPointReads(opt);
  if (opt.workload == "htap") {
    return RunQueryWorkload(
        {.scale_factor = 0.3, .versioned = true, .clients = 2}, opt);
  }
  throw std::runtime_error("unknown workload '" + opt.workload + "'");
}

}  // namespace qppt::bench
