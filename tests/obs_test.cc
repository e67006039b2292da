// Observability units (ISSUE 7): MetricsRegistry shard folding and
// exposition formats, histogram bucketing, snapshot consistency under
// concurrent writers (TSan-checked by the engine CI job), and QueryTrace
// span recording + chrome://tracing JSON well-formedness.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "engine/scheduler.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qppt::obs {
namespace {

// ---- Counter / Gauge ---------------------------------------------------------

TEST(CounterTest, FoldsShards) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  for (size_t shard = 0; shard < kMetricShards; ++shard) {
    c.AddShard(shard, shard + 1);
  }
  // 1 + 2 + ... + kMetricShards.
  EXPECT_EQ(c.Value(), kMetricShards * (kMetricShards + 1) / 2);
  EXPECT_EQ(c.ShardValue(3), 4u);
  // Shards wrap rather than overflow the array.
  c.AddShard(kMetricShards + 3, 10);
  EXPECT_EQ(c.ShardValue(3), 14u);
}

TEST(CounterTest, ThreadLocalAddLandsSomewhere) {
  Counter c;
  c.Add();
  c.Add(4);
  EXPECT_EQ(c.Value(), 5u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  EXPECT_EQ(g.Value(), 0);
  g.Set(42);
  EXPECT_EQ(g.Value(), 42);
  g.Add(-50);
  EXPECT_EQ(g.Value(), -8);
}

// ---- Histogram ---------------------------------------------------------------

TEST(HistogramTest, BucketsCountAndSum) {
  Histogram h({1.0, 2.0, 4.0});
  // upper_bound semantics: a value equal to a bound goes to the NEXT
  // bucket (Prometheus `le` is cumulative, so the text output is still
  // conventional).
  h.Observe(0.5);   // bucket 0 (<= 1)
  h.Observe(1.0);   // bucket 1 (1 < v <= 2)... upper_bound(1.0) -> idx 1
  h.Observe(3.0);   // bucket 2
  h.Observe(100.0); // +Inf bucket
  EXPECT_EQ(h.Count(), 4u);
  EXPECT_NEAR(h.Sum(), 104.5, 1e-6);
  std::vector<uint64_t> counts = h.BucketCounts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);  // +Inf
}

TEST(HistogramTest, SubMillisecondSumSurvivesMicroAccumulation) {
  Histogram h({1.0});
  for (int i = 0; i < 1000; ++i) h.Observe(0.0005);
  EXPECT_NEAR(h.Sum(), 0.5, 1e-6);
}

TEST(HistogramTest, ExponentialBuckets) {
  std::vector<double> b = ExponentialBuckets(0.01, 4.0, 5);
  ASSERT_EQ(b.size(), 5u);
  EXPECT_NEAR(b[0], 0.01, 1e-12);
  EXPECT_NEAR(b[4], 0.01 * 256.0, 1e-9);
  EXPECT_TRUE(std::is_sorted(b.begin(), b.end()));
}

// ---- Registry ----------------------------------------------------------------

TEST(MetricsRegistryTest, IdempotentByName) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("test_total", "first help wins");
  Counter* b = reg.GetCounter("test_total", "ignored");
  EXPECT_EQ(a, b);
  EXPECT_EQ(reg.num_metrics(), 1u);
  a->Add(7);
  EXPECT_EQ(b->Value(), 7u);

  Gauge* g1 = reg.GetGauge("test_gauge");
  Gauge* g2 = reg.GetGauge("test_gauge");
  EXPECT_EQ(g1, g2);
  Histogram* h1 = reg.GetHistogram("test_ms", {1.0, 2.0});
  Histogram* h2 = reg.GetHistogram("test_ms", {99.0});  // bounds ignored
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h1->bounds().size(), 2u);
  EXPECT_EQ(reg.num_metrics(), 3u);

  MetricsSnapshot snap = reg.Snapshot();
  const MetricValue* m = snap.Find("test_total");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->help, "first help wins");
  EXPECT_EQ(snap.CounterValue("test_total"), 7u);
  EXPECT_EQ(snap.CounterValue("no_such_metric"), 0u);
}

TEST(MetricsRegistryTest, SnapshotSortedByName) {
  MetricsRegistry reg;
  reg.GetCounter("zzz_total");
  reg.GetCounter("aaa_total");
  reg.GetGauge("mmm");
  MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.metrics.size(), 3u);
  EXPECT_EQ(snap.metrics[0].name, "aaa_total");
  EXPECT_EQ(snap.metrics[1].name, "mmm");
  EXPECT_EQ(snap.metrics[2].name, "zzz_total");
}

// Concurrent writers vs a snapshotting reader. TSan (the engine CI job)
// is the real assertion here; the value checks document the folding
// contract: a racing snapshot is never torn and never exceeds the
// written total, and successive snapshots are monotonic.
TEST(MetricsRegistryTest, SnapshotConsistentUnderConcurrentWriters) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("writers_total");
  Histogram* h = reg.GetHistogram("writers_ms", {0.5, 1.5});
  constexpr size_t kThreads = 4;
  constexpr uint64_t kPerThread = 20000;

  std::vector<std::thread> writers;
  for (size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        c->AddShard(t);
        h->ObserveShard(t, static_cast<double>(i % 2));
      }
    });
  }

  uint64_t prev = 0;
  for (int i = 0; i < 50; ++i) {
    MetricsSnapshot snap = reg.Snapshot();
    uint64_t v = snap.CounterValue("writers_total");
    EXPECT_GE(v, prev);
    EXPECT_LE(v, kThreads * kPerThread);
    prev = v;
  }
  for (auto& w : writers) w.join();

  MetricsSnapshot final_snap = reg.Snapshot();
  EXPECT_EQ(final_snap.CounterValue("writers_total"), kThreads * kPerThread);
  const MetricValue* hm = final_snap.Find("writers_ms");
  ASSERT_NE(hm, nullptr);
  EXPECT_EQ(hm->count, kThreads * kPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t n : hm->bucket_counts) bucket_total += n;
  EXPECT_EQ(bucket_total, hm->count);
}

// ---- Exposition formats ------------------------------------------------------

TEST(MetricsSnapshotTest, PrometheusTextFormat) {
  MetricsRegistry reg;
  reg.GetCounter("fmt_total", "a counter")->Add(3);
  reg.GetGauge("fmt_depth", "a gauge")->Set(-2);
  Histogram* h = reg.GetHistogram("fmt_ms", {1.0, 4.0}, "a histogram");
  h->Observe(0.5);
  h->Observe(2.0);
  h->Observe(50.0);

  std::string text = reg.Snapshot().ToPrometheusText();
  EXPECT_NE(text.find("# HELP fmt_total a counter\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE fmt_total counter\nfmt_total 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE fmt_depth gauge\nfmt_depth -2\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE fmt_ms histogram\n"), std::string::npos);
  // Buckets are cumulative and end in +Inf == count.
  EXPECT_NE(text.find("fmt_ms_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("fmt_ms_bucket{le=\"4\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("fmt_ms_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("fmt_ms_sum 52.5\n"), std::string::npos);
  EXPECT_NE(text.find("fmt_ms_count 3\n"), std::string::npos);
}

TEST(MetricsSnapshotTest, JsonBalancedAndComplete) {
  MetricsRegistry reg;
  reg.GetCounter("j_total")->Add(1);
  reg.GetGauge("j_gauge")->Set(5);
  reg.GetHistogram("j_ms", {1.0})->Observe(0.25);
  std::string json = reg.Snapshot().ToJson();
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_NE(json.find("\"j_total\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"j_gauge\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"le\": \"+Inf\""), std::string::npos);
}

TEST(MetricsRegistryTest, GlobalIsProcessWideAndEngineInstrumented) {
  MetricsRegistry& g1 = MetricsRegistry::Global();
  MetricsRegistry& g2 = MetricsRegistry::Global();
  EXPECT_EQ(&g1, &g2);
  // Constructing a pool registers the scheduler metrics in the global
  // registry (names the CI bench-smoke job greps for).
  engine::WorkerPool pool(0);
  MetricsSnapshot snap = g1.Snapshot();
  EXPECT_NE(snap.Find("engine_tasks_executed_total"), nullptr);
  EXPECT_NE(snap.Find("engine_tasks_stolen_total"), nullptr);
  EXPECT_NE(snap.Find("engine_queue_depth"), nullptr);
}

// ---- QueryTrace --------------------------------------------------------------

TEST(QueryTraceTest, RecordsSpansPerLane) {
  QueryTrace trace(2);  // 2 worker lanes + driver
  EXPECT_EQ(trace.num_worker_lanes(), 2u);
  EXPECT_EQ(trace.driver_lane(), 2u);
  trace.Record(0, "sel:a", SpanKind::kMorsel, 1.0, 2.0);
  trace.Record(1, "sel:a", SpanKind::kMerge, 2.0, 3.0);
  trace.Record(trace.driver_lane(), "sel:a", SpanKind::kOperator, 0.5, 3.5);
  EXPECT_EQ(trace.num_spans(), 3u);

  size_t morsels = 0, merges = 0, operators = 0;
  trace.ForEachSpan([&](const TraceSpan& span) {
    EXPECT_STREQ(span.label, "sel:a");
    EXPECT_LE(span.t_start_us, span.t_end_us);
    switch (span.kind) {
      case SpanKind::kMorsel: ++morsels; break;
      case SpanKind::kMerge: ++merges; break;
      case SpanKind::kOperator: ++operators; break;
    }
  });
  EXPECT_EQ(morsels, 1u);
  EXPECT_EQ(merges, 1u);
  EXPECT_EQ(operators, 1u);
}

TEST(QueryTraceTest, LabelsAreArenaCopied) {
  QueryTrace trace(1);
  {
    std::string ephemeral = "sel:short_lived_label";
    trace.Record(0, ephemeral, SpanKind::kMorsel, 0, 1);
    // Mutate the source string; the recorded span must be unaffected.
    ephemeral.assign(ephemeral.size(), 'x');
  }
  trace.ForEachSpan([](const TraceSpan& span) {
    EXPECT_STREQ(span.label, "sel:short_lived_label");
  });
}

TEST(QueryTraceTest, ChunkGrowthPastChunkBoundary) {
  QueryTrace trace(1);
  constexpr size_t kSpans = 1000;  // > one 256-span chunk per lane
  for (size_t i = 0; i < kSpans; ++i) {
    trace.Record(0, "m", SpanKind::kMorsel, static_cast<double>(i),
                 static_cast<double>(i) + 0.5);
  }
  EXPECT_EQ(trace.num_spans(), kSpans);
  double last_start = -1;
  trace.ForEachSpan([&](const TraceSpan& span) {
    EXPECT_GT(span.t_start_us, last_start);  // insertion order per lane
    last_start = span.t_start_us;
  });
}

TEST(TraceToJsonTest, WellFormedWithThreadNamesAndEscaping) {
  QueryTrace trace(2);
  trace.Record(0, "sel:a", SpanKind::kMorsel, 1.0, 2.5);
  trace.Record(trace.driver_lane(), "weird\"label\\x", SpanKind::kOperator,
               0.0, 3.0);
  std::string json = TraceToJson(trace);

  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // One thread_name metadata row per lane (2 workers + driver).
  EXPECT_NE(json.find("\"worker-0\""), std::string::npos);
  EXPECT_NE(json.find("\"worker-1\""), std::string::npos);
  EXPECT_NE(json.find("\"driver\""), std::string::npos);
  // The morsel span as a complete event with duration.
  EXPECT_NE(json.find("\"cat\": \"morsel\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 1.500"), std::string::npos);
  // Quote and backslash escaped in the label.
  EXPECT_NE(json.find("weird\\\"label\\\\x"), std::string::npos);
}

}  // namespace
}  // namespace qppt::obs
