// Engine-wide metrics: a lock-cheap registry of counters, gauges, and
// fixed-bucket latency histograms.
//
// Design goals, in order:
//   1. Hot-path writes must be cheap enough to leave enabled always-on
//      (<= one relaxed atomic RMW on a per-worker shard — no locks, no
//      allocation, no false sharing between workers).
//   2. Reads (Snapshot) fold the shards and may be arbitrarily slow; they
//      run on monitoring cadence, not on query paths.
//   3. The one exposition format, Prometheus text, is stable: a /metrics
//      endpoint would serve ToPrometheusText() verbatim, and
//      QPPT_METRICS_DUMP writes the same text at process exit so any run
//      can be inspected post-hoc.
//
// Sharding: every counter/histogram carries kShards cache-line-padded
// atomic cells. Writers pick a shard — engine code passes the morsel
// worker id explicitly (AddShard), everyone else gets a stable
// thread-local shard hash — and Snapshot() folds all shards. Totals are
// exact once writers quiesce; a snapshot racing writers sees each shard
// at some point in time (never torn, never negative).
//
// Registration is mutexed and returns pointers that stay valid for the
// registry's lifetime (metrics are never unregistered). Re-registering
// the same name returns the same metric, so instrumented components can
// look metrics up by name without coordinating ownership.

#ifndef QPPT_OBS_METRICS_H_
#define QPPT_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace qppt::obs {

// Shard count for counters/histograms. Worker ids above this wrap; 16
// covers the pool sizes the engine clamps to on today's hardware while
// keeping idle metrics small (16 * 64 B per counter).
inline constexpr size_t kMetricShards = 16;

namespace detail {
// One cache line per shard so two workers bumping the same counter never
// ping-pong a line.
struct alignas(64) ShardCell {
  std::atomic<uint64_t> value{0};
};

// Stable per-thread shard index for writers without a worker id.
size_t ThreadShard();
}  // namespace detail

// Monotonic counter. Add() from any thread; Value() folds the shards.
class Counter {
 public:
  void Add(uint64_t n = 1) { AddShard(detail::ThreadShard(), n); }
  void AddShard(size_t shard, uint64_t n = 1) {
    // relaxed: metric increment; totals need no ordering.
    shards_[shard % kMetricShards].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const auto& s : shards_) {
      // relaxed: metric snapshot; per-shard staleness is fine.
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  // Per-shard read-back (the per-worker split of a worker-sharded
  // counter, e.g. engine_worker_busy_ns_total).
  uint64_t ShardValue(size_t shard) const {
    // relaxed: metric snapshot; staleness is fine.
    return shards_[shard % kMetricShards].value.load(
        std::memory_order_relaxed);
  }

 private:
  detail::ShardCell shards_[kMetricShards];
};

// Instantaneous signed value (queue depths, horizon lags). Set/Add from
// any thread; last write wins, which is the right semantics for a gauge.
class Gauge {
 public:
  // relaxed (all three): gauge value; last-write-wins, no ordering.
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Fixed-bucket histogram: bucket upper bounds are set at registration
// and never change, so Observe() is a binary search plus one sharded
// increment. Values above the last bound land in the implicit +Inf
// bucket. The sum is accumulated in micro-units (value * 1e6, rounded)
// so it can stay a lock-free integer without losing sub-millisecond
// latencies.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value) { ObserveShard(detail::ThreadShard(), value); }
  void ObserveShard(size_t shard, double value);

  const std::vector<double>& bounds() const { return bounds_; }

  // Folded cumulative state (exact once writers quiesce).
  uint64_t Count() const;
  double Sum() const;
  // Per-bucket (non-cumulative) counts; size() == bounds().size() + 1,
  // the last entry being the +Inf bucket.
  std::vector<uint64_t> BucketCounts() const;

 private:
  struct alignas(64) Shard {
    std::vector<std::atomic<uint64_t>> buckets;
    std::atomic<uint64_t> count{0};
    std::atomic<int64_t> sum_micros{0};
  };

  std::vector<double> bounds_;
  std::vector<Shard> shards_;
};

// Exponential bucket bounds: start, start*factor, ... (count bounds).
std::vector<double> ExponentialBuckets(double start, double factor,
                                       size_t count);

enum class MetricType { kCounter, kGauge, kHistogram };

// One metric's folded state at snapshot time.
struct MetricValue {
  std::string name;
  std::string help;
  MetricType type = MetricType::kCounter;
  uint64_t counter = 0;                  // kCounter
  int64_t gauge = 0;                     // kGauge
  std::vector<double> bounds;            // kHistogram
  std::vector<uint64_t> bucket_counts;   // kHistogram, +Inf last
  uint64_t count = 0;                    // kHistogram
  double sum = 0;                        // kHistogram
};

// A stable snapshot of every registered metric, sorted by name.
struct MetricsSnapshot {
  std::vector<MetricValue> metrics;

  const MetricValue* Find(std::string_view name) const;
  // Convenience: counter value by name (0 when absent).
  uint64_t CounterValue(std::string_view name) const;

  // Prometheus text exposition format v0.0.4 (# HELP/# TYPE + samples;
  // histograms expand to _bucket{le=...}/_sum/_count).
  std::string ToPrometheusText() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Idempotent by name; the returned pointer is valid for the registry's
  // lifetime. `help` is recorded on first registration only.
  Counter* GetCounter(std::string_view name, std::string_view help = "");
  Gauge* GetGauge(std::string_view name, std::string_view help = "");
  // `bounds` must be ascending; recorded on first registration only.
  Histogram* GetHistogram(std::string_view name, std::vector<double> bounds,
                          std::string_view help = "");

  MetricsSnapshot Snapshot() const;

  // The process-wide registry every engine component reports into. The
  // first call also arms the QPPT_METRICS_DUMP exit hook: when that env
  // var names a path, the registry's Prometheus text is written there at
  // process exit ("-" dumps to stderr).
  static MetricsRegistry& Global();

 private:
  struct Entry {
    MetricType type;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> entries_;
};

}  // namespace qppt::obs

#endif  // QPPT_OBS_METRICS_H_
