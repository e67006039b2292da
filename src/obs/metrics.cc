#include "obs/metrics.h"

#include "dbg/lock_rank.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <utility>

#include "util/env.h"

namespace qppt::obs {

namespace detail {

size_t ThreadShard() {
  // The address of a thread_local is distinct per live thread and cheap
  // to hash; collisions only cost shared-shard contention, never
  // correctness.
  static thread_local char tag;
  uintptr_t p = reinterpret_cast<uintptr_t>(&tag);
  return static_cast<size_t>((p >> 6) % kMetricShards);
}

}  // namespace detail

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), shards_(kMetricShards) {
  for (auto& shard : shards_) {
    shard.buckets = std::vector<std::atomic<uint64_t>>(bounds_.size() + 1);
  }
}

void Histogram::ObserveShard(size_t shard, double value) {
  Shard& s = shards_[shard % kMetricShards];
  size_t b = static_cast<size_t>(
      std::upper_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  // relaxed (all three): metric increments; totals need no ordering.
  s.buckets[b].fetch_add(1, std::memory_order_relaxed);
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.sum_micros.fetch_add(static_cast<int64_t>(std::llround(value * 1e6)),
                         std::memory_order_relaxed);  // relaxed: ditto
}

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (const auto& s : shards_) {
    // relaxed: metric snapshot; staleness is fine.
    total += s.count.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Sum() const {
  int64_t micros = 0;
  for (const auto& s : shards_) {
    // relaxed: metric snapshot; staleness is fine.
    micros += s.sum_micros.load(std::memory_order_relaxed);
  }
  return static_cast<double>(micros) / 1e6;
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> counts(bounds_.size() + 1, 0);
  for (const auto& s : shards_) {
    for (size_t b = 0; b < counts.size(); ++b) {
      // relaxed: metric snapshot; staleness is fine.
      counts[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return counts;
}

std::vector<double> ExponentialBuckets(double start, double factor,
                                       size_t count) {
  std::vector<double> bounds;
  bounds.reserve(count);
  double b = start;
  for (size_t i = 0; i < count; ++i) {
    bounds.push_back(b);
    b *= factor;
  }
  return bounds;
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     std::string_view help) {
  dbg::RankedLockGuard lock(dbg::LockRank::kMetrics, mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.type = MetricType::kCounter;
    e.help = std::string(help);
    e.counter = std::make_unique<Counter>();
    it = entries_.emplace(std::string(name), std::move(e)).first;
  }
  return it->second.counter.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name,
                                 std::string_view help) {
  dbg::RankedLockGuard lock(dbg::LockRank::kMetrics, mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.type = MetricType::kGauge;
    e.help = std::string(help);
    e.gauge = std::make_unique<Gauge>();
    it = entries_.emplace(std::string(name), std::move(e)).first;
  }
  return it->second.gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::vector<double> bounds,
                                         std::string_view help) {
  dbg::RankedLockGuard lock(dbg::LockRank::kMetrics, mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.type = MetricType::kHistogram;
    e.help = std::string(help);
    e.histogram = std::make_unique<Histogram>(std::move(bounds));
    it = entries_.emplace(std::string(name), std::move(e)).first;
  }
  return it->second.histogram.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  dbg::RankedLockGuard lock(dbg::LockRank::kMetrics, mu_);
  snap.metrics.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {  // std::map: sorted by name
    MetricValue v;
    v.name = name;
    v.help = entry.help;
    v.type = entry.type;
    switch (entry.type) {
      case MetricType::kCounter:
        v.counter = entry.counter->Value();
        break;
      case MetricType::kGauge:
        v.gauge = entry.gauge->Value();
        break;
      case MetricType::kHistogram:
        v.bounds = entry.histogram->bounds();
        v.bucket_counts = entry.histogram->BucketCounts();
        v.count = entry.histogram->Count();
        v.sum = entry.histogram->Sum();
        break;
    }
    snap.metrics.push_back(std::move(v));
  }
  return snap;
}

const MetricValue* MetricsSnapshot::Find(std::string_view name) const {
  for (const auto& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

uint64_t MetricsSnapshot::CounterValue(std::string_view name) const {
  const MetricValue* m = Find(name);
  return m != nullptr && m->type == MetricType::kCounter ? m->counter : 0;
}

namespace {

void AppendDouble(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  *out += buf;
}

void AppendU64(std::string* out, uint64_t v) {
  *out += std::to_string(v);
}

}  // namespace

std::string MetricsSnapshot::ToPrometheusText() const {
  std::string out;
  for (const MetricValue& m : metrics) {
    if (!m.help.empty()) {
      out += "# HELP " + m.name + " " + m.help + "\n";
    }
    out += "# TYPE " + m.name + " ";
    switch (m.type) {
      case MetricType::kCounter:
        out += "counter\n" + m.name + " ";
        AppendU64(&out, m.counter);
        out += "\n";
        break;
      case MetricType::kGauge:
        out += "gauge\n" + m.name + " " + std::to_string(m.gauge) + "\n";
        break;
      case MetricType::kHistogram: {
        out += "histogram\n";
        uint64_t cumulative = 0;
        for (size_t b = 0; b < m.bucket_counts.size(); ++b) {
          cumulative += m.bucket_counts[b];
          out += m.name + "_bucket{le=\"";
          if (b < m.bounds.size()) {
            AppendDouble(&out, m.bounds[b]);
          } else {
            out += "+Inf";
          }
          out += "\"} ";
          AppendU64(&out, cumulative);
          out += "\n";
        }
        out += m.name + "_sum ";
        AppendDouble(&out, m.sum);
        out += "\n" + m.name + "_count ";
        AppendU64(&out, m.count);
        out += "\n";
        break;
      }
    }
  }
  return out;
}

namespace {

// QPPT_METRICS_DUMP exit hook: writes the global registry's Prometheus
// text to the named path ("-" = stderr) when the process exits, so any
// run — bench, test, server — leaves an inspectable metrics trail.
void DumpGlobalMetricsAtExit() {
  std::string path = GetEnvString("QPPT_METRICS_DUMP", "");
  if (path.empty()) return;
  std::string text = MetricsRegistry::Global().Snapshot().ToPrometheusText();
  if (path == "-") {
    std::fputs(text.c_str(), stderr);
    return;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::perror(("QPPT_METRICS_DUMP: cannot open " + path).c_str());
    return;
  }
  std::fputs(text.c_str(), f);
  std::fclose(f);
}

}  // namespace

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = [] {
    auto* r = new MetricsRegistry();  // leaked: outlives atexit handlers
    if (!GetEnvString("QPPT_METRICS_DUMP", "").empty()) {
      std::atexit(DumpGlobalMetricsAtExit);
    }
    return r;
  }();
  return *registry;
}

}  // namespace qppt::obs
