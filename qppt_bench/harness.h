// Measurement machinery shared by the qppt_bench workloads: one clock,
// order statistics, the metric report a run prints, registry deltas, and
// the in-memory span log the traced run writes as a chrome://tracing file.

#ifndef QPPT_BENCH_HARNESS_H_
#define QPPT_BENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace qppt::bench {

// Microseconds since process start on the steady clock. Every latency
// sample and every span uses this one clock.
double NowUs();

// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}
// Geometric mean of positive values; 0 for an empty input.
double Geomean(const std::vector<double>& v);

// Deterministic per-stream generator: the run's --seed plus a stream id
// (client index, writer, ...), so every input a run draws follows from
// the seed alone.
inline Rng StreamRng(uint64_t seed, uint64_t stream) {
  return Rng(seed * 0x9E3779B97F4A7C15ULL + stream * 0xD1B54A32D192ED03ULL +
             1);
}

// High-water resident set size of this process, in MB (1e6 bytes).
double PeakRssMb();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one run reports: the correctness verdict, the operation counts,
// and the metrics in print order. `failed` counts operations that
// returned an error or a result the checks rejected.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Fail(const std::string& why);
  // The final stdout line: {"correct", "attempted", "failed", "metrics"}.
  std::string ToJson() const;
};

// Folded change of the global metrics registry between two snapshots,
// which it references and which must outlive it.
class RegistryDelta {
 public:
  RegistryDelta(const obs::MetricsSnapshot& before,
                const obs::MetricsSnapshot& after)
      : before_(before), after_(after) {}
  uint64_t Counter(std::string_view name) const;
  // Upper bound of the histogram bucket holding quantile q of the
  // observations made between the snapshots (the last finite bound for
  // the +Inf bucket; 0 when nothing was observed).
  double HistogramQuantile(std::string_view name, double q) const;

 private:
  const obs::MetricsSnapshot& before_;
  const obs::MetricsSnapshot& after_;
};

// ---- spans ------------------------------------------------------------------

// Layers a span can belong to; a layer's self time is its spans'
// durations minus the part of each interval that child spans cover.
enum class Layer : uint8_t {
  kRequest,    // one client request, as the client timed it
  kPlanner,    // BuildQuerySpec + PlanQuery
  kEngine,     // EngineRunner calls, minus the operators they ran
  kOperators,  // plan operators (engine trace, driver lane)
  kMorsels,    // morsel executions (engine trace, worker lanes)
  kMerges,     // partitioned-merge shards (engine trace, worker lanes)
};
inline constexpr size_t kNumLayers = 6;
const char* LayerName(Layer layer);

struct Span {
  std::string name;
  Layer layer = Layer::kRequest;
  double t0_us = 0;
  double t1_us = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t request = 0;
  uint32_t tid = 0;     // chrome://tracing track
};

// One client thread's spans; not thread-safe. Ids are unique across logs
// because each log owns the id range above `tid << 40`.
class SpanLog {
 public:
  explicit SpanLog(uint32_t tid) : tid_(tid) {}

  uint64_t NewId() { return (uint64_t{tid_} << 40) | ++next_; }
  void Add(std::string name, Layer layer, double t0_us, double t1_us,
           uint64_t id, uint64_t parent, uint64_t request) {
    spans_.push_back(
        {std::move(name), layer, t0_us, t1_us, id, parent, request, tid_});
  }
  // Nests an engine trace (PlanKnobs::trace) under the engine span
  // `execute_id`: operator spans become its children, morsel and merge
  // spans children of the operator span with their stage label. The
  // engine trace's epoch is recovered by comparing its clock with
  // NowUs(), so the import may run any time after the execution.
  void ImportQueryTrace(const obs::QueryTrace& trace, uint64_t execute_id,
                        uint64_t request);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint32_t tid_;
  uint64_t next_ = 0;
  std::vector<Span> spans_;
};

// Total self time per layer (microseconds), indexed by Layer.
std::vector<double> SelfTimeByLayer(const std::vector<const SpanLog*>& logs);

// Writes every span as a chrome://tracing "X" event. Returns false (and
// says why on stderr) when the file cannot be written.
bool WriteChromeTrace(const std::vector<const SpanLog*>& logs,
                      const std::string& path);

}  // namespace qppt::bench

#endif  // QPPT_BENCH_HARNESS_H_
