#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace qppt::bench {

namespace {

const auto kProcessStart = std::chrono::steady_clock::now();

std::string FormatNumber(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : std::string("0");
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - kProcessStart)
      .count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  size_t idx = rank == 0 ? 0 : std::min(rank - 1, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(idx), v.end());
  return v[idx];
}

double Geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB
}

void Report::Fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ", ";
    out += '"';
    out += JsonEscape(m.name);
    out += "\": {\"value\": ";
    out += FormatNumber(std::isfinite(m.value) ? m.value : 0);
    out += ", \"unit\": \"";
    out += JsonEscape(m.unit);
    out += "\"}";
  }
  out += "}}";
  return out;
}

uint64_t RegistryDelta::Counter(std::string_view name) const {
  return after_.CounterValue(name) - before_.CounterValue(name);
}

double RegistryDelta::HistogramQuantile(std::string_view name,
                                        double q) const {
  const obs::MetricValue* after = after_.Find(name);
  if (after == nullptr || after->bounds.empty()) return 0;
  const obs::MetricValue* before = before_.Find(name);
  std::vector<uint64_t> counts = after->bucket_counts;
  uint64_t total = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (before != nullptr && i < before->bucket_counts.size()) {
      counts[i] -= before->bucket_counts[i];
    }
    total += counts[i];
  }
  if (total == 0) return 0;
  double target = q * static_cast<double>(total);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    cumulative += counts[i];
    if (static_cast<double>(cumulative) >= target) {
      return after->bounds[std::min(i, after->bounds.size() - 1)];
    }
  }
  return after->bounds.back();
}

// ---- spans ------------------------------------------------------------------

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kRequest:
      return "request";
    case Layer::kPlanner:
      return "planner";
    case Layer::kEngine:
      return "engine";
    case Layer::kOperators:
      return "operators";
    case Layer::kMorsels:
      return "morsels";
    case Layer::kMerges:
      return "merges";
  }
  return "?";
}

void SpanLog::ImportQueryTrace(const obs::QueryTrace& trace,
                               uint64_t execute_id, uint64_t request) {
  const double epoch = NowUs() - trace.NowUs();
  const size_t driver = trace.driver_lane();
  std::unordered_map<std::string, uint64_t> operator_ids;
  trace.ForEachSpan([&](const obs::TraceSpan& s) {
    if (s.kind != obs::SpanKind::kOperator) return;
    uint64_t id = NewId();
    operator_ids[s.label] = id;
    spans_.push_back({s.label, Layer::kOperators, epoch + s.t_start_us,
                      epoch + s.t_end_us, id, execute_id, request, tid_});
  });
  trace.ForEachSpan([&](const obs::TraceSpan& s) {
    if (s.kind == obs::SpanKind::kOperator) return;
    auto it = operator_ids.find(s.label);
    uint64_t parent = it != operator_ids.end() ? it->second : execute_id;
    uint32_t tid = s.worker == driver ? tid_ : 1000 + s.worker;
    spans_.push_back({s.label,
                      s.kind == obs::SpanKind::kMerge ? Layer::kMerges
                                                      : Layer::kMorsels,
                      epoch + s.t_start_us, epoch + s.t_end_us, NewId(),
                      parent, request, tid});
  });
}

std::vector<double> SelfTimeByLayer(const std::vector<const SpanLog*>& logs) {
  std::unordered_map<uint64_t, std::vector<std::pair<double, double>>> kids;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      if (s.parent != 0) kids[s.parent].emplace_back(s.t0_us, s.t1_us);
    }
  }
  std::vector<double> self(kNumLayers, 0.0);
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      double covered = 0;
      auto it = kids.find(s.id);
      if (it != kids.end()) {
        // Union of the children's intervals, clipped to the parent: a
        // layer's self time is the part of its span no child accounts
        // for (parallel morsels overlap, so their sum would overcount).
        auto& iv = it->second;
        std::sort(iv.begin(), iv.end());
        double lo = 0;
        double hi = -1;
        for (auto [a, b] : iv) {
          a = std::max(a, s.t0_us);
          b = std::min(b, s.t1_us);
          if (b <= a) continue;
          if (a > hi) {
            if (hi > lo) covered += hi - lo;
            lo = a;
            hi = b;
          } else {
            hi = std::max(hi, b);
          }
        }
        if (hi > lo) covered += hi - lo;
      }
      self[static_cast<size_t>(s.layer)] +=
          std::max(0.0, s.t1_us - s.t0_us - covered);
    }
  }
  return self;
}

bool WriteChromeTrace(const std::vector<const SpanLog*>& logs,
                      const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::perror(("cannot open " + path).c_str());
    return false;
  }
  std::fputs("{\"traceEvents\": [\n", f);
  bool first = true;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                   "\"args\": {\"id\": %llu, \"parent\": %llu, "
                   "\"request\": %llu}}",
                   first ? "" : ",\n", JsonEscape(s.name).c_str(),
                   LayerName(s.layer), s.t0_us, s.t1_us - s.t0_us, s.tid,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  bool ok = std::ferror(f) == 0;
  if (std::fclose(f) != 0) ok = false;
  if (!ok) std::fprintf(stderr, "error writing %s\n", path.c_str());
  return ok;
}

}  // namespace qppt::bench
