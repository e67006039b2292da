// Per-query execution trace: morsel/merge/operator span timelines
// (ISSUE 7 tentpole, part 3).
//
// When PlanKnobs::trace is set, the engine records one span per executed
// morsel, per parallel operator's merge, and per plan operator:
// {worker, stage label, t_start, t_end}, all relative to the query's
// trace epoch. TraceToJson() exports the spans in the chrome://tracing /
// Perfetto "traceEvents" format, so an 8-thread execution can finally be
// *seen* — idle gaps, stealing storms, and merge walls included.
//
// Concurrency model: one lane per morsel worker plus one driver lane
// (the client thread running Plan::Run). Each lane is written only by
// its own thread — workers record their morsels, the driver records
// operator and merge spans — so recording is wait-free and TSan-clean with
// no synchronization beyond the fork-join barriers the scheduler already
// provides. Span storage is arena-backed (chunked arrays bump-allocated
// from a per-lane Arena), so a million-span trace costs a handful of
// mmap'd blocks and zero per-span heap calls.

#ifndef QPPT_OBS_TRACE_H_
#define QPPT_OBS_TRACE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/arena.h"

namespace qppt::obs {

enum class SpanKind : uint8_t {
  kMorsel,    // one scheduler morsel of an operator's scan
  kMerge,     // one operator's fold of its partial outputs (driver lane)
  kOperator,  // one whole plan operator (driver lane)
};

struct TraceSpan {
  const char* label = nullptr;  // arena-copied stage label, NUL-terminated
  double t_start_us = 0;        // relative to the trace epoch
  double t_end_us = 0;
  uint32_t worker = 0;          // lane (== morsel worker id; driver = lanes-1)
  SpanKind kind = SpanKind::kMorsel;
};

class QueryTrace {
 public:
  // `workers` morsel-worker lanes plus one driver lane. The epoch (t=0)
  // is construction time.
  explicit QueryTrace(size_t workers);
  QueryTrace(const QueryTrace&) = delete;
  QueryTrace& operator=(const QueryTrace&) = delete;

  size_t num_worker_lanes() const { return lanes_.size() - 1; }
  size_t driver_lane() const { return lanes_.size() - 1; }

  // Microseconds since the trace epoch.
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  // Records one span into `lane`'s buffer. Wait-free; safe as long as no
  // two threads record into the same lane concurrently (the engine's
  // one-thread-per-worker structure guarantees this). Lanes beyond
  // num_worker_lanes() wrap — a defensive clamp, not an expected path.
  void Record(size_t lane, std::string_view label, SpanKind kind,
              double t_start_us, double t_end_us);

  // Invokes fn(const TraceSpan&) for every span, lane by lane. Call only
  // after execution quiesces (no concurrent Record).
  template <typename F>
  void ForEachSpan(F&& fn) const {
    for (const Lane& lane : lanes_) {
      for (const Chunk* c = lane.head; c != nullptr; c = c->next) {
        for (size_t i = 0; i < c->used; ++i) fn(c->spans[i]);
      }
    }
  }

 private:
  using Clock = std::chrono::steady_clock;

  static constexpr size_t kChunkSpans = 256;
  struct Chunk {
    TraceSpan spans[kChunkSpans];
    size_t used = 0;
    Chunk* next = nullptr;
  };
  // One writer thread per lane; cache-line padded so two workers never
  // share a lane's hot fields.
  struct alignas(64) Lane {
    Arena arena;
    Chunk* head = nullptr;
    Chunk* tail = nullptr;
  };

  Clock::time_point epoch_;
  std::vector<Lane> lanes_;
};

// Microseconds on `trace`'s clock, or on the steady clock (arbitrary
// epoch) when `trace` is null. Two reads bound an interval that both a
// stats timer and, when traced, its span report — so the two agree.
inline double ClockUs(const QueryTrace* trace) {
  if (trace != nullptr) return trace->NowUs();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Exports the trace as chrome://tracing / Perfetto JSON: one complete
// ("ph":"X") event per span with ts/dur in microseconds, tid = lane,
// cat = morsel|merge|operator, plus thread_name metadata naming the
// worker lanes. Open via chrome://tracing "Load" or ui.perfetto.dev.
std::string TraceToJson(const QueryTrace& trace);

}  // namespace qppt::obs

#endif  // QPPT_OBS_TRACE_H_
