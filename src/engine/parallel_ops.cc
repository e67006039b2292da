#include "engine/parallel_ops.h"

namespace qppt::engine {

double PartialOutputs::MergeInto(const MorselSite& site) {
  if (partials_.empty()) return 0;
  obs::QueryTrace* trace = site.trace;
  const double t0 = obs::ClockUs(trace);
  for (auto& partial : partials_) {
    // Each fold is a cancellation boundary: a cancelled query abandons
    // the output (a context-owned intermediate the error path drops).
    if (site.cancel != nullptr) {
      Status st = site.cancel->Check();
      if (!st.ok()) throw CancelledException(std::move(st));
    }
    QPPT_FAILPOINT(merge_partial);
    output_->MergeFrom(*partial);
    partial.reset();  // free per-worker index memory eagerly
  }
  const double t1 = obs::ClockUs(trace);
  if (trace != nullptr) {
    trace->Record(trace->driver_lane(), site.label, obs::SpanKind::kMerge, t0,
                  t1);
  }
  return (t1 - t0) / 1000.0;
}

}  // namespace qppt::engine
