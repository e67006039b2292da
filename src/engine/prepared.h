// Prepared queries — the engine front door's compile-once handle.
//
// EngineRunner::Prepare(db, spec) validates a QuerySpec against a
// database once and returns a PreparedQuery. Execution through the
// handle looks up the compiled Plan in a per-prepared cache keyed by the
// plan-shaping knobs (select-join fusion, max_join_ways) and the bound
// parameter values; a hit skips the planner entirely, so the hot
// multi-client path replans at most once per distinct configuration.
// Cached plans are immutable and shared — concurrent sessions execute
// the same Plan object against private ExecContexts.
//
// Parameter re-binding (query::ParamBinding) patches predicate constants
// only; it never changes the plan shape, just selects a cache entry.

#ifndef QPPT_ENGINE_PREPARED_H_
#define QPPT_ENGINE_PREPARED_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/base_index.h"
#include "core/plan.h"
#include "core/query/query_spec.h"
#include "util/status.h"

namespace qppt::engine {

class EngineRunner;

// Copyable handle; copies share the spec and the plan cache. Only
// EngineRunner::Prepare creates these, so state_ is always non-null.
class PreparedQuery {
 public:
  const query::QuerySpec& spec() const { return state_->spec; }
  const Database& db() const { return *state_->db; }

  // Plan-cache observability (for tests and the throughput bench).
  uint64_t plan_cache_hits() const {
    // relaxed: statistics counter; no ordering needed.
    return state_->hits.load(std::memory_order_relaxed);
  }
  uint64_t plan_cache_misses() const {
    // relaxed: statistics counter; no ordering needed.
    return state_->misses.load(std::memory_order_relaxed);
  }

 private:
  friend class EngineRunner;

  // Bounds the per-prepared cache: plans beyond this are evicted FIFO,
  // so a workload with ever-changing parameter values cannot grow the
  // cache without bound (it degrades to plan-per-execute, which is what
  // the ad-hoc path does anyway).
  static constexpr size_t kMaxCachedPlans = 64;

  struct State {
    const Database* db = nullptr;
    query::QuerySpec spec;
    std::mutex mu;
    std::map<std::string, std::shared_ptr<const Plan>> plans;
    std::vector<std::string> insertion_order;  // FIFO eviction queue
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
  };

  explicit PreparedQuery(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  // Returns the cached plan for (knobs, params), planning on miss.
  Result<std::shared_ptr<const Plan>> GetPlan(
      const PlanKnobs& knobs, const query::QueryParams& params) const;

  std::shared_ptr<State> state_;
};

}  // namespace qppt::engine

#endif  // QPPT_ENGINE_PREPARED_H_
