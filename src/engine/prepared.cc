#include "engine/prepared.h"

#include <memory>
#include <string>
#include <utility>

#include "core/query/planner.h"
#include "dbg/lock_rank.h"
#include "obs/metrics.h"

namespace qppt::engine {

namespace {

// Plan-cache metrics across all PreparedQuery instances.
struct PlanCacheMetrics {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* evictions;

  static PlanCacheMetrics& Get() {
    static PlanCacheMetrics m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      PlanCacheMetrics p;
      p.hits = reg.GetCounter("engine_plan_cache_hits_total",
                              "Prepared executions served a cached plan.");
      p.misses = reg.GetCounter("engine_plan_cache_misses_total",
                                "Prepared executions that had to replan.");
      p.evictions = reg.GetCounter(
          "engine_plan_cache_evictions_total",
          "Cached plans FIFO-evicted at the per-query cache cap.");
      return p;
    }();
    return m;
  }
};

// Only the plan-shaping knobs key the cache; buffer sizes and thread
// counts are runtime parameters read from the ExecContext at execution.
Result<std::string> CacheKey(const PlanKnobs& knobs,
                             const query::QueryParams& params) {
  QPPT_ASSIGN_OR_RETURN(std::string params_key, query::ParamsKey(params));
  std::string key = knobs.use_select_join ? "sj|w" : "-|w";
  key += std::to_string(knobs.max_join_ways);
  key += '|';
  key += params_key;
  return key;
}

}  // namespace

Result<std::shared_ptr<const Plan>> PreparedQuery::GetPlan(
    const PlanKnobs& knobs, const query::QueryParams& params) const {
  QPPT_ASSIGN_OR_RETURN(const std::string key, CacheKey(knobs, params));
  {
    dbg::RankedLockGuard lock(dbg::LockRank::kPlanCache, state_->mu);
    auto it = state_->plans.find(key);
    if (it != state_->plans.end()) {
      // relaxed: statistics counter; no ordering needed.
      state_->hits.fetch_add(1, std::memory_order_relaxed);
      PlanCacheMetrics::Get().hits->Add();
      return it->second;
    }
  }
  // Plan outside the lock; concurrent first callers may plan twice, the
  // map keeps whichever lands first.
  query::QuerySpec bound;
  const query::QuerySpec* spec = &state_->spec;
  if (!params.empty()) {
    QPPT_ASSIGN_OR_RETURN(bound, query::BindParams(state_->spec, params));
    spec = &bound;
  }
  QPPT_ASSIGN_OR_RETURN(Plan plan,
                        query::PlanQuery(*state_->db, *spec, knobs));
  auto shared = std::make_shared<const Plan>(std::move(plan));
  dbg::RankedLockGuard lock(dbg::LockRank::kPlanCache, state_->mu);
  // relaxed: statistics counter; no ordering needed.
  state_->misses.fetch_add(1, std::memory_order_relaxed);
  PlanCacheMetrics::Get().misses->Add();
  auto [it, inserted] = state_->plans.emplace(key, std::move(shared));
  if (inserted) {
    state_->insertion_order.push_back(key);
    if (state_->insertion_order.size() > kMaxCachedPlans) {
      // FIFO-evict the oldest entry; executions holding its shared_ptr
      // finish unaffected.
      state_->plans.erase(state_->insertion_order.front());
      state_->insertion_order.erase(state_->insertion_order.begin());
      PlanCacheMetrics::Get().evictions->Add();
    }
  }
  return it->second;
}

}  // namespace qppt::engine
