// The 13 SSB queries on the declarative query API (§3, §5).
//
// Each query is a query::QuerySpec built with the fluent QueryBuilder;
// the rule-based planner (core/query/planner.h) emits the physical plan
// DexterDB's optimizer would, honoring the demonstrator knobs
// (appendix A):
//   - knobs.use_select_join: Q1.x run as a composed select-join-group
//     (lineorder selection streamed into the date join) versus a separate
//     selection + join-group — the Fig. 8 experiment;
//   - knobs.max_join_ways: caps the arity of the composed star joins,
//     expanding the plan into a chain of smaller joins — the Fig. 9
//     experiment (2-way / 3-way / 4-way / multi);
//   - knobs.join_buffer_size: joinbuffer capacity — the E7 ablation.

#ifndef QPPT_SSB_QUERIES_QPPT_H_
#define QPPT_SSB_QUERIES_QPPT_H_

#include <string>
#include <vector>

#include "core/plan.h"
#include "core/query/query_spec.h"
#include "ssb/dbgen.h"

namespace qppt::engine {
class EngineRunner;  // engine/session.h
}  // namespace qppt::engine

namespace qppt::ssb {

// All SSB query ids: "1.1" .. "4.3".
const std::vector<std::string>& AllQueryIds();

// The declarative description of one SSB query — the planner input, and
// what EngineRunner::Prepare consumes for prepared execution.
Result<query::QuerySpec> BuildQuerySpec(const SsbData& data,
                                        const std::string& query_id);

// Builds the QPPT plan for one query (BuildQuerySpec + PlanQuery).
Result<Plan> BuildQpptPlan(const SsbData& data, const std::string& query_id,
                           const PlanKnobs& knobs);

// Builds, runs, and returns rows ordered per the query's ORDER BY clause
// (the planner attaches the Q3.x revenue-desc post-sort to the plan;
// everything else falls out of the output index order). `stats` is
// optional.
Result<QueryResult> RunQppt(const SsbData& data, const std::string& query_id,
                            const PlanKnobs& knobs,
                            PlanStats* stats = nullptr);

// Same query flight admitted through the engine layer: an
// EngineRunner{threads: N > 1} attaches its morsel pool, so its operators
// fork their morsels; an EngineRunner{threads: 1} attaches none, and the
// identical plans run every driver inline.
Result<QueryResult> RunQppt(engine::EngineRunner& engine, const SsbData& data,
                            const std::string& query_id,
                            const PlanKnobs& knobs,
                            PlanStats* stats = nullptr);

// Applies a query's ORDER BY to extracted rows (used by the baseline
// engines so all three systems return comparable row orders; QPPT plans
// carry their ORDER BY in Plan::result_order()). Fails when the result
// is missing an ORDER BY column — a silently unsorted baseline would
// corrupt every differential comparison downstream.
Status ApplyOrderBy(const std::string& query_id, QueryResult* result);

}  // namespace qppt::ssb

#endif  // QPPT_SSB_QUERIES_QPPT_H_
