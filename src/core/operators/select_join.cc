#include "core/operators/select_join.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "engine/parallel_ops.h"

namespace qppt {

Status SelectJoinOp::Execute(ExecContext* ctx) {
  OperatorStats stats;
  stats.name = name();

  QPPT_ASSIGN_OR_RETURN(const BaseIndex* index,
                        ctx->db().index(spec_.input_index));
  const CompositeRange no_box;
  QPPT_RETURN_NOT_OK(index->CheckKeyPredicate(spec_.predicate, no_box));
  QPPT_ASSIGN_OR_RETURN(
      auto left,
      BoundSide::Bind(*ctx, SideRef::Base(spec_.input_index),
                      spec_.left_columns));
  QPPT_ASSIGN_OR_RETURN(auto residuals,
                        BindResiduals(*index, spec_.residuals));

  // The probed main index behaves exactly like a leading assisting index:
  // probe with `probe_column`, extend with the right side's columns. The
  // remaining assists follow.
  std::vector<AssistSpec> all_assists;
  all_assists.push_back(
      {spec_.right, spec_.probe_column, spec_.right_columns});
  all_assists.insert(all_assists.end(), spec_.assists.begin(),
                     spec_.assists.end());

  // O(columns) schema copy, once per operator bind.
  std::vector<ColumnDef> defs = left.column_defs();
  QPPT_ASSIGN_OR_RETURN(auto assists, BindAssists(*ctx, all_assists, &defs));
  Schema assembled(std::move(defs));
  const size_t width = assembled.num_columns();

  QPPT_ASSIGN_OR_RETURN(
      auto output,
      MakeOutputTable(spec_.output, assembled, ctx->knobs().table_options));

  std::vector<size_t> key_positions;
  if (!spec_.output.agg.empty()) {
    for (const auto& k : spec_.output.key_columns) {
      QPPT_ASSIGN_OR_RETURN(size_t idx, assembled.ColumnIndex(k));
      key_positions.push_back(idx);
    }
  }

  stats.input_tuples = index->num_rows();

  // Resolves one selected value: snapshot filter, residuals, then one
  // candidate row into the probe pipeline.
  auto resolve = [&](CandidatePipeline* pipeline, uint64_t value) {
    if (!left.Visible(value)) return;  // MVCC snapshot filter
    for (const auto& r : residuals) {
      if (!r.Eval(value)) return;
    }
    uint64_t* row = pipeline->AddRow();
    left.Fill(value, row);
    pipeline->MaybeProcess();
  };
  // A value is resolved at once, or — when the selection side's reads
  // are random — prefetched now and resolved kStagingDepth values later
  // (StagingRing). `staged` is fixed per operator, so the branch is
  // always predicted; instantiating the scan once per path instead made
  // GCC stop inlining the inline run's cancel tick. drain() runs at the
  // end of every morsel.
  const bool staged = left.staged();
  auto emit = [&](CandidatePipeline* pipeline, StagingRing<uint64_t>* ring,
                  uint64_t value) {
    if (staged) {
      left.Prefetch(value);
      if (!ring->Exchange(&value)) return;
    }
    resolve(pipeline, value);
  };
  auto drain = [&](CandidatePipeline* pipeline, StagingRing<uint64_t>* ring) {
    uint64_t value = 0;
    while (ring->Pop(&value)) resolve(pipeline, value);
  };

  // Selection scan: qualifying tuples stream straight into the probe
  // pipeline — no intermediate index is ever materialized (§4.3); each
  // worker has its own pipeline and partial output. The label must
  // outlive the driver call (trace spans name it).
  const std::string label = display_name();
  engine::MorselSite site{
      .pool = engine::ValueScanPool(ctx->worker_pool(), *index,
                                    spec_.predicate, no_box),
      .trace = ctx->trace(),
      .label = label,
      .cancel = ctx->cancel()};
  const size_t workers = site.workers();
  engine::PartialOutputs partials(site, output.get());
  std::vector<std::unique_ptr<CandidatePipeline>> pipelines;
  pipelines.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    pipelines.push_back(std::make_unique<CandidatePipeline>(
        assists, width, partials.worker(w), key_positions,
        ctx->knobs().join_buffer_size));
  }
  std::vector<StagingRing<uint64_t>> rings(workers);
  stats.morsels = engine::RunValueMorsels(
      site, *index, spec_.predicate, no_box,
      [&](size_t w, uint64_t value) {
        emit(pipelines[w].get(), &rings[w], value);
      },
      [&](size_t w) { drain(pipelines[w].get(), &rings[w]); });
  // Per-phase times overlap across workers; report the slowest worker
  // (the critical path), which stays comparable to total_ms.
  for (size_t w = 0; w < workers; ++w) {
    pipelines[w]->Finish();
    stats.materialize_ms =
        std::max(stats.materialize_ms, pipelines[w]->materialize_ms());
    stats.index_ms = std::max(stats.index_ms, pipelines[w]->index_ms());
  }
  stats.merge_ms = partials.MergeInto(site);

  FillOutputStats(*output, &stats);
  QPPT_RETURN_NOT_OK(ctx->Put(spec_.output.slot, std::move(output)));
  ctx->stats()->operators.push_back(std::move(stats));
  return Status::OK();
}

}  // namespace qppt
