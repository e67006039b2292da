#include "core/operators/select_join.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "engine/parallel_ops.h"
#include "util/cancel.h"

namespace qppt {

Status SelectJoinOp::Execute(ExecContext* ctx) {
  OperatorStats stats;
  stats.name = name();
  Timer total;

  QPPT_ASSIGN_OR_RETURN(const BaseIndex* index,
                        ctx->db().index(spec_.input_index));
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
  // always predicted; instantiating each scan once per path instead made
  // GCC stop inlining the serial loop's cancel tick. drain() runs at the
  // end of every morsel and, serially, before Finish().
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

  // Parallel path: the selection scan runs over a KISS-indexed range/all
  // predicate, so it partitions into disjoint key-range morsels; each
  // worker streams its qualifiers through a private probe pipeline into a
  // private partial output (§4.3 composition preserved per worker).
  engine::WorkerPool* pool = ctx->worker_pool();
  const KissTree* kiss = index->kiss();
  const bool parallel =
      pool != nullptr && ctx->knobs().threads > 1 && kiss != nullptr &&
      (spec_.predicate.kind == KeyPredicate::Kind::kRange ||
       spec_.predicate.kind == KeyPredicate::Kind::kAll) &&
      index->num_rows() >= engine::kMinParallelInputTuples;

  if (parallel) {
    BaseIndex::KissRanges ranges =
        spec_.predicate.kind == KeyPredicate::Kind::kRange
            ? BaseIndex::KissRangesOf(spec_.predicate.lo, spec_.predicate.hi)
            : BaseIndex::KissRangesOf(std::numeric_limits<int64_t>::min(),
                                      std::numeric_limits<int64_t>::max());
    size_t workers = pool->num_workers();
    engine::PartialOutputs partials(*output, workers);
    std::vector<std::unique_ptr<CandidatePipeline>> pipelines;
    pipelines.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      pipelines.push_back(std::make_unique<CandidatePipeline>(
          assists, width, partials.worker(w), key_positions,
          ctx->knobs().join_buffer_size));
    }
    std::vector<StagingRing<uint64_t>> rings(workers);
    const std::string label = display_name();
    engine::MorselSite site{.pool = pool,
                            .trace = ctx->trace(),
                            .label = label,
                            .cancel = ctx->cancel()};
    for (size_t i = 0; i < ranges.count; ++i) {
      stats.morsels += engine::RunKissValueMorsels(
          site, *kiss, ranges.lo[i], ranges.hi[i],
          [&](size_t w, uint64_t value) {
            emit(pipelines[w].get(), &rings[w], value);
          },
          [&](size_t w) { drain(pipelines[w].get(), &rings[w]); });
    }
    // Per-phase times overlap across workers; report the slowest worker
    // (the critical path), which stays comparable to total_ms.
    for (size_t w = 0; w < workers; ++w) {
      pipelines[w]->Finish();
      stats.materialize_ms =
          std::max(stats.materialize_ms, pipelines[w]->materialize_ms());
      stats.index_ms = std::max(stats.index_ms, pipelines[w]->index_ms());
    }
    Timer merge;
    stats.merge_morsels = partials.MergeInto(site, output.get());
    stats.merge_ms = merge.ElapsedMs();
  } else {
    CandidatePipeline pipeline(std::move(assists), width, output.get(),
                               std::move(key_positions),
                               ctx->knobs().join_buffer_size);
    StagingRing<uint64_t> ring;

    // Selection scan: qualifying tuples stream straight into the probe
    // pipeline — no intermediate index is ever materialized (§4.3).
    // Serial loops poll the cancel token every kCancelStride tuples.
    CancelTicker cancel(ctx->cancel());
    auto scan_emit = [&](uint64_t value) {
      cancel.Tick();
      emit(&pipeline, &ring, value);
    };

    switch (spec_.predicate.kind) {
      case KeyPredicate::Kind::kPoint:
        index->ForEachMatch(SlotFromInt64(spec_.predicate.point), scan_emit);
        break;
      case KeyPredicate::Kind::kRange:
        index->ForEachInRange(SlotFromInt64(spec_.predicate.lo),
                              SlotFromInt64(spec_.predicate.hi), scan_emit);
        break;
      case KeyPredicate::Kind::kIn:
        index->ForEachMatchIn(spec_.predicate.in_points, scan_emit);
        break;
      case KeyPredicate::Kind::kAll:
        index->ForEachValue(scan_emit);
        break;
    }
    drain(&pipeline, &ring);
    pipeline.Finish();
    stats.materialize_ms = pipeline.materialize_ms();
    stats.index_ms = pipeline.index_ms();
  }

  FillOutputStats(*output, &stats);
  stats.total_ms = total.ElapsedMs();
  QPPT_RETURN_NOT_OK(ctx->Put(spec_.output.slot, std::move(output)));
  ctx->stats()->operators.push_back(std::move(stats));
  return Status::OK();
}

}  // namespace qppt
