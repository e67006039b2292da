#include "core/operators/selection.h"

#include <cstdint>
#include <limits>
#include <vector>

#include "engine/parallel_ops.h"
#include "util/cancel.h"

namespace qppt {

Status SelectionOp::Execute(ExecContext* ctx) {
  OperatorStats stats;
  stats.name = name();

  QPPT_ASSIGN_OR_RETURN(const BaseIndex* index,
                        ctx->db().index(spec_.input_index));
  QPPT_ASSIGN_OR_RETURN(auto side, BoundSide::Bind(*ctx, SideRef::Base(spec_.input_index),
                                                   spec_.carry_columns));
  QPPT_ASSIGN_OR_RETURN(auto residuals,
                        BindResiduals(*index, spec_.residuals));

  Schema assembled(side.column_defs());
  QPPT_ASSIGN_OR_RETURN(
      auto output,
      MakeOutputTable(spec_.output, assembled, ctx->knobs().table_options));

  stats.input_tuples = index->num_rows();
  size_t width = side.num_columns();
  const bool aggregating = !spec_.output.agg.empty();
  std::vector<size_t> key_positions;
  if (aggregating) {
    for (const auto& k : spec_.output.key_columns) {
      QPPT_ASSIGN_OR_RETURN(size_t idx, assembled.ColumnIndex(k));
      key_positions.push_back(idx);
    }
  }

  // Evaluates residuals for one qualifying index value and inserts the
  // assembled tuple into `out`. `row` / `key_slots` are caller-owned
  // scratch (per-worker in the parallel path).
  auto process = [&](uint64_t value, uint64_t* row, uint64_t* key_slots,
                     IndexedTable* out) {
    if (!side.Visible(value)) return;  // MVCC snapshot filter (live index)
    for (const auto& r : residuals) {
      if (!r.Eval(value)) return;
    }
    side.Fill(value, row);
    if (!aggregating) {
      out->Insert(row);
    } else {
      for (size_t i = 0; i < key_positions.size(); ++i) {
        key_slots[i] = row[key_positions[i]];
      }
      out->InsertAggregated(key_slots, row);
    }
  };

  // Parallel path: a KISS-indexed range/all selection large enough to
  // amortize the fork-join. Each worker scans disjoint morsel key ranges
  // into a private partial output; partials merge at the end.
  engine::WorkerPool* pool = ctx->worker_pool();
  const KissTree* kiss = index->kiss();
  const bool parallel =
      pool != nullptr && ctx->knobs().threads > 1 && kiss != nullptr &&
      spec_.composite_range.empty() &&
      (spec_.predicate.kind == KeyPredicate::Kind::kRange ||
       spec_.predicate.kind == KeyPredicate::Kind::kAll) &&
      index->num_rows() >= engine::kMinParallelInputTuples;

  Timer phase;
  if (parallel) {
    BaseIndex::KissRanges ranges =
        spec_.predicate.kind == KeyPredicate::Kind::kRange
            ? BaseIndex::KissRangesOf(spec_.predicate.lo, spec_.predicate.hi)
            : BaseIndex::KissRangesOf(std::numeric_limits<int64_t>::min(),
                                      std::numeric_limits<int64_t>::max());
    size_t workers = pool->num_workers();
    engine::PartialOutputs partials(*output, workers);
    std::vector<std::vector<uint64_t>> rows(workers,
                                            std::vector<uint64_t>(width));
    std::vector<std::vector<uint64_t>> keys(
        workers, std::vector<uint64_t>(key_positions.size() + 1));
    // The label must outlive the driver calls (trace spans name it).
    const std::string label = display_name();
    engine::MorselSite site{.pool = pool,
                            .trace = ctx->trace(),
                            .label = label,
                            .cancel = ctx->cancel()};
    for (size_t i = 0; i < ranges.count; ++i) {
      stats.morsels += engine::RunKissValueMorsels(
          site, *kiss, ranges.lo[i], ranges.hi[i],
          [&](size_t w, uint64_t value) {
            process(value, rows[w].data(), keys[w].data(),
                    partials.worker(w));
          },
          [](size_t) {});
    }
    stats.merge_ms = partials.MergeInto(site, output.get());
  } else {
    std::vector<uint64_t> row(width);
    std::vector<uint64_t> key_slots(key_positions.size() + 1);
    // Serial scans poll the cancel token every kCancelStride tuples;
    // the ticker throws CancelledException and Plan::Run converts it.
    CancelTicker cancel(ctx->cancel());
    auto emit = [&](uint64_t value) {
      cancel.Tick();
      process(value, row.data(), key_slots.data(), output.get());
    };
    if (!spec_.composite_range.empty()) {
      // Conjunctive predicate over a multidimensional index (§4.1). The
      // composite encoding is scanned over the lexicographic range; the
      // per-component box bounds are verified on each hit (a lexicographic
      // range is a superset of the box for the middle leading-component
      // values).
      size_t dims = spec_.composite_range.size();
      if (dims != index->num_key_columns()) {
        return Status::InvalidArgument(
            "composite_range must give one (lo, hi) pair per index key "
            "column");
      }
      std::vector<BaseIndex::Accessor> key_accessors;
      for (const auto& name : index->key_column_names()) {
        QPPT_ASSIGN_OR_RETURN(auto acc, index->BindColumn(name));
        key_accessors.push_back(acc);
      }
      std::vector<uint64_t> lo(dims), hi(dims);
      for (size_t i = 0; i < dims; ++i) {
        lo[i] = SlotFromInt64(spec_.composite_range[i].first);
        hi[i] = SlotFromInt64(spec_.composite_range[i].second);
      }
      auto emit_boxed = [&](uint64_t value) {
        for (size_t i = 0; i < dims; ++i) {
          int64_t v = Int64FromSlot(key_accessors[i].Get(value));
          if (v < spec_.composite_range[i].first ||
              v > spec_.composite_range[i].second) {
            return;
          }
        }
        emit(value);
      };
      index->ForEachInCompositeRange(lo.data(), hi.data(), emit_boxed);
    } else {
      switch (spec_.predicate.kind) {
        case KeyPredicate::Kind::kPoint:
          index->ForEachMatch(SlotFromInt64(spec_.predicate.point), emit);
          break;
        case KeyPredicate::Kind::kRange:
          index->ForEachInRange(SlotFromInt64(spec_.predicate.lo),
                                SlotFromInt64(spec_.predicate.hi), emit);
          break;
        case KeyPredicate::Kind::kIn:
          index->ForEachMatchIn(spec_.predicate.in_points, emit);
          break;
        case KeyPredicate::Kind::kAll:
          index->ForEachValue(emit);
          break;
      }
    }
  }
  double materialize_ms = phase.ElapsedMs();

  FillOutputStats(*output, &stats);
  // The scan interleaves materialization and indexing; attribute the
  // whole phase to materialization and report indexing as the remainder
  // estimated from the output index bytes per tuple (coarse, like the
  // demonstrator's internal statistics).
  stats.materialize_ms = materialize_ms;
  stats.index_ms = 0;
  QPPT_RETURN_NOT_OK(ctx->Put(spec_.output.slot, std::move(output)));
  ctx->stats()->operators.push_back(std::move(stats));
  return Status::OK();
}

}  // namespace qppt
