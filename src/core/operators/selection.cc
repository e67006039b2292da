#include "core/operators/selection.h"

#include <cstdint>
#include <vector>

#include "engine/parallel_ops.h"

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

  // Conjunctive predicate over a multidimensional index (§4.1): the
  // composite encoding is scanned over the lexicographic range, and the
  // per-component box bounds are verified on each hit (a lexicographic
  // range is a superset of the box for the middle leading-component
  // values).
  const CompositeRange& box = spec_.composite_range;
  QPPT_RETURN_NOT_OK(index->CheckKeyPredicate(spec_.predicate, box));
  std::vector<BaseIndex::Accessor> box_accessors;
  for (const auto& name : index->key_column_names()) {
    QPPT_ASSIGN_OR_RETURN(auto acc, index->BindColumn(name));
    box_accessors.push_back(acc);
  }

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

  // Evaluates the box and residuals for one qualifying index value and
  // inserts the assembled tuple into `out`. `row` / `key_slots` are
  // per-worker scratch.
  auto process = [&](uint64_t value, uint64_t* row, uint64_t* key_slots,
                     IndexedTable* out) {
    if (!side.Visible(value)) return;  // MVCC snapshot filter (live index)
    for (size_t i = 0; i < box.size(); ++i) {
      int64_t v = Int64FromSlot(box_accessors[i].Get(value));
      if (v < box[i].first || v > box[i].second) return;
    }
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

  // Each worker scans its morsels into its partial output; the label
  // must outlive the driver call (trace spans name it).
  const std::string label = display_name();
  engine::MorselSite site{
      .pool = engine::ValueScanPool(ctx->worker_pool(), *index,
                                    spec_.predicate, box),
      .trace = ctx->trace(),
      .label = label,
      .cancel = ctx->cancel()};
  const size_t workers = site.workers();
  engine::PartialOutputs partials(site, output.get());
  std::vector<std::vector<uint64_t>> rows(workers,
                                          std::vector<uint64_t>(width));
  std::vector<std::vector<uint64_t>> keys(
      workers, std::vector<uint64_t>(key_positions.size() + 1));
  Timer phase;
  stats.morsels = engine::RunValueMorsels(
      site, *index, spec_.predicate, box,
      [&](size_t w, uint64_t value) {
        process(value, rows[w].data(), keys[w].data(), partials.worker(w));
      },
      [](size_t) {});
  // The scan interleaves materialization and indexing, so the whole scan
  // counts as materialization (index_ms stays 0); the fold that follows
  // is merge_ms alone.
  stats.materialize_ms = phase.ElapsedMs();
  stats.merge_ms = partials.MergeInto(site);

  FillOutputStats(*output, &stats);
  QPPT_RETURN_NOT_OK(ctx->Put(spec_.output.slot, std::move(output)));
  ctx->stats()->operators.push_back(std::move(stats));
  return Status::OK();
}

}  // namespace qppt
