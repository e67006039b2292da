#include "core/operators/set_ops.h"

#include <cstdint>
#include <vector>

#include "core/sync_scan.h"
#include "util/cancel.h"

namespace qppt {

Status IntersectOp::Execute(ExecContext* ctx) {
  OperatorStats stats;
  stats.name = name();

  QPPT_ASSIGN_OR_RETURN(auto left,
                        BoundSide::Bind(*ctx, spec_.left, spec_.left_columns));
  QPPT_ASSIGN_OR_RETURN(
      auto right, BoundSide::Bind(*ctx, spec_.right, spec_.right_columns));

  // O(columns) schema copy, once per operator bind.
  std::vector<ColumnDef> defs = left.column_defs();
  defs.insert(defs.end(), right.column_defs().begin(),
              right.column_defs().end());
  Schema assembled(std::move(defs));
  QPPT_ASSIGN_OR_RETURN(
      auto output,
      MakeOutputTable(spec_.output, assembled, ctx->knobs().table_options));

  stats.input_tuples = left.num_input_tuples() + right.num_input_tuples();
  std::vector<uint64_t> row(assembled.num_columns());
  size_t left_width = left.num_columns();

  // Serial synchronous scan: poll the cancel token every kCancelStride
  // emitted tuples (the ticker throws CancelledException; Plan::Run
  // converts it).
  CancelTicker cancel(ctx->cancel());
  auto emit = [&](uint64_t lv, uint64_t rv) {
    cancel.Tick();
    left.Fill(lv, row.data());
    right.Fill(rv, row.data() + left_width);
    output->Insert(row.data());
  };

  // One representative tuple per key per side: set semantics, as in the
  // rid-intersection use case of §4.1.
  if (left.is_kiss() && right.is_kiss()) {
    SynchronousScan(*left.kiss(), *right.kiss(),
                    [&](uint32_t, const KissTree::ValueRef& lv,
                        const KissTree::ValueRef& rv) {
                      emit(lv.front(), rv.front());
                    });
  } else if (!left.is_kiss() && !right.is_kiss()) {
    SynchronousScan(*left.prefix(), *right.prefix(),
                    [&](const uint8_t*, const ValueList* lv,
                        const ValueList* rv) {
                      emit(lv->first(), rv->first());
                    });
  } else {
    return Status::InvalidArgument(
        "intersect inputs must use the same index family for the "
        "synchronous index scan");
  }

  FillOutputStats(*output, &stats);
  QPPT_RETURN_NOT_OK(ctx->Put(spec_.output.slot, std::move(output)));
  ctx->stats()->operators.push_back(std::move(stats));
  return Status::OK();
}

Status UnionDistinctOp::Execute(ExecContext* ctx) {
  OperatorStats stats;
  stats.name = name();

  QPPT_ASSIGN_OR_RETURN(auto left,
                        BoundSide::Bind(*ctx, spec_.left, spec_.left_columns));
  QPPT_ASSIGN_OR_RETURN(
      auto right, BoundSide::Bind(*ctx, spec_.right, spec_.right_columns));
  if (left.num_columns() != right.num_columns()) {
    return Status::InvalidArgument(
        "union sides must assemble the same tuple layout");
  }

  Schema assembled{std::vector<ColumnDef>(left.column_defs())};
  QPPT_ASSIGN_OR_RETURN(
      auto output,
      MakeOutputTable(spec_.output, assembled, ctx->knobs().table_options));
  if (output->aggregated()) {
    return Status::InvalidArgument("union output cannot aggregate");
  }

  stats.input_tuples = left.num_input_tuples() + right.num_input_tuples();
  std::vector<uint64_t> row(assembled.num_columns());

  // Serial full scans of both sides: poll the cancel token every
  // kCancelStride emitted tuples.
  CancelTicker cancel(ctx->cancel());
  auto emit_side = [&](const BoundSide& side) {
    auto emit = [&](uint64_t v) {
      cancel.Tick();
      side.Fill(v, row.data());
      output->InsertIfAbsent(row.data());
    };
    if (side.is_kiss()) {
      side.kiss()->ScanAll(
          [&](uint32_t, const KissTree::ValueRef& vals) { emit(vals.front()); });
    } else {
      side.prefix()->ScanAll([&](const PrefixTree::ContentNode& c) {
        emit(side.prefix()->ValuesOf(&c)->first());
      });
    }
  };
  emit_side(left);
  emit_side(right);

  FillOutputStats(*output, &stats);
  QPPT_RETURN_NOT_OK(ctx->Put(spec_.output.slot, std::move(output)));
  ctx->stats()->operators.push_back(std::move(stats));
  return Status::OK();
}

}  // namespace qppt
