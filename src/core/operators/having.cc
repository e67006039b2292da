#include "core/operators/having.h"

#include <cstdint>
#include <string>
#include <vector>

#include "util/cancel.h"

namespace qppt {

Status HavingOp::Execute(ExecContext* ctx) {
  OperatorStats stats;
  stats.name = name();

  QPPT_ASSIGN_OR_RETURN(const IndexedTable* input,
                        ctx->Get(spec_.input_slot));
  if (!input->aggregated()) {
    return Status::InvalidArgument(
        "having expects an aggregated intermediate; use a selection for "
        "base data (they are physically the same operator)");
  }
  const Schema& schema = input->schema();

  // Bind residuals against the group-row layout. Double-typed columns
  // (AVG, and SUM/MIN/MAX of a double) compare their decoded value.
  struct Bound {
    size_t col;
    bool is_double;
    Residual residual;
  };
  std::vector<Bound> bound;
  for (const auto& r : spec_.residuals) {
    QPPT_ASSIGN_OR_RETURN(size_t idx, schema.ColumnIndex(r.column));
    bound.push_back(
        {idx, schema.column(idx).type == ValueType::kDouble, r});
  }

  // Output: a plain indexed table with the same schema, keyed on the
  // input's key columns (keeps the order-preserving property for the
  // client iteration).
  std::vector<std::string> key_names;
  for (size_t pos : input->key_column_positions()) {
    key_names.push_back(schema.column(pos).name);
  }
  QPPT_ASSIGN_OR_RETURN(auto output,
                        IndexedTable::Create(schema, key_names,
                                             ctx->knobs().table_options));

  stats.input_tuples = input->num_keys();
  // Serial group scan: poll the cancel token every kCancelStride groups
  // (the ticker throws CancelledException; Plan::Run converts it).
  CancelTicker cancel(ctx->cancel());
  input->ScanGroups([&](const uint64_t* row) {
    cancel.Tick();
    for (const auto& b : bound) {
      if (b.is_double) {
        if (!b.residual.EvalDouble(DoubleFromSlot(row[b.col]))) return;
      } else if (!b.residual.Eval(Int64FromSlot(row[b.col]))) {
        return;
      }
    }
    output->Insert(row);
  });

  FillOutputStats(*output, &stats);
  QPPT_RETURN_NOT_OK(ctx->Put(spec_.output_slot, std::move(output)));
  ctx->stats()->operators.push_back(std::move(stats));
  return Status::OK();
}

}  // namespace qppt
