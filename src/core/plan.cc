#include "core/plan.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/scheduler.h"
#include "obs/trace.h"

namespace qppt {

void ExecContext::set_worker_pool(engine::WorkerPool* pool) {
  pool_ = pool;
  stats_.threads = pool == nullptr ? 1 : pool->num_workers();
}

void ExecContext::EnsureTrace() {
  if (!knobs_.trace || trace_ != nullptr) return;
  trace_ = std::make_shared<obs::QueryTrace>(
      pool_ == nullptr ? 1 : pool_->num_workers());
  stats_.trace = trace_;
}

Status ExecContext::Put(const std::string& name,
                        std::unique_ptr<IndexedTable> table) {
  auto [it, inserted] = slots_.emplace(name, std::move(table));
  if (!inserted) {
    return Status::AlreadyExists("intermediate slot '" + name +
                                 "' already populated");
  }
  return Status::OK();
}

Result<const IndexedTable*> ExecContext::Get(const std::string& name) const {
  auto it = slots_.find(name);
  if (it == slots_.end()) {
    return Status::NotFound("no intermediate named '" + name + "'");
  }
  return it->second.get();
}

Status Plan::Run(ExecContext* ctx) const {
  // Guard against PlanStats reuse without Clear(): the operator list
  // accumulates while total_ms is assigned, so a second Run on the same
  // stats would double-report (see the PlanStats contract, core/stats.h).
  assert(ctx->stats()->total_ms == 0 &&
         "PlanStats reused across Run() without Clear()");
  ctx->EnsureTrace();
  obs::QueryTrace* trace = ctx->trace();
  Timer total;
  for (const auto& op : operators_) {
    // The one operator timer: these two clock reads give both
    // OperatorStats::total_ms and, when traced, the kOperator span.
    const double t0 = obs::ClockUs(trace);
    size_t before = ctx->stats()->operators.size();
    // Cancellation boundary: once before each operator, and any
    // CancelledException (or injected fault / allocation failure) that
    // unwound out of the operator's scan loops or morsel batch becomes
    // the Status the caller sees — partial outputs in ctx slots are
    // dropped with the context, RAII engine state by our caller.
    Status op_status = ctx->CheckCancel();
    if (op_status.ok()) {
      try {
        op_status = op->Execute(ctx);
      } catch (...) {
        op_status = StatusFromException(std::current_exception());
      }
    }
    QPPT_RETURN_NOT_OK(op_status);
    const double t1 = obs::ClockUs(trace);
    // The operator appended its stats entry; stamp the wall time and the
    // planner stage label (when one was assigned).
    if (ctx->stats()->operators.size() == before + 1) {
      OperatorStats& st = ctx->stats()->operators.back();
      st.total_ms = (t1 - t0) / 1000.0;
      st.name = op->display_name();
    }
    if (trace != nullptr) {
      // Whole-operator span on the driver lane: these sum to ~total_ms
      // (morsel spans overlap in time and cannot).
      trace->Record(trace->driver_lane(), op->display_name(),
                    obs::SpanKind::kOperator, t0, t1);
    }
  }
  ctx->stats()->total_ms = total.ElapsedMs();
  return Status::OK();
}

Result<QueryResult> Plan::Execute(ExecContext* ctx) const {
  QPPT_RETURN_NOT_OK(Run(ctx));
  // Last boundary before result extraction: a cancelled query should not
  // pay for materializing (possibly large) client rows.
  QPPT_RETURN_NOT_OK(ctx->CheckCancel());
  if (result_slot_.empty()) {
    return Status::InvalidArgument("plan has no result slot configured");
  }
  QPPT_ASSIGN_OR_RETURN(const IndexedTable* table, ctx->Get(result_slot_));
  QPPT_ASSIGN_OR_RETURN(QueryResult result, ExtractResult(*table));
  QPPT_RETURN_NOT_OK(SortResult(result_order_, &result));
  return result;
}

std::vector<std::string> Plan::OperatorNames() const {
  std::vector<std::string> names;
  names.reserve(operators_.size());
  for (const auto& op : operators_) names.push_back(op->name());
  return names;
}

std::vector<std::string> Plan::OperatorLabels() const {
  std::vector<std::string> labels;
  labels.reserve(operators_.size());
  for (const auto& op : operators_) labels.push_back(op->display_name());
  return labels;
}

Status SortResult(const std::vector<ResultOrderKey>& keys,
                  QueryResult* result) {
  if (keys.empty()) return Status::OK();
  struct Bound {
    size_t pos;
    bool descending;
  };
  std::vector<Bound> bound;
  bound.reserve(keys.size());
  for (const auto& key : keys) {
    QPPT_ASSIGN_OR_RETURN(size_t pos, result->schema.ColumnIndex(key.column));
    bound.push_back({pos, key.descending});
  }
  auto less = [](const Value& a, const Value& b) {
    switch (a.type()) {
      case ValueType::kInt64:
        return a.AsInt() < b.AsInt();
      case ValueType::kDouble:
        return a.AsDouble() < b.AsDouble();
      case ValueType::kString:
        return a.AsString() < b.AsString();
    }
    return false;
  };
  std::stable_sort(result->rows.begin(), result->rows.end(),
                   [&](const std::vector<Value>& a,
                       const std::vector<Value>& b) {
                     for (const Bound& k : bound) {
                       const Value& va = a[k.pos];
                       const Value& vb = b[k.pos];
                       if (less(va, vb)) return !k.descending;
                       if (less(vb, va)) return k.descending;
                     }
                     return false;
                   });
  return Status::OK();
}

namespace {

Value SlotToValue(uint64_t slot, const ColumnDef& def) {
  switch (def.type) {
    case ValueType::kDouble:
      return Value::Real(DoubleFromSlot(slot));
    case ValueType::kString:
      if (def.dictionary != nullptr && def.dictionary->sealed()) {
        return Value::Str(def.dictionary->StringOf(Int64FromSlot(slot)));
      }
      return Value::Int(Int64FromSlot(slot));
    case ValueType::kInt64:
      break;
  }
  return Value::Int(Int64FromSlot(slot));
}

}  // namespace

Result<QueryResult> ExtractResult(const IndexedTable& table) {
  QueryResult result;
  result.schema = table.schema();
  size_t width = table.schema().num_columns();
  auto emit = [&](const uint64_t* row) {
    std::vector<Value> out;
    out.reserve(width);
    for (size_t c = 0; c < width; ++c) {
      out.push_back(SlotToValue(row[c], table.schema().column(c)));
    }
    result.rows.push_back(std::move(out));
  };
  if (table.aggregated()) {
    table.ScanGroups(emit);
  } else {
    table.ScanInOrder(emit);
  }
  return result;
}

std::string QueryResult::ToString(size_t limit) const {
  std::string out = schema.ToString();
  out += "\n";
  size_t shown = 0;
  for (const auto& row : rows) {
    if (shown++ >= limit) {
      out += "... (" + std::to_string(rows.size()) + " rows total)\n";
      break;
    }
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += " | ";
      out += row[i].ToString();
    }
    out += "\n";
  }
  return out;
}

}  // namespace qppt
