#include "core/agg.h"

#include <cstdint>
#include <limits>
#include <string>

namespace qppt {

std::string ScalarExpr::ToString() const {
  switch (op) {
    case Op::kColumn:
      return lhs;
    case Op::kMul:
      return lhs + " * " + rhs;
    case Op::kSub:
      return lhs + " - " + rhs;
  }
  return "?";
}

Result<BoundScalarExpr> BindScalarExpr(const ScalarExpr& expr,
                                       const Schema& schema) {
  BoundScalarExpr bound;
  bound.op = expr.op;
  QPPT_ASSIGN_OR_RETURN(bound.lhs, schema.ColumnIndex(expr.lhs));
  if (expr.op != ScalarExpr::Op::kColumn) {
    QPPT_ASSIGN_OR_RETURN(bound.rhs, schema.ColumnIndex(expr.rhs));
  }
  return bound;
}

std::string_view AggFnToString(AggFn fn) {
  switch (fn) {
    case AggFn::kSum:
      return "sum";
    case AggFn::kCount:
      return "count";
    case AggFn::kMin:
      return "min";
    case AggFn::kMax:
      return "max";
    case AggFn::kAvg:
      return "avg";
  }
  return "?";
}

bool AggSpec::HasAvg() const {
  for (const auto& t : terms_) {
    if (t.fn == AggFn::kAvg) return true;
  }
  return false;
}

std::string AggSpec::ToString() const {
  std::string out;
  for (const auto& t : terms_) {
    if (!out.empty()) out += ", ";
    out += AggFnToString(t.fn);
    out += "(";
    out += t.fn == AggFn::kCount ? "*" : t.source.ToString();
    out += ") as ";
    out += t.out_name;
  }
  return out;
}

Result<BoundAggSpec> BoundAggSpec::Bind(const AggSpec& spec,
                                        const Schema& input) {
  BoundAggSpec bound;
  for (const auto& term : spec.terms()) {
    BoundTerm bt;
    bt.fn = term.fn;
    if (term.fn != AggFn::kCount) {
      QPPT_ASSIGN_OR_RETURN(bt.source, BindScalarExpr(term.source, input));
      if (term.source.op == ScalarExpr::Op::kColumn) {
        bt.is_double =
            input.column(bt.source.lhs).type == ValueType::kDouble;
      }
    }
    bound.has_avg_ = bound.has_avg_ || term.fn == AggFn::kAvg;
    bound.terms_.push_back(bt);
  }
  return bound;
}

void BoundAggSpec::Init(std::byte* payload) const {
  auto* slots = reinterpret_cast<uint64_t*>(payload);
  for (size_t i = 0; i < terms_.size(); ++i) {
    const BoundTerm& t = terms_[i];
    switch (t.fn) {
      case AggFn::kSum:
      case AggFn::kCount:
      case AggFn::kAvg:
        slots[i] = t.is_double ? SlotFromDouble(0.0) : SlotFromInt64(0);
        break;
      case AggFn::kMin:
        slots[i] = t.is_double
                       ? SlotFromDouble(std::numeric_limits<double>::max())
                       : SlotFromInt64(std::numeric_limits<int64_t>::max());
        break;
      case AggFn::kMax:
        slots[i] = t.is_double
                       ? SlotFromDouble(std::numeric_limits<double>::lowest())
                       : SlotFromInt64(std::numeric_limits<int64_t>::min());
        break;
    }
  }
  if (has_avg_) slots[terms_.size()] = 0;  // shared row count
}

void BoundAggSpec::Combine(std::byte* payload, const uint64_t* row) const {
  auto* slots = reinterpret_cast<uint64_t*>(payload);
  for (size_t i = 0; i < terms_.size(); ++i) {
    const BoundTerm& t = terms_[i];
    switch (t.fn) {
      case AggFn::kCount:
        slots[i] = SlotFromInt64(Int64FromSlot(slots[i]) + 1);
        break;
      case AggFn::kSum:
      case AggFn::kAvg: {
        uint64_t v = t.source.Eval(row);
        if (t.is_double) {
          slots[i] = SlotFromDouble(DoubleFromSlot(slots[i]) +
                                    DoubleFromSlot(v));
        } else {
          slots[i] = SlotFromInt64(Int64FromSlot(slots[i]) +
                                   Int64FromSlot(v));
        }
        break;
      }
      case AggFn::kMin: {
        uint64_t v = t.source.Eval(row);
        if (t.is_double) {
          if (DoubleFromSlot(v) < DoubleFromSlot(slots[i])) slots[i] = v;
        } else {
          if (Int64FromSlot(v) < Int64FromSlot(slots[i])) slots[i] = v;
        }
        break;
      }
      case AggFn::kMax: {
        uint64_t v = t.source.Eval(row);
        if (t.is_double) {
          if (DoubleFromSlot(v) > DoubleFromSlot(slots[i])) slots[i] = v;
        } else {
          if (Int64FromSlot(v) > Int64FromSlot(slots[i])) slots[i] = v;
        }
        break;
      }
    }
  }
  if (has_avg_) slots[terms_.size()] += 1;
}

void BoundAggSpec::Merge(std::byte* dst, const std::byte* src) const {
  auto* d = reinterpret_cast<uint64_t*>(dst);
  const auto* s = reinterpret_cast<const uint64_t*>(src);
  for (size_t i = 0; i < terms_.size(); ++i) {
    const BoundTerm& t = terms_[i];
    switch (t.fn) {
      case AggFn::kCount:
        d[i] = SlotFromInt64(Int64FromSlot(d[i]) + Int64FromSlot(s[i]));
        break;
      case AggFn::kSum:
      case AggFn::kAvg:
        if (t.is_double) {
          d[i] = SlotFromDouble(DoubleFromSlot(d[i]) + DoubleFromSlot(s[i]));
        } else {
          d[i] = SlotFromInt64(Int64FromSlot(d[i]) + Int64FromSlot(s[i]));
        }
        break;
      case AggFn::kMin:
        if (t.is_double) {
          if (DoubleFromSlot(s[i]) < DoubleFromSlot(d[i])) d[i] = s[i];
        } else {
          if (Int64FromSlot(s[i]) < Int64FromSlot(d[i])) d[i] = s[i];
        }
        break;
      case AggFn::kMax:
        if (t.is_double) {
          if (DoubleFromSlot(s[i]) > DoubleFromSlot(d[i])) d[i] = s[i];
        } else {
          if (Int64FromSlot(s[i]) > Int64FromSlot(d[i])) d[i] = s[i];
        }
        break;
    }
  }
  if (has_avg_) d[terms_.size()] += s[terms_.size()];
}

uint64_t BoundAggSpec::Finalize(const std::byte* payload, size_t i) const {
  const auto* slots = reinterpret_cast<const uint64_t*>(payload);
  const BoundTerm& t = terms_[i];
  if (t.fn != AggFn::kAvg) return slots[i];
  uint64_t count = slots[terms_.size()];
  if (count == 0) return t.is_double ? SlotFromDouble(0.0) : 0;
  if (t.is_double) {
    return SlotFromDouble(DoubleFromSlot(slots[i]) /
                          static_cast<double>(count));
  }
  // Integer AVG yields a double (matches common SQL engines).
  return SlotFromDouble(static_cast<double>(Int64FromSlot(slots[i])) /
                        static_cast<double>(count));
}

}  // namespace qppt
