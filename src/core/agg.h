// Aggregation-on-insert and scalar expressions.
//
// In the indexed table-at-a-time model, grouping and aggregation are not
// separate operators: every operator indexes its output, and when an insert
// finds the (group) key already present it folds the new tuple into the
// existing accumulator (§3). AggSpec describes the accumulator layout and
// the fold; ScalarExpr covers the small expression language the SSB
// aggregates need (a column, a product, or a difference — e.g.
// sum(lo_extendedprice * lo_discount), sum(lo_revenue - lo_supplycost)).

#ifndef QPPT_CORE_AGG_H_
#define QPPT_CORE_AGG_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "storage/schema.h"
#include "storage/value.h"
#include "util/status.h"

namespace qppt {

// A scalar over an input tuple: column, col*col, or col-col.
struct ScalarExpr {
  enum class Op : uint8_t { kColumn, kMul, kSub };

  Op op = Op::kColumn;
  std::string lhs;  // column name
  std::string rhs;  // column name (kMul / kSub)

  static ScalarExpr Column(std::string name) {
    return {Op::kColumn, std::move(name), {}};
  }
  static ScalarExpr Mul(std::string a, std::string b) {
    return {Op::kMul, std::move(a), std::move(b)};
  }
  static ScalarExpr Sub(std::string a, std::string b) {
    return {Op::kSub, std::move(a), std::move(b)};
  }

  std::string ToString() const;
};

// A bound scalar expression: column positions resolved against a schema.
// Only int64 arithmetic is needed by the SSB workloads; doubles pass
// through kColumn untouched.
struct BoundScalarExpr {
  ScalarExpr::Op op = ScalarExpr::Op::kColumn;
  size_t lhs = 0;
  size_t rhs = 0;

  uint64_t Eval(const uint64_t* row) const {
    switch (op) {
      case ScalarExpr::Op::kColumn:
        return row[lhs];
      case ScalarExpr::Op::kMul:
        return SlotFromInt64(Int64FromSlot(row[lhs]) *
                             Int64FromSlot(row[rhs]));
      case ScalarExpr::Op::kSub:
        return SlotFromInt64(Int64FromSlot(row[lhs]) -
                             Int64FromSlot(row[rhs]));
    }
    return 0;
  }
};

Result<BoundScalarExpr> BindScalarExpr(const ScalarExpr& expr,
                                       const Schema& schema);

enum class AggFn : uint8_t { kSum, kCount, kMin, kMax, kAvg };

std::string_view AggFnToString(AggFn fn);

struct AggTerm {
  AggFn fn = AggFn::kSum;
  ScalarExpr source;      // ignored for kCount
  std::string out_name;   // result column name
};

// Describes the aggregates of one output index. The accumulator is a
// packed array of 8-byte slots: one per term, plus one shared count slot
// when any kAvg term is present.
class AggSpec {
 public:
  AggSpec() = default;
  explicit AggSpec(std::vector<AggTerm> terms) : terms_(std::move(terms)) {}

  bool empty() const { return terms_.empty(); }
  const std::vector<AggTerm>& terms() const { return terms_; }

  // Accumulator bytes: 8 per term (+8 for the avg count if needed).
  size_t payload_size() const {
    return (terms_.size() + (HasAvg() ? 1 : 0)) * sizeof(uint64_t);
  }
  bool HasAvg() const;

  std::string ToString() const;

 private:
  std::vector<AggTerm> terms_;
};

// A bound AggSpec: expressions resolved, ready for the hot loop.
class BoundAggSpec {
 public:
  BoundAggSpec() = default;

  static Result<BoundAggSpec> Bind(const AggSpec& spec, const Schema& input);

  bool empty() const { return terms_.empty(); }
  size_t num_terms() const { return terms_.size(); }
  size_t payload_size() const {
    return (terms_.size() + (has_avg_ ? 1 : 0)) * sizeof(uint64_t);
  }

  // Initializes a fresh zero-filled accumulator (identity elements; MIN and
  // MAX need non-zero identities).
  void Init(std::byte* payload) const;

  // Folds `row` (input-tuple slots) into the accumulator.
  void Combine(std::byte* payload, const uint64_t* row) const;

  // Folds accumulator `src` into `dst` (both initialized with Init). This
  // is the partial-state merge the engine's parallel aggregation uses:
  // each worker folds into a private accumulator, and the partials are
  // merged once at the end (sum/count/avg add, min/max compare).
  void Merge(std::byte* dst, const std::byte* src) const;

  // Reads the finalized value of term `i` (AVG divides by the count slot).
  // `is_double` per-term tells how to interpret the slot.
  uint64_t Finalize(const std::byte* payload, size_t i) const;

  bool term_is_double(size_t i) const { return terms_[i].is_double; }
  AggFn term_fn(size_t i) const { return terms_[i].fn; }

 private:
  struct BoundTerm {
    AggFn fn;
    BoundScalarExpr source;
    bool is_double = false;  // accumulate in double (source col is double)
  };

  std::vector<BoundTerm> terms_;
  bool has_avg_ = false;
};

}  // namespace qppt

#endif  // QPPT_CORE_AGG_H_
