// Selection / having operator (§4.1).
//
// Takes a base index on the selection attribute, scans it for qualifying
// tuples (point or range on the index key, conjunctive residuals on other
// attributes), and inserts the qualifiers into a new intermediate index
// keyed on the attribute(s) the *successive* operator requests — the
// cooperative-operators contract. With an AggSpec in the output the
// operator also folds aggregates on insert (Level-1 composition).

#ifndef QPPT_CORE_OPERATORS_SELECTION_H_
#define QPPT_CORE_OPERATORS_SELECTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/operators/common.h"
#include "core/plan.h"

namespace qppt {

struct SelectionSpec {
  std::string input_index;          // base index on the selection attribute
  KeyPredicate predicate;           // on the (single-column) index key
  // Conjunctive predicates over a *multidimensional* base index (§4.1):
  // one (lo, hi) pair per key column, lexicographic range on the
  // composite encoding. Overrides `predicate` when non-empty; size must
  // equal the index's key-column count. A point match is lo == hi.
  CompositeRange composite_range;
  std::vector<Residual> residuals;  // conjunctive, on any table column
  // Columns the output tuples carry (must include the output keys;
  // resolution prefers the index's included payload over the base table).
  std::vector<std::string> carry_columns;
  OutputSpec output;
};

class SelectionOp : public Operator {
 public:
  explicit SelectionOp(SelectionSpec spec) : spec_(std::move(spec)) {}

  std::string name() const override {
    return "selection(" + spec_.input_index + ")";
  }

  Status Execute(ExecContext* ctx) override;

 private:
  SelectionSpec spec_;
};

}  // namespace qppt

#endif  // QPPT_CORE_OPERATORS_SELECTION_H_
