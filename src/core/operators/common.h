// Shared building blocks for QPPT plan operators: input-side references,
// bound column access, and predicate descriptors.

#ifndef QPPT_CORE_OPERATORS_COMMON_H_
#define QPPT_CORE_OPERATORS_COMMON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/base_index.h"
#include "core/indexed_table.h"
#include "core/plan.h"
#include "util/prefetch.h"
#include "util/status.h"

namespace qppt {

// Refers to one operator input: either a base index in the database or an
// intermediate indexed table in a context slot.
struct SideRef {
  enum class Kind : uint8_t { kBaseIndex, kSlot };
  Kind kind = Kind::kBaseIndex;
  std::string name;

  static SideRef Base(std::string index_name) {
    return {Kind::kBaseIndex, std::move(index_name)};
  }
  static SideRef Slot(std::string slot_name) {
    return {Kind::kSlot, std::move(slot_name)};
  }
};

// A bound input side: index handles plus resolved accessors for the subset
// of columns the operator carries.
class BoundSide {
 public:
  static Result<BoundSide> Bind(const ExecContext& ctx, const SideRef& ref,
                                const std::vector<std::string>& columns);

  bool is_base() const { return base_ != nullptr; }
  const BaseIndex* base() const { return base_; }
  const IndexedTable* intermediate() const { return inter_; }
  const KissTree* kiss() const {
    return is_base() ? base_->kiss() : inter_->kiss();
  }
  const PrefixTree* prefix() const {
    return is_base() ? base_->prefix() : inter_->prefix();
  }
  bool is_kiss() const { return kiss() != nullptr; }

  size_t num_columns() const { return defs_.size(); }
  const std::vector<ColumnDef>& column_defs() const { return defs_; }

  // Copies the bound columns of the tuple behind index value `value` into
  // `dst` (num_columns() slots).
  void Fill(uint64_t value, uint64_t* dst) const {
    if (is_base()) {
      for (size_t i = 0; i < base_accessors_.size(); ++i) {
        dst[i] = base_accessors_[i].Get(value);
      }
    } else {
      const uint64_t* tuple = inter_->Tuple(value);
      for (size_t i = 0; i < inter_positions_.size(); ++i) {
        dst[i] = tuple[inter_positions_[i]];
      }
    }
  }

  uint64_t num_input_tuples() const {
    return is_base() ? base_->num_rows() : inter_->num_tuples();
  }

  // True when resolving a value of this side reads scattered memory: the
  // side is a live index, whose values are rids, so every value costs a
  // random read of its version stamps and of its row. Star join and
  // select-join route such a side's values through a StagingRing; every
  // other side resolves each value directly.
  bool staged() const { return mvcc_ != nullptr; }

  // Prefetches what Visible/Fill (and residuals) will read for `value`:
  // the row's version stamps and its first and last slot (a record can
  // span two cache lines). Only addresses are formed (acquire reads of
  // the chunk directories), never the data, so a prefetch cannot race
  // the single writer. No-op for unstaged sides.
  void Prefetch(uint64_t value) const {
    if (mvcc_ == nullptr) return;
    Rid rid = base_->RidOf(value);
    mvcc_->PrefetchStamps(rid);
    const uint64_t* record = base_->table().Record(rid);
    PrefetchRead(record);
    PrefetchRead(record + (record_width_ - 1));
  }

  // True if the row behind index value `value` is visible at the query
  // snapshot. Always true for non-versioned inputs (plain base indexes
  // and intermediates) — one well-predicted branch on the hot path. Live
  // indexes retain superseded and uncommitted version rows; this is the
  // single filter that turns their scans into snapshot reads.
  bool Visible(uint64_t value) const {
    return mvcc_ == nullptr ||
           mvcc_->RidVisibleAt(base_->RidOf(value), read_ts_);
  }

 private:
  const BaseIndex* base_ = nullptr;
  const IndexedTable* inter_ = nullptr;
  const MvccTable* mvcc_ = nullptr;  // non-null iff bound to a live index
  Timestamp read_ts_ = 0;
  size_t record_width_ = 0;  // row-table slots per record (base sides)
  std::vector<BaseIndex::Accessor> base_accessors_;
  std::vector<size_t> inter_positions_;
  std::vector<ColumnDef> defs_;
};

// Residual comparison evaluated per qualifying tuple (conjunctive with the
// key predicate and with each other). Values are int64 slots — dictionary
// codes for string columns; a double column compares its decoded value
// with the literals (EvalDouble).
struct Residual {
  enum class Cmp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe, kBetween };
  std::string column;
  Cmp cmp = Cmp::kEq;
  int64_t a = 0;
  int64_t b = 0;  // kBetween upper bound (inclusive)

  static Residual Eq(std::string col, int64_t v) {
    return {std::move(col), Cmp::kEq, v, 0};
  }
  static Residual Ne(std::string col, int64_t v) {
    return {std::move(col), Cmp::kNe, v, 0};
  }
  static Residual Lt(std::string col, int64_t v) {
    return {std::move(col), Cmp::kLt, v, 0};
  }
  static Residual Le(std::string col, int64_t v) {
    return {std::move(col), Cmp::kLe, v, 0};
  }
  static Residual Ge(std::string col, int64_t v) {
    return {std::move(col), Cmp::kGe, v, 0};
  }
  static Residual Between(std::string col, int64_t lo, int64_t hi) {
    return {std::move(col), Cmp::kBetween, lo, hi};
  }

  bool Eval(int64_t v) const { return Compare(v); }
  bool EvalDouble(double v) const { return Compare(v); }

 private:
  // Compares v with the literals converted to T.
  template <typename T>
  bool Compare(T v) const {
    const T x = static_cast<T>(a);
    switch (cmp) {
      case Cmp::kEq:
        return v == x;
      case Cmp::kNe:
        return v != x;
      case Cmp::kLt:
        return v < x;
      case Cmp::kLe:
        return v <= x;
      case Cmp::kGt:
        return v > x;
      case Cmp::kGe:
        return v >= x;
      case Cmp::kBetween:
        return v >= x && v <= static_cast<T>(b);
    }
    return false;
  }
};

// A residual bound to a base-index accessor. `is_double` is fixed at bind
// time from the column's type, so the int64 path pays one predicted
// branch.
struct BoundResidual {
  Residual residual;
  BaseIndex::Accessor accessor;
  bool is_double = false;

  bool Eval(uint64_t value) const {
    uint64_t slot = accessor.Get(value);
    if (is_double) return residual.EvalDouble(DoubleFromSlot(slot));
    return residual.Eval(Int64FromSlot(slot));
  }
};

Result<std::vector<BoundResidual>> BindResiduals(
    const BaseIndex& index, const std::vector<Residual>& residuals);

// ---- staged value resolution -------------------------------------------------

// Prefetch distance of a StagingRing, in values: each value is resolved
// this many values after its reads were prefetched. Sized on the SSB
// flight over a versioned lineorder (SF 0.3, 4 threads, 4-vCPU Xeon):
// depth 8 hid fewer misses, and 32 or 64 gained nothing over 16.
inline constexpr size_t kStagingDepth = 16;

// Group prefetching for the random row and version-stamp reads behind
// live-index values (§2.3 batching, applied past the tree probe). An
// operator prefetches a value's reads (BoundSide::Prefetch), then
// Exchange()s it; once the ring is full it hands back, for resolution,
// the value staged kStagingDepth arrivals earlier, whose lines have
// arrived by then. Values leave in arrival order, so the output matches
// direct resolution row for row. T is what one arrival stages: a
// (left, right) pair in the star join, one value in the select-join.
// Each worker pipeline owns one ring, drained (Pop) at the end of every
// morsel (an inline run is one morsel). The ring holds
// values only and never allocates. Operators stage only when a bound
// side is staged() (a live index): clustered and intermediate inputs
// read sequentially, and staging every base side (prefetching rows a
// clustered side never reads) cost the SSB flight over partially
// clustered indexes 38% of its queries per second.
template <typename T>
class alignas(64) StagingRing {  // per-worker rings never share a line
 public:
  // Stages *v. While the ring fills, returns false: nothing to resolve.
  // Once full, swaps *v for the oldest staged value and returns true:
  // resolve *v now.
  bool Exchange(T* v) {
    T& slot = slots_[next_];
    next_ = (next_ + 1) % kStagingDepth;
    if (size_ < kStagingDepth) {
      slot = *v;
      ++size_;
      return false;
    }
    std::swap(slot, *v);
    return true;
  }

  // Moves the oldest staged value into *out; false once the ring is empty.
  bool Pop(T* out) {
    if (size_ == 0) return false;
    *out = slots_[(next_ + kStagingDepth - size_) % kStagingDepth];
    --size_;
    return true;
  }

 private:
  T slots_[kStagingDepth] = {};
  size_t next_ = 0;  // where the next value is staged
  size_t size_ = 0;
};

// Describes the output of an operator: slot name, key columns, and
// (optionally) aggregation. Without aggregation the output table carries
// all columns the operator assembles; with aggregation it carries the
// group keys plus the aggregate results.
struct OutputSpec {
  std::string slot;
  std::vector<std::string> key_columns;
  AggSpec agg;  // empty -> plain indexed table
};

// Builds the operator's output table for an assembled-tuple schema.
Result<std::unique_ptr<IndexedTable>> MakeOutputTable(
    const OutputSpec& spec, const Schema& assembled,
    const TreeOptions& options);

// Fills an OperatorStats entry from a finished output table.
void FillOutputStats(const IndexedTable& table, OperatorStats* stats);

// ---- assisting indexes & the candidate pipeline (§4.2) -----------------------

// An assisting index of a composed join: probed per candidate combination
// with a key taken from the assembled tuple; a miss drops the combination,
// a hit appends the assist's carried columns (dimension lookup).
struct AssistSpec {
  SideRef index;
  std::string probe_column;
  std::vector<std::string> carry_columns;  // {} = pure semi-join
};

struct BoundAssist {
  BoundSide side;
  size_t probe_pos = 0;     // position of the probe key in the assembled row
  size_t carry_offset = 0;  // where carried columns land in the row
};

// Binds `assists` against the growing assembled-tuple layout `defs`
// (extended in place with each assist's carried columns).
Result<std::vector<BoundAssist>> BindAssists(
    const ExecContext& ctx, const std::vector<AssistSpec>& assists,
    std::vector<ColumnDef>* defs);

// Stages assembled candidate rows, pushes them through the assist probe
// pipeline in joinbuffer-sized batches (§2.3 batch lookups), and inserts
// survivors into the output index (aggregating on insert when the output
// table aggregates).
class CandidatePipeline {
 public:
  CandidatePipeline(std::vector<BoundAssist> assists, size_t row_width,
                    IndexedTable* output, std::vector<size_t> key_positions,
                    size_t buffer_rows);

  // Reserves one zeroed assembled row; the caller fills the main-side
  // columns, then calls MaybeProcess() (which may invalidate the pointer).
  uint64_t* AddRow();
  void MaybeProcess() {
    if (candidates_.size() >= buffer_rows_ * width_) Process();
  }
  // Flushes any staged rows. Call exactly once after the input scan.
  void Finish() { Process(); }

  double materialize_ms() const { return materialize_ms_; }
  double index_ms() const { return index_ms_; }

 private:
  void Process();

  std::vector<BoundAssist> assists_;
  size_t width_;
  IndexedTable* output_;
  std::vector<size_t> key_positions_;  // empty = plain output
  std::vector<uint64_t> key_slots_;
  size_t buffer_rows_;
  std::vector<uint64_t> candidates_;
  std::vector<uint64_t> next_stage_;
  std::vector<KissTree::LookupJob> jobs_;
  std::vector<PrefixTree::LookupJob> prefix_jobs_;
  std::vector<KeyBuf> prefix_keys_;
  double materialize_ms_ = 0;
  double index_ms_ = 0;
};

}  // namespace qppt

#endif  // QPPT_CORE_OPERATORS_COMMON_H_
