#include "core/operators/common.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace qppt {

Result<BoundSide> BoundSide::Bind(const ExecContext& ctx, const SideRef& ref,
                                  const std::vector<std::string>& columns) {
  BoundSide side;
  if (ref.kind == SideRef::Kind::kBaseIndex) {
    QPPT_ASSIGN_OR_RETURN(side.base_, ctx.db().index(ref.name));
    if (side.base_->mvcc() != nullptr) {
      side.mvcc_ = side.base_->mvcc();
      side.read_ts_ = ctx.read_ts();
    }
    const Schema& schema = side.base_->table().schema();
    side.record_width_ = schema.num_columns();
    for (const auto& col : columns) {
      QPPT_ASSIGN_OR_RETURN(auto acc, side.base_->BindColumn(col));
      side.base_accessors_.push_back(acc);
      if (col == "@rid") {
        side.defs_.push_back({"@rid", ValueType::kInt64, nullptr});
      } else {
        QPPT_ASSIGN_OR_RETURN(size_t idx, schema.ColumnIndex(col));
        side.defs_.push_back(schema.column(idx));
      }
    }
  } else {
    QPPT_ASSIGN_OR_RETURN(side.inter_, ctx.Get(ref.name));
    if (side.inter_->aggregated()) {
      return Status::InvalidArgument(
          "operator input '" + ref.name +
          "' is an aggregated table; joins expect plain indexed tables");
    }
    const Schema& schema = side.inter_->schema();
    for (const auto& col : columns) {
      QPPT_ASSIGN_OR_RETURN(size_t idx, schema.ColumnIndex(col));
      side.inter_positions_.push_back(idx);
      side.defs_.push_back(schema.column(idx));
    }
  }
  return side;
}

Result<std::vector<BoundResidual>> BindResiduals(
    const BaseIndex& index, const std::vector<Residual>& residuals) {
  std::vector<BoundResidual> bound;
  bound.reserve(residuals.size());
  const Schema& schema = index.table().schema();
  for (const auto& r : residuals) {
    QPPT_ASSIGN_OR_RETURN(auto acc, index.BindColumn(r.column));
    auto col = schema.ColumnIndex(r.column);  // fails only for "@rid"
    bool is_double =
        col.ok() && schema.column(*col).type == ValueType::kDouble;
    bound.push_back({r, acc, is_double});
  }
  return bound;
}

Result<std::unique_ptr<IndexedTable>> MakeOutputTable(
    const OutputSpec& spec, const Schema& assembled,
    const TreeOptions& options) {
  if (spec.agg.empty()) {
    return IndexedTable::Create(assembled, spec.key_columns, options);
  }
  std::vector<ColumnDef> key_defs;
  key_defs.reserve(spec.key_columns.size());
  for (const auto& name : spec.key_columns) {
    QPPT_ASSIGN_OR_RETURN(size_t idx, assembled.ColumnIndex(name));
    key_defs.push_back(assembled.column(idx));
  }
  return IndexedTable::CreateAggregated(std::move(key_defs), spec.agg,
                                        assembled, options);
}

Result<std::vector<BoundAssist>> BindAssists(
    const ExecContext& ctx, const std::vector<AssistSpec>& assists,
    std::vector<ColumnDef>* defs) {
  std::vector<BoundAssist> bound_assists;
  for (const auto& aspec : assists) {
    BoundAssist bound;
    QPPT_ASSIGN_OR_RETURN(
        bound.side, BoundSide::Bind(ctx, aspec.index, aspec.carry_columns));
    // The probe column must already be assembled when this assist runs.
    // O(columns) schema copy, once per assist bind.
    Schema so_far{std::vector<ColumnDef>(*defs)};
    QPPT_ASSIGN_OR_RETURN(bound.probe_pos,
                          so_far.ColumnIndex(aspec.probe_column));
    bound.carry_offset = defs->size();
    defs->insert(defs->end(), bound.side.column_defs().begin(),
                 bound.side.column_defs().end());
    bound_assists.push_back(std::move(bound));
  }
  return bound_assists;
}

CandidatePipeline::CandidatePipeline(std::vector<BoundAssist> assists,
                                     size_t row_width, IndexedTable* output,
                                     std::vector<size_t> key_positions,
                                     size_t buffer_rows)
    : assists_(std::move(assists)),
      width_(row_width),
      output_(output),
      key_positions_(std::move(key_positions)),
      key_slots_(key_positions_.size()),
      buffer_rows_(buffer_rows < 1 ? 1 : buffer_rows) {
  candidates_.reserve(buffer_rows_ * width_);
}

uint64_t* CandidatePipeline::AddRow() {
  size_t at = candidates_.size();
  candidates_.resize(at + width_, 0);
  return candidates_.data() + at;
}

void CandidatePipeline::Process() {
  if (candidates_.empty()) return;
  Timer phase;
  std::vector<uint64_t>* rows = &candidates_;
  for (auto& assist : assists_) {
    size_t n = rows->size() / width_;
    if (n == 0) break;
    next_stage_.clear();
    const KissTree* kiss = assist.side.kiss();
    auto expand = [&](const uint64_t* row, uint64_t assist_value) {
      if (!assist.side.Visible(assist_value)) return;
      size_t at = next_stage_.size();
      next_stage_.insert(next_stage_.end(), row, row + width_);
      assist.side.Fill(assist_value,
                       next_stage_.data() + at + assist.carry_offset);
    };
    if (kiss != nullptr) {
      // Batched probes with prefetch pipelining (the joinbuffer payoff;
      // a buffer of 1 runs batches of one).
      jobs_.clear();
      jobs_.resize(n);
      for (size_t i = 0; i < n; ++i) {
        jobs_[i].key = KissKeyOf((*rows)[i * width_ + assist.probe_pos]);
      }
      kiss->BatchLookup(jobs_);
      for (size_t i = 0; i < n; ++i) {
        if (!jobs_[i].found) continue;
        const uint64_t* row = rows->data() + i * width_;
        jobs_[i].values.ForEach(
            [&](uint64_t v) { expand(row, v); });
      }
    } else {
      // Prefix-tree assist, batched: the encoded probes walk the tree
      // level-synchronously with software prefetching (§2.3,
      // Algorithm 1), the same joinbuffer payoff the KISS probes get.
      const PrefixTree* prefix = assist.side.prefix();
      prefix_jobs_.clear();
      prefix_jobs_.resize(n);
      prefix_keys_.resize(n);
      for (size_t i = 0; i < n; ++i) {
        const uint64_t* row = rows->data() + i * width_;
        prefix_keys_[i].clear();
        prefix_keys_[i].AppendI64(Int64FromSlot(row[assist.probe_pos]));
        prefix_jobs_[i].key = prefix_keys_[i].data();
      }
      prefix->BatchLookup(prefix_jobs_);
      for (size_t i = 0; i < n; ++i) {
        if (prefix_jobs_[i].result == nullptr) continue;
        const uint64_t* row = rows->data() + i * width_;
        prefix->ValuesOf(prefix_jobs_[i].result)
            ->ForEach([&](uint64_t v) { expand(row, v); });
      }
    }
    rows->swap(next_stage_);
  }
  materialize_ms_ += phase.ElapsedMs();

  phase.Restart();
  size_t n = rows->size() / width_;
  const bool aggregating = !key_positions_.empty();
  for (size_t i = 0; i < n; ++i) {
    const uint64_t* row = rows->data() + i * width_;
    if (aggregating) {
      for (size_t k = 0; k < key_positions_.size(); ++k) {
        key_slots_[k] = row[key_positions_[k]];
      }
      output_->InsertAggregated(key_slots_.data(), row);
    } else {
      output_->Insert(row);
    }
  }
  index_ms_ += phase.ElapsedMs();
  candidates_.clear();
}

void FillOutputStats(const IndexedTable& table, OperatorStats* stats) {
  stats->output_tuples = table.num_tuples();
  stats->output_keys = table.num_keys();
  stats->output_bytes = table.MemoryUsage();
  std::string desc =
      table.kind() == IndexedTable::Kind::kKiss ? "kiss(" : "prefix(";
  const Schema& schema = table.schema();
  const auto& key_positions = table.key_column_positions();
  for (size_t i = 0; i < key_positions.size(); ++i) {
    if (i > 0) desc += ",";
    desc += schema.column(key_positions[i]).name;
  }
  desc += table.aggregated() ? ") aggregated" : ")";
  stats->output_desc = desc;
}

}  // namespace qppt
