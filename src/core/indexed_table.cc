#include "core/indexed_table.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

namespace qppt {

namespace {

// A plain table's key column is KISS-eligible if it is a single
// integer-like attribute whose values fit 32 bits (join keys, dictionary
// codes, dates).
bool KissEligible(const std::vector<ValueType>& key_types) {
  return key_types.size() == 1 && key_types[0] != ValueType::kDouble;
}

ValueType AggOutputType(const AggTerm& term, const Schema& input) {
  switch (term.fn) {
    case AggFn::kCount:
      return ValueType::kInt64;
    case AggFn::kAvg:
      return ValueType::kDouble;
    default:
      break;
  }
  if (term.source.op == ScalarExpr::Op::kColumn) {
    auto idx = input.ColumnIndex(term.source.lhs);
    if (idx.ok() && input.column(*idx).type == ValueType::kDouble) {
      return ValueType::kDouble;
    }
  }
  return ValueType::kInt64;
}

// Group directory hash of an encoded key (whole 8-byte columns). The
// big-endian words are the columns' order-preserving values, whose low
// bits vary most, and the multiplications carry them into the top bits
// the directory indexes by.
uint64_t GroupHash(const uint8_t* key, size_t len) {
  uint64_t h = 0;
  for (size_t i = 0; i < len; i += 8) {
    h = (h ^ DecodeU64(key + i)) * 0x9E3779B97F4A7C15ULL;
  }
  return h;
}

constexpr size_t kInitialGroupSlots = 64;

}  // namespace

Result<std::unique_ptr<IndexedTable>> IndexedTable::Create(
    Schema schema, std::vector<std::string> key_columns, Options options) {
  auto table = std::unique_ptr<IndexedTable>(new IndexedTable());
  QPPT_RETURN_NOT_OK(table->Init(std::move(schema), std::move(key_columns),
                                 AggSpec{}, nullptr, options));
  return table;
}

Result<std::unique_ptr<IndexedTable>> IndexedTable::CreateAggregated(
    std::vector<ColumnDef> key_columns, AggSpec agg, const Schema& agg_input,
    Options options) {
  if (agg.empty()) {
    return Status::InvalidArgument(
        "CreateAggregated requires at least one aggregate term");
  }
  // Output schema: key columns, then one column per aggregate.
  std::vector<ColumnDef> cols = key_columns;
  for (const auto& term : agg.terms()) {
    cols.push_back({term.out_name, AggOutputType(term, agg_input), nullptr});
  }
  std::vector<std::string> key_names;
  key_names.reserve(key_columns.size());
  for (const auto& c : key_columns) key_names.push_back(c.name);

  auto table = std::unique_ptr<IndexedTable>(new IndexedTable());
  QPPT_RETURN_NOT_OK(table->Init(Schema(std::move(cols)),
                                 std::move(key_names), std::move(agg),
                                 &agg_input, options));
  return table;
}

Status IndexedTable::Init(Schema schema,
                          std::vector<std::string> key_columns, AggSpec agg,
                          const Schema* agg_input, Options options) {
  schema_ = std::move(schema);
  agg_ = std::move(agg);
  if (key_columns.empty()) {
    return Status::InvalidArgument("indexed table needs at least one key column");
  }
  if (key_columns.size() > KeyBuf::kCapacity / 8) {
    return Status::InvalidArgument(
        "indexed table takes at most " +
        std::to_string(KeyBuf::kCapacity / 8) + " key columns, got " +
        std::to_string(key_columns.size()));
  }
  for (const auto& name : key_columns) {
    QPPT_ASSIGN_OR_RETURN(size_t idx, schema_.ColumnIndex(name));
    key_cols_.push_back(idx);
    key_types_.push_back(schema_.column(idx).type);
  }
  if (!agg_.empty()) {
    QPPT_ASSIGN_OR_RETURN(bound_agg_, BoundAggSpec::Bind(agg_, *agg_input));
    // Aggregate tables require the key columns to lead the schema so that
    // ScanGroups can decode in place.
    for (size_t i = 0; i < key_cols_.size(); ++i) {
      if (key_cols_[i] != i) {
        return Status::InvalidArgument(
            "aggregate table key columns must be the leading columns");
      }
    }
  }
  if (agg_.empty() && options.prefer_kiss && KissEligible(key_types_)) {
    kind_ = Kind::kKiss;
    KissTree::Config cfg;
    cfg.root_bits = options.kiss_root_bits;
    kiss_ = std::make_unique<KissTree>(cfg);
  } else {
    kind_ = Kind::kPrefix;
    PrefixTree::Config cfg;
    cfg.key_len = encoded_key_len();
    cfg.kprime = options.kprime;
    if (!agg_.empty()) {
      cfg.mode = PrefixTree::PayloadMode::kAggregate;
      cfg.agg_payload_size = bound_agg_.payload_size();
    }
    prefix_ = std::make_unique<PrefixTree>(cfg);
  }
  return Status::OK();
}

size_t IndexedTable::MemoryUsage() const {
  size_t index_bytes =
      kind_ == Kind::kKiss ? kiss_->MemoryUsage() : prefix_->MemoryUsage();
  return index_bytes + rows_.capacity() * sizeof(uint64_t) +
         group_dir_.capacity() * sizeof(PrefixTree::ContentNode*);
}

void IndexedTable::EncodeKey(const uint64_t* key_slots, KeyBuf* out) const {
  out->clear();
  for (size_t i = 0; i < key_types_.size(); ++i) {
    if (key_types_[i] == ValueType::kDouble) {
      out->AppendDouble(DoubleFromSlot(key_slots[i]));
    } else {
      out->AppendI64(Int64FromSlot(key_slots[i]));
    }
  }
}

void IndexedTable::DecodeKeyInto(const uint8_t* key, uint64_t* out) const {
  for (size_t i = 0; i < key_types_.size(); ++i) {
    const uint8_t* p = key + i * 8;
    if (key_types_[i] == ValueType::kDouble) {
      out[i] = SlotFromDouble(DecodeDouble(p));
    } else {
      out[i] = SlotFromInt64(DecodeI64(p));
    }
  }
}

void IndexedTable::FinalizeInto(const std::byte* payload,
                                uint64_t* out) const {
  size_t base = key_cols_.size();
  for (size_t i = 0; i < bound_agg_.num_terms(); ++i) {
    out[base + i] = bound_agg_.Finalize(payload, i);
  }
}

void IndexedTable::Insert(const uint64_t* row) {
  assert(agg_.empty());
  uint64_t id = num_tuples_++;
  rows_.insert(rows_.end(), row, row + schema_.num_columns());
  if (kind_ == Kind::kKiss) {
    kiss_->Insert(KissKeyOf(row[key_cols_[0]]), id);
  } else {
    KeyBuf key;
    // Gather key slots in key-column order (they may be scattered in the
    // schema for plain tables).
    uint64_t slots[KeyBuf::kCapacity / 8];
    for (size_t i = 0; i < key_cols_.size(); ++i) slots[i] = row[key_cols_[i]];
    EncodeKey(slots, &key);
    prefix_->Insert(key.data(), id);
  }
}

bool IndexedTable::InsertIfAbsent(const uint64_t* row) {
  assert(agg_.empty());
  if (kind_ == Kind::kKiss) {
    if (kiss_->Contains(KissKeyOf(row[key_cols_[0]]))) return false;
  } else {
    KeyBuf key;
    uint64_t slots[KeyBuf::kCapacity / 8];
    for (size_t i = 0; i < key_cols_.size(); ++i) slots[i] = row[key_cols_[i]];
    EncodeKey(slots, &key);
    if (prefix_->Find(key.data()) != nullptr) return false;
  }
  Insert(row);
  return true;
}

std::unique_ptr<IndexedTable> IndexedTable::CloneEmpty() const {
  auto t = std::unique_ptr<IndexedTable>(new IndexedTable());
  t->kind_ = kind_;
  t->schema_ = schema_;
  t->key_cols_ = key_cols_;
  t->key_types_ = key_types_;
  t->agg_ = agg_;
  t->bound_agg_ = bound_agg_;
  if (kind_ == Kind::kKiss) {
    t->kiss_ = std::make_unique<KissTree>(kiss_->config());
  } else {
    t->prefix_ = std::make_unique<PrefixTree>(prefix_->config());
  }
  return t;
}

void IndexedTable::MergeFrom(const IndexedTable& other) {
  assert(kind_ == other.kind_ &&
         schema_.num_columns() == other.schema_.num_columns());
  if (agg_.empty()) {
    other.ScanInOrder([&](const uint64_t* row) { Insert(row); });
    return;
  }
  num_tuples_ += other.num_tuples_;
  other.prefix_->ScanAll([&](const PrefixTree::ContentNode& c) {
    bool created = false;
    std::byte* dst = GroupPayload(c.key(), &created);
    if (created) bound_agg_.Init(dst);
    bound_agg_.Merge(dst, other.prefix_->PayloadOf(&c));
  });
}

void IndexedTable::InsertAggregated(const uint64_t* key_slots,
                                    const uint64_t* input_row) {
  assert(!agg_.empty());
  ++num_tuples_;
  KeyBuf key;
  EncodeKey(key_slots, &key);
  bool created = false;
  std::byte* payload = GroupPayload(key.data(), &created);
  if (created) bound_agg_.Init(payload);
  bound_agg_.Combine(payload, input_row);
}

std::byte* IndexedTable::GroupPayload(const uint8_t* key, bool* created) {
  if (2 * (group_dir_used_ + 1) > group_dir_.size()) GrowGroupDirectory();
  const size_t len = encoded_key_len();
  const size_t mask = group_dir_.size() - 1;
  size_t i = GroupHash(key, len) >> (64 - std::countr_zero(mask + 1));
  for (;; i = (i + 1) & mask) {
    PrefixTree::ContentNode* c = group_dir_[i];
    if (c == nullptr) break;
    if (std::memcmp(c->key(), key, len) == 0) {
      *created = false;
      return prefix_->MutablePayloadOf(c);
    }
  }
  PrefixTree::ContentNode* c = prefix_->FindOrCreateGroup(key, created);
  group_dir_[i] = c;
  ++group_dir_used_;
  return prefix_->MutablePayloadOf(c);
}

void IndexedTable::GrowGroupDirectory() {
  std::vector<PrefixTree::ContentNode*> old = std::move(group_dir_);
  const size_t size = std::max(kInitialGroupSlots, 2 * old.size());
  group_dir_.assign(size, nullptr);
  const size_t len = encoded_key_len();
  const int shift = 64 - std::countr_zero(size);
  for (PrefixTree::ContentNode* c : old) {
    if (c == nullptr) continue;
    size_t i = GroupHash(c->key(), len) >> shift;
    while (group_dir_[i] != nullptr) i = (i + 1) & (size - 1);
    group_dir_[i] = c;
  }
}

}  // namespace qppt
