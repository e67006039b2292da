#include "storage/value.h"

#include <cstdint>
#include <cstring>
#include <string>

namespace qppt {

std::string_view ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kInt64:
      return "int64";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "unknown";
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kInt64:
      return std::to_string(AsInt());
    case ValueType::kDouble:
      return std::to_string(AsDouble());
    case ValueType::kString:
      return AsString();
  }
  return "?";
}

uint64_t SlotFromDouble(double v) {
  uint64_t s;
  std::memcpy(&s, &v, sizeof(s));
  return s;
}

double DoubleFromSlot(uint64_t s) {
  double v;
  std::memcpy(&v, &s, sizeof(v));
  return v;
}

void Dictionary::Add(std::string_view s) {
  if (sealed_) return;  // additions after sealing are ignored
  entries_.emplace(std::string(s), 0);
}

void Dictionary::Seal() {
  if (sealed_) return;
  sorted_.reserve(entries_.size());
  int64_t code = 0;
  for (auto& [str, assigned] : entries_) {
    assigned = code++;
    sorted_.push_back(&str);
  }
  sealed_ = true;
}

Result<int64_t> Dictionary::CodeOf(std::string_view s) const {
  auto it = entries_.find(s);
  if (it == entries_.end()) {
    return Status::NotFound("dictionary has no entry for '" +
                            std::string(s) + "'");
  }
  return it->second;
}

const std::string& Dictionary::StringOf(int64_t code) const {
  return *sorted_[static_cast<size_t>(code)];
}

}  // namespace qppt
