// Typed values and order-preserving string dictionaries.
//
// The engines in this repository process fixed-width 64-bit slots. String
// columns are dictionary-encoded with *order-preserving* codes (codes are
// ranks in the sorted set of distinct strings), so that range predicates on
// strings (e.g. SSB Q2.2's BETWEEN on p_brand1) translate to code ranges
// and prefix-tree indexes on string columns remain order-preserving.

#ifndef QPPT_STORAGE_VALUE_H_
#define QPPT_STORAGE_VALUE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/status.h"

namespace qppt {

enum class ValueType : uint8_t {
  kInt64 = 0,
  kDouble = 1,
  kString = 2,
};

std::string_view ValueTypeToString(ValueType type);

// A typed scalar used at API boundaries (predicates, query results).
// Inside the engines, everything is a 64-bit slot.
class Value {
 public:
  Value() : repr_(int64_t{0}) {}
  explicit Value(int64_t v) : repr_(v) {}
  explicit Value(double v) : repr_(v) {}
  explicit Value(std::string v) : repr_(std::move(v)) {}
  static Value Int(int64_t v) { return Value(v); }
  static Value Real(double v) { return Value(v); }
  static Value Str(std::string v) { return Value(std::move(v)); }

  ValueType type() const {
    return static_cast<ValueType>(repr_.index());
  }
  bool is_int() const { return type() == ValueType::kInt64; }
  bool is_double() const { return type() == ValueType::kDouble; }
  bool is_string() const { return type() == ValueType::kString; }

  int64_t AsInt() const { return std::get<int64_t>(repr_); }
  double AsDouble() const { return std::get<double>(repr_); }
  const std::string& AsString() const { return std::get<std::string>(repr_); }

  std::string ToString() const;

  friend bool operator==(const Value& a, const Value& b) {
    return a.repr_ == b.repr_;
  }

 private:
  std::variant<int64_t, double, std::string> repr_;
};

// Bit-casting between the 64-bit slot representation and typed values.
// Doubles are stored via their IEEE-754 bits.
inline uint64_t SlotFromInt64(int64_t v) { return static_cast<uint64_t>(v); }
inline int64_t Int64FromSlot(uint64_t s) { return static_cast<int64_t>(s); }
uint64_t SlotFromDouble(double v);
double DoubleFromSlot(uint64_t s);

// Order-preserving string dictionary. Build by inserting all distinct
// strings (in any order), then Seal(); codes are ranks in sorted order.
// Lookups before Seal() are not allowed.
class Dictionary {
 public:
  Dictionary() = default;

  // Registers a string. Callable only before Seal().
  void Add(std::string_view s);

  // Assigns order-preserving codes. Idempotent.
  void Seal();

  bool sealed() const { return sealed_; }
  size_t size() const { return sorted_.size(); }

  // Returns the code for `s`, or an error if absent. Requires sealed().
  Result<int64_t> CodeOf(std::string_view s) const;

  // Returns the string for `code`. Requires sealed() and valid code.
  const std::string& StringOf(int64_t code) const;

 private:
  std::map<std::string, int64_t, std::less<>> entries_;
  std::vector<const std::string*> sorted_;
  bool sealed_ = false;
};

using DictionaryPtr = std::shared_ptr<Dictionary>;

}  // namespace qppt

#endif  // QPPT_STORAGE_VALUE_H_
