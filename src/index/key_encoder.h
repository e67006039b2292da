// Order-preserving binary key encoding.
//
// Prefix trees (§2.1) navigate on the big-endian binary representation of a
// key, MSB-first, so the tree's in-order traversal enumerates keys in
// ascending order — the property QPPT exploits to get sorting and grouping
// "for free" from the output index (§3). This encoder produces byte strings
// whose lexicographic order equals the natural order of the encoded values:
//
//   - unsigned integers: big-endian bytes
//   - signed integers:   offset-binary (sign bit flipped), then big-endian
//   - doubles:           IEEE-754 total-order transform
//   - dictionary codes:  non-negative int64 ranks, encoded as unsigned
//
// Composite keys (e.g. the (year, brand1) group key of SSB Q2.3) are the
// concatenation of fixed-width encoded components.

#ifndef QPPT_INDEX_KEY_ENCODER_H_
#define QPPT_INDEX_KEY_ENCODER_H_

#include <cstdint>
#include <cstring>

#include "storage/value.h"

namespace qppt {

// A small fixed-capacity key buffer. QPPT keys are at most a few composed
// integer attributes; 32 bytes covers four 64-bit components.
class KeyBuf {
 public:
  static constexpr size_t kCapacity = 32;

  KeyBuf() = default;

  const uint8_t* data() const { return bytes_; }
  uint8_t* data() { return bytes_; }
  size_t size() const { return size_; }
  void clear() { size_ = 0; }

  void AppendU32(uint32_t v) {
    bytes_[size_++] = static_cast<uint8_t>(v >> 24);
    bytes_[size_++] = static_cast<uint8_t>(v >> 16);
    bytes_[size_++] = static_cast<uint8_t>(v >> 8);
    bytes_[size_++] = static_cast<uint8_t>(v);
  }

  void AppendU64(uint64_t v) {
    AppendU32(static_cast<uint32_t>(v >> 32));
    AppendU32(static_cast<uint32_t>(v));
  }

  // Signed 64-bit: flip the sign bit so negative values sort first.
  void AppendI64(int64_t v) {
    AppendU64(static_cast<uint64_t>(v) ^ (uint64_t{1} << 63));
  }

  // Signed 32-bit, 4-byte encoding (for KISS-Tree-eligible keys).
  void AppendI32(int32_t v) {
    AppendU32(static_cast<uint32_t>(v) ^ (uint32_t{1} << 31));
  }

  // IEEE-754 total-order transform: if sign bit set, flip all bits; else
  // flip only the sign bit. NaNs sort above +inf; -0 < +0.
  void AppendDouble(double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    if (bits & (uint64_t{1} << 63)) {
      bits = ~bits;
    } else {
      bits ^= (uint64_t{1} << 63);
    }
    AppendU64(bits);
  }

 private:
  uint8_t bytes_[kCapacity] = {};
  size_t size_ = 0;
};

// Decoding helpers (tests, result extraction).
inline uint32_t DecodeU32(const uint8_t* p) {
  return (uint32_t{p[0]} << 24) | (uint32_t{p[1]} << 16) |
         (uint32_t{p[2]} << 8) | uint32_t{p[3]};
}
inline uint64_t DecodeU64(const uint8_t* p) {
  return (uint64_t{DecodeU32(p)} << 32) | DecodeU32(p + 4);
}
inline int64_t DecodeI64(const uint8_t* p) {
  return static_cast<int64_t>(DecodeU64(p) ^ (uint64_t{1} << 63));
}
inline int32_t DecodeI32(const uint8_t* p) {
  return static_cast<int32_t>(DecodeU32(p) ^ (uint32_t{1} << 31));
}
double DecodeDouble(const uint8_t* p);

// The 32-bit KISS-Tree key of an int64 attribute slot: its low 32 bits
// (§2.2: 32-bit keys are "mostly sufficient"), so values equal modulo
// 2^32 share one key. The one KISS key mapping of base indexes,
// intermediate tables and probes.
inline uint32_t KissKeyOf(uint64_t slot) {
  return static_cast<uint32_t>(Int64FromSlot(slot));
}

// Lexicographic comparison of equal-length keys.
inline int CompareKeys(const uint8_t* a, const uint8_t* b, size_t len) {
  return std::memcmp(a, b, len);
}

}  // namespace qppt

#endif  // QPPT_INDEX_KEY_ENCODER_H_
