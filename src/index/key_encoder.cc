#include "index/key_encoder.h"

#include <cstdint>
#include <cstring>

namespace qppt {

double DecodeDouble(const uint8_t* p) {
  uint64_t bits = DecodeU64(p);
  if (bits & (uint64_t{1} << 63)) {
    bits ^= (uint64_t{1} << 63);
  } else {
    bits = ~bits;
  }
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

}  // namespace qppt
