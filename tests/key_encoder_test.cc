#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "index/key_encoder.h"
#include "util/rng.h"

namespace qppt {
namespace {

// Property: for every pair (a, b), natural order == lexicographic order of
// the encodings. These are the order-preservation guarantees that make the
// prefix tree's in-order traversal a free ORDER BY (§3).

TEST(KeyEncoderTest, U32RoundTripAndOrder) {
  Rng rng(1);
  std::vector<uint32_t> values = {0, 1, 0xFF, 0x100, 0xFFFF'FFFF};
  for (int i = 0; i < 500; ++i) values.push_back(rng.Next32());
  for (uint32_t a : values) {
    KeyBuf ka;
    ka.AppendU32(a);
    ASSERT_EQ(DecodeU32(ka.data()), a);
    for (uint32_t b : values) {
      KeyBuf kb;
      kb.AppendU32(b);
      int cmp = std::memcmp(ka.data(), kb.data(), 4);
      ASSERT_EQ(cmp < 0, a < b);
      ASSERT_EQ(cmp == 0, a == b);
    }
  }
}

TEST(KeyEncoderTest, I64RoundTripAndOrder) {
  Rng rng(2);
  std::vector<int64_t> values = {INT64_MIN, -1, 0, 1, INT64_MAX, -42};
  for (int i = 0; i < 200; ++i) {
    values.push_back(static_cast<int64_t>(rng.Next()));
  }
  for (int64_t a : values) {
    KeyBuf ka;
    ka.AppendI64(a);
    ASSERT_EQ(DecodeI64(ka.data()), a);
    for (int64_t b : values) {
      KeyBuf kb;
      kb.AppendI64(b);
      int cmp = std::memcmp(ka.data(), kb.data(), 8);
      ASSERT_EQ(cmp < 0, a < b) << a << " vs " << b;
    }
  }
}

TEST(KeyEncoderTest, I32RoundTripAndOrder) {
  std::vector<int32_t> values = {INT32_MIN, -100, -1, 0, 1, 100, INT32_MAX};
  for (int32_t a : values) {
    KeyBuf ka;
    ka.AppendI32(a);
    ASSERT_EQ(DecodeI32(ka.data()), a);
    for (int32_t b : values) {
      KeyBuf kb;
      kb.AppendI32(b);
      ASSERT_EQ(std::memcmp(ka.data(), kb.data(), 4) < 0, a < b);
    }
  }
}

TEST(KeyEncoderTest, DoubleRoundTripAndOrder) {
  Rng rng(3);
  std::vector<double> values = {-1e300, -1.0, -0.5, -0.0, 0.0,
                                0.5,    1.0,  1e300};
  for (int i = 0; i < 200; ++i) {
    values.push_back((rng.NextDouble() - 0.5) * 1e6);
  }
  for (double a : values) {
    KeyBuf ka;
    ka.AppendDouble(a);
    ASSERT_EQ(DecodeDouble(ka.data()), a);
    for (double b : values) {
      KeyBuf kb;
      kb.AppendDouble(b);
      int cmp = std::memcmp(ka.data(), kb.data(), 8);
      if (a < b) {
        ASSERT_LT(cmp, 0) << a << " vs " << b;
      }
      if (a > b) {
        ASSERT_GT(cmp, 0) << a << " vs " << b;
      }
    }
  }
}

TEST(KeyEncoderTest, CompositeKeysOrderLexicographically) {
  // (year, brand) composite keys, as in SSB Q2.3's group key.
  struct Pair {
    int64_t year;
    int64_t brand;
  };
  std::vector<Pair> pairs = {{1992, 100}, {1992, 200}, {1993, 50},
                             {1993, 51},  {1997, 0},   {1998, 999}};
  for (const auto& a : pairs) {
    KeyBuf ka;
    ka.AppendI64(a.year);
    ka.AppendI64(a.brand);
    ASSERT_EQ(ka.size(), 16u);
    for (const auto& b : pairs) {
      KeyBuf kb;
      kb.AppendI64(b.year);
      kb.AppendI64(b.brand);
      bool natural_less =
          a.year < b.year || (a.year == b.year && a.brand < b.brand);
      ASSERT_EQ(std::memcmp(ka.data(), kb.data(), 16) < 0, natural_less);
    }
  }
}

TEST(KeyEncoderTest, AppendU64) {
  KeyBuf k;
  k.AppendU64(0x0123456789ABCDEFULL);
  EXPECT_EQ(k.size(), 8u);
  EXPECT_EQ(DecodeU64(k.data()), 0x0123456789ABCDEFULL);
  EXPECT_EQ(k.data()[0], 0x01);
  EXPECT_EQ(k.data()[7], 0xEF);
}

TEST(KeyEncoderTest, ClearResets) {
  KeyBuf k;
  k.AppendU32(1);
  k.clear();
  EXPECT_EQ(k.size(), 0u);
  k.AppendU32(2);
  EXPECT_EQ(k.size(), 4u);
  EXPECT_EQ(DecodeU32(k.data()), 2u);
}

TEST(KeyEncoderTest, CompareKeysMatchesMemcmp) {
  uint8_t a[4] = {1, 2, 3, 4};
  uint8_t b[4] = {1, 2, 3, 5};
  EXPECT_LT(CompareKeys(a, b, 4), 0);
  EXPECT_GT(CompareKeys(b, a, 4), 0);
  EXPECT_EQ(CompareKeys(a, a, 4), 0);
}

}  // namespace
}  // namespace qppt
