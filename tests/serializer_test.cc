// The storage primitives against bytewise references kept here: the
// slicing-by-8 Crc32 against the classic one-table loop, and the block-append
// Encoder against a field-by-field little-endian encoder. Checkpoint files must
// stay byte-identical across encoder changes, so equality is on exact bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/storage/serializer.h"

namespace focus::storage {
namespace {

uint32_t ReferenceCrc32(std::string_view data, uint32_t seed = 0) {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) != 0 ? 0xEDB88320u : 0u);
      }
      t[i] = crc;
    }
    return t;
  }();
  uint32_t crc = ~seed;
  for (char c : data) {
    crc = (crc >> 8) ^ table[(crc ^ static_cast<uint8_t>(c)) & 0xFF];
  }
  return ~crc;
}

// Field-by-field encoder: every multi-byte field written one byte at a time in
// little-endian order, independent of the host's byte order.
class ReferenceEncoder {
 public:
  void PutU8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      PutU8(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void PutU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      PutU8(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void PutVarint(uint64_t v) {
    while (v >= 0x80) {
      PutU8(static_cast<uint8_t>((v & 0x7F) | 0x80));
      v >>= 7;
    }
    PutU8(static_cast<uint8_t>(v));
  }
  void PutSignedVarint(int64_t v) {
    PutVarint((static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63));
  }
  void PutDouble(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(bits);
  }
  void PutFloat(float v) {
    uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    PutU32(bits);
  }
  void PutFloatVec(const std::vector<float>& v) {
    PutVarint(v.size());
    for (float x : v) {
      PutFloat(x);
    }
  }
  void PutString(std::string_view s) {
    PutVarint(s.size());
    PutBytes(s);
  }
  void PutBytes(std::string_view s) {
    for (char c : s) {
      PutU8(static_cast<uint8_t>(c));
    }
  }
  const std::string& bytes() const { return out_; }

 private:
  std::string out_;
};

std::string RandomBytes(common::Pcg32& rng, size_t n) {
  std::string s(n, '\0');
  for (char& c : s) {
    c = static_cast<char>(rng.NextBounded(256));
  }
  return s;
}

float FloatFromBits(uint32_t bits) {
  float f = 0.0f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

uint32_t BitsOf(float f) {
  uint32_t bits = 0;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits;
}

TEST(Crc32Test, MatchesBytewiseReferenceForEveryLengthUpTo257) {
  common::Pcg32 rng(7);
  const std::string data = RandomBytes(rng, 257);
  for (size_t n = 0; n <= data.size(); ++n) {
    const std::string_view prefix(data.data(), n);
    EXPECT_EQ(Crc32(prefix), ReferenceCrc32(prefix)) << "length " << n;
  }
}

TEST(Crc32Test, MatchesReferenceFromUnalignedStarts) {
  common::Pcg32 rng(11);
  const std::string data = RandomBytes(rng, 300);
  for (size_t start = 0; start < 16; ++start) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9}, size_t{63},
                     size_t{64}, size_t{65}, size_t{200}}) {
      const std::string_view view(data.data() + start, n);
      EXPECT_EQ(Crc32(view), ReferenceCrc32(view)) << "start " << start << " length " << n;
    }
  }
}

TEST(Crc32Test, ChainedSeedsEqualTheWholeBuffer) {
  common::Pcg32 rng(13);
  const std::string data = RandomBytes(rng, 257);
  for (size_t split = 0; split <= data.size(); ++split) {
    const std::string_view a(data.data(), split);
    const std::string_view b(data.data() + split, data.size() - split);
    EXPECT_EQ(Crc32(b, Crc32(a)), Crc32(data)) << "split " << split;
    EXPECT_EQ(Crc32(b, Crc32(a)), ReferenceCrc32(b, ReferenceCrc32(a)));
  }
}

TEST(Crc32Test, KnownVector) {
  // The IEEE CRC-32 check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
}

TEST(EncoderTest, VarintLengthBoundaries) {
  for (uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{127}, uint64_t{128}, uint64_t{16383},
                     uint64_t{16384}, uint64_t{1} << 62, uint64_t{1} << 63,
                     std::numeric_limits<uint64_t>::max()}) {
    Encoder enc;
    ReferenceEncoder ref;
    enc.PutVarint(v);
    ref.PutVarint(v);
    EXPECT_EQ(enc.bytes(), ref.bytes()) << v;
    Decoder dec(enc.bytes());
    uint64_t back = 0;
    ASSERT_TRUE(dec.GetVarint(&back));
    EXPECT_EQ(back, v);
    EXPECT_TRUE(dec.Done());
  }
  EXPECT_EQ(Encoder().size(), 0u);
  Encoder one;
  one.PutVarint(127);
  EXPECT_EQ(one.size(), 1u);
  Encoder two;
  two.PutVarint(128);
  EXPECT_EQ(two.size(), 2u);
  Encoder ten;
  ten.PutVarint(uint64_t{1} << 63);
  EXPECT_EQ(ten.size(), 10u);
}

TEST(EncoderTest, ZigZagExtremes) {
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1}, int64_t{-64}, int64_t{64},
                    std::numeric_limits<int64_t>::min(), std::numeric_limits<int64_t>::max()}) {
    Encoder enc;
    ReferenceEncoder ref;
    enc.PutSignedVarint(v);
    ref.PutSignedVarint(v);
    EXPECT_EQ(enc.bytes(), ref.bytes()) << v;
    Decoder dec(enc.bytes());
    int64_t back = 0;
    ASSERT_TRUE(dec.GetSignedVarint(&back));
    EXPECT_EQ(back, v);
  }
}

TEST(EncoderTest, FloatBitPatternsSurviveExactly) {
  const std::vector<float> patterns = {
      0.0f,
      -0.0f,
      1.0f,
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      FloatFromBits(0x7FC00001u),  // Quiet NaN with a payload.
      FloatFromBits(0x7F800001u),  // Signalling NaN pattern.
      FloatFromBits(0xFFC12345u),  // Negative NaN with a payload.
      FloatFromBits(0x00000001u),  // Smallest denormal.
      FloatFromBits(0x807FFFFFu),  // Largest negative denormal.
      std::numeric_limits<float>::max(),
  };
  Encoder enc;
  ReferenceEncoder ref;
  for (float f : patterns) {
    enc.PutFloat(f);
    ref.PutFloat(f);
  }
  enc.PutFloatVec(patterns);
  ref.PutFloatVec(patterns);
  ASSERT_EQ(enc.bytes(), ref.bytes());

  Decoder dec(enc.bytes());
  for (float f : patterns) {
    float back = 0.0f;
    ASSERT_TRUE(dec.GetFloat(&back));
    EXPECT_EQ(BitsOf(back), BitsOf(f));
  }
  std::vector<float> vec;
  ASSERT_TRUE(dec.GetFloatVec(&vec));
  ASSERT_EQ(vec.size(), patterns.size());
  for (size_t i = 0; i < vec.size(); ++i) {
    EXPECT_EQ(BitsOf(vec[i]), BitsOf(patterns[i])) << i;
  }
  EXPECT_TRUE(dec.Done());
}

TEST(EncoderTest, DoubleBitPatternsMatchReference) {
  for (double d : {0.0, -0.0, 1e-310, -1e308, std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity()}) {
    Encoder enc;
    ReferenceEncoder ref;
    enc.PutDouble(d);
    ref.PutDouble(d);
    EXPECT_EQ(enc.bytes(), ref.bytes());
  }
}

TEST(EncoderTest, FloatVecRejectsCountsTheInputCannotHold) {
  Encoder enc;
  enc.PutVarint(3);
  enc.PutFloat(1.0f);
  enc.PutFloat(2.0f);  // One float short of the count.
  Decoder short_dec(enc.bytes());
  std::vector<float> v;
  EXPECT_FALSE(short_dec.GetFloatVec(&v));

  Encoder huge;
  huge.PutVarint(std::numeric_limits<uint64_t>::max() / 2);  // Would wrap n * 4.
  Decoder huge_dec(huge.bytes());
  EXPECT_FALSE(huge_dec.GetFloatVec(&v));
}

class EncoderSequenceProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EncoderSequenceProperty, RandomFieldSequencesMatchReference) {
  common::Pcg32 rng(GetParam());
  Encoder enc;
  ReferenceEncoder ref;
  const int ops = 1 + static_cast<int>(rng.NextBounded(400));
  for (int i = 0; i < ops; ++i) {
    switch (rng.NextBounded(10)) {
      case 0: {
        const auto v = static_cast<uint8_t>(rng.NextBounded(256));
        enc.PutU8(v);
        ref.PutU8(v);
        break;
      }
      case 1: {
        const uint32_t v = rng.Next();
        enc.PutU32(v);
        ref.PutU32(v);
        break;
      }
      case 2: {
        const uint64_t v = rng.Next() | (static_cast<uint64_t>(rng.Next()) << 32);
        enc.PutU64(v);
        ref.PutU64(v);
        break;
      }
      case 3: {
        const uint64_t v =
            (rng.Next() | (static_cast<uint64_t>(rng.Next()) << 32)) >> rng.NextBounded(64);
        enc.PutVarint(v);
        ref.PutVarint(v);
        break;
      }
      case 4: {
        auto v = static_cast<int64_t>(
            (rng.Next() | (static_cast<uint64_t>(rng.Next()) << 32)) >> rng.NextBounded(64));
        if (rng.NextBool(0.5)) {
          v = ~v;  // Negative, down to INT64_MIN.
        }
        enc.PutSignedVarint(v);
        ref.PutSignedVarint(v);
        break;
      }
      case 5: {
        const double v = rng.NextDouble() * 2e6 - 1e6;
        enc.PutDouble(v);
        ref.PutDouble(v);
        break;
      }
      case 6: {
        const float v = FloatFromBits(rng.Next());  // Any bit pattern, NaNs included.
        enc.PutFloat(v);
        ref.PutFloat(v);
        break;
      }
      case 7: {
        std::vector<float> v(rng.NextBounded(140));
        for (float& x : v) {
          x = FloatFromBits(rng.Next());
        }
        enc.PutFloatVec(v);
        ref.PutFloatVec(v);
        break;
      }
      case 8: {
        const std::string s = RandomBytes(rng, rng.NextBounded(200));
        enc.PutString(s);
        ref.PutString(s);
        break;
      }
      default: {
        // Raw splice: the bytes of a separately encoded field sequence.
        ReferenceEncoder piece;
        piece.PutVarint(rng.Next());
        piece.PutFloat(FloatFromBits(rng.Next()));
        enc.PutBytes(piece.bytes());
        ref.PutBytes(piece.bytes());
        break;
      }
    }
    ASSERT_EQ(enc.bytes(), ref.bytes()) << "op " << i;
  }
  EXPECT_EQ(Crc32(enc.bytes()), ReferenceCrc32(ref.bytes()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncoderSequenceProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace focus::storage
