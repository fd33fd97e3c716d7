// Property tests for the storage formats, parameterized over seeds:
//   * random structured indexes round-trip bit-exactly through the snapshot codec;
//   * random corruptions are always detected (CRC) and never crash the decoder;
//   * completely random bytes never decode successfully and never crash;
//   * random record-log truncations recover exactly the fully-written prefix;
//   * serializer primitives round-trip under randomized interleavings;
//   * crafted snapshots whose classes or ranks do not fit their fields fail
//     with kOutOfRange instead of loading truncated values.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/cnn/model_desc.h"
#include "src/common/rng.h"
#include "src/index/kv_store.h"
#include "src/index/topk_index.h"
#include "src/storage/index_codec.h"
#include "src/storage/serializer.h"

namespace focus::storage {
namespace {

index::TopKIndex RandomIndex(uint64_t seed) {
  common::Pcg32 rng(seed);
  index::TopKIndex idx;
  const int clusters = 1 + static_cast<int>(rng.NextBounded(40));
  for (int c = 0; c < clusters; ++c) {
    index::ClusterEntry entry;
    entry.cluster_id = c;
    entry.size = static_cast<int64_t>(rng.NextBounded(1000));
    entry.representative.frame = static_cast<int64_t>(rng.NextBounded(1 << 20));
    entry.representative.object_id = static_cast<int64_t>(rng.NextBounded(1 << 16));
    entry.representative.true_class = static_cast<common::ClassId>(rng.NextBounded(1001));
    entry.representative.bbox = {static_cast<float>(rng.NextDouble() * 160),
                                 static_cast<float>(rng.NextDouble() * 120),
                                 static_cast<float>(rng.NextDouble() * 30 + 1),
                                 static_cast<float>(rng.NextDouble() * 30 + 1)};
    entry.representative.pixel_diff_suppressed = rng.NextBool(0.3);
    entry.representative.first_observation = rng.NextBool(0.1);
    const int dim = static_cast<int>(rng.NextBounded(65));
    for (int i = 0; i < dim; ++i) {
      entry.representative.appearance.push_back(
          static_cast<float>(rng.NextDouble() * 2.0 - 1.0));
    }
    const int members = 1 + static_cast<int>(rng.NextBounded(8));
    common::FrameIndex frame = entry.representative.frame;
    for (int m = 0; m < members; ++m) {
      cluster::MemberRun run;
      run.object = static_cast<int64_t>(rng.NextBounded(1 << 16));
      run.first_frame = frame;
      run.last_frame = frame + static_cast<int64_t>(rng.NextBounded(300));
      frame = run.last_frame + 1 + static_cast<int64_t>(rng.NextBounded(100));
      entry.members.push_back(run);
    }
    const int topk = static_cast<int>(rng.NextBounded(12));
    for (int t = 0; t < topk; ++t) {
      entry.topk_classes.push_back(static_cast<common::ClassId>(rng.NextBounded(1001)));
      entry.topk_ranks.push_back(static_cast<int32_t>(t) + 1);
    }
    idx.AddCluster(std::move(entry));
  }
  return idx;
}

IndexSnapshotHeader RandomHeader(uint64_t seed) {
  common::Pcg32 rng(seed ^ 0x5EED);
  IndexSnapshotHeader h;
  h.stream_name = "stream_" + std::to_string(rng.NextBounded(100));
  h.model_name = "model_" + std::to_string(rng.NextBounded(100));
  h.k = 1 + static_cast<int32_t>(rng.NextBounded(200));
  h.cluster_threshold = rng.NextDouble();
  h.world_seed = rng.Next();
  h.fps = rng.NextBool(0.5) ? 30.0 : 1.0;
  h.model.name = h.model_name;
  h.model.layers = 6 + static_cast<int>(rng.NextBounded(30));
  h.model.input_px = 56 << rng.NextBounded(3);
  if (rng.NextBool(0.5)) {
    for (int i = 0; i < 10; ++i) {
      h.model.classes.push_back(static_cast<common::ClassId>(rng.NextBounded(1000)));
    }
    h.model.has_other_class = true;
  }
  h.model.training_variability = rng.NextDouble();
  h.model.weights_seed = rng.Next();
  return h;
}

class CodecRoundTripProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CodecRoundTripProperty, EncodeDecodeIsIdentity) {
  const uint64_t seed = GetParam();
  index::TopKIndex original = RandomIndex(seed);
  IndexSnapshotHeader header = RandomHeader(seed);
  std::string blob = EncodeIndexSnapshot(header, original);

  IndexSnapshotHeader decoded_header;
  index::TopKIndex decoded;
  auto result = DecodeIndexSnapshot(blob, &decoded_header, &decoded);
  ASSERT_TRUE(result.ok()) << result.error().message;

  EXPECT_EQ(decoded_header.stream_name, header.stream_name);
  EXPECT_EQ(decoded_header.k, header.k);
  EXPECT_EQ(decoded_header.world_seed, header.world_seed);
  EXPECT_EQ(decoded_header.model.classes, header.model.classes);
  ASSERT_EQ(decoded.num_clusters(), original.num_clusters());
  for (size_t i = 0; i < original.num_clusters(); ++i) {
    const index::ClusterEntry& a = original.clusters()[i];
    const index::ClusterEntry& b = decoded.clusters()[i];
    EXPECT_EQ(a.size, b.size);
    EXPECT_EQ(a.topk_classes, b.topk_classes);
    EXPECT_EQ(a.topk_ranks, b.topk_ranks);
    EXPECT_EQ(a.representative.appearance, b.representative.appearance);
    EXPECT_EQ(a.representative.pixel_diff_suppressed, b.representative.pixel_diff_suppressed);
    ASSERT_EQ(a.members.size(), b.members.size());
    for (size_t m = 0; m < a.members.size(); ++m) {
      EXPECT_EQ(a.members[m].object, b.members[m].object);
      EXPECT_EQ(a.members[m].first_frame, b.members[m].first_frame);
      EXPECT_EQ(a.members[m].last_frame, b.members[m].last_frame);
    }
  }
  // Re-encoding the decoded index reproduces the exact bytes (canonical format).
  EXPECT_EQ(EncodeIndexSnapshot(decoded_header, decoded), blob);
}

TEST_P(CodecRoundTripProperty, SingleByteCorruptionIsAlwaysDetected) {
  const uint64_t seed = GetParam();
  std::string blob = EncodeIndexSnapshot(RandomHeader(seed), RandomIndex(seed));
  common::Pcg32 rng(seed ^ 0xC0DE);
  for (int trial = 0; trial < 16; ++trial) {
    std::string mutated = blob;
    const size_t pos = static_cast<size_t>(rng.NextBounded(static_cast<uint32_t>(blob.size())));
    const uint8_t bit = static_cast<uint8_t>(1u << rng.NextBounded(8));
    mutated[pos] = static_cast<char>(mutated[pos] ^ bit);
    IndexSnapshotHeader header;
    index::TopKIndex decoded;
    EXPECT_FALSE(DecodeIndexSnapshot(mutated, &header, &decoded).ok())
        << "flip at byte " << pos << " went undetected";
  }
}

TEST_P(CodecRoundTripProperty, RandomTruncationIsAlwaysDetected) {
  const uint64_t seed = GetParam();
  std::string blob = EncodeIndexSnapshot(RandomHeader(seed), RandomIndex(seed));
  common::Pcg32 rng(seed ^ 0x7A11);
  for (int trial = 0; trial < 8; ++trial) {
    const size_t keep = static_cast<size_t>(rng.NextBounded(static_cast<uint32_t>(blob.size())));
    IndexSnapshotHeader header;
    index::TopKIndex decoded;
    EXPECT_FALSE(DecodeIndexSnapshot(blob.substr(0, keep), &header, &decoded).ok());
  }
}

TEST_P(CodecRoundTripProperty, RandomGarbageNeverDecodes) {
  common::Pcg32 rng(GetParam() ^ 0x6A5B);
  for (int trial = 0; trial < 8; ++trial) {
    std::string garbage(rng.NextBounded(4096), '\0');
    for (char& c : garbage) {
      c = static_cast<char>(rng.NextBounded(256));
    }
    IndexSnapshotHeader header;
    index::TopKIndex decoded;
    EXPECT_FALSE(DecodeIndexSnapshot(garbage, &header, &decoded).ok());
  }
}

TEST_P(CodecRoundTripProperty, SerializerInterleavingsRoundTrip) {
  common::Pcg32 rng(GetParam() ^ 0x1EaF);
  // Build a random sequence of typed puts, then read it back in the same order.
  enum class Kind { kU8, kU32, kU64, kVarint, kSigned, kDouble, kString };
  std::vector<Kind> kinds;
  std::vector<uint64_t> u64s;
  std::vector<int64_t> i64s;
  std::vector<double> doubles;
  std::vector<std::string> strings;
  Encoder enc;
  const int ops = 1 + static_cast<int>(rng.NextBounded(64));
  for (int i = 0; i < ops; ++i) {
    Kind kind = static_cast<Kind>(rng.NextBounded(7));
    kinds.push_back(kind);
    switch (kind) {
      case Kind::kU8:
        u64s.push_back(rng.NextBounded(256));
        enc.PutU8(static_cast<uint8_t>(u64s.back()));
        break;
      case Kind::kU32:
        u64s.push_back(rng.Next() & 0xFFFFFFFFu);
        enc.PutU32(static_cast<uint32_t>(u64s.back()));
        break;
      case Kind::kU64:
        u64s.push_back(rng.Next() | (static_cast<uint64_t>(rng.Next()) << 32));
        enc.PutU64(u64s.back());
        break;
      case Kind::kVarint:
        u64s.push_back(rng.Next() >> rng.NextBounded(32));
        enc.PutVarint(u64s.back());
        break;
      case Kind::kSigned:
        i64s.push_back(static_cast<int64_t>(rng.Next()) - (1ll << 31));
        enc.PutSignedVarint(i64s.back());
        break;
      case Kind::kDouble:
        doubles.push_back(rng.NextDouble() * 1e6 - 5e5);
        enc.PutDouble(doubles.back());
        break;
      case Kind::kString: {
        std::string s(rng.NextBounded(64), '\0');
        for (char& c : s) {
          c = static_cast<char>(rng.NextBounded(256));
        }
        strings.push_back(s);
        enc.PutString(s);
        break;
      }
    }
  }
  Decoder dec(enc.bytes());
  size_t ui = 0;
  size_t ii = 0;
  size_t di = 0;
  size_t si = 0;
  for (Kind kind : kinds) {
    switch (kind) {
      case Kind::kU8: {
        uint8_t v = 0;
        ASSERT_TRUE(dec.GetU8(&v));
        EXPECT_EQ(v, u64s[ui++]);
        break;
      }
      case Kind::kU32: {
        uint32_t v = 0;
        ASSERT_TRUE(dec.GetU32(&v));
        EXPECT_EQ(v, u64s[ui++]);
        break;
      }
      case Kind::kU64: {
        uint64_t v = 0;
        ASSERT_TRUE(dec.GetU64(&v));
        EXPECT_EQ(v, u64s[ui++]);
        break;
      }
      case Kind::kVarint: {
        uint64_t v = 0;
        ASSERT_TRUE(dec.GetVarint(&v));
        EXPECT_EQ(v, u64s[ui++]);
        break;
      }
      case Kind::kSigned: {
        int64_t v = 0;
        ASSERT_TRUE(dec.GetSignedVarint(&v));
        EXPECT_EQ(v, i64s[ii++]);
        break;
      }
      case Kind::kDouble: {
        double v = 0;
        ASSERT_TRUE(dec.GetDouble(&v));
        EXPECT_DOUBLE_EQ(v, doubles[di++]);
        break;
      }
      case Kind::kString: {
        std::string v;
        ASSERT_TRUE(dec.GetString(&v));
        EXPECT_EQ(v, strings[si++]);
        break;
      }
    }
  }
  EXPECT_TRUE(dec.Done());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecRoundTripProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// A one-cluster snapshot written field by field in the documented layout, so
// its class and rank fields can hold values no in-memory ClusterEntry can.
std::string CraftSnapshot(int64_t representative_class, int64_t indexed_class, int64_t rank) {
  Encoder enc;
  for (char c : {'F', 'I', 'D', 'X'}) {
    enc.PutU8(static_cast<uint8_t>(c));
  }
  enc.PutU32(kIndexCodecVersion);
  enc.PutString("crafted");  // stream name
  enc.PutString("cheap");    // model name
  enc.PutSignedVarint(4);    // k
  enc.PutDouble(0.5);        // cluster threshold
  enc.PutU64(42);            // world seed
  enc.PutDouble(30.0);       // fps
  // Model desc: name, layers, input px, classes, has_other, variability, seed.
  enc.PutString("cheap");
  enc.PutSignedVarint(8);
  enc.PutSignedVarint(56);
  enc.PutVarint(0);
  enc.PutU8(0);
  enc.PutDouble(0.1);
  enc.PutU64(7);
  // One cluster: id, size, representative, members, classes, ranks.
  enc.PutVarint(1);
  enc.PutSignedVarint(0);
  enc.PutSignedVarint(1);
  enc.PutSignedVarint(10);  // frame
  enc.PutSignedVarint(3);   // object
  for (float f : {1.0f, 2.0f, 3.0f, 4.0f}) {
    enc.PutFloat(f);
  }
  enc.PutU8(0);
  enc.PutU8(1);
  enc.PutSignedVarint(representative_class);
  enc.PutFloatVec(std::vector<float>{0.25f, -0.5f});
  enc.PutVarint(1);
  enc.PutSignedVarint(3);
  enc.PutSignedVarint(10);
  enc.PutSignedVarint(12);
  enc.PutVarint(1);
  enc.PutSignedVarint(indexed_class);
  enc.PutVarint(1);
  enc.PutSignedVarint(rank);
  const uint32_t crc = Crc32(enc.bytes());
  enc.PutU32(crc);
  return enc.TakeBytes();
}

common::Result<bool> DecodeCrafted(const std::string& blob, index::TopKIndex* out) {
  IndexSnapshotHeader header;
  return DecodeIndexSnapshot(blob, &header, out);
}

TEST(CraftedSnapshotTest, ValuesAtTheRangeEdgesDecode) {
  const int64_t kMaxRank = std::numeric_limits<int32_t>::max();
  for (int64_t rep : {int64_t{common::kInvalidClass}, int64_t{0}, int64_t{video::kNumClasses - 1}}) {
    for (int64_t cls : {int64_t{0}, int64_t{cnn::kOtherClass}}) {
      for (int64_t rank : {int64_t{1}, kMaxRank}) {
        index::TopKIndex decoded;
        auto result = DecodeCrafted(CraftSnapshot(rep, cls, rank), &decoded);
        ASSERT_TRUE(result.ok()) << result.error().message;
        ASSERT_EQ(decoded.num_clusters(), 1u);
        const index::ClusterEntry& e = decoded.clusters()[0];
        EXPECT_EQ(e.representative.true_class, rep);
        EXPECT_EQ(e.topk_classes, std::vector<common::ClassId>{static_cast<common::ClassId>(cls)});
        EXPECT_EQ(e.topk_ranks, std::vector<int32_t>{static_cast<int32_t>(rank)});
      }
    }
  }
}

TEST(CraftedSnapshotTest, OutOfRangeValuesAreTypedErrorsNotTruncations) {
  const int64_t kWraps = (int64_t{1} << 32) + 5;  // Truncates to 5 as an int32.
  struct Case {
    int64_t rep;
    int64_t cls;
    int64_t rank;
  };
  const Case cases[] = {
      {kWraps, 5, 1},
      {-2, 5, 1},
      {video::kNumClasses, 5, 1},
      {std::numeric_limits<int64_t>::min(), 5, 1},
      {5, kWraps, 1},
      {5, -1, 1},
      {5, cnn::kOtherClass + 1, 1},
      {5, std::numeric_limits<int64_t>::max(), 1},
      {5, 5, 0},
      {5, 5, -1},
      {5, 5, int64_t{std::numeric_limits<int32_t>::max()} + 1},
      {5, 5, kWraps - 4},  // 2^32 + 1 truncates to rank 1.
  };
  for (const Case& c : cases) {
    index::TopKIndex decoded;
    auto result = DecodeCrafted(CraftSnapshot(c.rep, c.cls, c.rank), &decoded);
    ASSERT_FALSE(result.ok()) << "rep " << c.rep << " class " << c.cls << " rank " << c.rank;
    EXPECT_EQ(result.error().code, common::ErrorCode::kOutOfRange) << result.error().message;
    EXPECT_EQ(decoded.num_clusters(), 0u);
  }
}

TEST(CraftedSnapshotTest, KvStoreLoadRejectsOutOfRangeClassesAndRanks) {
  auto entry = [] {
    index::ClusterEntry e;
    e.size = 1;
    e.representative.true_class = 5;
    e.members.push_back({3, 10, 12});
    e.topk_classes = {5};
    e.topk_ranks = {1};
    return e;
  };
  {
    index::TopKIndex ok_index;
    ok_index.AddCluster(entry());
    index::KvStore store;
    ASSERT_TRUE(ok_index.SaveTo(store, "ok").ok());
    index::TopKIndex loaded;
    EXPECT_TRUE(loaded.LoadFrom(store, "ok").ok());
  }
  std::vector<index::ClusterEntry> bad(4, entry());
  bad[0].representative.true_class = video::kNumClasses;
  bad[1].topk_classes = {-7};
  bad[2].topk_classes = {cnn::kOtherClass + 1};
  bad[3].topk_ranks = {0};
  for (size_t i = 0; i < bad.size(); ++i) {
    index::TopKIndex idx;
    idx.AddCluster(bad[i]);
    index::KvStore store;
    ASSERT_TRUE(idx.SaveTo(store, "bad").ok());
    index::TopKIndex loaded;
    auto result = loaded.LoadFrom(store, "bad");
    ASSERT_FALSE(result.ok()) << "case " << i;
    EXPECT_EQ(result.error().code, common::ErrorCode::kOutOfRange) << "case " << i;
  }
}

}  // namespace
}  // namespace focus::storage
