#include "src/storage/index_codec.h"

#include <cstring>
#include <utility>

#include "src/storage/serializer.h"

namespace focus::storage {

namespace {

constexpr char kMagic[4] = {'F', 'I', 'D', 'X'};

void PutDetection(Encoder& enc, const video::Detection& d) {
  enc.PutSignedVarint(d.frame);
  enc.PutSignedVarint(d.object_id);
  enc.PutFloat(d.bbox.x);
  enc.PutFloat(d.bbox.y);
  enc.PutFloat(d.bbox.w);
  enc.PutFloat(d.bbox.h);
  enc.PutU8(d.pixel_diff_suppressed ? 1 : 0);
  enc.PutU8(d.first_observation ? 1 : 0);
  enc.PutSignedVarint(d.true_class);
  enc.PutFloatVec(d.appearance);
}

// Decoders below return false on malformed bytes; a well-formed value that
// does not fit its field sets |*range_error| as well, so the caller can report
// it as kOutOfRange instead of silently truncating it.
bool GetDetection(Decoder& dec, video::Detection* d, std::string* range_error) {
  int64_t frame = 0;
  int64_t object_id = 0;
  uint8_t suppressed = 0;
  uint8_t first = 0;
  int64_t true_class = 0;
  if (!dec.GetSignedVarint(&frame) || !dec.GetSignedVarint(&object_id) ||
      !dec.GetFloat(&d->bbox.x) || !dec.GetFloat(&d->bbox.y) || !dec.GetFloat(&d->bbox.w) ||
      !dec.GetFloat(&d->bbox.h) || !dec.GetU8(&suppressed) || !dec.GetU8(&first) ||
      !dec.GetSignedVarint(&true_class)) {
    return false;
  }
  if (!index::RepresentativeClassFits(true_class)) {
    *range_error = "representative class " + std::to_string(true_class) + " out of range";
    return false;
  }
  d->frame = frame;
  d->object_id = object_id;
  d->pixel_diff_suppressed = suppressed != 0;
  d->first_observation = first != 0;
  d->true_class = static_cast<common::ClassId>(true_class);
  return dec.GetFloatVec(&d->appearance);
}

void PutCluster(Encoder& enc, const index::ClusterEntry& c) {
  enc.PutSignedVarint(c.cluster_id);
  enc.PutSignedVarint(c.size);
  PutDetection(enc, c.representative);
  enc.PutVector(c.members, [](Encoder& e, const cluster::MemberRun& m) {
    e.PutSignedVarint(m.object);
    e.PutSignedVarint(m.first_frame);
    e.PutSignedVarint(m.last_frame);
  });
  enc.PutVector(c.topk_classes,
                [](Encoder& e, common::ClassId cls) { e.PutSignedVarint(cls); });
  enc.PutVector(c.topk_ranks, [](Encoder& e, int32_t rank) { e.PutSignedVarint(rank); });
}

bool GetCluster(Decoder& dec, index::ClusterEntry* c, std::string* range_error) {
  int64_t cluster_id = 0;
  int64_t size = 0;
  if (!dec.GetSignedVarint(&cluster_id) || !dec.GetSignedVarint(&size) ||
      !GetDetection(dec, &c->representative, range_error)) {
    return false;
  }
  c->cluster_id = cluster_id;
  c->size = size;
  bool ok = dec.GetVector(&c->members, [](Decoder& d, cluster::MemberRun* m) {
    return d.GetSignedVarint(&m->object) && d.GetSignedVarint(&m->first_frame) &&
           d.GetSignedVarint(&m->last_frame);
  });
  ok = ok && dec.GetVector(&c->topk_classes, [range_error](Decoder& d, common::ClassId* cls) {
    int64_t v = 0;
    if (!d.GetSignedVarint(&v)) {
      return false;
    }
    if (!index::IndexedClassFits(v)) {
      *range_error = "indexed class " + std::to_string(v) + " out of range";
      return false;
    }
    *cls = static_cast<common::ClassId>(v);
    return true;
  });
  ok = ok && dec.GetVector(&c->topk_ranks, [range_error](Decoder& d, int32_t* rank) {
    int64_t v = 0;
    if (!d.GetSignedVarint(&v)) {
      return false;
    }
    if (!index::RankFits(v)) {
      *range_error = "rank " + std::to_string(v) + " out of range";
      return false;
    }
    *rank = static_cast<int32_t>(v);
    return true;
  });
  return ok;
}

void PutModelDesc(Encoder& enc, const cnn::ModelDesc& m) {
  enc.PutString(m.name);
  enc.PutSignedVarint(m.layers);
  enc.PutSignedVarint(m.input_px);
  enc.PutVector(m.classes, [](Encoder& e, common::ClassId cls) { e.PutSignedVarint(cls); });
  enc.PutU8(m.has_other_class ? 1 : 0);
  enc.PutDouble(m.training_variability);
  enc.PutU64(m.weights_seed);
}

bool GetModelDesc(Decoder& dec, cnn::ModelDesc* m) {
  int64_t layers = 0;
  int64_t input_px = 0;
  uint8_t has_other = 0;
  if (!dec.GetString(&m->name) || !dec.GetSignedVarint(&layers) ||
      !dec.GetSignedVarint(&input_px)) {
    return false;
  }
  bool ok = dec.GetVector(&m->classes, [](Decoder& d, common::ClassId* cls) {
    int64_t v = 0;
    if (!d.GetSignedVarint(&v)) {
      return false;
    }
    *cls = static_cast<common::ClassId>(v);
    return true;
  });
  if (!ok || !dec.GetU8(&has_other) || !dec.GetDouble(&m->training_variability) ||
      !dec.GetU64(&m->weights_seed)) {
    return false;
  }
  m->layers = static_cast<int>(layers);
  m->input_px = static_cast<int>(input_px);
  m->has_other_class = has_other != 0;
  return true;
}

common::Error FormatError(const std::string& what) {
  return common::Error{common::ErrorCode::kIo, "index snapshot: " + what};
}

}  // namespace

std::string EncodeIndexSnapshot(const IndexSnapshotHeader& header,
                                const index::TopKIndex& index) {
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(kMagic[0]));
  enc.PutU8(static_cast<uint8_t>(kMagic[1]));
  enc.PutU8(static_cast<uint8_t>(kMagic[2]));
  enc.PutU8(static_cast<uint8_t>(kMagic[3]));
  enc.PutU32(kIndexCodecVersion);
  enc.PutString(header.stream_name);
  enc.PutString(header.model_name);
  enc.PutSignedVarint(header.k);
  enc.PutDouble(header.cluster_threshold);
  enc.PutU64(header.world_seed);
  enc.PutDouble(header.fps);
  PutModelDesc(enc, header.model);
  enc.PutVector(index.clusters(), PutCluster);
  const uint32_t crc = Crc32(enc.bytes());
  enc.PutU32(crc);
  return enc.TakeBytes();
}

common::Result<bool> DecodeIndexSnapshot(const std::string& blob, IndexSnapshotHeader* header,
                                         index::TopKIndex* index) {
  if (blob.size() < 8) {
    return FormatError("truncated (shorter than magic + version)");
  }
  // CRC covers everything before the trailing 4 bytes.
  const std::string_view body(blob.data(), blob.size() - 4);
  Decoder trailer(std::string_view(blob).substr(blob.size() - 4));
  uint32_t stored_crc = 0;
  if (!trailer.GetU32(&stored_crc) || Crc32(body) != stored_crc) {
    return FormatError("CRC mismatch (corrupted or truncated)");
  }

  Decoder dec(body);
  uint8_t magic[4] = {};
  for (uint8_t& b : magic) {
    if (!dec.GetU8(&b)) {
      return FormatError("truncated magic");
    }
  }
  if (std::memcmp(magic, kMagic, 4) != 0) {
    return FormatError("bad magic (not an index snapshot)");
  }
  uint32_t version = 0;
  if (!dec.GetU32(&version)) {
    return FormatError("truncated version");
  }
  if (version != kIndexCodecVersion) {
    return FormatError("unsupported version " + std::to_string(version));
  }

  IndexSnapshotHeader h;
  int64_t k = 0;
  if (!dec.GetString(&h.stream_name) || !dec.GetString(&h.model_name) ||
      !dec.GetSignedVarint(&k) || !dec.GetDouble(&h.cluster_threshold) ||
      !dec.GetU64(&h.world_seed) || !dec.GetDouble(&h.fps) || !GetModelDesc(dec, &h.model)) {
    return FormatError("truncated header");
  }
  h.k = static_cast<int32_t>(k);

  std::vector<index::ClusterEntry> clusters;
  std::string range_error;
  if (!dec.GetVector(&clusters, [&range_error](Decoder& d, index::ClusterEntry* c) {
        return GetCluster(d, c, &range_error);
      })) {
    if (!range_error.empty()) {
      return common::OutOfRange("index snapshot: cluster record " +
                                std::to_string(clusters.size()) + ": " + range_error);
    }
    return FormatError("malformed cluster record at offset " + std::to_string(dec.offset()));
  }
  if (!dec.Done()) {
    return FormatError("trailing garbage after cluster records");
  }

  index::TopKIndex rebuilt;
  for (index::ClusterEntry& c : clusters) {
    rebuilt.AddCluster(std::move(c));
  }
  *header = std::move(h);
  *index = std::move(rebuilt);
  return true;
}

}  // namespace focus::storage
