#include "src/cluster/cluster_codec.h"

namespace focus::cluster {

void EncodeDetection(storage::Encoder& enc, const video::Detection& d) {
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

bool DecodeDetection(storage::Decoder& dec, video::Detection* d) {
  int64_t frame = 0;
  int64_t object = 0;
  uint8_t suppressed = 0;
  uint8_t first = 0;
  int64_t true_class = 0;
  if (!dec.GetSignedVarint(&frame) || !dec.GetSignedVarint(&object) ||
      !dec.GetFloat(&d->bbox.x) || !dec.GetFloat(&d->bbox.y) || !dec.GetFloat(&d->bbox.w) ||
      !dec.GetFloat(&d->bbox.h) || !dec.GetU8(&suppressed) || !dec.GetU8(&first) ||
      !dec.GetSignedVarint(&true_class) || !dec.GetFloatVec(&d->appearance)) {
    return false;
  }
  d->frame = frame;
  d->object_id = object;
  d->pixel_diff_suppressed = suppressed != 0;
  d->first_observation = first != 0;
  d->true_class = static_cast<common::ClassId>(true_class);
  return true;
}

}  // namespace focus::cluster
