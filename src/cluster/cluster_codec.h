// Binary (de)serialization of the cluster-side value types, shared by the
// clusterer checkpoint metadata (incremental_clusterer, sharded_clusterer).
// Built on the storage/serializer primitives so the byte layout follows the
// same little-endian + varint conventions as every other on-disk format
// (feature vectors are Encoder::PutFloatVec / Decoder::GetFloatVec).
#ifndef FOCUS_SRC_CLUSTER_CLUSTER_CODEC_H_
#define FOCUS_SRC_CLUSTER_CLUSTER_CODEC_H_

#include "src/storage/serializer.h"
#include "src/video/detection.h"

namespace focus::cluster {

void EncodeDetection(storage::Encoder& enc, const video::Detection& d);
bool DecodeDetection(storage::Decoder& dec, video::Detection* d);

}  // namespace focus::cluster

#endif  // FOCUS_SRC_CLUSTER_CLUSTER_CODEC_H_
