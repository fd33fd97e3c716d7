#include "src/index/topk_index.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <type_traits>

namespace focus::index {

namespace {

// Minimal binary (de)serialization into std::string values for the KvStore.
void PutRaw(std::string& out, const void* data, size_t n) {
  out.append(static_cast<const char*>(data), n);
}
template <typename T>
void PutPod(std::string& out, T v) {
  PutRaw(out, &v, sizeof(v));
}
// Length-prefixed bulk append: one memcpy for the whole array instead of one
// PutPod per element (feature vectors and posting arrays dominate blob size).
template <typename T>
void PutArray(std::string& out, const T* data, size_t n) {
  static_assert(std::is_trivially_copyable_v<T>);
  PutPod(out, static_cast<uint32_t>(n));
  PutRaw(out, data, n * sizeof(T));
}

class Reader {
 public:
  explicit Reader(const std::string& data) : data_(data) {}

  template <typename T>
  bool Read(T* v) {
    if (pos_ + sizeof(T) > data_.size()) {
      return false;
    }
    std::memcpy(v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  // Counterpart of PutArray: reads the length prefix, then the payload with a
  // single memcpy.
  template <typename T>
  bool ReadArray(std::vector<T>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    uint32_t n = 0;
    if (!Read(&n)) {
      return false;
    }
    const size_t bytes = static_cast<size_t>(n) * sizeof(T);
    if (pos_ + bytes > data_.size()) {
      return false;
    }
    out->resize(n);
    std::memcpy(out->data(), data_.data() + pos_, bytes);
    pos_ += bytes;
    return true;
  }

  bool ok() const { return pos_ <= data_.size(); }

 private:
  const std::string& data_;
  size_t pos_ = 0;
};

std::string EncodeCluster(const ClusterEntry& e) {
  std::string out;
  PutPod(out, e.cluster_id);
  PutPod(out, e.size);
  // Representative detection.
  PutPod(out, e.representative.frame);
  PutPod(out, e.representative.object_id);
  PutPod(out, e.representative.true_class);
  PutPod(out, e.representative.bbox.x);
  PutPod(out, e.representative.bbox.y);
  PutPod(out, e.representative.bbox.w);
  PutPod(out, e.representative.bbox.h);
  PutArray(out, e.representative.appearance.data(), e.representative.appearance.size());
  // MemberRun is three contiguous int64 fields (no padding), so the run list
  // round-trips as one block.
  static_assert(sizeof(cluster::MemberRun) ==
                sizeof(common::ObjectId) + 2 * sizeof(common::FrameIndex));
  PutArray(out, e.members.data(), e.members.size());
  PutArray(out, e.topk_classes.data(), e.topk_classes.size());
  PutArray(out, e.topk_ranks.data(), e.topk_ranks.size());
  return out;
}

bool DecodeCluster(const std::string& data, ClusterEntry* e) {
  Reader r(data);
  if (!r.Read(&e->cluster_id) || !r.Read(&e->size) || !r.Read(&e->representative.frame) ||
      !r.Read(&e->representative.object_id) || !r.Read(&e->representative.true_class) ||
      !r.Read(&e->representative.bbox.x) || !r.Read(&e->representative.bbox.y) ||
      !r.Read(&e->representative.bbox.w) || !r.Read(&e->representative.bbox.h)) {
    return false;
  }
  return r.ReadArray(&e->representative.appearance) && r.ReadArray(&e->members) &&
         r.ReadArray(&e->topk_classes) && r.ReadArray(&e->topk_ranks);
}

bool EntryValuesFit(const ClusterEntry& e) {
  if (!RepresentativeClassFits(e.representative.true_class)) {
    return false;
  }
  for (common::ClassId cls : e.topk_classes) {
    if (!IndexedClassFits(cls)) {
      return false;
    }
  }
  for (int32_t rank : e.topk_ranks) {
    if (!RankFits(rank)) {
      return false;
    }
  }
  return true;
}

std::string ClusterKey(const std::string& prefix, int64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/c/%012lld", static_cast<long long>(id));
  return prefix + buf;
}

}  // namespace

void TopKIndex::AddCluster(ClusterEntry entry) {
  int64_t id = static_cast<int64_t>(clusters_.size());
  entry.cluster_id = id;
  total_detections_ += entry.size;
  for (common::ClassId cls : entry.topk_classes) {
    postings_[cls].push_back(id);
  }
  clusters_.push_back(std::move(entry));
}

void TopKIndex::AddClusterFrom(const TopKIndex& prev, size_t prev_slot) {
  AddCluster(prev.clusters_[prev_slot]);
}

const std::vector<int64_t>& TopKIndex::ClustersForClass(common::ClassId cls) const {
  auto it = postings_.find(cls);
  return it == postings_.end() ? empty_ : it->second;
}

std::vector<common::ClassId> TopKIndex::IndexedClasses() const {
  std::vector<common::ClassId> out;
  out.reserve(postings_.size());
  for (const auto& [cls, ids] : postings_) {
    if (!ids.empty()) {
      out.push_back(cls);
    }
  }
  return out;
}

common::Result<bool> TopKIndex::SaveTo(KvStore& store, const std::string& prefix) const {
  std::string meta;
  PutPod(meta, static_cast<uint64_t>(clusters_.size()));
  store.Put(prefix + "/meta", meta);
  for (const ClusterEntry& e : clusters_) {
    store.Put(ClusterKey(prefix, e.cluster_id), EncodeCluster(e));
  }
  return true;
}

common::Result<bool> TopKIndex::LoadFrom(const KvStore& store, const std::string& prefix) {
  auto meta = store.Get(prefix + "/meta");
  if (!meta.has_value()) {
    return common::NotFound("no index under prefix " + prefix);
  }
  Reader r(*meta);
  uint64_t count = 0;
  if (!r.Read(&count)) {
    return common::IoError("corrupt index meta under " + prefix);
  }
  clusters_.clear();
  postings_.clear();
  total_detections_ = 0;
  for (uint64_t i = 0; i < count; ++i) {
    auto blob = store.Get(ClusterKey(prefix, static_cast<int64_t>(i)));
    if (!blob.has_value()) {
      return common::IoError("missing cluster blob " + std::to_string(i));
    }
    ClusterEntry e;
    if (!DecodeCluster(*blob, &e)) {
      return common::IoError("corrupt cluster blob " + std::to_string(i));
    }
    if (!EntryValuesFit(e)) {
      return common::OutOfRange("cluster blob " + std::to_string(i) +
                                ": class or rank out of range");
    }
    AddCluster(std::move(e));
  }
  return true;
}

void TopKIndex::MergeFrom(TopKIndex other, common::FrameIndex frame_offset) {
  for (ClusterEntry& entry : other.clusters_) {
    entry.representative.frame += frame_offset;
    for (cluster::MemberRun& run : entry.members) {
      run.first_frame += frame_offset;
      run.last_frame += frame_offset;
    }
    // AddCluster renumbers the id and rebuilds the postings.
    AddCluster(std::move(entry));
  }
}

}  // namespace focus::index
