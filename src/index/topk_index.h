// The top-K ingest index (§3, §4.1).
//
// Maps object class -> clusters whose ingest-time top-K classification included that
// class, and cluster -> [centroid object, member frame runs]. This is the sole output
// of ingest-time processing and the sole input of query-time processing:
//
//   object class -> <cluster ID>
//   cluster ID   -> [centroid object, <objects> in cluster, <frame IDs> of objects]
//
// Each cluster stores its indexed classes *ranked* by aggregated ingest-CNN
// confidence, which is what enables the dynamic query-time Kx refinement of §5
// (filtering with a smaller Kx <= K uses a prefix of the ranked list).
#ifndef FOCUS_SRC_INDEX_TOPK_INDEX_H_
#define FOCUS_SRC_INDEX_TOPK_INDEX_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "src/cluster/incremental_clusterer.h"
#include "src/cnn/model_desc.h"
#include "src/common/result.h"
#include "src/common/time_types.h"
#include "src/index/kv_store.h"
#include "src/video/detection.h"

namespace focus::index {

struct ClusterEntry {
  int64_t cluster_id = 0;
  // The centroid object: the detection the GT-CNN classifies at query time.
  video::Detection representative;
  // Member frame runs (per object).
  std::vector<cluster::MemberRun> members;
  // Indexed classes: the union of the members' ingest-CNN top-K classes, ordered by
  // |topk_ranks| (a cluster is indexed under X when any member's top-K contained X).
  std::vector<common::ClassId> topk_classes;
  // Parallel to |topk_classes|: the best (smallest, 1-based) rank the class achieved
  // in any member's output. Enables the §5 dynamic-Kx filter: the cluster matches X
  // within Kx iff best_rank(X) <= Kx.
  std::vector<int32_t> topk_ranks;
  int64_t size = 0;  // Member detections.

  // Whether |cls| was within the top |kx| of some member's classification.
  bool MatchesWithin(common::ClassId cls, int kx) const {
    for (size_t i = 0; i < topk_classes.size(); ++i) {
      if (topk_classes[i] == cls) {
        return topk_ranks.size() != topk_classes.size() ||
               topk_ranks[i] <= static_cast<int32_t>(kx);
      }
    }
    return false;
  }

  int64_t TotalFrameCount() const {
    int64_t n = 0;
    for (const cluster::MemberRun& run : members) {
      n += run.FrameCount();
    }
    return n;
  }
};

// Value ranges a decoded ClusterEntry must respect. Decoders check the wire
// value (before narrowing it to the field's type) and reject anything outside:
// a representative's ground-truth class is a catalog class or kInvalidClass;
// an indexed class is a model output label, generic or OTHER; a rank is
// 1-based.
constexpr bool RepresentativeClassFits(int64_t cls) {
  return cls >= common::kInvalidClass && cls < video::kNumClasses;
}
constexpr bool IndexedClassFits(int64_t cls) { return cls >= 0 && cls <= cnn::kOtherClass; }
constexpr bool RankFits(int64_t rank) {
  return rank >= 1 && rank <= std::numeric_limits<int32_t>::max();
}

class TopKIndex {
 public:
  TopKIndex() = default;

  // Adds a finalized cluster and updates the class postings.
  void AddCluster(ClusterEntry entry);

  // Delta build (windowed streaming finalize, src/core/live_snapshot.h):
  // carries cluster |prev_slot| of the previous epoch's index forward into
  // this one unchanged (renumbered to this index's next dense id). Skips the
  // per-entry construction work — the rank fold and ranked-class sort — that
  // a canonical cluster untouched since the previous snapshot would only
  // repeat verbatim.
  void AddClusterFrom(const TopKIndex& prev, size_t prev_slot);

  // Cluster ids whose top-K classes include |cls| (posting list; unordered).
  const std::vector<int64_t>& ClustersForClass(common::ClassId cls) const;

  const ClusterEntry& cluster(int64_t id) const { return clusters_.at(static_cast<size_t>(id)); }
  const std::vector<ClusterEntry>& clusters() const { return clusters_; }
  size_t num_clusters() const { return clusters_.size(); }

  // All classes with a non-empty posting list.
  std::vector<common::ClassId> IndexedClasses() const;

  // Total member detections across clusters.
  int64_t total_indexed_detections() const { return total_detections_; }

  // --- Persistence (MongoDB-equivalent storage, §5) ---
  // LoadFrom fails with kOutOfRange on a class or rank outside the ranges
  // above, and with kIo on a missing or malformed blob.
  common::Result<bool> SaveTo(KvStore& store, const std::string& prefix) const;
  common::Result<bool> LoadFrom(const KvStore& store, const std::string& prefix);

  // Absorbs every cluster of |other| into this index, renumbering cluster ids to
  // stay dense and shifting all frame references (member runs and representatives)
  // by |frame_offset|. This is the compaction step for continuous recording: each
  // ingest shard (hour, day) indexes frames from zero, and merging with the shard's
  // global start frame as the offset yields one queryable index for the whole
  // retention window.
  void MergeFrom(TopKIndex other, common::FrameIndex frame_offset = 0);

 private:
  std::vector<ClusterEntry> clusters_;
  std::map<common::ClassId, std::vector<int64_t>> postings_;
  std::vector<int64_t> empty_;
  int64_t total_detections_ = 0;
};

}  // namespace focus::index

#endif  // FOCUS_SRC_INDEX_TOPK_INDEX_H_
