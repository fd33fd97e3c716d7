// Sharded intra-stream clustering: one stream's detections partitioned across
// per-shard IncrementalClusterer instances (§5 scale-out *within* a stream).
//
// The paper's ingest tier must keep up with live video per stream, but the
// clusterer/CentroidStore path is inherently sequential: each assignment reads
// the centroids the previous assignment may have moved. This class removes the
// single-core cap by partitioning detections onto num_shards independent
// clusterer+CentroidStore instances and merging their outputs:
//
//   shard(d) = SplitMix64(d.object_id) % num_shards
//
// Hashing on object_id (not frame or round-robin) is load-bearing twice over:
//   - every detection of one object lands in one shard, so the fast path's
//     last_cluster_of_object_ locality and the pixel-differencing
//     AddSuppressed() reuse survive sharding unchanged;
//   - MemberRun bookkeeping stays well-formed — one object's frame runs are
//     built by exactly one shard, in stream order, so runs never interleave or
//     overlap across shards.
//
// Shards cluster independently, which means two shards can each grow a cluster
// for the same real-world appearance (two similar cars whose object ids hash
// apart). A periodic cross-shard merge pass finds shard-local clusters whose
// centroids fall within the clustering threshold T of a cluster in another
// shard and folds them — via a union-find over global cluster ids — into one
// canonical cluster; FinalizeClusters() emits the canonical table the query
// side indexes, with member runs concatenated and sizes conserved.
//
// Cluster ids: a shard-local id l in shard s is published as the global id
//   g = l * num_shards + s
// which is collision-free across shards and reduces to g == l at num_shards=1.
// Canonical ids after merging are the smallest global id of each merged
// component (ties cannot occur; ids are unique).
//
// Determinism guarantees:
//   - the partition is a pure function of object_id, so each shard sees a fixed
//     subsequence of the stream in stream order regardless of thread count or
//     interleaving; each shard's assignments are those of a lone
//     IncrementalClusterer over that subsequence;
//   - the merge pass scans shards and shard-local ids in fixed ascending order
//     and resolves nearest-centroid ties toward the smallest id (CentroidStore
//     semantics), so the union-find — and hence every canonical id — is a pure
//     function of the input stream;
//   - at num_shards == 1 the global ids, the per-detection assignments, and the
//     finalized cluster table are identical to a plain IncrementalClusterer
//     with the same options (the merge pass has no cross-shard pairs and is a
//     no-op).
//
// Thread-safety: externally synchronized. AssignBatch() internally fans out one
// ordered task per shard onto a caller-supplied WorkerPool and drains it before
// returning; no other method may run concurrently with it.
#ifndef FOCUS_SRC_CLUSTER_SHARDED_CLUSTERER_H_
#define FOCUS_SRC_CLUSTER_SHARDED_CLUSTERER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/cluster/incremental_clusterer.h"
#include "src/common/time_types.h"
#include "src/video/detection.h"

namespace focus::runtime {
class WorkerPool;
}  // namespace focus::runtime

namespace focus::storage {
class Encoder;
}  // namespace focus::storage

namespace focus::cluster {

struct ShardedClustererOptions {
  // Per-shard clustering parameters. max_active caps each shard's active set
  // (the total active working set is up to num_shards * max_active).
  ClustererOptions base;
  size_t num_shards = 1;
  // Assignments between periodic cross-shard merge passes; 0 merges only in
  // FinalizeClusters(). Merging earlier does not change the final table (the
  // union-find only accumulates), it bounds how stale CanonicalOf() can be.
  int64_t merge_interval = 8192;
  // Incremental merge passes re-queue an already-considered active cluster
  // when its centroid has drifted more than this fraction of the clustering
  // threshold T since it was last used as a merge query, so two long-lived
  // clusters converging toward each other fold at the next periodic pass
  // instead of only at the final full pass. 0 disables re-queueing (the
  // pre-PR4 policy: periodic passes only query clusters created since the
  // previous pass).
  double merge_requeue_fraction = 0.5;
  // Boundary-merge mode: the automatic periodic passes are disabled entirely
  // and cross-shard merging happens only when the owner calls
  // BoundaryMergePass() (the windowed finalizer does this at every snapshot
  // cadence boundary) or MergePass()/FinalizeClusters(). The boundary pass is
  // incremental — it re-queries only clusters that are new, retired, or moved
  // since the previous boundary, plus the neighbourhoods those movers
  // invalidated — but it restores the *full-pass* union-find closure at every
  // boundary (see BoundaryMergePass), which is what makes a live epoch
  // byte-identical to halting the stream at that boundary. Checkpoints echo
  // this flag: merging at mid-window positions vs. only at boundaries yields
  // different (both valid) clusterings, so a resumed run must keep the mode.
  bool boundary_merge = false;
};

class ShardedClusterer {
 public:
  explicit ShardedClusterer(ShardedClustererOptions options);

  // One detection ready for assignment (pointers must stay valid through the
  // AssignBatch call that consumes the item).
  struct WorkItem {
    const video::Detection* detection = nullptr;
    const common::FeatureVec* feature = nullptr;
    // True for pixel-diff suppressed detections (routed to AddSuppressed).
    bool suppressed = false;
  };

  size_t num_shards() const { return options_.num_shards; }
  size_t ShardOf(common::ObjectId object) const;
  int64_t GlobalId(size_t shard, int64_t local_id) const {
    return local_id * static_cast<int64_t>(options_.num_shards) + static_cast<int64_t>(shard);
  }

  // Sequential single-detection assignment; returns the global cluster id.
  int64_t Add(const video::Detection& detection, const common::FeatureVec& feature);
  int64_t AddSuppressed(const video::Detection& detection, const common::FeatureVec& feature);

  // Assigns |count| items, writing each item's global cluster id to out[i].
  // With |pool| non-null, one ordered task per non-empty shard runs on the
  // pool (which must be dedicated to this call's tasks — Drain() is used to
  // wait for them); with |pool| null the shards run inline, in shard order.
  // Both paths produce identical assignments (see determinism notes above).
  void AssignBatch(const WorkItem* items, size_t count, runtime::WorkerPool* pool,
                   int64_t* out);

  // Runs one *full* cross-shard merge pass now: every active cluster (plus
  // clusters new since the last pass, even if already retired) is queried
  // against every other shard's active AND frozen retired centroids; a
  // retired cluster that already issued its one final query in an earlier
  // pass is not re-queried — its frozen centroid cannot move, and it stays
  // reachable as a *target* forever, so each duplicate pair is still covered
  // from its later-created side. FinalizeClusters() always runs one full pass
  // as its correctness backstop. The automatic periodic passes (every
  // merge_interval assignments) are *incremental* — they query clusters
  // created since the previous pass, plus already-considered active clusters
  // whose centroid drifted more than merge_requeue_fraction * T since they
  // were last considered (two long-lived clusters converging mid-stream fold
  // at the next periodic pass, not only at the final full pass) — so steady
  // state pays per cluster churn, not per active cluster.
  void MergePass();

  // Runs one *incremental boundary* merge pass: only clusters dirtied since
  // the previous boundary — created, retired, or with a centroid that moved at
  // all (exact comparison; no drift tolerance) — re-issue merge queries, each
  // with the full pass's lower-shard target bound. Because an unmoved
  // cluster's nearest-within-T answer can still change when a *neighbour*
  // moves, every mover's old and new positions are then swept against the
  // higher shards' active centroids (CentroidStore::ForEachWithin at radius
  // T) and the hit clusters re-query too. The result: after this pass a full
  // pass at the same position adds no union edge, i.e. the pass reproduces
  // the full-pass closure at O(dirty + movers * neighbourhood) query cost
  // instead of O(active). Used by the windowed finalizer in boundary_merge
  // mode; a no-op at num_shards == 1.
  void BoundaryMergePass();

  // --- Persistence (see docs/persistence.md) ---
  //
  // One arena + undo-log pair per shard (shard-<s>.arena / shard-<s>.undo)
  // plus a single sharded.meta snapshot carrying every shard's bookkeeping and
  // the cross-shard merge state. The one atomic meta write is the commit point
  // for all shards at once: a crash mid-checkpoint leaves some shard arenas a
  // generation ahead, and recovery rolls each back to the generation the meta
  // recorded — so the recovered multi-shard state is always a consistent cut.

  // Attaches persistent backing under |dir| (created if needed), recovering
  // the newest committed checkpoint when one exists. Must be called before any
  // assignment, with options matching the checkpointed run's.
  common::Result<ClustererRecovery> OpenOrRecover(const std::string& dir);

  // Durably publishes the current state of every shard plus the merge state,
  // with an opaque caller cursor and blob. Must not run concurrently with
  // AssignBatch. With |pool| non-null the per-shard work — arena msync/commit,
  // bookkeeping encode, and undo-log rotation — fans out one task per shard
  // (the pool must be idle and dedicated to this call: Drain() is used to wait
  // for the tasks); the single meta write stays the commit point either way,
  // and errors are reported in ascending shard order so both paths fail
  // identically.
  common::Result<bool> Checkpoint(int64_t position, std::string_view user_state = {},
                                  runtime::WorkerPool* pool = nullptr);

  // The sharded.meta bytes of the current state under the generations of the
  // last checkpoint (or recovery), with every shard's records encoded afresh.
  // Right after Checkpoint(position, user_state), equals what it wrote: the
  // checkpoint reuses unchanged records' bytes (see
  // IncrementalClusterer::CheckpointBookkeeping), and tests check that the
  // reuse never changes a byte.
  std::string EncodeMeta(int64_t position, std::string_view user_state) const;

  bool persistent() const { return !meta_path_.empty(); }

  // Canonical id of |global_id| under the merges performed so far.
  int64_t CanonicalOf(int64_t global_id) const;

  // Final canonical cluster table, ascending by canonical id: one cluster per
  // merged component with member runs concatenated in global-id order, size
  // and member runs conserved, centroid the size-weighted mean of the folded
  // centroids, and the representative taken from the smallest-global-id member
  // (the component's canonical cluster).
  std::vector<Cluster> FinalizeClusters();

  int64_t total_assignments() const;
  // Aggregate fast-path hit rate across shards.
  double FastHitRate() const;
  // Cross-shard merge unions performed so far (distinct pairs folded).
  int64_t merges_folded() const { return merges_folded_; }

  const IncrementalClusterer& shard(size_t s) const { return *shards_[s]; }

 private:
  // Union-find over global ids, lazily grown; roots are component minima.
  int64_t Find(int64_t global_id) const;
  void Union(int64_t a, int64_t b);
  void AfterAssignments(int64_t count);
  // |full| re-queries every active cluster; otherwise only clusters created
  // since the last pass are used as queries (against all other shards).
  void RunMergePass(bool full);
  // One cluster's merge queries: nearest-within-T against every other shard's
  // active and retired stores (lower shards only when |lower_only|), unioning
  // on a hit. Shared by the full, periodic, and boundary passes so all three
  // produce identical edges for the same (cluster, position).
  void QueryAgainstShards(size_t s, int64_t local_id, const common::FeatureVec& centroid,
                          float threshold_sq, bool lower_only);
  // The meta snapshot around each shard's |bookkeeping| blob, CRC included.
  void EncodeMetaTo(storage::Encoder& enc, const std::vector<const std::string*>& bookkeeping,
                    int64_t position, std::string_view user_state) const;

  ShardedClustererOptions options_;
  std::vector<std::unique_ptr<IncrementalClusterer>> shards_;
  // parent_[g] == g for roots; ids beyond the vector are implicit singletons.
  mutable std::vector<int64_t> parent_;
  // Per shard: local cluster count already used as merge queries, so periodic
  // passes only query what appeared since the previous pass.
  std::vector<size_t> merge_scanned_;
  // Per shard: the already-considered *active* clusters (ascending local id)
  // with each one's centroid as of its last use as a merge query, so
  // incremental passes can re-queue clusters that drifted since
  // (merge_requeue_fraction). Entries are dropped as clusters retire, keeping
  // every pass O(active working set) — never O(clusters ever created).
  struct MergeCandidate {
    size_t local_id = 0;
    common::FeatureVec snapshot;  // Centroid when last considered.
  };
  std::vector<std::vector<MergeCandidate>> merge_considered_;
  int64_t assignments_since_merge_ = 0;
  int64_t merges_folded_ = 0;
  // Per-shard item index lists, reused across AssignBatch calls.
  std::vector<std::vector<size_t>> shard_items_;
  // Persistence (empty when volatile).
  std::string persist_dir_;
  std::string meta_path_;
  // Per shard: arena generation of the last checkpoint (attempt) or recovery,
  // as the meta records it.
  std::vector<uint64_t> generations_;
  // Size of the last meta written; the next encode reserves from it.
  size_t last_meta_size_ = 0;
};

}  // namespace focus::cluster

#endif  // FOCUS_SRC_CLUSTER_SHARDED_CLUSTERER_H_
