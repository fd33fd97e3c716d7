#include "src/core/ingest_pipeline.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/cluster/sharded_clusterer.h"
#include "src/common/logging.h"
#include "src/runtime/worker_pool.h"
#include "src/storage/serializer.h"

namespace focus::core {

namespace {

// Per-cluster index state: for every class that appeared in some member's top-K
// output, the best (smallest) rank it achieved. Union semantics follow §3's index —
// a cluster is retrievable under class X when any of its objects had X in its top-K —
// and the best rank supports the §5 dynamic-Kx filter.
//
// Stored as flat per-cluster arrays over the class space (generic labels plus
// OTHER): a rank update is two array accesses, which matters because ingest performs
// one update per (detection, top-K position) — with K~200 that is the single
// hottest loop of the tuner's grid sweep.
class BestRankTable {
 public:
  // Records that |cls| appeared at 1-based |rank| in cluster |cluster_id|'s member
  // output, keeping the minimum rank per (cluster, class).
  void Update(int64_t cluster_id, common::ClassId cls, int32_t rank) {
    if (static_cast<size_t>(cluster_id) >= ranks_.size()) {
      ranks_.resize(static_cast<size_t>(cluster_id) + 1);
      present_.resize(static_cast<size_t>(cluster_id) + 1);
    }
    std::vector<int32_t>& row = ranks_[static_cast<size_t>(cluster_id)];
    if (row.empty()) {
      row.assign(kRankSpace, kUnranked);
    }
    int32_t& slot = row[static_cast<size_t>(cls)];
    if (slot == kUnranked) {
      present_[static_cast<size_t>(cluster_id)].push_back(cls);
      slot = rank;
    } else if (rank < slot) {
      slot = rank;
    }
  }

  // Fills |entry|'s ranked class lists (best rank first, class id tie-break).
  void Finalize(int64_t cluster_id, index::ClusterEntry* entry) const {
    if (static_cast<size_t>(cluster_id) >= ranks_.size()) {
      return;
    }
    const std::vector<int32_t>& row = ranks_[static_cast<size_t>(cluster_id)];
    std::vector<std::pair<int32_t, common::ClassId>> ranked;
    ranked.reserve(present_[static_cast<size_t>(cluster_id)].size());
    for (common::ClassId cls : present_[static_cast<size_t>(cluster_id)]) {
      ranked.emplace_back(row[static_cast<size_t>(cls)], cls);
    }
    std::sort(ranked.begin(), ranked.end());
    entry->topk_classes.reserve(ranked.size());
    entry->topk_ranks.reserve(ranked.size());
    for (const auto& [rank, cls] : ranked) {
      entry->topk_classes.push_back(cls);
      entry->topk_ranks.push_back(rank);
    }
  }

  // Invokes |fn|(class, best_rank) for every class recorded for |cluster_id|.
  // The windowed streaming finalize uses this to fold only the raw clusters of
  // a *changed* canonical component instead of replaying the whole table.
  template <typename Fn>
  void ForEachOf(int64_t cluster_id, Fn&& fn) const {
    if (static_cast<size_t>(cluster_id) >= present_.size()) {
      return;
    }
    const std::vector<int32_t>& row = ranks_[static_cast<size_t>(cluster_id)];
    for (common::ClassId cls : present_[static_cast<size_t>(cluster_id)]) {
      fn(cls, row[static_cast<size_t>(cls)]);
    }
  }

  // Invokes |fn|(cluster_id, class, best_rank) for every recorded pair. Used
  // to remap raw sharded cluster ids onto canonical ids (min-rank union is
  // associative, so replaying per-cluster minima is exactly replaying the
  // per-detection updates) and to checkpoint the table.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t c = 0; c < present_.size(); ++c) {
      const std::vector<int32_t>& row = ranks_[c];
      for (common::ClassId cls : present_[c]) {
        fn(static_cast<int64_t>(c), cls, row[static_cast<size_t>(cls)]);
      }
    }
  }

  void EncodeTo(storage::Encoder& enc) const {
    enc.PutVarint(present_.size());
    for (size_t c = 0; c < present_.size(); ++c) {
      const std::vector<int32_t>& row = ranks_[c];
      enc.PutVarint(present_[c].size());
      for (common::ClassId cls : present_[c]) {
        enc.PutSignedVarint(cls);
        enc.PutSignedVarint(row[static_cast<size_t>(cls)]);
      }
    }
  }

  bool DecodeFrom(storage::Decoder& dec) {
    uint64_t clusters = 0;
    if (!dec.GetVarint(&clusters) || clusters > dec.remaining()) {
      return false;
    }
    for (uint64_t c = 0; c < clusters; ++c) {
      uint64_t classes = 0;
      if (!dec.GetVarint(&classes) || classes > dec.remaining()) {
        return false;
      }
      for (uint64_t i = 0; i < classes; ++i) {
        int64_t cls = 0;
        int64_t rank = 0;
        if (!dec.GetSignedVarint(&cls) || !dec.GetSignedVarint(&rank) || cls < 0 ||
            cls >= kRankSpace) {
          return false;
        }
        Update(static_cast<int64_t>(c), static_cast<common::ClassId>(cls),
               static_cast<int32_t>(rank));
      }
    }
    return true;
  }

 private:
  // Generic label space plus the specialized models' OTHER label.
  static constexpr int kRankSpace = video::kNumClasses + 1;
  static constexpr int32_t kUnranked = std::numeric_limits<int32_t>::max();

  std::vector<std::vector<int32_t>> ranks_;           // cluster -> class -> best rank.
  std::vector<std::vector<common::ClassId>> present_; // cluster -> classes seen.
};

// Pipeline-level state the persistent path checkpoints alongside the
// clusterer snapshot: result counters, the pixel-differencing reuse maps, and
// the class-rank table (keyed by raw global cluster ids; remapped onto
// canonical ids only at finalize).
struct PipelineState {
  IngestResult* result = nullptr;
  BestRankTable* ranks = nullptr;
  std::unordered_map<common::ObjectId, cnn::TopKResult>* last_result = nullptr;
  std::unordered_map<common::ObjectId, common::FeatureVec>* last_feature = nullptr;
  // Checkpointed alongside the reuse maps so post-resume eviction sweeps see
  // the same idle gaps an uninterrupted run sees (at tight checkpoint
  // cadences an empty map would evict entries the uninterrupted run keeps).
  std::unordered_map<common::ObjectId, common::FrameIndex>* last_seen = nullptr;
  // Pipeline-level options echo, validated on resume like the clusterer's:
  // continuing a stream with a different top-K width or suppression setting
  // would silently mix two configurations' semantics.
  int k = 0;
  bool use_pixel_diff = true;

  std::string Encode() const {
    storage::Encoder enc;
    enc.PutSignedVarint(k);
    enc.PutU8(use_pixel_diff ? 1 : 0);
    enc.PutSignedVarint(result->detections);
    enc.PutDouble(result->gpu_millis);
    enc.PutSignedVarint(result->cnn_invocations);
    enc.PutSignedVarint(result->suppressed);
    enc.PutVarint(last_result->size());
    for (const auto& [object, topk] : *last_result) {
      enc.PutSignedVarint(object);
      enc.PutVarint(topk.entries.size());
      for (const auto& [cls, confidence] : topk.entries) {
        enc.PutSignedVarint(cls);
        enc.PutFloat(confidence);
      }
    }
    enc.PutVarint(last_feature->size());
    for (const auto& [object, feature] : *last_feature) {
      enc.PutSignedVarint(object);
      enc.PutFloatVec(feature);
    }
    enc.PutVarint(last_seen->size());
    for (const auto& [object, frame] : *last_seen) {
      enc.PutSignedVarint(object);
      enc.PutSignedVarint(frame);
    }
    ranks->EncodeTo(enc);
    return enc.TakeBytes();
  }

  bool Decode(std::string_view blob) {
    storage::Decoder dec(blob);
    int64_t checkpoint_k = 0;
    uint8_t checkpoint_pixel_diff = 0;
    if (!dec.GetSignedVarint(&checkpoint_k) || !dec.GetU8(&checkpoint_pixel_diff) ||
        checkpoint_k != k || (checkpoint_pixel_diff != 0) != use_pixel_diff) {
      return false;
    }
    if (!dec.GetSignedVarint(&result->detections) || !dec.GetDouble(&result->gpu_millis) ||
        !dec.GetSignedVarint(&result->cnn_invocations) ||
        !dec.GetSignedVarint(&result->suppressed)) {
      return false;
    }
    uint64_t num_results = 0;
    if (!dec.GetVarint(&num_results) || num_results > dec.remaining()) {
      return false;
    }
    for (uint64_t i = 0; i < num_results; ++i) {
      int64_t object = 0;
      uint64_t entries = 0;
      if (!dec.GetSignedVarint(&object) || !dec.GetVarint(&entries) ||
          entries > dec.remaining()) {
        return false;
      }
      cnn::TopKResult topk;
      topk.entries.reserve(static_cast<size_t>(entries));
      for (uint64_t e = 0; e < entries; ++e) {
        int64_t cls = 0;
        float confidence = 0.0f;
        if (!dec.GetSignedVarint(&cls) || !dec.GetFloat(&confidence)) {
          return false;
        }
        topk.entries.emplace_back(static_cast<common::ClassId>(cls), confidence);
      }
      last_result->emplace(object, std::move(topk));
    }
    uint64_t num_features = 0;
    if (!dec.GetVarint(&num_features) || num_features > dec.remaining()) {
      return false;
    }
    for (uint64_t i = 0; i < num_features; ++i) {
      int64_t object = 0;
      common::FeatureVec feature;
      if (!dec.GetSignedVarint(&object) || !dec.GetFloatVec(&feature)) {
        return false;
      }
      last_feature->emplace(object, std::move(feature));
    }
    uint64_t num_seen = 0;
    if (!dec.GetVarint(&num_seen) || num_seen > dec.remaining()) {
      return false;
    }
    for (uint64_t i = 0; i < num_seen; ++i) {
      int64_t object = 0;
      int64_t frame = 0;
      if (!dec.GetSignedVarint(&object) || !dec.GetSignedVarint(&frame)) {
        return false;
      }
      last_seen->emplace(object, frame);
    }
    return ranks->DecodeFrom(dec) && dec.Done();
  }
};

// The windowed streaming finalize (src/core/live_snapshot.h): cuts and
// publishes the epoch snapshots of one ingest run. One instance lives for the
// run and carries the delta-build state across epochs — which raw cluster ids
// were assigned to since the last snapshot, and where each canonical cluster
// sat in the previous epoch's index — so an unchanged canonical cluster's
// index entry is carried forward instead of re-folded and re-sorted.
//
// The finalizer itself only *cuts*: each boundary it produces a self-contained
// SnapshotBuildJob (deep copies for dirty entries, previous-epoch slot numbers
// for clean ones) and hands it to a SnapshotBuilder, which assembles and
// publishes either inline (synchronous mode) or on its own thread
// (IngestOptions::background_publish).
//
// Cadence discipline: boundaries are absolute sampled-frame multiples of
// finalize_every_frames, so a crash-resumed run hits the same boundaries as an
// uninterrupted one, and on the sharded path the boundary's merge pass runs
// whether or not a consumer is attached — a snapshot consumer observes the
// stream, it never changes it.
class WindowedFinalizer {
 public:
  WindowedFinalizer(const IngestOptions& options, double fps)
      : every_(options.finalize_every_frames),
        incremental_(options.incremental_boundary_merge),
        fps_(fps),
        next_boundary_(every_ > 0 ? every_ : 0) {
    if (every_ > 0 && (options.snapshot_slot != nullptr || options.snapshot_sink)) {
      builder_ = std::make_unique<SnapshotBuilder>(options.snapshot_slot, options.snapshot_sink,
                                                   options.background_publish);
    }
  }

  bool enabled() const { return every_ > 0; }
  bool has_consumer() const { return builder_ != nullptr; }

  // Blocks until every cut handed to the builder has been assembled and
  // published (background mode backlog; synchronous mode publishes inside
  // Publish, so this is a no-op there). The persistent loop calls this before
  // a checkpoint so the durable cut never precedes its same-frame
  // publication, and before sealing the end of the stream.
  void FlushBuilds() {
    if (builder_ != nullptr) {
      builder_->Flush();
    }
  }

  // Streaming form: true after processing sampled frame |frame| completes a
  // window (the watermark is then frame + 1).
  bool AtBoundary(common::FrameIndex frame) const {
    return enabled() && (frame + 1) % every_ == 0;
  }

  // Records an assignment target (raw global cluster id) since the last
  // snapshot; the delta build rebuilds exactly the touched components.
  void Touch(int64_t raw_id) {
    if (enabled() && has_consumer()) {
      touched_.insert(raw_id);
    }
  }

  // Replay form: publishes every still-unpublished cadence boundary at or
  // below |frame| (call before assigning a detection of |frame|; the
  // classified sample carries no trailing empty frames, so boundaries are
  // discovered from the detections themselves). |detections| is the number of
  // sample entries already consumed — all of them below the boundary.
  template <typename Clusterer>
  void CatchUp(common::FrameIndex frame, Clusterer& clusterer, const BestRankTable& ranks,
               int64_t detections) {
    while (enabled() && frame >= next_boundary_) {
      Publish(next_boundary_, clusterer, ranks, detections);
      next_boundary_ += every_;
    }
  }
  common::FrameIndex next_boundary() const { return next_boundary_; }

  // Sequential form: cluster ids are dense and final; the canonical table is
  // the clusterer's own table, so a clean entry is simply the same id's entry
  // of the previous epoch.
  void Publish(common::FrameIndex watermark, const cluster::IncrementalClusterer& clusterer,
               const BestRankTable& ranks, int64_t detections) {
    if (!has_consumer()) {
      return;  // Sequential snapshots have no clustering side effects.
    }
    const auto cut_start = std::chrono::steady_clock::now();
    SnapshotBuildJob job;
    job.watermark = watermark;
    job.fps = fps_;
    job.detections = detections;
    job.items.reserve(clusterer.clusters().size());
    for (const cluster::Cluster& c : clusterer.clusters()) {
      const bool clean = have_prev_ && static_cast<size_t>(c.id) < prev_sequential_clusters_ &&
                         !touched_.contains(c.id);
      SnapshotBuildItem item;
      if (clean) {
        item.reused = true;
        item.prev_slot = static_cast<size_t>(c.id);
      } else {
        item.entry.cluster_id = c.id;
        item.entry.representative = c.representative;
        item.entry.members = c.members;
        item.entry.size = c.size;
        ranks.Finalize(c.id, &item.entry);
      }
      job.items.push_back(std::move(item));
    }
    prev_sequential_clusters_ = clusterer.clusters().size();
    Submit(std::move(job), cut_start);
  }

  // Sharded form: runs the boundary's merge side effect first — the full
  // cross-shard pass to convergence, or in incremental mode the boundary merge
  // pass that re-examines only clusters dirtied since the previous boundary —
  // the cadence side effect that must happen with or without a consumer — then
  // cuts the canonical-table delta for the builder.
  void Publish(common::FrameIndex watermark, cluster::ShardedClusterer& sharded,
               const BestRankTable& ranks, int64_t detections) {
    // The boundary merge is the cadence's clustering side effect — it runs
    // with or without a consumer, so it stays outside the timed cut:
    // cut_millis measures only the cost attributable to publication. (Full
    // mode's merge happens inside FinalizeClusters and cannot be hoisted; its
    // cut keeps the historical merge-inclusive accounting.)
    if (incremental_) {
      sharded.BoundaryMergePass();
    } else if (!has_consumer()) {
      sharded.MergePass();
    }
    if (!has_consumer()) {
      return;
    }
    const auto cut_start = std::chrono::steady_clock::now();
    SnapshotBuildJob job;
    job.watermark = watermark;
    job.fps = fps_;
    job.detections = detections;
    if (incremental_) {
      CutShardedIncremental(sharded, ranks, job);
    } else {
      CutShardedFull(sharded, ranks, job);
    }
    Submit(std::move(job), cut_start);
  }

 private:
  // Shared sharded census, one pair of ascending-global-id walks over the raw
  // shard tables (local asc, shard asc == ascending g): roots in ascending
  // canonical order, per-component raw counts, memoized union-find lookups,
  // per-root clean flags, and the CSR raw-member spans of every dirty
  // component. A canonical cluster is clean — its entry of the previous epoch
  // still byte-exact — iff it existed then, no raw member was assigned to
  // since, and its component composition (which only ever grows) kept the
  // same raw count. Requires the union-find converged (the caller just ran
  // its merge pass).
  void CensusSharded(const cluster::ShardedClusterer& sharded) {
    const size_t num_shards = sharded.num_shards();
    size_t max_locals = 0;
    for (size_t s = 0; s < num_shards; ++s) {
      max_locals = std::max(max_locals, sharded.shard(s).clusters().size());
    }
    census_size_ = num_shards * max_locals;
    comp_count_.assign(census_size_, 0);
    canon_of_.assign(census_size_, -1);
    slot_of_root_.assign(census_size_, -1);
    roots_in_order_.clear();
    for (size_t l = 0; l < max_locals; ++l) {
      for (size_t s = 0; s < num_shards; ++s) {
        if (l >= sharded.shard(s).clusters().size()) {
          continue;
        }
        const int64_t g = sharded.GlobalId(s, static_cast<int64_t>(l));
        const int64_t root = sharded.CanonicalOf(g);
        canon_of_[static_cast<size_t>(g)] = root;
        if (root == g) {
          slot_of_root_[static_cast<size_t>(g)] = static_cast<int64_t>(roots_in_order_.size());
          roots_in_order_.push_back(g);
        }
        ++comp_count_[static_cast<size_t>(root)];
      }
    }
    ++cut_seq_;
    if (touched_mark_.size() < census_size_) {
      touched_mark_.resize(census_size_, 0);
    }
    for (const int64_t raw : touched_) {
      const int64_t root = canon_of_[static_cast<size_t>(raw)] >= 0
                               ? canon_of_[static_cast<size_t>(raw)]
                               : sharded.CanonicalOf(raw);
      touched_mark_[static_cast<size_t>(root)] = cut_seq_;
    }
    root_clean_.assign(roots_in_order_.size(), 0);
    dirty_begin_.assign(roots_in_order_.size() + 1, 0);
    size_t dirty_total = 0;
    for (size_t i = 0; i < roots_in_order_.size(); ++i) {
      const size_t root = static_cast<size_t>(roots_in_order_[i]);
      const bool clean = have_prev_ && touched_mark_[root] != cut_seq_ &&
                         root < prev_slot_by_canonical_.size() &&
                         prev_slot_by_canonical_[root] >= 0 &&
                         prev_comp_count_[root] == comp_count_[root];
      root_clean_[i] = clean ? 1 : 0;
      dirty_begin_[i] = dirty_total;
      if (!clean) {
        dirty_total += static_cast<size_t>(comp_count_[root]);
      }
    }
    dirty_begin_[roots_in_order_.size()] = dirty_total;
    // CSR fill, ascending global id per component — the incremental cut's
    // member concatenation must match FinalizeClusters' fold order (the rank
    // fold is a min per class, so for it alone the order would be immaterial).
    dirty_raws_.resize(dirty_total);
    dirty_fill_.assign(dirty_begin_.begin(), dirty_begin_.end());
    for (size_t l = 0; l < max_locals; ++l) {
      for (size_t s = 0; s < num_shards; ++s) {
        if (l >= sharded.shard(s).clusters().size()) {
          continue;
        }
        const int64_t g = sharded.GlobalId(s, static_cast<int64_t>(l));
        const size_t root = static_cast<size_t>(canon_of_[static_cast<size_t>(g)]);
        const size_t slot = static_cast<size_t>(slot_of_root_[root]);
        if (!root_clean_[slot]) {
          dirty_raws_[dirty_fill_[slot]++] = g;
        }
      }
    }
  }

  // Publishes this cut's census as the next cut's "previous epoch" view.
  void CommitCensus() {
    prev_slot_by_canonical_.assign(census_size_, -1);
    for (size_t i = 0; i < roots_in_order_.size(); ++i) {
      prev_slot_by_canonical_[static_cast<size_t>(roots_in_order_[i])] = static_cast<int64_t>(i);
    }
    std::swap(prev_comp_count_, comp_count_);
  }

  // Full cut: FinalizeClusters folds the whole canonical table (running the
  // full merge pass), then the delta build reuses every clean component's
  // previous-epoch entry. The census walk and the table enumerate the same
  // components in the same ascending-canonical-id order.
  void CutShardedFull(cluster::ShardedClusterer& sharded, const BestRankTable& ranks,
                      SnapshotBuildJob& job) {
    std::vector<cluster::Cluster> table = sharded.FinalizeClusters();
    CensusSharded(sharded);
    FOCUS_CHECK(table.size() == roots_in_order_.size());

    job.items.reserve(table.size());
    std::vector<std::pair<int32_t, common::ClassId>> ranked;  // Scratch per entry.
    std::unordered_map<common::ClassId, size_t> rank_slot;
    for (size_t i = 0; i < table.size(); ++i) {
      const cluster::Cluster& c = table[i];
      SnapshotBuildItem item;
      if (root_clean_[i]) {
        item.reused = true;
        item.prev_slot = static_cast<size_t>(prev_slot_by_canonical_[static_cast<size_t>(c.id)]);
      } else {
        item.entry.cluster_id = c.id;
        item.entry.representative = c.representative;
        item.entry.members = c.members;
        item.entry.size = c.size;
        FoldRanks(ranks, &dirty_raws_[dirty_begin_[i]], dirty_begin_[i + 1] - dirty_begin_[i],
                  ranked, rank_slot, item.entry);
      }
      job.items.push_back(std::move(item));
    }
    CommitCensus();
  }

  // Incremental cut: the boundary merge pass above re-examined only clusters
  // dirtied since the previous boundary, so the canonical table is re-derived
  // by one ascending-global-id walk over the raw shard tables instead of
  // FinalizeClusters' full fold. The walk order (local asc, shard asc) is
  // ascending global id, so components' roots appear in first-seen order ==
  // ascending root order — exactly FinalizeClusters' table order — and a dirty
  // component's members concatenate in the same raw order FinalizeClusters
  // folds them. Clean components carry forward by previous-epoch slot without
  // touching their members at all.
  void CutShardedIncremental(cluster::ShardedClusterer& sharded, const BestRankTable& ranks,
                             SnapshotBuildJob& job) {
    // Publish already ran BoundaryMergePass — the union-find is converged for
    // every cluster dirtied since the previous boundary.
    CensusSharded(sharded);
    const size_t num_shards = sharded.num_shards();

    job.items.reserve(roots_in_order_.size());
    std::vector<std::pair<int32_t, common::ClassId>> ranked;  // Scratch per entry.
    std::unordered_map<common::ClassId, size_t> rank_slot;
    for (size_t i = 0; i < roots_in_order_.size(); ++i) {
      const int64_t root = roots_in_order_[i];
      SnapshotBuildItem item;
      if (root_clean_[i]) {
        item.reused = true;
        item.prev_slot = static_cast<size_t>(prev_slot_by_canonical_[static_cast<size_t>(root)]);
        job.items.push_back(std::move(item));
        continue;
      }
      item.entry.cluster_id = root;
      for (size_t r = dirty_begin_[i]; r < dirty_begin_[i + 1]; ++r) {
        const int64_t raw = dirty_raws_[r];
        const size_t s = static_cast<size_t>(raw) % num_shards;
        const size_t l = static_cast<size_t>(raw) / num_shards;
        const cluster::Cluster& src = sharded.shard(s).clusters()[l];
        if (raw == root) {
          // The root is the component's minimum id, so it is the raw cluster
          // FinalizeClusters seeds the canonical entry (and representative)
          // from.
          item.entry.representative = src.representative;
        }
        item.entry.members.insert(item.entry.members.end(), src.members.begin(),
                                  src.members.end());
        item.entry.size += src.size;
      }
      FoldRanks(ranks, &dirty_raws_[dirty_begin_[i]], dirty_begin_[i + 1] - dirty_begin_[i],
                ranked, rank_slot, item.entry);
      job.items.push_back(std::move(item));
    }
    CommitCensus();
  }

  // Min-folds the component's raw rank rows into |entry|, then sorts
  // (rank, class) — exactly BestRankTable::Finalize's order on the folded
  // table. |ranked|/|rank_slot| are caller-owned scratch.
  static void FoldRanks(const BestRankTable& ranks, const int64_t* raws, size_t count,
                        std::vector<std::pair<int32_t, common::ClassId>>& ranked,
                        std::unordered_map<common::ClassId, size_t>& rank_slot,
                        index::ClusterEntry& entry) {
    ranked.clear();
    rank_slot.clear();
    for (size_t j = 0; j < count; ++j) {
      const int64_t raw = raws[j];
      ranks.ForEachOf(raw, [&](common::ClassId cls, int32_t rank) {
        auto [it, inserted] = rank_slot.try_emplace(cls, ranked.size());
        if (inserted) {
          ranked.emplace_back(rank, cls);
        } else if (rank < ranked[it->second].first) {
          ranked[it->second].first = rank;
        }
      });
    }
    std::sort(ranked.begin(), ranked.end());
    entry.topk_classes.reserve(ranked.size());
    entry.topk_ranks.reserve(ranked.size());
    for (const auto& [rank, cls] : ranked) {
      entry.topk_classes.push_back(cls);
      entry.topk_ranks.push_back(rank);
    }
  }

  // Stamps the cut's ingest-thread wall-clock and hands the job over.
  // Synchronous mode publishes before returning; background mode returns as
  // soon as the queue accepts the job.
  void Submit(SnapshotBuildJob job, std::chrono::steady_clock::time_point cut_start) {
    job.cut_millis =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - cut_start)
            .count();
    builder_->Submit(std::move(job));
    have_prev_ = true;
    touched_.clear();
  }

  const int64_t every_;
  const bool incremental_;
  const double fps_;
  common::FrameIndex next_boundary_;
  std::unique_ptr<SnapshotBuilder> builder_;  // Null without a consumer.

  // True once the first epoch's job has been handed over. The builder
  // publishes jobs in FIFO order, so by the time a later job assembles, the
  // previous epoch's index exists for its reused slots to copy from.
  bool have_prev_ = false;
  std::unordered_set<int64_t> touched_;  // Raw ids assigned since the last cut.
  // Sharded delta state, flat-indexed by canonical (global) id — ids are dense
  // (g = local * num_shards + shard), so vector indexing replaces the hash-map
  // census that used to dominate cut_millis at a few thousand clusters:
  // canonical id -> dense slot in the previous epoch's index (-1 = absent),
  // and the component raw count as of that epoch.
  std::vector<int64_t> prev_slot_by_canonical_;
  std::vector<int32_t> prev_comp_count_;
  // Per-cut census scratch (CensusSharded), kept across epochs so the cut
  // never reallocates in steady state.
  size_t census_size_ = 0;               // num_shards * max_locals this cut.
  std::vector<int32_t> comp_count_;      // [root] raw members, 0 elsewhere.
  std::vector<int64_t> canon_of_;        // [g] memoized CanonicalOf.
  std::vector<int64_t> slot_of_root_;    // [root] -> index in roots_in_order_.
  std::vector<uint32_t> touched_mark_;   // [root] == cut_seq_ -> dirtied.
  uint32_t cut_seq_ = 0;
  std::vector<int64_t> roots_in_order_;  // Ascending canonical ids this cut.
  std::vector<uint8_t> root_clean_;      // Parallel: previous entry reusable.
  // CSR spans of each dirty component's raw members, ascending global id:
  // slot i owns dirty_raws_[dirty_begin_[i], dirty_begin_[i + 1]).
  std::vector<size_t> dirty_begin_;
  std::vector<size_t> dirty_fill_;
  std::vector<int64_t> dirty_raws_;
  // Sequential delta state: cluster count as of the previous epoch (ids are
  // dense + stable).
  size_t prev_sequential_clusters_ = 0;
};

}  // namespace

common::Result<IngestResult> RunIngestResumableChecked(const video::StreamRun& run,
                                                       const cnn::Cnn& ingest_cnn,
                                                       const IngestParams& params,
                                                       const IngestOptions& options) {
  FOCUS_CHECK(!options.persist_dir.empty());
  FOCUS_CHECK(options.num_shards >= 1);
  FOCUS_CHECK(options.checkpoint_every_frames >= 1);

  cluster::ShardedClustererOptions sopts;
  sopts.base.threshold = params.cluster_threshold;
  sopts.base.max_active = options.max_active_clusters;
  sopts.base.mode = options.cluster_mode;
  sopts.base.arena_fsync = options.arena_fsync;
  sopts.base.undo_fsync = options.undo_fsync;
  sopts.num_shards = static_cast<size_t>(options.num_shards);
  sopts.merge_interval = options.shard_merge_interval;
  sopts.boundary_merge = options.incremental_boundary_merge;
  cluster::ShardedClusterer clusterer(sopts);

  auto recovery = clusterer.OpenOrRecover(options.persist_dir);
  if (!recovery.ok()) {
    FOCUS_LOG(kError) << "ingest recovery failed: " << recovery.error().message;
    return recovery.error();
  }

  IngestResult result;
  BestRankTable ranks;
  std::unordered_map<common::ObjectId, cnn::TopKResult> last_result;
  std::unordered_map<common::ObjectId, common::FeatureVec> last_feature;
  std::unordered_map<common::ObjectId, common::FrameIndex> last_seen;
  PipelineState state{&result,       &ranks,     &last_result,
                      &last_feature, &last_seen, params.k,
                      options.use_pixel_diff};

  common::FrameIndex resume_frame = 0;
  if (recovery->recovered) {
    resume_frame = recovery->position;
    if (!state.Decode(recovery->user_state)) {
      // The meta snapshot passed its CRC but the pipeline blob inside does not
      // parse: durable state from a future/corrupt writer. Not retryable.
      return common::DataLoss("ingest pipeline state undecodable: " + options.persist_dir);
    }
  }
  result.resumed_from_frame = resume_frame;

  const common::FrameIndex limit_frame =
      options.limit_sec < 0.0 ? run.num_frames()
                              : static_cast<common::FrameIndex>(options.limit_sec * run.fps());
  const common::FrameIndex crash_frame =
      options.crash_after_frames < 0 ? -1 : resume_frame + options.crash_after_frames;

  // Reuse-map eviction: pixel differencing only ever reuses the result of the
  // same object's *previous sampled frame* (suppression requires the crop to
  // match frame-to-frame), so an entry idle longer than the configured gap is
  // treated as an exited track and dropped. Evicting those at every checkpoint
  // keeps the snapshotted pipeline state proportional to the objects currently
  // in scene instead of every object the stream has ever shown — which is what
  // keeps recovery O(working set) on long retention windows. The gap bounds
  // the occlusion length a track may survive suppressed; see
  // IngestOptions::reuse_evict_gap_frames.
  const common::FrameIndex reuse_evict_gap = options.reuse_evict_gap_frames;
  auto evict_idle_entries = [&](common::FrameIndex frame) {
    for (auto it = last_result.begin(); it != last_result.end();) {
      const auto seen = last_seen.find(it->first);
      if (seen == last_seen.end() || frame - seen->second > reuse_evict_gap) {
        last_feature.erase(it->first);
        if (seen != last_seen.end()) {
          last_seen.erase(seen);
        }
        it = last_result.erase(it);
      } else {
        ++it;
      }
    }
  };

  WindowedFinalizer finalizer(options, run.fps());
  int64_t frames_since_checkpoint = 0;
  bool crashed = false;
  std::optional<common::Error> failure;
  // Sharded runs dispatch each frame's assignments through a worker pool (one
  // ordered task per shard, exactly the RunIngestClassifiedSharded pattern) so
  // persistent resumable ingest scales within a stream like the volatile path.
  // pop_batch stays 1: the queued tasks are shard-coarse. At num_shards = 1
  // the pool is skipped and AssignBatch runs inline — the sequential schedule.
  std::unique_ptr<runtime::WorkerPool> pool;
  if (options.num_shards > 1) {
    pool = std::make_unique<runtime::WorkerPool>(
        options.num_shards,
        /*queue_capacity=*/static_cast<size_t>(options.num_shards) * 2,
        /*pop_batch=*/1);
  }
  std::vector<cluster::ShardedClusterer::WorkItem> frame_items;
  std::vector<const cnn::TopKResult*> frame_topk;
  std::vector<int64_t> frame_out;
  video::SweepStats sweep =
      run.ForEachFrame([&](common::FrameIndex frame, const std::vector<video::Detection>& dets) {
    if (crashed || failure.has_value() || frame < resume_frame || frame >= limit_frame) {
      return;
    }
    if (crash_frame >= 0 && frame >= crash_frame) {
      crashed = true;  // Simulated worker crash: abandon mid-stream.
      return;
    }
    // Stage the frame: classify / extract fresh detections, reuse suppressed
    // ones. Pointers target the node-based reuse maps, which stay stable
    // through later inserts; each object appears at most once per frame.
    frame_items.clear();
    frame_topk.clear();
    for (const video::Detection& d : dets) {
      ++result.detections;
      last_seen[d.object_id] = frame;
      const bool can_reuse = options.use_pixel_diff && d.pixel_diff_suppressed &&
                             last_result.contains(d.object_id);
      cluster::ShardedClusterer::WorkItem item;
      item.detection = &d;
      if (can_reuse) {
        ++result.suppressed;
        item.feature = &last_feature[d.object_id];
        item.suppressed = true;
        frame_topk.push_back(&last_result[d.object_id]);
      } else {
        ++result.cnn_invocations;
        result.gpu_millis += ingest_cnn.inference_cost_millis();
        cnn::TopKResult fresh = ingest_cnn.Classify(d, params.k);
        common::FeatureVec feature = ingest_cnn.ExtractFeature(d);
        auto [rit, r_unused] = last_result.insert_or_assign(d.object_id, std::move(fresh));
        auto [fit, f_unused] = last_feature.insert_or_assign(d.object_id, std::move(feature));
        item.feature = &fit->second;
        frame_topk.push_back(&rit->second);
      }
      frame_items.push_back(item);
    }
    // Assign the frame as one batch. The object-id partition makes the
    // assignments identical to the sequential per-detection path; only the
    // cross-shard merge cadence moves to frame granularity (which does not
    // change the final table — the union-find only accumulates).
    frame_out.resize(frame_items.size());
    clusterer.AssignBatch(frame_items.data(), frame_items.size(), pool.get(),
                          frame_out.data());
    for (size_t i = 0; i < frame_items.size(); ++i) {
      const int64_t cluster_id = frame_out[i];
      finalizer.Touch(cluster_id);
      // Raw global ids here; folded onto canonical ids after the final merge.
      const cnn::TopKResult* topk = frame_topk[i];
      for (size_t pos = 0; pos < topk->entries.size(); ++pos) {
        ranks.Update(cluster_id, topk->entries[pos].first, static_cast<int32_t>(pos) + 1);
      }
    }
    // Publish before the checkpoint so a checkpoint at the same frame captures
    // the post-boundary merge state: a resumed run then restarts past the
    // boundary exactly as the uninterrupted run left it, while a crash before
    // the checkpoint replays the boundary pass from the prior one. Snapshots
    // themselves are volatile — never checkpointed — and are republished from
    // live state after the resumed run crosses its next boundary.
    if (finalizer.AtBoundary(frame)) {
      finalizer.Publish(frame + 1, clusterer, ranks, result.detections);
    }
    if (++frames_since_checkpoint >= options.checkpoint_every_frames) {
      evict_idle_entries(frame);
      // Any build still in flight must publish before the durable cut: a
      // same-frame snapshot is observable no later than the checkpoint that
      // captures its post-boundary state, exactly as in synchronous mode.
      finalizer.FlushBuilds();
      // A transiently failing commit (msync hiccup, rename rejected) is
      // retried in place: the checkpoint protocol is re-runnable after any
      // partial failure (the meta rename is the single commit point; arena
      // generation skips are harmless). Only a persistently failing commit
      // abandons the attempt to the supervisor.
      const std::string encoded = state.Encode();
      auto checkpointed = common::RetryWithBackoff(options.checkpoint_retry, [&] {
        return clusterer.Checkpoint(frame + 1, encoded, pool.get());
      });
      if (!checkpointed.ok()) {
        failure = checkpointed.error();
        return;
      }
      if (options.checkpoint_observer) {
        options.checkpoint_observer(clusterer, frame + 1, encoded);
      }
      frames_since_checkpoint = 0;
    }
  });

  if (failure.has_value()) {
    return *failure;
  }
  if (crashed) {
    // Exactly like a crash: whatever the last periodic checkpoint captured is
    // the durable state; this attempt's partial counters are returned for the
    // caller's accounting but nothing further is published.
    return result;
  }
  if (sweep.aborted) {
    // The stream cut out mid-recording (camera flap / uplink loss). The last
    // checkpoint is durable; a restarted worker resumes from it and replays
    // the tail once the stream comes back.
    return common::Unavailable("stream delivery aborted mid-recording");
  }

  // Seal the end of the stream, then finalize. The final full merge pass and
  // the canonical fold happen in memory after the seal; a crash during them
  // resumes at the sealed position and re-finalizes. Builds drain first so
  // every epoch is published before the stream's durable end state lands.
  finalizer.FlushBuilds();
  const std::string sealed_state = state.Encode();
  auto sealed = common::RetryWithBackoff(options.checkpoint_retry, [&] {
    return clusterer.Checkpoint(limit_frame, sealed_state, pool.get());
  });
  if (!sealed.ok()) {
    return sealed.error();
  }
  if (options.checkpoint_observer) {
    options.checkpoint_observer(clusterer, limit_frame, sealed_state);
  }

  std::vector<cluster::Cluster> canonical = clusterer.FinalizeClusters();
  BestRankTable canonical_ranks;
  ranks.ForEach([&](int64_t raw, common::ClassId cls, int32_t rank) {
    canonical_ranks.Update(clusterer.CanonicalOf(raw), cls, rank);
  });
  for (const cluster::Cluster& c : canonical) {
    index::ClusterEntry entry;
    entry.cluster_id = c.id;
    entry.representative = c.representative;
    entry.members = c.members;
    entry.size = c.size;
    canonical_ranks.Finalize(c.id, &entry);
    result.index.AddCluster(std::move(entry));
  }
  result.num_clusters = static_cast<int64_t>(result.index.num_clusters());
  result.clusterer_fast_hit_rate = clusterer.FastHitRate();
  return result;
}

IngestResult RunIngestResumable(const video::StreamRun& run, const cnn::Cnn& ingest_cnn,
                                const IngestParams& params, const IngestOptions& options) {
  auto result = RunIngestResumableChecked(run, ingest_cnn, params, options);
  if (!result.ok()) {
    FOCUS_LOG(kError) << "resumable ingest failed: " << result.error().message;
    FOCUS_CHECK(result.ok());
  }
  return *std::move(result);
}

// Detections are dispatched in shard_batch chunks onto a dedicated worker pool
// (one ordered task per shard per chunk), assignments are collected
// positionally, and rank accounting runs after the final merge so every update
// lands directly on a canonical cluster id. Result accounting is
// deterministic: the assignment of each detection, the canonical mapping, and
// the stream-order rank replay are all pure functions of the sample (see
// sharded_clusterer.h) — and independent of which worker pool dispatches the
// shard tasks, so a caller-supplied |pool| reused across runs changes cost,
// never output.
IngestResult RunIngestClassifiedSharded(const ClassifiedSample& sample,
                                        const IngestParams& params,
                                        const IngestOptions& options,
                                        runtime::WorkerPool* pool) {
  FOCUS_CHECK(options.num_shards >= 1);
  IngestResult result;
  result.gpu_millis = sample.gpu_millis;
  result.cnn_invocations = sample.cnn_invocations;
  result.suppressed = sample.suppressed;

  cluster::ShardedClustererOptions sopts;
  sopts.base.threshold = params.cluster_threshold;
  sopts.base.max_active = options.max_active_clusters;
  sopts.base.mode = options.cluster_mode;
  sopts.num_shards = static_cast<size_t>(options.num_shards);
  sopts.merge_interval = options.shard_merge_interval;
  sopts.boundary_merge = options.incremental_boundary_merge;
  cluster::ShardedClusterer sharded(sopts);

  // pop_batch stays 1: the queued tasks are already shard-coarse, and letting
  // one worker pull several would serialize shards behind each other.
  std::unique_ptr<runtime::WorkerPool> local_pool;
  if (pool == nullptr) {
    local_pool = std::make_unique<runtime::WorkerPool>(
        options.num_shards,
        /*queue_capacity=*/static_cast<size_t>(options.num_shards) * 2,
        /*pop_batch=*/1);
    pool = local_pool.get();
  }

  const size_t n = sample.detections.size();
  const size_t batch = std::max<size_t>(options.shard_batch, 1);
  const size_t rank_width = static_cast<size_t>(std::min(params.k, sample.k));
  WindowedFinalizer finalizer(options, sample.fps);
  // Ranks accumulate on *raw* global ids during assignment (the windowed
  // finalize needs rank state at every cadence boundary, not just at the end)
  // and fold onto canonical ids per snapshot / at the final table build —
  // min-rank union is associative, so this is byte-identical to the previous
  // post-hoc canonical accounting.
  BestRankTable ranks;
  std::vector<int64_t> assignments(n);
  std::vector<cluster::ShardedClusterer::WorkItem> items;
  items.reserve(std::min(batch, n));
  size_t offset = 0;
  while (offset < n) {
    finalizer.CatchUp(sample.detections[offset].detection.frame, sharded, ranks,
                      static_cast<int64_t>(offset));
    // One dispatch chunk: up to shard_batch items, never crossing the next
    // cadence boundary (the chunk cut — like the boundary itself — is a pure
    // function of the sample, so a run halted at a watermark chunks its
    // prefix identically).
    size_t count = 0;
    while (offset + count < n && count < batch &&
           (!finalizer.enabled() ||
            sample.detections[offset + count].detection.frame < finalizer.next_boundary())) {
      ++count;
    }
    items.clear();
    for (size_t i = 0; i < count; ++i) {
      const ClassifiedDetection& entry = sample.detections[offset + i];
      items.push_back({&entry.detection, &entry.feature, entry.reused});
    }
    sharded.AssignBatch(items.data(), count, pool, assignments.data() + offset);
    for (size_t i = 0; i < count; ++i) {
      const ClassifiedDetection& entry = sample.detections[offset + i];
      const int64_t raw = assignments[offset + i];
      finalizer.Touch(raw);
      const size_t width = std::min(rank_width, entry.topk.entries.size());
      for (size_t pos = 0; pos < width; ++pos) {
        ranks.Update(raw, entry.topk.entries[pos].first, static_cast<int32_t>(pos) + 1);
      }
    }
    offset += count;
  }
  // A per-call pool is torn down here; a caller-supplied one stays alive (its
  // tasks are all drained — AssignBatch synchronizes per batch).
  if (local_pool != nullptr) {
    local_pool->Shutdown();
  }

  std::vector<cluster::Cluster> canonical = sharded.FinalizeClusters();
  result.detections = static_cast<int64_t>(n);

  BestRankTable canonical_ranks;
  ranks.ForEach([&](int64_t raw, common::ClassId cls, int32_t rank) {
    canonical_ranks.Update(sharded.CanonicalOf(raw), cls, rank);
  });
  for (const cluster::Cluster& c : canonical) {
    index::ClusterEntry entry;
    entry.cluster_id = c.id;
    entry.representative = c.representative;
    entry.members = c.members;
    entry.size = c.size;
    canonical_ranks.Finalize(c.id, &entry);
    result.index.AddCluster(std::move(entry));
  }
  result.num_clusters = static_cast<int64_t>(result.index.num_clusters());
  result.clusterer_fast_hit_rate = sharded.FastHitRate();
  return result;
}

ClassifiedSample ClassifySample(const video::StreamRun& run, const cnn::Cnn& ingest_cnn,
                                int k, const IngestOptions& options) {
  ClassifiedSample sample;
  sample.k = k;
  sample.fps = run.fps();

  std::unordered_map<common::ObjectId, size_t> last_index;  // Object -> last stored entry.
  const common::FrameIndex limit_frame =
      options.limit_sec < 0.0 ? run.num_frames()
                              : static_cast<common::FrameIndex>(options.limit_sec * run.fps());

  const video::SweepStats sweep = run.ForEachFrame([&](common::FrameIndex frame,
                                                       const std::vector<video::Detection>& dets) {
    if (frame >= limit_frame) {
      return;
    }
    for (const video::Detection& d : dets) {
      ClassifiedDetection entry;
      entry.detection = d;
      auto it = last_index.find(d.object_id);
      const bool can_reuse =
          options.use_pixel_diff && d.pixel_diff_suppressed && it != last_index.end();
      if (can_reuse) {
        ++sample.suppressed;
        entry.reused = true;
        entry.topk = sample.detections[it->second].topk;
        entry.feature = sample.detections[it->second].feature;
      } else {
        ++sample.cnn_invocations;
        sample.gpu_millis += ingest_cnn.inference_cost_millis();
        entry.topk = ingest_cnn.Classify(d, k);
        entry.feature = ingest_cnn.ExtractFeature(d);
      }
      last_index[d.object_id] = sample.detections.size();
      sample.detections.push_back(std::move(entry));
    }
  });
  sample.delivery_aborted = sweep.aborted;
  return sample;
}

IngestResult RunIngestClassified(const ClassifiedSample& sample, const IngestParams& params,
                                 const IngestOptions& options,
                                 cluster::IncrementalClusterer* scratch,
                                 runtime::WorkerPool* pool) {
  FOCUS_CHECK(options.num_shards >= 1);
  if (options.num_shards > 1) {
    return RunIngestClassifiedSharded(sample, params, options, pool);
  }
  IngestResult result;
  result.gpu_millis = sample.gpu_millis;
  result.cnn_invocations = sample.cnn_invocations;
  result.suppressed = sample.suppressed;

  cluster::ClustererOptions copts;
  copts.threshold = params.cluster_threshold;
  copts.max_active = options.max_active_clusters;
  copts.mode = options.cluster_mode;
  cluster::IncrementalClusterer local_clusterer(copts);
  cluster::IncrementalClusterer& clusterer = scratch != nullptr ? *scratch : local_clusterer;
  if (scratch != nullptr) {
    scratch->Reset(copts);
  }

  const size_t rank_width = static_cast<size_t>(std::min(params.k, sample.k));
  WindowedFinalizer finalizer(options, sample.fps);
  BestRankTable ranks;
  for (const ClassifiedDetection& entry : sample.detections) {
    finalizer.CatchUp(entry.detection.frame, clusterer, ranks, result.detections);
    ++result.detections;
    const int64_t cluster_id = entry.reused
                                   ? clusterer.AddSuppressed(entry.detection, entry.feature)
                                   : clusterer.Add(entry.detection, entry.feature);
    finalizer.Touch(cluster_id);
    const size_t width = std::min(rank_width, entry.topk.entries.size());
    for (size_t pos = 0; pos < width; ++pos) {
      ranks.Update(cluster_id, entry.topk.entries[pos].first, static_cast<int32_t>(pos) + 1);
    }
  }

  for (const cluster::Cluster& c : clusterer.clusters()) {
    index::ClusterEntry entry;
    entry.cluster_id = c.id;
    entry.representative = c.representative;
    entry.members = c.members;
    entry.size = c.size;
    ranks.Finalize(c.id, &entry);
    result.index.AddCluster(std::move(entry));
  }
  result.num_clusters = static_cast<int64_t>(result.index.num_clusters());
  result.clusterer_fast_hit_rate = clusterer.FastHitRate();
  return result;
}

common::Result<IngestResult> RunIngestChecked(const video::StreamRun& run,
                                              const cnn::Cnn& ingest_cnn,
                                              const IngestParams& params,
                                              const IngestOptions& options) {
  FOCUS_CHECK(options.num_shards >= 1);
  if (!options.persist_dir.empty()) {
    return RunIngestResumableChecked(run, ingest_cnn, params, options);
  }
  if (options.num_shards > 1) {
    // Classify once (IT1 + pixel differencing, the only GPU-bearing stage),
    // then shard clustering + indexing across the worker pool. GPU time,
    // invocation, and suppression accounting come from the classification pass
    // and are identical to the streaming path's.
    ClassifiedSample sample = ClassifySample(run, ingest_cnn, params.k, options);
    if (sample.delivery_aborted) {
      // Volatile ingest has no checkpoint to resume from: the restarted worker
      // re-ingests from frame 0 (the recording itself is intact).
      return common::Unavailable("stream delivery aborted mid-recording");
    }
    return RunIngestClassified(sample, params, options);
  }
  IngestResult result;

  cluster::ClustererOptions copts;
  copts.threshold = params.cluster_threshold;
  copts.max_active = options.max_active_clusters;
  copts.mode = options.cluster_mode;
  cluster::IncrementalClusterer clusterer(copts);

  WindowedFinalizer finalizer(options, run.fps());
  BestRankTable ranks;
  // Last classification of each object, reused on pixel-diff suppressed frames.
  std::unordered_map<common::ObjectId, cnn::TopKResult> last_result;
  std::unordered_map<common::ObjectId, common::FeatureVec> last_feature;

  const common::FrameIndex limit_frame =
      options.limit_sec < 0.0 ? run.num_frames()
                              : static_cast<common::FrameIndex>(options.limit_sec * run.fps());

  const video::SweepStats sweep = run.ForEachFrame([&](common::FrameIndex frame,
                                                       const std::vector<video::Detection>& dets) {
    if (frame >= limit_frame) {
      return;
    }
    for (const video::Detection& d : dets) {
      ++result.detections;
      const bool can_reuse = options.use_pixel_diff && d.pixel_diff_suppressed &&
                             last_result.contains(d.object_id);
      int64_t cluster_id = -1;
      const cnn::TopKResult* topk = nullptr;
      if (can_reuse) {
        ++result.suppressed;
        // IT1 skipped: reuse the previous classification and feature (§4.2).
        cluster_id = clusterer.AddSuppressed(d, last_feature[d.object_id]);
        topk = &last_result[d.object_id];
      } else {
        ++result.cnn_invocations;
        result.gpu_millis += ingest_cnn.inference_cost_millis();
        cnn::TopKResult fresh = ingest_cnn.Classify(d, params.k);
        common::FeatureVec feature = ingest_cnn.ExtractFeature(d);
        cluster_id = clusterer.Add(d, feature);
        auto [it, unused] = last_result.insert_or_assign(d.object_id, std::move(fresh));
        topk = &it->second;
        last_feature.insert_or_assign(d.object_id, std::move(feature));
      }
      finalizer.Touch(cluster_id);
      for (size_t pos = 0; pos < topk->entries.size(); ++pos) {
        ranks.Update(cluster_id, topk->entries[pos].first, static_cast<int32_t>(pos) + 1);
      }
    }
    if (finalizer.AtBoundary(frame)) {
      finalizer.Publish(frame + 1, clusterer, ranks, result.detections);
    }
  });
  if (sweep.aborted) {
    return common::Unavailable("stream delivery aborted mid-recording");
  }

  // IT4: finalize clusters into the top-K index, each carrying its top-K classes by
  // aggregated confidence.
  for (const cluster::Cluster& c : clusterer.clusters()) {
    index::ClusterEntry entry;
    entry.cluster_id = c.id;
    entry.representative = c.representative;
    entry.members = c.members;
    entry.size = c.size;
    ranks.Finalize(c.id, &entry);
    result.index.AddCluster(std::move(entry));
  }
  result.num_clusters = static_cast<int64_t>(result.index.num_clusters());
  result.clusterer_fast_hit_rate = clusterer.FastHitRate();
  return result;
}

IngestResult RunIngest(const video::StreamRun& run, const cnn::Cnn& ingest_cnn,
                       const IngestParams& params, const IngestOptions& options) {
  auto result = RunIngestChecked(run, ingest_cnn, params, options);
  if (!result.ok()) {
    FOCUS_LOG(kError) << "ingest failed: " << result.error().message;
    FOCUS_CHECK(result.ok());
  }
  return *std::move(result);
}

}  // namespace focus::core
