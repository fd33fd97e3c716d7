// Checkpoint record reuse never changes a byte: every checkpoint splices the
// cluster records unchanged since the previous one back from that checkpoint's
// bytes, and what it writes must equal a cold re-encode of the same state
// (every record encoded afresh). Checked at every checkpoint of
//   - a persistent 2-shard RunIngestResumable (boundary merge and periodic
//     merge), across a crash_after_frames crash and resume, where the first
//     checkpoint after recovery runs cold;
//   - a 1-shard IncrementalClusterer with a small max_active, so clusters
//     retire between checkpoints, again across a crash and recovery.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/cluster/incremental_clusterer.h"
#include "src/cluster/sharded_clusterer.h"
#include "src/cnn/model_zoo.h"
#include "src/common/feature_vector.h"
#include "src/common/rng.h"
#include "src/core/ingest_pipeline.h"
#include "src/storage/serializer.h"
#include "src/storage/snapshot_store.h"
#include "src/video/stream_generator.h"

namespace focus {
namespace {

namespace fs = std::filesystem;

class CheckpointReuseTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new video::ClassCatalog(17);
    video::StreamProfile profile;
    ASSERT_TRUE(video::FindProfile("auburn_c", &profile));
    run_ = new video::StreamRun(catalog_, profile, 90.0, 30.0, 3);
  }
  static void TearDownTestSuite() {
    delete run_;
    delete catalog_;
    run_ = nullptr;
    catalog_ = nullptr;
  }

  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("checkpoint_reuse_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Dir(const std::string& name) const { return (dir_ / name).string(); }

  static core::IngestParams Params() {
    core::IngestParams params;
    params.model = cnn::GenericCheapCandidates(5)[1];
    params.k = 3;
    params.cluster_threshold = 0.6;
    return params;
  }

  // Persistent 2-shard options with a small active cap (clusters retire
  // between checkpoints) and a tight checkpoint cadence.
  core::IngestOptions ShardedOptions(const std::string& dir, bool boundary_merge) const {
    core::IngestOptions opts;
    opts.persist_dir = dir;
    opts.num_shards = 2;
    opts.max_active_clusters = 32;
    opts.checkpoint_every_frames = 48;
    opts.arena_fsync = storage::FsyncOptions::Never();
    if (boundary_merge) {
      opts.incremental_boundary_merge = true;
      opts.finalize_every_frames = 120;
      opts.snapshot_sink = [](std::shared_ptr<const core::LiveSnapshot>) {};
    } else {
      opts.shard_merge_interval = 64;
    }
    return opts;
  }

  // Installs an observer comparing every committed sharded.meta with a cold
  // re-encode of the live state, counting checkpoints in |*checkpoints|.
  static void CompareEveryCheckpoint(core::IngestOptions& opts, int* checkpoints) {
    const std::string meta_path = opts.persist_dir + "/sharded.meta";
    opts.checkpoint_observer = [meta_path, checkpoints](const cluster::ShardedClusterer& c,
                                                        int64_t position,
                                                        std::string_view user_state) {
      auto written = storage::ReadFile(meta_path);
      ASSERT_TRUE(written.ok());
      EXPECT_EQ(*written, c.EncodeMeta(position, user_state))
          << "checkpoint " << *checkpoints << " at position " << position;
      ++*checkpoints;
    };
  }

  static video::ClassCatalog* catalog_;
  static video::StreamRun* run_;
  fs::path dir_;
};

video::ClassCatalog* CheckpointReuseTest::catalog_ = nullptr;
video::StreamRun* CheckpointReuseTest::run_ = nullptr;

TEST_F(CheckpointReuseTest, ShardedIngestWritesColdBytesAtEveryCheckpoint) {
  cnn::Cnn cheap(Params().model, catalog_);
  for (bool boundary_merge : {true, false}) {
    SCOPED_TRACE(boundary_merge ? "boundary merge" : "periodic merge");
    core::IngestOptions opts =
        ShardedOptions(Dir(boundary_merge ? "boundary" : "periodic"), boundary_merge);
    int checkpoints = 0;
    CompareEveryCheckpoint(opts, &checkpoints);
    auto result = core::RunIngestResumableChecked(*run_, cheap, Params(), opts);
    ASSERT_TRUE(result.ok()) << result.error().message;
    // Every periodic checkpoint plus the seal.
    EXPECT_EQ(checkpoints, run_->num_frames() / opts.checkpoint_every_frames + 1);
    EXPECT_GT(result->num_clusters, static_cast<int64_t>(2 * opts.max_active_clusters))
        << "the stream must retire clusters for the reuse to see retirements";
  }
}

TEST_F(CheckpointReuseTest, ShardedIngestWritesColdBytesAcrossCrashAndResume) {
  cnn::Cnn cheap(Params().model, catalog_);
  core::IngestOptions opts = ShardedOptions(Dir("crash"), /*boundary_merge=*/true);
  int checkpoints = 0;
  CompareEveryCheckpoint(opts, &checkpoints);
  // Crash mid-window, past several checkpoints.
  opts.crash_after_frames = run_->num_frames() / 2 + opts.checkpoint_every_frames / 2;
  auto crashed = core::RunIngestResumableChecked(*run_, cheap, Params(), opts);
  ASSERT_TRUE(crashed.ok()) << crashed.error().message;
  const int before_crash = checkpoints;
  EXPECT_GE(before_crash, 2);

  // The resumed run's first checkpoint re-encodes every record (the reuse
  // starts cold after recovery); later ones reuse again.
  opts.crash_after_frames = -1;
  auto resumed = core::RunIngestResumableChecked(*run_, cheap, Params(), opts);
  ASSERT_TRUE(resumed.ok()) << resumed.error().message;
  EXPECT_GT(resumed->resumed_from_frame, 0);
  EXPECT_GE(checkpoints - before_crash, 3);

  // The resumed run still equals an uninterrupted one.
  core::IngestOptions plain = ShardedOptions(Dir("plain"), /*boundary_merge=*/true);
  auto uninterrupted = core::RunIngestResumableChecked(*run_, cheap, Params(), plain);
  ASSERT_TRUE(uninterrupted.ok());
  ASSERT_EQ(resumed->index.num_clusters(), uninterrupted->index.num_clusters());
  for (size_t i = 0; i < resumed->index.num_clusters(); ++i) {
    EXPECT_EQ(resumed->index.clusters()[i].size, uninterrupted->index.clusters()[i].size);
    EXPECT_EQ(resumed->index.clusters()[i].topk_classes,
              uninterrupted->index.clusters()[i].topk_classes);
  }
}

// Single-clusterer path: a synthetic stream of noisy archetype observations
// with object locality, so joins, suppressed joins, creations and
// retirements all land between checkpoints.
struct Observation {
  video::Detection detection;
  common::FeatureVec feature;
  bool suppressed = false;
};

std::vector<Observation> MakeObservations(size_t n, size_t dim, size_t num_objects,
                                          size_t num_archetypes, uint64_t seed) {
  common::Pcg32 rng(seed);
  std::vector<common::FeatureVec> archetypes;
  for (size_t a = 0; a < num_archetypes; ++a) {
    archetypes.push_back(common::RandomUnitVector(dim, rng));
  }
  std::vector<Observation> out(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t object = (i * 7 + i / 97) % num_objects;
    out[i].detection.object_id = static_cast<common::ObjectId>(object);
    out[i].detection.frame = static_cast<common::FrameIndex>(i / 4);
    out[i].detection.appearance = archetypes[object % num_archetypes];
    out[i].feature = common::PerturbedUnitVector(archetypes[object % num_archetypes], 0.2, rng);
    out[i].suppressed = i >= num_objects && (i % 5) == 0;
  }
  return out;
}

// The bookkeeping blob inside a <stem>.meta file.
std::string BookkeepingOf(const std::string& meta_path) {
  auto blob = storage::ReadFile(meta_path);
  EXPECT_TRUE(blob.ok());
  storage::Decoder dec(*blob);
  uint32_t version = 0;
  uint64_t generation = 0;
  int64_t position = 0;
  std::string user_state;
  std::string bookkeeping;
  EXPECT_TRUE(dec.GetU32(&version) && dec.GetU64(&generation) &&
              dec.GetSignedVarint(&position) && dec.GetString(&user_state) &&
              dec.GetString(&bookkeeping));
  return bookkeeping;
}

TEST_F(CheckpointReuseTest, RetiringClustererWritesColdBytesAcrossCrashAndRecovery) {
  const std::vector<Observation> stream = MakeObservations(6000, 16, 90, 60, 29);
  cluster::ClustererOptions options;
  options.threshold = 0.5;
  options.max_active = 12;
  options.mode = cluster::ClustererOptions::Mode::kFast;
  options.lru_probes = 6;
  options.arena_fsync = storage::FsyncOptions::Never();
  const std::string dir = Dir("single");
  const std::string meta_path = dir + "/c.meta";
  constexpr size_t kEvery = 150;
  const size_t crash_at = 3100;  // Mid-window: the tail since the last checkpoint is lost.

  auto feed = [&](cluster::IncrementalClusterer& c, size_t i) {
    return stream[i].suppressed ? c.AddSuppressed(stream[i].detection, stream[i].feature)
                                : c.Add(stream[i].detection, stream[i].feature);
  };
  auto checkpoint = [&](cluster::IncrementalClusterer& c, size_t next) {
    ASSERT_TRUE(c.Checkpoint(static_cast<int64_t>(next)).ok());
    EXPECT_EQ(BookkeepingOf(meta_path), c.EncodeBookkeeping()) << "checkpoint at " << next;
  };

  {
    cluster::IncrementalClusterer c(options);
    auto recovery = c.OpenOrRecover(dir, "c");
    ASSERT_TRUE(recovery.ok());
    ASSERT_FALSE(recovery->recovered);
    for (size_t i = 0; i < crash_at; ++i) {
      feed(c, i);
      if ((i + 1) % kEvery == 0) {
        checkpoint(c, i + 1);
      }
    }
    EXPECT_GT(c.num_clusters(), 4 * options.max_active) << "clusters must retire";
  }
  cluster::IncrementalClusterer c(options);
  auto recovery = c.OpenOrRecover(dir, "c");
  ASSERT_TRUE(recovery.ok());
  ASSERT_TRUE(recovery->recovered);
  const auto resume = static_cast<size_t>(recovery->position);
  EXPECT_EQ(resume, crash_at / kEvery * kEvery);
  // The first checkpoint after recovery encodes every record afresh; the ones
  // after it reuse again.
  for (size_t i = resume; i < stream.size(); ++i) {
    feed(c, i);
    if ((i + 1) % kEvery == 0) {
      checkpoint(c, i + 1);
    }
  }
  checkpoint(c, stream.size());
  // A checkpoint with nothing changed since reuses every record.
  checkpoint(c, stream.size());
}

}  // namespace
}  // namespace focus
