// Integration tests for multi-camera fleets (src/core/fleet.h) and incremental
// query sessions (src/core/query_session.h). Built as a single-process suite: the
// fixture constructs a two-camera fleet once and every case queries it.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "src/cnn/ground_truth.h"
#include "src/core/fleet.h"
#include "src/core/query_session.h"
#include "src/video/stream_generator.h"

namespace focus::core {
namespace {

constexpr double kDurationSec = 240.0;
constexpr double kFps = 30.0;

class FleetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new video::ClassCatalog(11);
    fleet_ = new FocusFleet();
    FocusOptions options;
    video::StreamProfile profile;
    ASSERT_TRUE(video::FindProfile("auburn_c", &profile));
    ASSERT_TRUE(fleet_->AddCamera("north", catalog_, profile, kDurationSec, kFps, 101, options)
                    .ok());
    ASSERT_TRUE(video::FindProfile("jacksonh", &profile));
    ASSERT_TRUE(fleet_->AddCamera("south", catalog_, profile, kDurationSec, kFps, 202, options)
                    .ok());

    // A class guaranteed queryable on "north": its most dominant GT class.
    const FocusStream* north = fleet_->Find("north");
    ASSERT_NE(north, nullptr);
    truth_ = new cnn::SegmentGroundTruth(north->run(), north->gt_cnn());
    auto dominant = truth_->DominantClasses(0.95, 3);
    ASSERT_FALSE(dominant.empty());
    dominant_class_ = dominant[0];
  }

  static void TearDownTestSuite() {
    delete truth_;
    delete fleet_;
    delete catalog_;
    truth_ = nullptr;
    fleet_ = nullptr;
    catalog_ = nullptr;
  }

  static video::ClassCatalog* catalog_;
  static FocusFleet* fleet_;
  static cnn::SegmentGroundTruth* truth_;
  static common::ClassId dominant_class_;
};

video::ClassCatalog* FleetTest::catalog_ = nullptr;
FocusFleet* FleetTest::fleet_ = nullptr;
cnn::SegmentGroundTruth* FleetTest::truth_ = nullptr;
common::ClassId FleetTest::dominant_class_ = common::kInvalidClass;

// A quiet camera has no detections in its tuning sample, so there is no
// grid to measure: it is indexed with the fixed fallback configuration
// instead of being refused, and answers every query with nothing, for free.
TEST(QuietCameraTest, BuildsWithTheFallbackAndAnswersEmpty) {
  video::ClassCatalog catalog(11);
  video::StreamProfile profile;
  ASSERT_TRUE(video::FindProfile("church_st", &profile));
  profile.peak_arrival_rate_per_sec = 0.0;
  FocusOptions options;
  options.tuner.sample_sec = 30.0;

  video::StreamRun run(&catalog, profile, 60.0, kFps, 7);
  auto built = FocusStream::Build(&run, &catalog, options);
  ASSERT_TRUE(built.ok()) << built.error().message;
  const TuningResult& tuning = (*built)->tuning();
  EXPECT_TRUE(tuning.found);
  EXPECT_EQ(tuning.fallback, kQuietCameraFallback);
  EXPECT_EQ(tuning.chosen().params.model.name,
            QuietCameraFallbackParams(catalog.world_seed()).model.name);
  for (common::ClassId cls : {0, 7, 42}) {
    const QueryResult r = (*built)->Query(cls);
    EXPECT_EQ(r.frames_returned, 0);
    EXPECT_TRUE(r.frame_runs.empty());
    EXPECT_EQ(r.gpu_millis, 0.0);
  }

  FocusFleet fleet;
  ASSERT_TRUE(fleet.AddCamera("quiet", &catalog, profile, 60.0, kFps, 7, options).ok());
  auto answer = fleet.Query(7);
  ASSERT_TRUE(answer.ok()) << answer.error().message;
  EXPECT_EQ(answer->total_frames, 0);
  EXPECT_EQ(answer->total_gpu_millis, 0.0);
}

TEST_F(FleetTest, RegistrationOrderAndLookup) {
  EXPECT_EQ(fleet_->size(), 2u);
  EXPECT_EQ(fleet_->CameraNames(), (std::vector<std::string>{"north", "south"}));
  EXPECT_NE(fleet_->Find("north"), nullptr);
  EXPECT_NE(fleet_->Find("south"), nullptr);
  EXPECT_EQ(fleet_->Find("missing"), nullptr);
}

TEST_F(FleetTest, DuplicateCameraNameRejected) {
  FocusOptions options;
  video::StreamProfile profile;
  ASSERT_TRUE(video::FindProfile("auburn_c", &profile));
  auto result = fleet_->AddCamera("north", catalog_, profile, 30.0, kFps, 9, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, common::ErrorCode::kInvalidArgument);
}

TEST_F(FleetTest, QueryAllCamerasAggregates) {
  auto result = fleet_->Query(dominant_class_);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->hits.size(), 2u);
  int64_t frames = 0;
  int64_t centroids = 0;
  common::GpuMillis gpu = 0;
  for (const CameraHits& h : result->hits) {
    frames += h.result.frames_returned;
    centroids += h.result.centroids_classified;
    gpu += h.result.gpu_millis;
  }
  EXPECT_EQ(result->total_frames, frames);
  EXPECT_EQ(result->total_centroids_classified, centroids);
  EXPECT_DOUBLE_EQ(result->total_gpu_millis, gpu);
  EXPECT_GT(result->total_frames, 0);
}

TEST_F(FleetTest, QuerySubsetTouchesOnlySelectedCameras) {
  auto result = fleet_->Query(dominant_class_, {"north"});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->hits.size(), 1u);
  EXPECT_EQ(result->hits[0].camera, "north");

  auto both = fleet_->Query(dominant_class_);
  ASSERT_TRUE(both.ok());
  // The single-camera query matches the same camera's slice of the full query.
  EXPECT_EQ(result->hits[0].result.frames_returned, both->hits[0].result.frames_returned);
}

TEST_F(FleetTest, UnknownCameraIsNotFound) {
  auto result = fleet_->Query(dominant_class_, {"north", "nope"});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, common::ErrorCode::kNotFound);
}

TEST_F(FleetTest, TimeRangeRestrictsFramesOnEveryCamera) {
  common::TimeRange window{.begin_sec = 60.0, .end_sec = 120.0};
  auto windowed = fleet_->Query(dominant_class_, {}, window);
  auto full = fleet_->Query(dominant_class_);
  ASSERT_TRUE(windowed.ok());
  ASSERT_TRUE(full.ok());
  EXPECT_LE(windowed->total_frames, full->total_frames);
  for (const CameraHits& h : windowed->hits) {
    for (const auto& [first, last] : h.result.frame_runs) {
      EXPECT_GE(static_cast<double>(first) / kFps, window.begin_sec);
      EXPECT_LT(static_cast<double>(last) / kFps, window.end_sec);
    }
  }
}

TEST_F(FleetTest, CamerasWithHitsFiltersEmptyResults) {
  auto result = fleet_->Query(dominant_class_);
  ASSERT_TRUE(result.ok());
  std::vector<std::string> with_hits = result->CamerasWithHits();
  for (const std::string& name : with_hits) {
    bool found = false;
    for (const CameraHits& h : result->hits) {
      if (h.camera == name) {
        EXPECT_GT(h.result.frames_returned, 0);
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST_F(FleetTest, TotalIngestCostSumsCameras) {
  common::GpuMillis total = fleet_->TotalIngestGpuMillis();
  common::GpuMillis expected = fleet_->Find("north")->total_ingest_gpu_millis() +
                               fleet_->Find("south")->total_ingest_gpu_millis();
  EXPECT_DOUBLE_EQ(total, expected);
  EXPECT_GT(total, 0.0);
}

// --- QuerySession (§5 dynamic Kx) ---

class QuerySessionTest : public FleetTest {
 protected:
  static const FocusStream& North() { return *fleet_->Find("north"); }

  static QuerySession MakeSession() {
    const FocusStream& north = North();
    // Session over the stream's own index and models.
    return QuerySession(&north.ingest().index, &north.ingest_cnn(), &north.gt_cnn(),
                        dominant_class_, {}, kFps);
  }

  static int IndexK() { return North().chosen_params().k; }
};

TEST_F(QuerySessionTest, ExpandingToFullKMatchesOneShotQuery) {
  QuerySession session = MakeSession();
  session.ExpandTo(IndexK());
  QueryResult one_shot = North().Query(dominant_class_);
  EXPECT_EQ(session.total_frames(), one_shot.frames_returned);
  EXPECT_EQ(session.total_centroids_classified(), one_shot.centroids_classified);
  EXPECT_DOUBLE_EQ(session.total_gpu_millis(), one_shot.gpu_millis);
  EXPECT_EQ(session.frame_runs(), one_shot.frame_runs);
}

TEST_F(QuerySessionTest, IncrementalExpansionCostsNoMoreThanOneShot) {
  QuerySession incremental = MakeSession();
  for (int kx = 1; kx <= IndexK(); ++kx) {
    incremental.ExpandTo(kx);
  }
  QueryResult one_shot = North().Query(dominant_class_);
  // Centroids are never re-classified, so the total cost through any expansion
  // sequence equals the one-shot cost at K.
  EXPECT_EQ(incremental.total_centroids_classified(), one_shot.centroids_classified);
  EXPECT_DOUBLE_EQ(incremental.total_gpu_millis(), one_shot.gpu_millis);
  EXPECT_EQ(incremental.total_frames(), one_shot.frames_returned);
}

TEST_F(QuerySessionTest, BatchesAreDisjoint) {
  QuerySession session = MakeSession();
  std::set<common::FrameIndex> seen;
  for (int kx = 1; kx <= IndexK(); ++kx) {
    QueryBatch batch = session.ExpandTo(kx);
    for (const auto& [first, last] : batch.new_frame_runs) {
      for (common::FrameIndex f = first; f <= last; ++f) {
        EXPECT_TRUE(seen.insert(f).second) << "frame " << f << " returned twice";
      }
    }
  }
  EXPECT_EQ(static_cast<int64_t>(seen.size()), session.total_frames());
}

TEST_F(QuerySessionTest, LowKxReturnsSomethingQuickly) {
  QuerySession session = MakeSession();
  QueryBatch first = session.ExpandTo(1);
  QueryResult full = North().Query(dominant_class_);
  // Kx=1 pays for at most the full candidate set and usually much less.
  EXPECT_LE(first.centroids_classified, full.centroids_classified);
  // For a dominant class the top-1 index already finds most frames.
  EXPECT_GT(first.new_frames, 0);
}

TEST_F(QuerySessionTest, NonMonotonicExpandIsEmptyNoop) {
  QuerySession session = MakeSession();
  session.ExpandTo(2);
  int64_t centroids = session.total_centroids_classified();
  QueryBatch repeat = session.ExpandTo(2);
  EXPECT_EQ(repeat.new_frames, 0);
  EXPECT_EQ(repeat.centroids_classified, 0);
  QueryBatch lower = session.ExpandTo(1);
  EXPECT_EQ(lower.new_frames, 0);
  EXPECT_EQ(session.total_centroids_classified(), centroids);
}

TEST_F(QuerySessionTest, TimeRangeRestrictsSessionBatches) {
  const FocusStream& north = North();
  common::TimeRange window{.begin_sec = 0.0, .end_sec = 60.0};
  QuerySession session(&north.ingest().index, &north.ingest_cnn(), &north.gt_cnn(),
                       dominant_class_, window, kFps);
  session.ExpandTo(IndexK());
  for (const auto& [first, last] : session.frame_runs()) {
    EXPECT_LT(static_cast<double>(last) / kFps, window.end_sec);
  }
  QueryResult windowed = north.Query(dominant_class_, -1, window);
  EXPECT_EQ(session.total_frames(), windowed.frames_returned);
}

}  // namespace
}  // namespace focus::core
