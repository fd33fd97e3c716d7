// Fleet-scale serving (src/runtime/fleet_query_service.h, docs/fleet_serving.md):
// federated fan-out cost and latency vs fleet size, cold vs warm verdict cache.
//
// A region-wide investigation ("which cameras saw a truck?") fans one query out
// across the whole fleet. Executed per camera sequentially, every camera pays
// its own GT-CNN launches; the persistent service pools the per-camera work
// items into shared cost-aware launches (one model architecture per launch,
// heaviest first onto the least-loaded GPU) and answers repeats from the global
// verdict cache. This bench tracks, per fleet size (8 / 32 / 128 cameras):
//
//   - sequential_gpu_millis: the per-centroid cost of the sequential oracle,
//   - packed_gpu_millis: what the packed cold-cache execution actually charged,
//   - saving: 1 - packed/sequential (guardrail: >= 15% on the 32-camera row),
//   - cold/warm virtual latency and the warm execution's extra GPU time
//     (acceptance: a fully warm repeat pays zero),
//
// and verifies every packed/cached result stays byte-identical to the
// sequential oracle (`identical` flags, gated by check_bench_regression.py).
//
// Emits BENCH_fleet_serving.json next to the binary. Per-camera durations
// shrink as the fleet grows (the tracked quantities are ratios and stay
// duration-stable); FOCUS_BENCH_SEED varies the world.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/cnn/ground_truth.h"
#include "src/core/fleet.h"
#include "src/runtime/fleet_query_service.h"
#include "src/video/stream_profile.h"

namespace {

using focus::bench::BenchConfig;
using focus::bench::ConfigFromEnv;
using focus::core::FederatedPlan;
using focus::core::FleetQueryResult;
using focus::core::FocusFleet;
using focus::core::FocusOptions;
using focus::runtime::FederatedExecution;
using focus::runtime::FleetQueryService;
using focus::runtime::FleetServiceStats;

const char* const kProfiles[] = {
    "auburn_c", "auburn_r", "bend",     "church_st", "city_a_d", "city_a_r", "cnn",
    "foxnews",  "jacksonh", "lausanne", "msnbc",     "oxford",   "sittard",
};

struct FleetRow {
  int cameras = 0;
  double duration_sec = 0.0;
  long long work_items = 0;
  double sequential_gpu_millis = 0.0;
  double packed_gpu_millis = 0.0;
  double saving = 0.0;
  long long launches = 0;
  double cold_latency_millis = 0.0;
  double warm_latency_millis = 0.0;
  double warm_extra_gpu_millis = 0.0;
  double cache_hit_rate = 0.0;
  bool identical = true;
};

bool SameFleetResult(const FleetQueryResult& a, const FleetQueryResult& b) {
  if (a.queried != b.queried || a.total_frames != b.total_frames ||
      a.total_centroids_classified != b.total_centroids_classified ||
      a.total_gpu_millis != b.total_gpu_millis || a.hits.size() != b.hits.size()) {
    return false;
  }
  for (size_t i = 0; i < a.hits.size(); ++i) {
    if (a.hits[i].camera != b.hits[i].camera ||
        a.hits[i].result.frame_runs != b.hits[i].result.frame_runs ||
        a.hits[i].result.frames_returned != b.hits[i].result.frames_returned ||
        a.hits[i].result.clusters_matched != b.hits[i].result.clusters_matched ||
        a.hits[i].result.centroids_classified != b.hits[i].result.centroids_classified ||
        a.hits[i].result.gpu_millis != b.hits[i].result.gpu_millis) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  const BenchConfig config = ConfigFromEnv();
  const focus::video::ClassCatalog catalog(config.world_seed);

  // Per-camera duration shrinks as the fleet grows: the row cost stays
  // tractable and the tracked quantities are ratios over the same plan.
  const struct {
    int cameras;
    double duration_sec;
  } sizes[] = {{8, 90.0}, {32, 45.0}, {128, 20.0}};
  constexpr int kGuardrailCameras = 32;  // The acceptance row.

  std::printf("federated fleet serving: packed/cached vs per-camera sequential\n");
  std::printf("%8s %8s %6s %14s %12s %8s %10s %12s %12s %10s\n", "cameras", "dur_s",
              "work", "seq_gpu_ms", "packed_ms", "saving", "launches", "cold_lat_ms",
              "warm_lat_ms", "identical");

  std::vector<FleetRow> rows;
  bool all_identical = true;
  bool guardrail_ok = true;
  for (const auto& size : sizes) {
    FocusFleet fleet;
    FocusOptions options;
    // Deterministic fill: cycle (profile, seed) combos, skipping the rare
    // combos whose tuning sample holds no detections (they would index with
    // the quiet-camera fallback and answer nothing), until the fleet is full.
    int added = 0;
    for (int attempt = 0; added < size.cameras && attempt < 4 * size.cameras; ++attempt) {
      focus::video::StreamProfile profile;
      if (!focus::video::FindProfile(kProfiles[attempt % std::size(kProfiles)], &profile)) {
        std::fprintf(stderr, "missing stream profile\n");
        return 1;
      }
      auto run = std::make_unique<focus::video::StreamRun>(
          &catalog, profile, size.duration_sec, config.fps,
          config.stream_seed_base + static_cast<uint64_t>(attempt));
      auto stream = focus::core::FocusStream::Build(run.get(), &catalog, options);
      if (!stream.ok() || !(*stream)->tuning().fallback.empty()) {
        continue;
      }
      if (fleet.AdoptCamera("cam" + std::to_string(added), std::move(run), std::move(*stream))
              .ok()) {
        ++added;
      }
    }
    if (added < size.cameras) {
      std::fprintf(stderr, "only %d of %d cameras tuned\n", added, size.cameras);
      return 1;
    }

    // The fleet-wide investigation class: among the dominant GT classes of the
    // first cameras, the one with the widest federated fan-out.
    focus::common::ClassId queried = focus::common::kInvalidClass;
    long long widest = 0;
    for (int i = 0; i < 4; ++i) {
      const auto* stream = fleet.Find("cam" + std::to_string(i));
      focus::cnn::SegmentGroundTruth truth(stream->run(), stream->gt_cnn());
      for (focus::common::ClassId cls : truth.DominantClasses(0.95, 3)) {
        auto candidate = fleet.PlanFederated(cls);
        if (candidate.ok() && candidate->TotalWorkItems() > widest) {
          widest = candidate->TotalWorkItems();
          queried = cls;
        }
      }
    }
    if (widest == 0) {
      std::fprintf(stderr, "no queryable class fans out across the fleet\n");
      return 1;
    }
    auto plan_or = fleet.PlanFederated(queried);
    if (!plan_or.ok()) {
      std::fprintf(stderr, "PlanFederated failed: %s\n", plan_or.error().message.c_str());
      return 1;
    }
    const FederatedPlan& plan = *plan_or;
    const FleetQueryResult sequential = fleet.ExecuteFederatedSequential(plan);

    FleetQueryService service;
    const FederatedExecution cold = service.ExecuteFederated(plan);
    const FleetServiceStats cold_stats = service.stats();
    const FederatedExecution warm = service.ExecuteFederated(plan);
    const FleetServiceStats warm_stats = service.stats();

    FleetRow row;
    row.cameras = size.cameras;
    row.duration_sec = size.duration_sec;
    row.work_items = plan.TotalWorkItems();
    row.sequential_gpu_millis = sequential.total_gpu_millis;
    row.packed_gpu_millis = cold_stats.gpu_millis;
    row.saving = row.sequential_gpu_millis > 0.0
                     ? 1.0 - row.packed_gpu_millis / row.sequential_gpu_millis
                     : 0.0;
    row.launches = cold_stats.launches;
    row.cold_latency_millis = cold.latency_millis();
    row.warm_latency_millis = warm.latency_millis();
    row.warm_extra_gpu_millis = warm_stats.gpu_millis - cold_stats.gpu_millis;
    row.cache_hit_rate = warm_stats.CacheHitRate();
    row.identical = !cold.error.has_value() && !warm.error.has_value() &&
                    SameFleetResult(cold.result, sequential) &&
                    SameFleetResult(warm.result, sequential) &&
                    row.warm_extra_gpu_millis == 0.0;
    all_identical = all_identical && row.identical;
    if (row.cameras == kGuardrailCameras && row.saving < 0.15) {
      guardrail_ok = false;
    }

    std::printf("%8d %8.0f %6lld %14.1f %12.1f %7.1f%% %10lld %12.1f %12.1f %10s\n",
                row.cameras, row.duration_sec, row.work_items, row.sequential_gpu_millis,
                row.packed_gpu_millis, 100.0 * row.saving, row.launches,
                row.cold_latency_millis, row.warm_latency_millis,
                row.identical ? "yes" : "NO");
    rows.push_back(row);
  }

  FILE* f = std::fopen("BENCH_fleet_serving.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"bench\": \"fleet_serving\",\n  \"fleets\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const FleetRow& r = rows[i];
      std::fprintf(
          f,
          "    {\"cameras\": %d, \"duration_sec\": %.0f, \"work_items\": %lld, "
          "\"sequential_gpu_millis\": %.1f, \"packed_gpu_millis\": %.1f, "
          "\"saving\": %.4f, \"launches\": %lld, \"cold_latency_millis\": %.1f, "
          "\"warm_latency_millis\": %.1f, \"warm_extra_gpu_millis\": %.1f, "
          "\"cache_hit_rate\": %.4f, \"identical\": %s}%s\n",
          r.cameras, r.duration_sec, r.work_items, r.sequential_gpu_millis,
          r.packed_gpu_millis, r.saving, r.launches, r.cold_latency_millis,
          r.warm_latency_millis, r.warm_extra_gpu_millis, r.cache_hit_rate,
          r.identical ? "true" : "false", i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote BENCH_fleet_serving.json\n");
  }

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: packed/cached execution diverges from the sequential oracle\n");
    return 1;
  }
  if (!guardrail_ok) {
    std::fprintf(stderr, "FAIL: packed launches saved < 15%% on the %d-camera row\n",
                 kGuardrailCameras);
    return 1;
  }
  return 0;
}
