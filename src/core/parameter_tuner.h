// Per-stream parameter selection (§4.4).
//
// The tuner samples a representative window of the stream, labels it with the GT-CNN
// for ground truth, and evaluates a grid of configurations — ingest model (generic
// compressed candidates plus specialized models trained on the sample's class
// distribution), top-K width K, specialization breadth Ls, and clustering threshold
// T. It follows the paper's two-step navigation: CheapCNN_i / Ls / K are first
// screened against the recall target alone, then T values are admitted only when the
// precision target also holds. Among viable configurations it computes the Pareto
// boundary over (ingest cost, query latency) and picks per the policy:
//   kBalance    minimize ingest + query GPU time,
//   kOptIngest  cheapest-ingest Pareto point,
//   kOptQuery   fastest-query Pareto point.
#ifndef FOCUS_SRC_CORE_PARAMETER_TUNER_H_
#define FOCUS_SRC_CORE_PARAMETER_TUNER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/cnn/ground_truth.h"
#include "src/cnn/specialization.h"
#include "src/core/accuracy_evaluator.h"
#include "src/core/config.h"
#include "src/core/ingest_pipeline.h"
#include "src/core/pareto.h"

namespace focus::core {

// One evaluated configuration with its measured sample metrics.
struct EvaluatedConfig {
  IngestParams params;
  double precision = 0.0;
  double recall = 0.0;
  // Normalized to processing every sampled object with the GT-CNN (Fig. 6 axes).
  double ingest_cost_norm = 0.0;
  double query_latency_norm = 0.0;
  bool viable = false;  // Meets both accuracy targets.
};

struct TuningResult {
  std::vector<EvaluatedConfig> evaluated;   // The whole grid (Fig. 6 scatter).
  std::vector<size_t> viable_indices;       // Configs meeting both targets.
  std::vector<size_t> pareto_indices;       // Pareto boundary of the viable set.
  size_t chosen_index = 0;                  // Selected per policy.
  bool found = false;
  // Name of the fixed configuration used instead of a tuned one
  // (kQuietCameraFallback), or empty when the grid picked the configuration.
  std::string fallback;

  const EvaluatedConfig& chosen() const { return evaluated[chosen_index]; }
};

// A quiet camera's tuning sample holds no detections, so there is no grid to
// measure. Rather than refuse the stream, Tune() indexes it with this fixed
// configuration: the cheapest generic candidate model at the default K and T.
// The result's single EvaluatedConfig carries no measured accuracy.
inline constexpr char kQuietCameraFallback[] = "quiet-camera";
IngestParams QuietCameraFallbackParams(uint64_t world_seed);

struct TunerOptions {
  // Length of the sample window, seconds.
  double sample_sec = 300.0;
  // Grids.
  // K >= 2 matches the paper (specialized models use K = 2-4, paragraph 4.3) and
  // avoids the recall fragility of single-class indexing; query-time Kx=1 remains
  // available (paragraph 5).
  std::vector<int> k_grid = {2, 4, 8, 16, 32, 64, 128, 192};
  std::vector<double> threshold_grid = {0.3, 0.45, 0.6};
  std::vector<int> ls_grid = {15, 30};
  bool include_generic_models = true;
  bool include_specialized_models = true;
  // Evaluate queries for the classes covering this share of sampled objects.
  double dominant_coverage = 0.95;
  size_t max_dominant_classes = 12;
  IngestOptions ingest;
};

class ParameterTuner {
 public:
  // |catalog| and |gt_cnn| must outlive the tuner.
  ParameterTuner(const video::ClassCatalog* catalog, const cnn::Cnn* gt_cnn,
                 TunerOptions options = {});

  // Tunes on the first |options.sample_sec| seconds of |run|. |stream_variability| is
  // the stream's appearance constraint (profile value) that specialization inherits.
  // An empty grid (a sample without detections) yields the kQuietCameraFallback
  // configuration, found and marked in TuningResult::fallback.
  TuningResult Tune(const video::StreamRun& run, double stream_variability,
                    const AccuracyTarget& target, Policy policy) const;

  // The expensive half of Tune(): measures the whole configuration grid on the
  // sample, independent of any accuracy target. Combine with SelectFromEvaluated to
  // screen the same grid against several targets/policies without re-measuring
  // (used by the accuracy-sensitivity experiments, Figs. 10-11).
  std::vector<EvaluatedConfig> EvaluateGrid(const video::StreamRun& run,
                                            double stream_variability) const;

  // GPU time the tuner spent labelling the sample with the GT-CNN (distribution
  // estimation + ground truth); charged to ingest by the facade.
  common::GpuMillis last_tuning_gpu_millis() const { return last_tuning_gpu_millis_; }

  const TunerOptions& options() const { return options_; }

 private:
  // Builds the candidate models for this stream.
  std::vector<cnn::ModelDesc> CandidateModels(const cnn::ClassDistributionEstimate& distribution,
                                              double stream_variability, uint64_t seed) const;

  const video::ClassCatalog* catalog_;
  const cnn::Cnn* gt_cnn_;
  TunerOptions options_;
  mutable common::GpuMillis last_tuning_gpu_millis_ = 0.0;
};

// Picks the chosen index among |pareto| per |policy| (Balance = min ingest+query).
size_t ChooseByPolicy(const std::vector<EvaluatedConfig>& evaluated,
                      const std::vector<size_t>& pareto, Policy policy);

// The cheap half of Tune(): applies the accuracy targets to a measured grid, builds
// the Pareto boundary over the viable set, and picks the configuration per |policy|.
// Falls back to the closest-to-viable configuration when nothing meets the targets.
TuningResult SelectFromEvaluated(std::vector<EvaluatedConfig> evaluated,
                                 const AccuracyTarget& target, Policy policy);

}  // namespace focus::core

#endif  // FOCUS_SRC_CORE_PARAMETER_TUNER_H_
