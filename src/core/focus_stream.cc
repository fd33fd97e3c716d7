#include "src/core/focus_stream.h"

#include "src/common/logging.h"

namespace focus::core {

common::Result<std::unique_ptr<FocusStream>> FocusStream::Build(
    const video::StreamRun* run, const video::ClassCatalog* catalog,
    const FocusOptions& options) {
  if (run == nullptr || catalog == nullptr) {
    return common::InvalidArgument("run and catalog must be non-null");
  }
  std::unique_ptr<FocusStream> focus(new FocusStream());
  focus->run_ = run;
  focus->catalog_ = catalog;
  focus->gt_cnn_ =
      std::make_unique<cnn::Cnn>(cnn::GtCnnDesc(catalog->world_seed()), catalog);

  ParameterTuner tuner(catalog, focus->gt_cnn_.get(), options.tuner);
  focus->tuning_ = tuner.Tune(*run, run->profile().appearance_variability, options.target,
                              options.policy);
  focus->tuning_gpu_millis_ = tuner.last_tuning_gpu_millis();
  if (!focus->tuning_.found) {
    return common::FailedPrecondition("tuning produced no usable configuration for " +
                                      run->profile().name);
  }
  const IngestParams& params = focus->tuning_.chosen().params;
  FOCUS_LOG(kInfo) << "focus[" << run->profile().name << "]: chose model "
                   << params.model.name << " K=" << params.k
                   << " T=" << params.cluster_threshold << " ("
                   << (focus->tuning_.fallback.empty() ? PolicyName(options.policy)
                                                       : focus->tuning_.fallback)
                   << ")";

  focus->ingest_cnn_ = std::make_unique<cnn::Cnn>(params.model, catalog);
  focus->ingest_ = RunIngest(*run, *focus->ingest_cnn_, params, options.ingest);
  focus->engine_ = std::make_unique<QueryEngine>(&focus->ingest_.index,
                                                 focus->ingest_cnn_.get(), focus->gt_cnn_.get());
  return focus;
}

QueryResult FocusStream::Query(common::ClassId cls, int kx, common::TimeRange range) const {
  return engine_->Query(cls, kx, range, run_->fps());
}

QueryPlan FocusStream::Plan(common::ClassId cls, int kx, common::TimeRange range) const {
  return engine_->Plan(cls, kx, range, run_->fps());
}

QueryResult FocusStream::Resolve(const QueryPlan& plan,
                                 std::span<const common::ClassId> verdicts) const {
  return engine_->Resolve(plan, verdicts);
}

}  // namespace focus::core
