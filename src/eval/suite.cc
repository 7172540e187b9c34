#include "eval/suite.h"

#include "baselines/content_based.h"
#include "baselines/knn.h"
#include "baselines/popularity.h"
#include "core/hybrid.h"
#include "core/strategy.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace goalrec::eval {

Suite::Suite(const data::Dataset* dataset,
             std::vector<model::Activity> training_activities,
             SuiteOptions options)
    : dataset_(dataset) {
  GOALREC_CHECK(dataset_ != nullptr);
  library_ = &dataset_->library;
  Init(std::move(training_activities), options);
}

Suite::Suite(std::shared_ptr<const model::LibrarySnapshot> snapshot,
             std::vector<model::Activity> training_activities,
             SuiteOptions options)
    : snapshot_(std::move(snapshot)) {
  GOALREC_CHECK(snapshot_ != nullptr);
  library_ = &snapshot_->library;
  // No dataset_, so Init skips the methods that need a feature table.
  Init(std::move(training_activities), options);
}

void Suite::Init(std::vector<model::Activity> training_activities,
                 const SuiteOptions& options) {
  const model::ImplementationLibrary& library = *library_;

  bool needs_interactions = options.include_cf_knn || options.include_cf_mf ||
                            options.include_popularity;
  if (needs_interactions) {
    interactions_ = std::make_unique<baselines::InteractionData>(
        std::move(training_activities), library.num_actions());
  }

  for (const core::StrategyInfo& info : core::kStrategies) {
    recommenders_.push_back(core::MakeStrategy(library, info.strategy));
  }
  if (options.include_cf_knn) {
    recommenders_.push_back(
        std::make_unique<baselines::KnnRecommender>(interactions_.get()));
  }
  if (options.include_cf_mf) {
    recommenders_.push_back(std::make_unique<baselines::AlsRecommender>(
        interactions_.get(), options.als));
  }
  bool has_features = dataset_ != nullptr && !dataset_->features.empty();
  if (options.include_content && has_features) {
    recommenders_.push_back(std::make_unique<baselines::ContentRecommender>(
        &dataset_->features));
  }
  if (options.include_popularity) {
    recommenders_.push_back(std::make_unique<baselines::PopularityRecommender>(
        interactions_.get()));
  }
  if (options.include_hybrid && has_features) {
    wrapper_base_ = core::MakeStrategy(library, core::Strategy::kBreadth);
    recommenders_.push_back(std::make_unique<core::HybridRecommender>(
        wrapper_base_.get(), &dataset_->features));
  }
}

const core::Recommender& Suite::recommender(size_t i) const {
  GOALREC_CHECK_LT(i, recommenders_.size());
  return *recommenders_[i];
}

std::vector<std::string> Suite::names() const {
  std::vector<std::string> names;
  names.reserve(recommenders_.size());
  for (const auto& r : recommenders_) names.push_back(r->name());
  return names;
}

std::vector<MethodResult> Suite::RunAll(
    const std::vector<model::Activity>& inputs, size_t k,
    size_t num_threads) const {
  std::vector<MethodResult> results(recommenders_.size());
  for (size_t m = 0; m < recommenders_.size(); ++m) {
    results[m].name = recommenders_[m]->name();
    results[m].lists.resize(inputs.size());
  }
  util::ParallelFor(
      inputs.size(),
      [&](size_t u) {
        // One leased workspace per cart, shared by every method in turn:
        // each kernel starts its own epoch-stamped passes, so nothing from
        // the previous method leaks into the next, and a worker thread
        // keeps reusing the warm buffers it returned to the pool.
        core::QueryWorkspacePool::Lease lease = workspace_pool_.Acquire();
        for (size_t m = 0; m < recommenders_.size(); ++m) {
          recommenders_[m]->RecommendPooled(inputs[u], k, nullptr, lease.get(),
                                            results[m].lists[u]);
        }
      },
      num_threads);
  return results;
}

}  // namespace goalrec::eval
