#ifndef GOALREC_EVAL_SUITE_H_
#define GOALREC_EVAL_SUITE_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/als.h"
#include "baselines/knn.h"
#include "core/query_workspace.h"
#include "core/recommender.h"
#include "data/dataset.h"
#include "model/snapshot.h"
#include "model/types.h"

// Assembles the full roster of recommenders the paper compares (§6): the
// four goal-based strategies, CF kNN, CF matrix factorisation, content-based
// filtering (when the dataset has domain features), and the optional
// popularity / association-rule anchors. Handles baseline training on the
// visible user activities and owns everything the recommenders borrow.

namespace goalrec::eval {

struct SuiteOptions {
  bool include_goal_based = true;
  bool include_cf_knn = true;
  bool include_cf_mf = true;
  /// Skipped automatically when the dataset has no feature table (43T).
  bool include_content = true;
  bool include_popularity = false;
  bool include_association_rules = false;
  /// Item-based CF (extension; off to keep the paper's roster by default).
  bool include_cf_item_knn = false;
  /// Hybrid(Breadth) — requires a feature table; skipped without one.
  bool include_hybrid = false;
  /// MMR(Breadth) diversity re-ranker — requires a feature table.
  bool include_mmr = false;
  baselines::KnnOptions knn;
  baselines::AlsOptions als;
  double hybrid_alpha = 0.3;
  double mmr_lambda = 0.7;
};

/// One run output: the method name and one list per evaluation user.
struct MethodResult {
  std::string name;
  std::vector<core::RecommendationList> lists;
};

class Suite {
 public:
  /// `dataset` must outlive the suite. `training_activities` are the visible
  /// activities available as collaborative history (baselines train on them
  /// immediately; goal-based strategies ignore them by design).
  Suite(const data::Dataset* dataset,
        std::vector<model::Activity> training_activities,
        SuiteOptions options = {});

  /// Snapshot-pinned suite: co-owns `snapshot` for its whole lifetime, so a
  /// run keeps evaluating one immutable library even while reloads publish
  /// newer versions elsewhere. Feature-dependent methods (content, hybrid,
  /// MMR) are skipped — a bare snapshot carries no feature table.
  Suite(std::shared_ptr<const model::LibrarySnapshot> snapshot,
        std::vector<model::Activity> training_activities,
        SuiteOptions options = {});

  Suite(const Suite&) = delete;
  Suite& operator=(const Suite&) = delete;

  size_t size() const { return recommenders_.size(); }
  const core::Recommender& recommender(size_t i) const;
  std::vector<std::string> names() const;

  /// Runs every recommender over every input activity in parallel and
  /// returns one MethodResult per recommender. Deterministic regardless of
  /// thread count. Each cart leases one QueryWorkspace and every method
  /// answers it through RecommendPooled on that workspace, so the goal-based
  /// strategies and CF kNN scatter into warm buffers reused across carts.
  /// Each list equals the method's own Recommend answer.
  std::vector<MethodResult> RunAll(
      const std::vector<model::Activity>& inputs, size_t k,
      size_t num_threads = 0) const;

  /// Workspaces minted by RunAll so far — bounded by peak thread count,
  /// since a worker returns its lease before taking the next cart.
  size_t workspaces_created() const { return workspace_pool_.created(); }

 private:
  /// Builds the roster against `library` (shared constructor body).
  void Init(std::vector<model::Activity> training_activities,
            const SuiteOptions& options);

  /// Null for snapshot-pinned suites (no feature table).
  const data::Dataset* dataset_ = nullptr;
  /// Non-null for snapshot-pinned suites; keeps the library alive.
  std::shared_ptr<const model::LibrarySnapshot> snapshot_;
  /// The evaluated library: &dataset_->library or &snapshot_->library.
  const model::ImplementationLibrary* library_ = nullptr;
  /// The workspaces RunAll leases, one per cart in flight.
  mutable core::QueryWorkspacePool workspace_pool_;
  std::unique_ptr<baselines::InteractionData> interactions_;
  /// Base strategy borrowed by the hybrid/MMR wrappers (kept out of the
  /// roster vector so its address is stable).
  std::unique_ptr<core::Recommender> wrapper_base_;
  std::vector<std::unique_ptr<core::Recommender>> recommenders_;
};

}  // namespace goalrec::eval

#endif  // GOALREC_EVAL_SUITE_H_
