#include "eval/scaling.h"

#include <algorithm>
#include <memory>

#include "core/strategy.h"
#include "eval/table.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/set_ops.h"
#include "util/timer.h"

namespace goalrec::eval {

model::ImplementationLibrary BuildScalingLibrary(
    const ScalingWorkload& workload, uint64_t seed) {
  GOALREC_CHECK_GT(workload.num_actions, 0u);
  GOALREC_CHECK_GE(workload.num_actions, workload.implementation_size);
  GOALREC_CHECK_GT(workload.implementations_per_goal, 0u);
  util::Rng rng(seed);
  model::LibraryBuilder builder;
  for (uint32_t a = 0; a < workload.num_actions; ++a) {
    builder.InternAction("a" + std::to_string(a));
  }
  uint32_t num_goals =
      std::max(1u, workload.num_implementations /
                       workload.implementations_per_goal);
  for (uint32_t g = 0; g < num_goals; ++g) {
    builder.InternGoal("g" + std::to_string(g));
  }
  for (uint32_t p = 0; p < workload.num_implementations; ++p) {
    model::IdSet actions;
    actions.reserve(workload.implementation_size);
    while (actions.size() < workload.implementation_size) {
      model::ActionId a = rng.UniformUint32(workload.num_actions);
      if (!util::Contains(actions, a)) {
        actions.push_back(a);
        std::sort(actions.begin(), actions.end());
      }
    }
    builder.AddImplementationIds(p % num_goals, std::move(actions));
  }
  return std::move(builder).Build();
}

ScalingOptions DefaultImplCountSweep() {
  ScalingOptions options;
  // Fixed connectivity regime: actions scale with implementations so each
  // point has connectivity ≈ impls · 6 / actions = 12.
  for (uint32_t impls : {20000u, 100000u, 500000u, 2000000u}) {
    ScalingWorkload w;
    w.num_implementations = impls;
    w.num_actions = impls / 2;
    w.implementation_size = 6;
    options.workloads.push_back(w);
  }
  return options;
}

ScalingOptions DefaultConnectivitySweep() {
  ScalingOptions options;
  // Fixed implementation count; shrinking the action space raises
  // connectivity (impls · 6 / actions).
  for (uint32_t actions : {600000u, 120000u, 24000u, 4800u, 960u}) {
    ScalingWorkload w;
    w.num_implementations = 120000;
    w.num_actions = actions;
    w.implementation_size = 6;
    options.workloads.push_back(w);
  }
  return options;
}

std::vector<ScalingRow> RunScaling(const ScalingOptions& options) {
  std::vector<ScalingRow> rows;
  for (size_t i = 0; i < options.workloads.size(); ++i) {
    const ScalingWorkload& workload = options.workloads[i];
    model::ImplementationLibrary library =
        BuildScalingLibrary(workload, options.seed + i);

    ScalingRow row;
    row.workload = workload;
    row.measured_connectivity = library.ActionConnectivity();

    std::vector<std::unique_ptr<core::Recommender>> strategies;
    for (const core::StrategyInfo& info : core::kStrategies) {
      strategies.push_back(core::MakeStrategy(library, info.strategy));
    }

    // Shared query activities so every strategy sees identical inputs.
    util::Rng rng(options.seed ^ 0x9e3779b97f4a7c15ULL);
    std::vector<model::Activity> queries;
    queries.reserve(options.num_queries);
    for (uint32_t q = 0; q < options.num_queries; ++q) {
      model::Activity activity;
      while (activity.size() < options.activity_size) {
        model::ActionId a = rng.UniformUint32(workload.num_actions);
        if (!util::Contains(activity, a)) {
          activity.push_back(a);
          std::sort(activity.begin(), activity.end());
        }
      }
      queries.push_back(std::move(activity));
    }

    for (const auto& strategy : strategies) {
      util::WallTimer timer;
      for (const model::Activity& query : queries) {
        core::RecommendationList list = strategy->Recommend(query, options.k);
        // Fold the result into a sink so the call cannot be optimised away.
        if (!list.empty() && list[0].action == model::kInvalidId) {
          GOALREC_CHECK(false);
        }
      }
      double total_ms = timer.ElapsedSeconds() * 1000.0;
      row.method_names.push_back(strategy->name());
      row.mean_ms.push_back(total_ms /
                            static_cast<double>(options.num_queries));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string RenderScaling(const std::vector<ScalingRow>& rows) {
  if (rows.empty()) return "";
  std::vector<std::string> headers = {"impls", "actions", "connectivity"};
  for (const std::string& name : rows[0].method_names) {
    headers.push_back(name + " ms");
  }
  TextTable table(std::move(headers));
  for (const ScalingRow& row : rows) {
    std::vector<std::string> cells = {
        std::to_string(row.workload.num_implementations),
        std::to_string(row.workload.num_actions),
        FormatDouble(row.measured_connectivity, 2)};
    for (double ms : row.mean_ms) cells.push_back(FormatDouble(ms, 3));
    table.AddRow(std::move(cells));
  }
  return table.ToString();
}

}  // namespace goalrec::eval
