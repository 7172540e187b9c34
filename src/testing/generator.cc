#include "testing/generator.h"

#include <algorithm>
#include <span>
#include <string>
#include <utility>

#include "util/logging.h"
#include "util/set_ops.h"

namespace goalrec::testing {
namespace {

// Draws one action id from the connected pool via the (permuted) popularity
// ranking.
model::ActionId DrawAction(const std::vector<model::ActionId>& by_popularity,
                           const util::ZipfSampler& zipf, util::Rng& rng) {
  return by_popularity[zipf.Sample(rng)];
}

}  // namespace

model::ImplementationLibrary GenerateLibrary(const LibraryShape& shape,
                                             util::Rng& rng) {
  GOALREC_CHECK_GT(shape.num_actions, 0u);
  GOALREC_CHECK_GT(shape.num_goals, 0u);
  GOALREC_CHECK_LE(shape.min_impls_per_goal, shape.max_impls_per_goal);
  GOALREC_CHECK_LE(shape.min_actions_per_impl, shape.max_actions_per_impl);

  model::LibraryBuilder builder;
  for (uint32_t a = 0; a < shape.num_actions; ++a) {
    builder.InternAction("act" + std::to_string(a));
  }
  for (uint32_t g = 0; g < shape.num_goals; ++g) {
    builder.InternGoal("goal" + std::to_string(g));
  }

  // Popularity: a random permutation of the connected pool, ranked by a Zipf
  // law — rank 0 (the hub) lands on a random action, not always id 0.
  uint32_t disconnected = static_cast<uint32_t>(
      static_cast<double>(shape.num_actions) *
      shape.disconnected_action_fraction);
  uint32_t pool = shape.num_actions - std::min(disconnected,
                                               shape.num_actions - 1);
  std::vector<model::ActionId> by_popularity(shape.num_actions);
  for (uint32_t a = 0; a < shape.num_actions; ++a) by_popularity[a] = a;
  rng.Shuffle(by_popularity);
  by_popularity.resize(pool);  // the rest stay disconnected
  util::ZipfSampler zipf(pool, std::max(0.0, shape.zipf_exponent));

  for (model::GoalId g = 0; g < shape.num_goals; ++g) {
    uint32_t impls =
        g < shape.fat_goals
            ? shape.fat_goal_impls
            : static_cast<uint32_t>(rng.UniformInt(shape.min_impls_per_goal,
                                                   shape.max_impls_per_goal));
    for (uint32_t i = 0; i < impls; ++i) {
      double degenerate = rng.UniformDouble();
      uint32_t size;
      if (degenerate < shape.empty_impl_prob) {
        size = 0;
      } else if (degenerate < shape.empty_impl_prob +
                                  shape.singleton_impl_prob) {
        size = 1;
      } else {
        size = static_cast<uint32_t>(rng.UniformInt(
            shape.min_actions_per_impl, shape.max_actions_per_impl));
      }
      model::IdSet actions;
      for (uint32_t j = 0; j < size; ++j) {
        actions.push_back(DrawAction(by_popularity, zipf, rng));
      }
      builder.AddImplementationIds(g, std::move(actions));
    }
  }
  return std::move(builder).Build();
}

model::Activity GenerateActivity(const model::ImplementationLibrary& library,
                                 const ActivityShape& shape, util::Rng& rng) {
  GOALREC_CHECK_LE(shape.min_size, shape.max_size);
  model::Activity activity;
  if (library.num_implementations() > 0 &&
      rng.Bernoulli(shape.superset_prob)) {
    // H ⊇ A: start from a full implementation activity (possibly empty) and
    // extend with a few extra actions.
    model::ImplId p = rng.UniformUint32(library.num_implementations());
    std::span<const model::ActionId> base = library.ActionsOf(p);
    activity.assign(base.begin(), base.end());
    uint32_t extra = rng.UniformUint32(4);
    for (uint32_t i = 0; i < extra; ++i) {
      activity.push_back(rng.UniformUint32(library.num_actions()));
    }
  } else {
    uint32_t size =
        static_cast<uint32_t>(rng.UniformInt(shape.min_size, shape.max_size));
    for (uint32_t i = 0; i < size; ++i) {
      // Uniform over the whole vocabulary, disconnected actions included.
      activity.push_back(rng.UniformUint32(library.num_actions()));
    }
  }
  util::Normalize(activity);
  return activity;
}

OracleCase GenerateCase(const CaseShape& shape, uint64_t seed) {
  GOALREC_CHECK_LE(shape.min_k, shape.max_k);
  util::Rng rng(seed, /*stream=*/7);
  OracleCase c;
  c.library = GenerateLibrary(shape.library, rng);
  c.activity = GenerateActivity(c.library, shape.activity, rng);
  c.k = static_cast<size_t>(rng.UniformInt(shape.min_k, shape.max_k));
  return c;
}

std::vector<CaseShape> DefaultCaseShapes() {
  std::vector<CaseShape> shapes;

  CaseShape tiny;
  tiny.library.num_goals = 3;
  tiny.library.num_actions = 8;
  tiny.library.max_impls_per_goal = 3;
  tiny.library.max_actions_per_impl = 4;
  tiny.library.zipf_exponent = 0.0;
  tiny.library.disconnected_action_fraction = 0.0;
  tiny.activity.max_size = 5;
  tiny.max_k = 10;  // > num_actions: exercises the unbounded path
  shapes.push_back(tiny);

  CaseShape medium;  // the LibraryShape defaults
  shapes.push_back(medium);

  CaseShape degenerate;
  degenerate.library.num_goals = 6;
  degenerate.library.num_actions = 20;
  degenerate.library.empty_impl_prob = 0.2;
  degenerate.library.singleton_impl_prob = 0.3;
  degenerate.library.disconnected_action_fraction = 0.3;
  degenerate.activity.superset_prob = 0.4;
  degenerate.activity.min_size = 0;
  degenerate.activity.max_size = 10;
  shapes.push_back(degenerate);

  CaseShape hubby;
  hubby.library.num_goals = 10;
  hubby.library.num_actions = 40;
  hubby.library.max_impls_per_goal = 6;
  hubby.library.max_actions_per_impl = 8;
  hubby.library.zipf_exponent = 1.6;  // a few hub actions dominate
  hubby.activity.max_size = 12;
  shapes.push_back(hubby);

  CaseShape sparse;
  sparse.library.num_goals = 12;
  sparse.library.num_actions = 48;
  sparse.library.min_impls_per_goal = 1;
  sparse.library.max_impls_per_goal = 2;
  sparse.library.min_actions_per_impl = 1;
  sparse.library.max_actions_per_impl = 3;
  sparse.library.zipf_exponent = 0.2;
  sparse.library.disconnected_action_fraction = 0.2;
  sparse.activity.max_size = 6;
  shapes.push_back(sparse);

  // --- Kernel-adversarial shapes. The flat-array scoring kernels reset
  // their dense marker/counter arrays per vocabulary size and walk postings
  // in word-sized strides; these shapes park |vocab| and |H| exactly on and
  // around the 64-element word boundary (63/64/65) and the 128-lane
  // boundary, where off-by-one epoch grounding or tail handling would bite.

  CaseShape word_boundary;
  word_boundary.library.num_goals = 16;
  word_boundary.library.num_actions = 64;  // exactly one 64-bit word
  word_boundary.library.max_impls_per_goal = 4;
  word_boundary.library.min_actions_per_impl = 1;
  word_boundary.library.max_actions_per_impl = 9;
  word_boundary.library.zipf_exponent = 0.5;
  word_boundary.library.disconnected_action_fraction = 0.0;
  // Coupon-collector sizing: ~180–300 uniform draws over 64 actions dedup to
  // |H| ≈ 60..64, so realised sizes straddle 63/64 (including H = the whole
  // vocabulary — every candidate pool empty).
  word_boundary.activity.min_size = 180;
  word_boundary.activity.max_size = 300;
  word_boundary.activity.superset_prob = 0.1;
  word_boundary.max_k = 70;  // k > |vocab − H| exercises exhaustion
  shapes.push_back(word_boundary);

  CaseShape lane_boundary;
  lane_boundary.library.num_goals = 20;
  lane_boundary.library.num_actions = 129;  // one past two 64-lane blocks
  lane_boundary.library.max_impls_per_goal = 5;
  lane_boundary.library.max_actions_per_impl = 7;
  lane_boundary.library.zipf_exponent = 0.9;
  lane_boundary.library.disconnected_action_fraction = 0.05;
  // ~500–800 draws over 129 actions dedup to |H| ≈ 125..129: realised sizes
  // straddle 127/128/129.
  lane_boundary.activity.min_size = 500;
  lane_boundary.activity.max_size = 800;
  shapes.push_back(lane_boundary);

  // Every action in (almost) every implementation: maximal connectivity with
  // uniform popularity, so IS(H) is the whole library and the per-impl
  // counters all saturate near |A|. This is the worst case for the scatter
  // pass and for the subset skip (|A ∩ H| = |A|).
  CaseShape all_popular;
  all_popular.library.num_goals = 10;
  all_popular.library.num_actions = 12;
  all_popular.library.max_impls_per_goal = 5;
  all_popular.library.min_actions_per_impl = 6;
  all_popular.library.max_actions_per_impl = 12;
  all_popular.library.zipf_exponent = 0.0;  // uniform: no unpopular actions
  all_popular.library.disconnected_action_fraction = 0.0;
  all_popular.activity.min_size = 4;
  all_popular.activity.max_size = 12;
  all_popular.activity.superset_prob = 0.5;
  shapes.push_back(all_popular);

  // Singleton-dominated: most implementations have |A| = 1, so completeness
  // is 0 or 1, closeness denominators are 0 or 1, and Breadth contributions
  // collapse to single counts. Forces masses of exactly-equal scores — the
  // tie-break order (score desc, id asc; Focus emission order) carries the
  // whole comparison.
  CaseShape tie_storm;
  tie_storm.library.num_goals = 14;
  tie_storm.library.num_actions = 24;
  tie_storm.library.max_impls_per_goal = 6;
  tie_storm.library.min_actions_per_impl = 1;
  tie_storm.library.max_actions_per_impl = 2;  // |A| ∈ {1, 2} mostly
  tie_storm.library.singleton_impl_prob = 0.5;
  tie_storm.library.empty_impl_prob = 0.1;
  tie_storm.library.zipf_exponent = 0.3;
  tie_storm.activity.min_size = 1;
  tie_storm.activity.max_size = 6;
  tie_storm.max_k = 30;  // deep lists: ties reach far down the ranking
  shapes.push_back(tie_storm);

  // Fat goals: three goals with 36 implementations each beside eleven small
  // ones, tiny implementations over a 90-action vocabulary and a short H.
  // H almost surely reaches a fat goal, whose implementations mostly miss
  // H, so Best Match's goal-major scan walks many implementations outside
  // IS(H) and many actions that are no candidate, while a candidate's own
  // postings spread over goals outside GS(H).
  CaseShape fat_goal;
  fat_goal.library.num_goals = 14;
  fat_goal.library.num_actions = 90;
  fat_goal.library.min_impls_per_goal = 1;
  fat_goal.library.max_impls_per_goal = 3;
  fat_goal.library.fat_goals = 3;
  fat_goal.library.fat_goal_impls = 36;
  fat_goal.library.min_actions_per_impl = 1;
  fat_goal.library.max_actions_per_impl = 4;
  fat_goal.library.zipf_exponent = 0.6;
  fat_goal.library.disconnected_action_fraction = 0.05;
  fat_goal.activity.min_size = 1;
  fat_goal.activity.max_size = 4;
  fat_goal.activity.superset_prob = 0.2;
  fat_goal.max_k = 25;
  shapes.push_back(fat_goal);

  return shapes;
}

}  // namespace goalrec::testing
