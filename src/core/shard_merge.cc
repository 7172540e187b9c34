#include "core/shard_merge.h"

namespace goalrec::core {

void MergeFocusEmissions(std::span<const std::vector<ShardEmission>> streams,
                         uint32_t num_actions, size_t k,
                         QueryWorkspace& root_ws, RecommendationList& out) {
  out.clear();
  if (k == 0) return;
  // Cursor per stream, kept in the workspace's id scratch (no allocation
  // once warm). Shard counts are small, so a linear scan for the best head
  // beats heap bookkeeping.
  root_ws.scratch.assign(streams.size(), 0);
  root_ws.BeginActionPass(num_actions);
  for (;;) {
    size_t best = streams.size();
    for (size_t s = 0; s < streams.size(); ++s) {
      if (root_ws.scratch[s] >= streams[s].size()) continue;  // drained
      if (best == streams.size()) {
        best = s;
        continue;
      }
      const ShardEmission& a = streams[s][root_ws.scratch[s]];
      const ShardEmission& b = streams[best][root_ws.scratch[best]];
      // Global emission order: (score desc, logical impl asc). A logical
      // implementation lives on exactly one shard, so heads of different
      // streams never tie on both keys.
      if (a.score > b.score ||
          (a.score == b.score && a.logical_impl < b.logical_impl)) {
        best = s;
      }
    }
    if (best == streams.size()) return;  // all streams drained
    const ShardEmission& e = streams[best][root_ws.scratch[best]++];
    // Root dedup: the action may already have been emitted via a globally
    // better implementation on another shard. (H was filtered at the
    // leaves.)
    if (!root_ws.TestAndMark(e.action)) continue;
    out.push_back(ScoredAction{e.action, e.score});
    if (out.size() == k) return;
  }
}

void MergeBreadthPartials(
    std::span<const std::vector<ShardActionScore>> partials,
    uint32_t num_actions, size_t k, QueryWorkspace& root_ws,
    RecommendationList& out) {
  out.clear();
  if (k == 0) return;
  // Per-action sums of exact integers: order-free, so a flat accumulation
  // across shards reproduces the unsharded Eq. 6 totals digit for digit.
  root_ws.BeginActionPass(num_actions);
  for (const std::vector<ShardActionScore>& shard : partials) {
    for (const ShardActionScore& entry : shard) {
      root_ws.AddScore(entry.action, entry.score);
    }
  }
  // Total order (score desc, action id asc): independent of touch order.
  root_ws.top_k.Reset(k);
  for (model::ActionId a : root_ws.touched()) {
    double score = root_ws.ScoreOf(a);
    if (score <= 0.0) continue;
    root_ws.top_k.Push(score, a);
  }
  root_ws.top_k.TakeInto([&out](double score, uint32_t id) {
    out.push_back(ScoredAction{id, score});
  });
}

void MergeBestMatchShards(std::span<const BestMatchShardProfile> shards,
                          const BestMatchRecommender& root, uint32_t num_actions,
                          size_t k, QueryWorkspace& root_ws,
                          RecommendationList& out) {
  // Candidate union through the root's action marker; the leaves already
  // excluded H. Order is shard-major, which is deterministic for a given
  // shard count and immaterial to the result (the final top-k comparator
  // is a total order).
  root_ws.BeginActionPass(num_actions);
  root_ws.candidates.clear();
  for (const BestMatchShardProfile& shard : shards) {
    for (model::ActionId a : shard.candidates) {
      if (root_ws.TestAndMark(a)) root_ws.candidates.push_back(a);
    }
  }
  // The slices are sorted and pairwise disjoint (each goal lives on one
  // shard), so a k-way merge by goal id reassembles the global sorted
  // GS(H) with its aligned profile values. Cursors live in scratch.
  root_ws.scratch.assign(shards.size(), 0);
  root_ws.goal_space.clear();
  root_ws.profile.clear();
  for (;;) {
    size_t best = shards.size();
    for (size_t s = 0; s < shards.size(); ++s) {
      if (root_ws.scratch[s] >= shards[s].goals.size()) continue;  // drained
      if (best == shards.size() ||
          shards[s].goals[root_ws.scratch[s]] <
              shards[best].goals[root_ws.scratch[best]]) {
        best = s;
      }
    }
    if (best == shards.size()) break;
    uint32_t cursor = root_ws.scratch[best]++;
    root_ws.goal_space.push_back(shards[best].goals[cursor]);
    root_ws.profile.push_back(shards[best].h[cursor]);
  }
  // Each action's partial is a sum of exact integers over disjoint goal
  // slices, so summing the slices in shard order gives the same double the
  // unsharded scan folds goal by goal.
  const uint32_t live = root_ws.BeginPartialPass(num_actions, 1) + 1;
  for (const BestMatchShardProfile& shard : shards) {
    for (const BestMatchActionPartial& p : shard.partials) {
      QueryWorkspace::ActionPartial& e = root_ws.partials[p.action];
      if (e.stamp != live) {
        e = QueryWorkspace::ActionPartial{live, 0, p.x, p.y};
      } else {
        e.x += p.x;
        e.y += p.y;
      }
    }
  }
  root.RankCandidates(root_ws.goal_space, root_ws.candidates, k, root_ws,
                      out);
}

}  // namespace goalrec::core
