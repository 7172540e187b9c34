#ifndef GOALREC_CORE_SHARD_MERGE_H_
#define GOALREC_CORE_SHARD_MERGE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/best_match.h"
#include "core/query_workspace.h"
#include "core/recommender.h"
#include "core/shard_types.h"
#include "model/library.h"
#include "util/deadline.h"

// Root-side recombination of per-shard partial results into the exact
// global recommendation list. Each function is the counterpart of a shard
// entry point (FocusRecommender::EmitShardForMerge,
// BreadthRecommender::AccumulateShard, BestMatchRecommender::ScanShard),
// each answered in one fan-out round, and is proven bit-identical
// to the corresponding unsharded kernel by the oracle differential wall
// (tests/oracle/sharded_test.cc): all partials are exact integers in
// doubles, so recombining them in any order reproduces the single-scan
// arithmetic digit for digit, and every comparator involved is a total
// order. Unweighted strategies only — the shard entry points enforce this.
//
// All functions run on the caller's root workspace (markers, top-k heap,
// profile buffers) and perform no steady-state allocations.

namespace goalrec::core {

/// K-way merges per-shard Focus emission streams (each ordered
/// (score desc, logical impl asc), actions of one implementation adjacent
/// in ascending id order) under the global total order, dedups actions at
/// the root, and stops at `k` — exactly the unsharded Algorithm 1
/// emission. `streams[s]` is shard s's EmitShardForMerge output.
void MergeFocusEmissions(std::span<const std::vector<ShardEmission>> streams,
                         uint32_t num_actions, size_t k,
                         QueryWorkspace& root_ws, RecommendationList& out);

/// Sums per-shard Breadth partials (exact integers) per action and selects
/// the global top-k under (score desc, action id asc). `partials[s]` is
/// shard s's AccumulateShard output; actions in H were excluded at the
/// leaves.
void MergeBreadthPartials(
    std::span<const std::vector<ShardActionScore>> partials,
    uint32_t num_actions, size_t k, QueryWorkspace& root_ws,
    RecommendationList& out);

/// Merges Best Match shard outputs and ranks: the disjoint sorted slices
/// are k-way merged into root_ws.goal_space / root_ws.profile (global
/// sorted GS(H) with aligned exact-integer profile values), the candidate
/// union is built into root_ws.candidates (deduped through root_ws's action
/// marker — the leaves already excluded H), the per-shard action partials
/// are summed into root_ws.partials, and `root` — a BestMatchRecommender
/// over the base library — reads the distances off and emits the top `k`.
/// Certificate checks and dense fallbacks use the base library's postings,
/// exactly as the unsharded kernel does.
void MergeBestMatchShards(std::span<const BestMatchShardProfile> shards,
                          const BestMatchRecommender& root, uint32_t num_actions,
                          size_t k, QueryWorkspace& root_ws,
                          RecommendationList& out);

}  // namespace goalrec::core

#endif  // GOALREC_CORE_SHARD_MERGE_H_
