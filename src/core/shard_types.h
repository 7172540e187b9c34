#ifndef GOALREC_CORE_SHARD_TYPES_H_
#define GOALREC_CORE_SHARD_TYPES_H_

#include <cstdint>
#include <vector>

#include "model/types.h"

// Per-shard partial results exchanged between the shard-local strategy
// kernels (focus.h / breadth.h / best_match.h, *Shard* entry points) and the
// root merge (shard_merge.h). Every field is either an id or an
// exact-integer value held in a double, so the root can combine partials in
// any order and still reproduce the unsharded kernel bit for bit (see
// docs/serving.md, "Sharded serving").
//
// All buffers are caller-owned and reused across queries: the fan-out path
// clears and refills them, never reallocates once warm.

namespace goalrec::core {

/// One Focus emission candidate from one shard: action `action` would be
/// emitted with score `score` by logical implementation `logical_impl`.
/// A shard's stream is ordered by (score desc, logical_impl asc), entries
/// of one implementation adjacent with actions in ascending id order —
/// exactly the unsharded Algorithm 1 emission order restricted to the
/// shard.
struct ShardEmission {
  model::ActionId action = 0;
  double score = 0.0;
  uint32_t logical_impl = 0;
};

/// One Breadth partial: this shard's implementations contribute `score`
/// (an exact integer: Σ |A_p ∩ H| over the shard's touched implementations
/// containing `action`) to the action's global Eq. 6 score.
struct ShardActionScore {
  model::ActionId action = 0;
  double score = 0.0;
};

/// One action's Best Match partial from one shard's goal-major scan: its
/// exact-integer distance terms summed over the shard's GS(H) slice.
///   Euclidean: Σ ((h−c)² − h²)      (x; y unused)
///   Manhattan: Σ (|h−c| − h)        (x; y unused)
///   Cosine:    Σ h·c (x) and Σ c² (y)
struct BestMatchActionPartial {
  model::ActionId action = 0;
  double x = 0.0;
  double y = 0.0;
};

/// Best Match output of one shard, produced in a single fan-out round: the
/// shard's slice of GS(H) with the profile values over it, the shard-local
/// candidate set, and the partials of every action outside H that the
/// slice's implementations contain. A shard cannot tell which of those
/// actions are candidates elsewhere, so it sends them all and the root
/// keeps the ones in the candidate union.
struct BestMatchShardProfile {
  /// Shard-local GS(H) slice, sorted ascending. Disjoint across shards
  /// (goal-colocated partitioning), so the global GS(H) is the merged
  /// union.
  model::IdSet goals;
  /// Profile values aligned with `goals` (exact integers).
  std::vector<double> h;
  /// Shard-local AS(H) − H. The root unions these into the global
  /// candidate list.
  model::IdSet candidates;
  /// Per-action partials over the slice, one entry per action.
  std::vector<BestMatchActionPartial> partials;
};

}  // namespace goalrec::core

#endif  // GOALREC_CORE_SHARD_TYPES_H_
