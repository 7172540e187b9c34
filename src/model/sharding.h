#ifndef GOALREC_MODEL_SHARDING_H_
#define GOALREC_MODEL_SHARDING_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "model/library.h"
#include "model/snapshot.h"
#include "model/types.h"

// Goal-partitioned library sharding. A ShardedSnapshot splits one
// ImplementationLibrary into N per-shard immutable CSR libraries so the
// serving layer can fan a query out across shards and merge per-shard
// results at the root (serve/sharded.h).
//
// The partition unit is the GOAL, not the implementation: every
// implementation of a goal lands on that goal's shard. This is the property
// the bit-identical merge rests on (docs/model.md, "Partitioning"):
//
//   * GS(H) partitions disjointly across shards, so Best Match's goal-space
//     profile decomposes into per-shard sub-vectors and every distance is a
//     sum of exact-integer per-shard partials;
//   * |A_p ∩ H| is computed entirely within p's shard, so Focus scores and
//     Breadth's per-implementation credits are bit-identical to the
//     unsharded kernels;
//   * an action's global posting count is the sum of its per-shard posting
//     counts (each implementation lives on exactly one shard).
//
// Id spaces. Every shard carries a copy of the base library's full action
// and goal vocabularies (sharing the base's names, not duplicating them), so
// action/goal ids are IDENTICAL across the base and all shards — queries and
// merged results never translate them. Implementation ids are shard-local;
// the snapshot carries the stable logical→(shard, local) map and its
// per-shard inverse. Local ids are assigned in ascending logical order, so
// (score desc, local id asc) within a shard equals (score desc, logical id
// asc) — the tie order the root merge preserves.

namespace goalrec::model {

/// One library, partitioned by goal into `num_shards` immutable per-shard
/// libraries. Shard libraries carry copies of the base vocabularies, so
/// action and goal ids are base ids everywhere; only implementation ids are
/// shard-local. Each shard is bit-identical to a LibraryBuilder that interns
/// the base names in id order and adds the shard's rows in logical order.
/// Immutable after construction.
struct ShardedSnapshot {
  /// The unpartitioned library this snapshot was built from. Not owned:
  /// the caller (ServingSnapshot, a test fixture) must keep it alive for
  /// the snapshot's lifetime. The root uses it for the popularity floor
  /// and Best Match's dense-fallback path.
  const ImplementationLibrary* base = nullptr;

  /// Per-shard libraries, index = shard id. Never empty; a shard may hold
  /// zero implementations when goals are fewer than shards.
  std::vector<std::shared_ptr<const LibrarySnapshot>> shards;

  /// Logical (base) implementation id → owning shard / local id there.
  std::vector<uint32_t> impl_shard;
  std::vector<uint32_t> impl_local;
  /// Per-shard inverse: local implementation id → logical id. Strictly
  /// increasing per shard (locals are assigned in ascending logical order).
  std::vector<std::vector<uint32_t>> local_to_logical;
  /// Goal id → owning shard: a splitmix64 hash of the goal id, modulo the
  /// shard count, which stays balanced for clustered goal ids.
  std::vector<uint32_t> goal_shard;

  uint32_t num_shards = 0;
  /// Version of the base snapshot this partition was derived from (0 when
  /// built from a bare library).
  uint64_t base_version = 0;

  uint32_t shard_of_impl(ImplId logical) const { return impl_shard[logical]; }
  uint32_t local_of_impl(ImplId logical) const { return impl_local[logical]; }
  ImplId logical_of(uint32_t shard, uint32_t local) const {
    return local_to_logical[shard][local];
  }
  const ImplementationLibrary& shard_library(uint32_t shard) const {
    return shards[shard]->library;
  }
};

/// Partitions `base` into `num_shards` per-shard libraries (num_shards >= 1;
/// clamped to >= 1). `base` must outlive the returned snapshot.
/// `base_version` stamps ShardedSnapshot::base_version for audit trails.
std::shared_ptr<const ShardedSnapshot> BuildShardedSnapshot(
    const ImplementationLibrary& base, uint32_t num_shards,
    uint64_t base_version = 0);

}  // namespace goalrec::model

#endif  // GOALREC_MODEL_SHARDING_H_
