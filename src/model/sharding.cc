#include "model/sharding.h"

#include <string>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace goalrec::model {
namespace {

/// splitmix64 finaliser: cheap, well-mixed, and stable across platforms —
/// the shard of a goal id must not depend on std::hash's implementation.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

const char* PartitionPolicyName(PartitionPolicy policy) {
  switch (policy) {
    case PartitionPolicy::kHashByGoal:
      return "hash_goal";
    case PartitionPolicy::kModuloGoal:
      return "modulo_goal";
  }
  return "?";
}

std::shared_ptr<const ShardedSnapshot> BuildShardedSnapshot(
    const ImplementationLibrary& base, uint32_t num_shards,
    const ShardingOptions& options, uint64_t base_version) {
  if (num_shards == 0) num_shards = 1;
  auto out = std::make_shared<ShardedSnapshot>();
  out->base = &base;
  out->num_shards = num_shards;
  out->base_version = base_version;

  // Materialise the goal → shard assignment once.
  const uint32_t num_goals = base.num_goals();
  out->goal_shard.resize(num_goals);
  if (options.custom) {
    out->policy_name = options.custom_name;
    for (GoalId g = 0; g < num_goals; ++g) {
      uint32_t shard = options.custom(g, base, num_shards);
      GOALREC_CHECK(shard < num_shards);
      out->goal_shard[g] = shard;
    }
  } else {
    out->policy_name = PartitionPolicyName(options.policy);
    for (GoalId g = 0; g < num_goals; ++g) {
      out->goal_shard[g] = options.policy == PartitionPolicy::kModuloGoal
                               ? g % num_shards
                               : static_cast<uint32_t>(Mix64(g) % num_shards);
    }
  }

  // Walk implementations in ascending logical id order so shard-local ids
  // are assigned monotonically in logical order — the invariant that makes
  // (score desc, local asc) equal (score desc, logical asc) per shard.
  const uint32_t num_impls = base.num_implementations();
  out->impl_shard.resize(num_impls);
  out->impl_local.resize(num_impls);
  out->local_to_logical.resize(num_shards);
  std::vector<size_t> shard_postings(num_shards, 0);
  for (ImplId p = 0; p < num_impls; ++p) {
    const uint32_t shard = out->goal_shard[base.GoalOf(p)];
    out->impl_shard[p] = shard;
    out->impl_local[p] =
        static_cast<uint32_t>(out->local_to_logical[shard].size());
    out->local_to_logical[shard].push_back(p);
    shard_postings[shard] += base.ImplActionCount(p);
  }

  // Every shard copies the FULL base vocabularies, so action/goal ids are
  // base ids on every shard — queries fan out and merge without any id
  // translation, and a shard can embed candidates it has never seen in its
  // own implementations (Best Match phase B). Rows copy straight out of the
  // base arenas.
  out->shards.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    const std::vector<uint32_t>& logical = out->local_to_logical[s];
    LibraryRowWriter writer(base.actions(), base.goals(), logical.size(),
                            shard_postings[s]);
    for (ImplId p : logical) {
      writer.AppendRow(base.GoalOf(p), base.ActionsOf(p));
    }
    out->shards.push_back(
        MakeSnapshot(std::move(writer).Finish(), "shard:" + std::to_string(s)));
  }
  return out;
}

}  // namespace goalrec::model
