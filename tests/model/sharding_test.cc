// Partition invariants for model::ShardedSnapshot. The sharded serving
// wall (tests/oracle/sharded_test.cc) proves merged RESULTS are
// bit-identical; this file pins the structural properties that proof rests
// on: goal colocation, inverse id maps, vocabulary identity across shards,
// and posting-count conservation.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "model/library.h"
#include "model/sharding.h"
#include "model/snapshot.h"
#include "model/snapshot_io.h"
#include "model/validate.h"
#include "testing/fixtures.h"
#include "testing/generator.h"
#include "util/random.h"

namespace goalrec::model {
namespace {

// Every structural invariant, checked against the base library.
void CheckPartitionInvariants(const ImplementationLibrary& base,
                              const ShardedSnapshot& sharded) {
  ASSERT_EQ(sharded.base, &base);
  ASSERT_GE(sharded.num_shards, 1u);
  ASSERT_EQ(sharded.shards.size(), sharded.num_shards);
  ASSERT_EQ(sharded.goal_shard.size(), base.num_goals());
  ASSERT_EQ(sharded.impl_shard.size(), base.num_implementations());
  ASSERT_EQ(sharded.impl_local.size(), base.num_implementations());

  // Vocabulary identity: every shard re-interns the full base vocabularies
  // in base id order, so action/goal ids mean the same thing everywhere.
  for (uint32_t s = 0; s < sharded.num_shards; ++s) {
    const ImplementationLibrary& shard = sharded.shard_library(s);
    ASSERT_EQ(shard.num_actions(), base.num_actions()) << "shard " << s;
    ASSERT_EQ(shard.num_goals(), base.num_goals()) << "shard " << s;
    for (uint32_t a = 0; a < base.num_actions(); ++a) {
      ASSERT_EQ(shard.actions().Name(a), base.actions().Name(a))
          << "shard " << s << " action " << a;
    }
    for (uint32_t g = 0; g < base.num_goals(); ++g) {
      ASSERT_EQ(shard.goals().Name(g), base.goals().Name(g))
          << "shard " << s << " goal " << g;
    }
  }

  // Goal colocation + inverse id maps. Locals must be assigned in ascending
  // logical order (strictly increasing local_to_logical) — the property
  // that makes per-shard (score desc, local asc) equal the global
  // (score desc, logical asc) tie order.
  size_t mapped = 0;
  for (uint32_t s = 0; s < sharded.num_shards; ++s) {
    const auto& inverse = sharded.local_to_logical[s];
    ASSERT_EQ(inverse.size(), sharded.shard_library(s).num_implementations())
        << "shard " << s;
    mapped += inverse.size();
    for (uint32_t local = 0; local < inverse.size(); ++local) {
      if (local > 0) {
        ASSERT_LT(inverse[local - 1], inverse[local])
            << "shard " << s << " local_to_logical not strictly increasing";
      }
      ImplId logical = inverse[local];
      ASSERT_EQ(sharded.shard_of_impl(logical), s);
      ASSERT_EQ(sharded.local_of_impl(logical), local);
      // The shard holds the exact same implementation record.
      const ImplementationLibrary& shard = sharded.shard_library(s);
      ASSERT_EQ(shard.GoalOf(local), base.GoalOf(logical));
      ASSERT_EQ(sharded.goal_shard[base.GoalOf(logical)], s)
          << "implementation " << logical << " not on its goal's shard";
      auto shard_actions = shard.ActionsOf(local);
      auto base_actions = base.ActionsOf(logical);
      ASSERT_TRUE(std::equal(shard_actions.begin(), shard_actions.end(),
                             base_actions.begin(), base_actions.end()))
          << "shard " << s << " local " << local;
    }
  }
  ASSERT_EQ(mapped, base.num_implementations());
  for (ImplId p = 0; p < base.num_implementations(); ++p) {
    ASSERT_EQ(sharded.logical_of(sharded.shard_of_impl(p),
                                 sharded.local_of_impl(p)),
              p);
  }

  // Posting-count conservation: each implementation lives on exactly one
  // shard, so an action's global posting count is the sum of its per-shard
  // counts. (The Breadth dense threshold and BestMatch's exactness
  // certificate both sum per-shard posting counts relying on this.)
  for (uint32_t a = 0; a < base.num_actions(); ++a) {
    size_t total = 0;
    for (uint32_t s = 0; s < sharded.num_shards; ++s) {
      total += sharded.shard_library(s).ImplsOfAction(a).size();
    }
    ASSERT_EQ(total, base.ImplsOfAction(a).size()) << "action " << a;
  }
}

ImplementationLibrary SmallLibrary() {
  LibraryBuilder builder;
  builder.AddImplementation("g0", {"a", "b", "c"});
  builder.AddImplementation("g0", {"b", "d"});
  builder.AddImplementation("g1", {"a", "d"});
  builder.AddImplementation("g2", {"c"});
  builder.AddImplementation("g3", {"a", "b", "d", "e"});
  builder.AddImplementation("g1", {"e"});
  return std::move(builder).Build();
}

TEST(ShardingTest, InvariantsHoldOnGeneratedLibraries) {
  std::vector<testing::CaseShape> shapes = testing::DefaultCaseShapes();
  util::Rng seeds(20260808, /*stream=*/41);
  for (int i = 0; i < 45; ++i) {
    testing::OracleCase c = testing::GenerateCase(
        shapes[static_cast<size_t>(i) % shapes.size()], seeds.NextUint64());
    auto snapshot = MakeSnapshot(std::move(c.library));
    const ImplementationLibrary& library = snapshot->library;
    for (uint32_t num_shards : {1u, 2u, 3u, 5u, 7u, 16u}) {
      CheckPartitionInvariants(library,
                               *BuildShardedSnapshot(library, num_shards));
    }
  }
}

// The split as a LibraryBuilder replay: each shard interns the base names in
// id order and adds its goals' rows in ascending logical order.
struct ReplayedSplit {
  std::vector<std::string> shard_bytes;
  std::vector<uint32_t> impl_shard;
  std::vector<uint32_t> impl_local;
  std::vector<std::vector<uint32_t>> local_to_logical;
};

ReplayedSplit ReplaySplit(const ImplementationLibrary& base,
                          const std::vector<uint32_t>& goal_shard,
                          uint32_t num_shards) {
  std::vector<LibraryBuilder> builders(num_shards);
  for (LibraryBuilder& b : builders) {
    for (ActionId a = 0; a < base.num_actions(); ++a) {
      b.InternAction(base.actions().Name(a));
    }
    for (GoalId g = 0; g < base.num_goals(); ++g) {
      b.InternGoal(base.goals().Name(g));
    }
  }
  ReplayedSplit out;
  out.local_to_logical.resize(num_shards);
  for (ImplId p = 0; p < base.num_implementations(); ++p) {
    const uint32_t shard = goal_shard[base.GoalOf(p)];
    std::vector<std::string> actions;
    for (ActionId a : base.ActionsOf(p)) {
      actions.push_back(base.actions().Name(a));
    }
    const ImplId local = builders[shard].AddImplementation(
        base.goals().Name(base.GoalOf(p)), actions);
    out.impl_shard.push_back(shard);
    out.impl_local.push_back(local);
    out.local_to_logical[shard].push_back(p);
  }
  for (LibraryBuilder& b : builders) {
    out.shard_bytes.push_back(EncodeSnapshot(std::move(b).Build()));
  }
  return out;
}

TEST(ShardingTest, ShardsAreBitIdenticalToABuilderReplay) {
  std::vector<testing::CaseShape> shapes = testing::DefaultCaseShapes();
  util::Rng seeds(20261017, /*stream=*/43);
  for (int i = 0; i < 12; ++i) {
    testing::OracleCase c = testing::GenerateCase(
        shapes[static_cast<size_t>(i) % shapes.size()], seeds.NextUint64());
    const ImplementationLibrary& library = c.library;
    for (uint32_t num_shards : {1u, 2u, 3u, 7u, 16u}) {
      auto sharded = BuildShardedSnapshot(library, num_shards);
      ReplayedSplit replay =
          ReplaySplit(library, sharded->goal_shard, num_shards);
      SCOPED_TRACE("case " + std::to_string(i) + ", " +
                   std::to_string(num_shards) + " shards");
      ASSERT_EQ(sharded->num_shards, num_shards);
      for (uint32_t s = 0; s < num_shards; ++s) {
        EXPECT_EQ(EncodeSnapshot(sharded->shard_library(s)),
                  replay.shard_bytes[s])
            << "shard " << s;
      }
      EXPECT_EQ(sharded->impl_shard, replay.impl_shard);
      EXPECT_EQ(sharded->impl_local, replay.impl_local);
      EXPECT_EQ(sharded->local_to_logical, replay.local_to_logical);
    }
  }
}

// Above the cut-off the shards build concurrently; they are the same shards,
// and they are wrapped in shard order.
TEST(ShardingTest, ConcurrentShardBuildsMatchTheReplay) {
  ImplementationLibrary library =
      testing::RandomLibrary(2000, 3001, 48001, 11, 5);
  ASSERT_GE(library.num_postings(), kParallelMinPostings);
  for (uint32_t num_shards : {1u, 4u, 7u}) {
    SCOPED_TRACE(std::to_string(num_shards) + " shards");
    auto sharded = BuildShardedSnapshot(library, num_shards);
    CheckPartitionInvariants(library, *sharded);
    ReplayedSplit replay =
        ReplaySplit(library, sharded->goal_shard, num_shards);
    for (uint32_t s = 0; s < num_shards; ++s) {
      EXPECT_EQ(EncodeSnapshot(sharded->shard_library(s)),
                replay.shard_bytes[s])
          << "shard " << s;
      EXPECT_TRUE(ValidateLibrary(sharded->shard_library(s)).ok());
      if (s > 0) {
        EXPECT_LT(sharded->shards[s - 1]->version, sharded->shards[s]->version);
      }
    }
  }
}

// The placement is a splitmix64 hash of the goal id, fixed across platforms
// and releases: statusz shard sizes and a rebuilt partition depend on it.
TEST(ShardingTest, GoalPlacementIsTheSplitmixHash) {
  ImplementationLibrary library = SmallLibrary();
  auto sharded = BuildShardedSnapshot(library, 3);
  EXPECT_EQ(sharded->goal_shard, (std::vector<uint32_t>{1, 2, 1, 0}));
  CheckPartitionInvariants(library, *sharded);
}

TEST(ShardingTest, MoreShardsThanGoalsLeavesEmptyShards) {
  ImplementationLibrary library = SmallLibrary();
  auto sharded = BuildShardedSnapshot(library, 32);
  CheckPartitionInvariants(library, *sharded);
  size_t empty = 0;
  for (uint32_t s = 0; s < sharded->num_shards; ++s) {
    if (sharded->shard_library(s).num_implementations() == 0) ++empty;
  }
  // 4 goals cannot populate 32 shards; empty shards must be well-formed
  // (full vocabulary, zero implementations) rather than absent.
  EXPECT_GE(empty, 32u - library.num_goals());
}

TEST(ShardingTest, ZeroShardCountClampsToOne) {
  ImplementationLibrary library = SmallLibrary();
  auto sharded = BuildShardedSnapshot(library, 0);
  EXPECT_EQ(sharded->num_shards, 1u);
  CheckPartitionInvariants(library, *sharded);
  // One shard is the identity partition: local ids ARE logical ids.
  for (ImplId p = 0; p < library.num_implementations(); ++p) {
    EXPECT_EQ(sharded->local_of_impl(p), p);
  }
}

TEST(ShardingTest, BaseVersionIsStamped) {
  ImplementationLibrary library = SmallLibrary();
  auto sharded = BuildShardedSnapshot(library, 2, /*base_version=*/42);
  EXPECT_EQ(sharded->base_version, 42u);
  EXPECT_EQ(BuildShardedSnapshot(library, 2)->base_version, 0u);
}

TEST(ShardingTest, EmptyLibraryProducesEmptyShards) {
  ImplementationLibrary library;
  auto sharded = BuildShardedSnapshot(library, 3);
  EXPECT_EQ(sharded->num_shards, 3u);
  for (uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(sharded->shard_library(s).num_implementations(), 0u);
  }
}

}  // namespace
}  // namespace goalrec::model
