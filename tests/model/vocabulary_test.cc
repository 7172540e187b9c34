#include "model/vocabulary.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "model/delta.h"
#include "model/library.h"
#include "model/merged_view.h"
#include "model/sharding.h"
#include "model/snapshot.h"
#include "model/snapshot_io.h"
#include "testing/fixtures.h"
#include "util/crc32c.h"
#include "util/random.h"

namespace goalrec::model {
namespace {

TEST(VocabularyTest, InternAssignsDenseIds) {
  Vocabulary vocab;
  EXPECT_EQ(vocab.Intern("alpha"), 0u);
  EXPECT_EQ(vocab.Intern("beta"), 1u);
  EXPECT_EQ(vocab.Intern("gamma"), 2u);
  EXPECT_EQ(vocab.size(), 3u);
}

TEST(VocabularyTest, InternIsIdempotent) {
  Vocabulary vocab;
  uint32_t id = vocab.Intern("alpha");
  EXPECT_EQ(vocab.Intern("alpha"), id);
  EXPECT_EQ(vocab.size(), 1u);
}

TEST(VocabularyTest, FindExisting) {
  Vocabulary vocab;
  vocab.Intern("alpha");
  auto found = vocab.Find("alpha");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, 0u);
}

TEST(VocabularyTest, FindMissing) {
  Vocabulary vocab;
  EXPECT_FALSE(vocab.Find("nothing").has_value());
}

TEST(VocabularyTest, NameRoundTrip) {
  Vocabulary vocab;
  vocab.Intern("alpha");
  vocab.Intern("beta");
  EXPECT_EQ(vocab.Name(0), "alpha");
  EXPECT_EQ(vocab.Name(1), "beta");
}

TEST(VocabularyTest, EmptyStringIsAValidName) {
  Vocabulary vocab;
  uint32_t id = vocab.Intern("");
  EXPECT_EQ(vocab.Name(id), "");
  EXPECT_TRUE(vocab.Find("").has_value());
}

TEST(VocabularyTest, Empty) {
  Vocabulary vocab;
  EXPECT_TRUE(vocab.empty());
  vocab.Intern("x");
  EXPECT_FALSE(vocab.empty());
}

TEST(VocabularyTest, ReserveThenBulkInternKeepsIdsAndLookups) {
  Vocabulary vocab;
  vocab.Reserve(500);
  for (uint32_t i = 0; i < 500; ++i) {
    EXPECT_EQ(vocab.Intern("item" + std::to_string(i)), i);
  }
  EXPECT_EQ(vocab.size(), 500u);
  for (uint32_t i = 0; i < 500; ++i) {
    auto found = vocab.Find("item" + std::to_string(i));
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, i);
  }
  // Reserving below or at the current size is a no-op.
  vocab.Reserve(10);
  EXPECT_EQ(vocab.size(), 500u);
}

TEST(VocabularyTest, HeterogeneousLookupTakesStringViews) {
  Vocabulary vocab;
  vocab.Intern("walk the dog");
  // Find/Intern accept raw string_views — including non-null-terminated
  // slices of a larger buffer — without materialising a std::string key.
  std::string_view line = "walk the dog,feed the cat";
  std::string_view first = line.substr(0, 12);
  auto found = vocab.Find(first);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, 0u);
  EXPECT_EQ(vocab.Intern(line.substr(13)), 1u);
  EXPECT_EQ(vocab.Name(1), "feed the cat");
}

TEST(VocabularyDeathTest, NameOutOfRangeAborts) {
  Vocabulary vocab;
  EXPECT_DEATH({ vocab.Name(0); }, "CHECK failed");
}

TEST(VocabularyTest, ManyNames) {
  Vocabulary vocab;
  for (uint32_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(vocab.Intern("name" + std::to_string(i)), i);
  }
  for (uint32_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(vocab.Name(i), "name" + std::to_string(i));
  }
}

// --- shared prefixes --------------------------------------------------------

Vocabulary Named(std::initializer_list<std::string_view> names) {
  Vocabulary vocab;
  for (std::string_view name : names) vocab.Intern(name);
  return vocab;
}

TEST(VocabularySharingTest, InterningOnACopyLeavesTheOriginalUnchanged) {
  for (bool shared : {false, true}) {
    Vocabulary original = Named({"alpha", "beta"});
    if (shared) original.Share();
    Vocabulary copy = original;
    EXPECT_EQ(copy.Intern("gamma"), 2u);
    EXPECT_EQ(copy.Intern("alpha"), 0u);
    EXPECT_EQ(copy.size(), 3u);
    EXPECT_EQ(original.size(), 2u) << "shared=" << shared;
    EXPECT_FALSE(original.Find("gamma").has_value()) << "shared=" << shared;
    // Each side can now intern a different name under the same id.
    EXPECT_EQ(original.Intern("delta"), 2u);
    EXPECT_EQ(original.Name(2), "delta");
    EXPECT_EQ(copy.Name(2), "gamma");
    EXPECT_FALSE(copy.Find("delta").has_value());
  }
}

TEST(VocabularySharingTest, InterningOnTheOriginalLeavesACopyUnchanged) {
  for (bool shared : {false, true}) {
    Vocabulary original = Named({"alpha", "beta"});
    if (shared) original.Share();
    original.Intern("tail");  // owned beside the prefix
    Vocabulary copy = original;
    EXPECT_EQ(original.Intern("gamma"), 3u);
    EXPECT_EQ(copy.size(), 3u) << "shared=" << shared;
    EXPECT_FALSE(copy.Find("gamma").has_value()) << "shared=" << shared;
    EXPECT_EQ(copy.Find("tail"), std::optional<uint32_t>(2u));
    EXPECT_EQ(copy.Name(2), "tail");
  }
}

TEST(VocabularySharingTest, ShareKeepsIdsNamesAndLookups) {
  Vocabulary vocab = Named({"alpha", "beta"});
  vocab.Share();
  EXPECT_EQ(vocab.size(), 2u);
  EXPECT_EQ(vocab.Name(1), "beta");
  EXPECT_EQ(vocab.Find("alpha"), std::optional<uint32_t>(0u));
  EXPECT_EQ(vocab.Intern("beta"), 1u);
  EXPECT_EQ(vocab.Intern("gamma"), 2u);
  // A second Share keeps the first prefix; names interned since stay owned
  // and keep their ids.
  const std::string* prefix_name = &vocab.Name(0);
  vocab.Share();
  EXPECT_EQ(&vocab.Name(0), prefix_name);
  EXPECT_EQ(vocab.Name(2), "gamma");
  EXPECT_EQ(vocab.Find("gamma"), std::optional<uint32_t>(2u));
  // Sharing an empty vocabulary is a no-op.
  Vocabulary empty;
  empty.Share();
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.Intern("x"), 0u);
}

TEST(VocabularySharingTest, MovedFromVocabularyIsEmpty) {
  Vocabulary vocab = Named({"alpha", "beta"});
  vocab.Share();
  vocab.Intern("gamma");
  Vocabulary moved = std::move(vocab);
  EXPECT_EQ(moved.size(), 3u);
  EXPECT_EQ(moved.Name(2), "gamma");
  EXPECT_TRUE(vocab.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(vocab.Intern("fresh"), 0u);
}

TEST(VocabularySharingTest, MatchesANeverCopiedVocabularyOnTheSameSequence) {
  // The same interning sequence fed to a plain vocabulary and to a chain of
  // copies that share (and re-share) at random points must give the same
  // id for every call and the same Name/Find afterwards.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed);
    Vocabulary plain;
    Vocabulary chained;
    std::vector<Vocabulary> keep_alive;
    for (int step = 0; step < 400; ++step) {
      if (rng.Bernoulli(0.05)) chained.Share();
      if (rng.Bernoulli(0.05)) {
        keep_alive.push_back(chained);
        chained = keep_alive.back();  // continue on a copy
      }
      std::string name = "n" + std::to_string(rng.UniformUint32(300));
      ASSERT_EQ(chained.Intern(name), plain.Intern(name))
          << "seed " << seed << " step " << step;
      ASSERT_EQ(chained.size(), plain.size());
    }
    for (uint32_t id = 0; id < plain.size(); ++id) {
      EXPECT_EQ(chained.Name(id), plain.Name(id));
      EXPECT_EQ(chained.Find(plain.Name(id)), std::optional<uint32_t>(id));
    }
    EXPECT_FALSE(chained.Find("n300").has_value());
    EXPECT_FALSE(chained.Find("missing").has_value());
  }
}

// Copies made along the publish path share the base's names instead of
// copying them: the fold, MakeSnapshot and a 4-shard split all hand out the
// very same string objects. A fall-back to deep copies fails here.
TEST(VocabularySharingTest, PublishPathSharesTheBaseNames) {
  ImplementationLibrary base = testing::RandomLibrary(60, 12, 200, 5, 3);
  ASSERT_GT(base.num_actions(), 0u);
  ASSERT_GT(base.num_goals(), 0u);
  const std::string* action0 = &base.actions().Name(0);
  const std::string* goal0 = &base.goals().Name(0);

  MergedLibraryView view(base, util::Crc32c(EncodeSnapshot(base)));
  DeltaOps ops;
  ops.appended.push_back(DeltaImplementation{
      "a goal the delta adds", {base.actions().Name(0), "a new action"}});
  ops.tombstoned_impls.push_back(0);
  DeltaSegment segment{view.NextHeader(), ops};
  ASSERT_TRUE(view.ApplySegment(segment,
                                util::Crc32c(EncodeDeltaSegment(
                                    segment.header, ops)),
                                "test")
                  .ok());
  const ImplementationLibrary& folded = view.library();
  ASSERT_EQ(folded.num_actions(), base.num_actions() + 1);
  EXPECT_EQ(&folded.actions().Name(0), action0) << "fold copied the names";
  EXPECT_EQ(&folded.goals().Name(0), goal0) << "fold copied the names";

  std::shared_ptr<const LibrarySnapshot> snapshot = MakeSnapshot(folded);
  EXPECT_EQ(&snapshot->library.actions().Name(0), action0)
      << "MakeSnapshot copied the names";
  EXPECT_EQ(&snapshot->library.goals().Name(0), goal0)
      << "MakeSnapshot copied the names";
  EXPECT_EQ(snapshot->library.actions().Name(base.num_actions()),
            "a new action");

  std::shared_ptr<const ShardedSnapshot> sharded =
      BuildShardedSnapshot(snapshot->library, 4);
  ASSERT_EQ(sharded->num_shards, 4u);
  for (uint32_t s = 0; s < 4; ++s) {
    const ImplementationLibrary& shard = sharded->shard_library(s);
    EXPECT_EQ(&shard.actions().Name(0), action0) << "shard " << s;
    EXPECT_EQ(&shard.goals().Name(0), goal0) << "shard " << s;
    EXPECT_EQ(shard.actions().Find("a new action"),
              std::optional<uint32_t>(base.num_actions()));
  }

  ImplementationLibrary rebuilt =
      LibraryBuilder::FromLibrary(snapshot->library).Build();
  EXPECT_EQ(&rebuilt.actions().Name(0), action0)
      << "FromLibrary copied the names";
}

// Several threads read copies that share one prefix while a sibling copy
// interns new names (run under ThreadSanitizer in the TSan tree).
TEST(VocabularySharingTest, ConcurrentReadersOfASharedPrefix) {
  Vocabulary base;
  for (uint32_t i = 0; i < 2000; ++i) base.Intern("name" + std::to_string(i));
  base.Share();

  constexpr int kReaders = 4;
  std::atomic<bool> go{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, copy = base]() mutable {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int round = 0; round < 20; ++round) {
        for (uint32_t i = 0; i < 2000; ++i) {
          const std::string name = "name" + std::to_string(i);
          if (copy.Find(name) != std::optional<uint32_t>(i) ||
              copy.Name(i) != name) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
        // A reader's own interning stays private to its copy.
        copy.Intern("reader-only " + std::to_string(round));
      }
    });
  }
  Vocabulary sibling = base;
  go.store(true, std::memory_order_release);
  uint32_t sibling_mismatches = 0;
  for (uint32_t i = 0; i < 5000; ++i) {
    if (sibling.Intern("sibling" + std::to_string(i)) != 2000u + i) {
      ++sibling_mismatches;
    }
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(sibling_mismatches, 0u);
  EXPECT_EQ(sibling.Find("name1999"), std::optional<uint32_t>(1999u));
  EXPECT_EQ(base.size(), 2000u);
  EXPECT_FALSE(base.Find("sibling0").has_value());
  EXPECT_FALSE(base.Find("reader-only 0").has_value());
}

}  // namespace
}  // namespace goalrec::model
