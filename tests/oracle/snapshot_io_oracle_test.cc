// Differential safety net for snapshot persistence: a library that has been
// through the ".snap" wire format (EncodeSnapshot → DecodeSnapshot) must be
// INDISTINGUISHABLE from the original to every recommendation strategy —
// same actions, same scores, bitwise, in the same order. Persistence
// preserves numeric ids exactly, so the bar is strict equality, not
// name-level structural equivalence. Each decoded library is also checked
// against the naive reference oracle, closing the loop: original ≡ decoded
// ≡ reference.
//
// Failures print the case seed; reproduce with goalrec_fuzz --seed=<seed>.

#include <filesystem>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "model/library.h"
#include "model/library_io.h"
#include "model/snapshot_io.h"
#include "testing/differential.h"
#include "testing/generator.h"
#include "testing/reference.h"
#include "util/random.h"
#include "util/set_ops.h"
#include "util/status.h"

namespace goalrec::testing {
namespace {

// >= 240 seeded cases per strategy (ISSUE 6 acceptance bar), swept across
// every generator shape preset.
constexpr int kCasesPerStrategy = 240;
constexpr uint64_t kMasterSeed = 20260808;

class SnapshotIoOracleTest : public ::testing::TestWithParam<core::Strategy> {
};

TEST_P(SnapshotIoOracleTest, DecodedSnapshotIsBitIdenticalToOriginal) {
  std::vector<CaseShape> shapes = DefaultCaseShapes();
  util::Rng seeds(kMasterSeed, /*stream=*/41);
  DiffOptions strict;
  strict.strict_order = true;
  strict.score_tolerance = 0.0;
  // The strategy name keeps the path unique per parameterized instance:
  // ctest -j runs the instances as concurrent processes, and a shared path
  // races one process's rewrite against another's load.
  std::string text_path =
      (std::filesystem::temp_directory_path() /
       ("goalrec_snapio_oracle_text_" +
        std::string(core::StrategyName(GetParam())) + ".txt"))
          .string();
  for (int i = 0; i < kCasesPerStrategy; ++i) {
    uint64_t case_seed = seeds.NextUint64();
    OracleCase c = GenerateCase(
        shapes[static_cast<size_t>(i) % shapes.size()], case_seed);
    // The acceptance bar is "bit-identical to TEXT loading": the library
    // under test is the one a server would get from the text corpus, and
    // the snapshot round-trip must not be distinguishable from it. The
    // activity is id-based and text loading renumbers ids, so remap it
    // through the vocabulary before querying the text-loaded library.
    ASSERT_TRUE(model::SaveLibraryText(c.library, text_path).ok());
    // Quarantine: generated degenerate shapes include empty-action-set
    // implementations, which the text format cannot express and strict
    // loading (correctly) rejects. The comparison below is between the
    // text-loaded library and its snapshot round-trip, so dropped records
    // do not weaken the property.
    model::LoadOptions quarantine;
    quarantine.mode = model::ValidationMode::kQuarantine;
    util::StatusOr<model::ImplementationLibrary> text_loaded =
        model::LoadLibraryText(text_path, quarantine);
    ASSERT_TRUE(text_loaded.ok())
        << text_loaded.status().ToString() << " (case seed " << case_seed
        << ")";
    model::Activity activity;
    for (model::ActionId a : c.activity) {
      if (std::optional<model::ActionId> mapped =
              text_loaded->actions().Find(c.library.actions().Name(a))) {
        activity.push_back(*mapped);
      }
    }
    util::Normalize(activity);
    // Every action survives the text format (unreferenced ones as
    // declarations), so the remap keeps the whole activity; the property
    // under test (text-loaded ≡ snapshot-round-tripped) would hold for any
    // query the text-loaded vocabulary can express.
    c.library = *std::move(text_loaded);
    c.activity = std::move(activity);

    std::string bytes = model::EncodeSnapshot(c.library);
    util::StatusOr<model::ImplementationLibrary> decoded =
        model::DecodeSnapshot(bytes, "oracle");
    ASSERT_TRUE(decoded.ok())
        << decoded.status().ToString() << " (case seed " << case_seed << ")";

    core::RecommendationList original =
        RunOptimized(c.library, GetParam(), c.activity, c.k);
    core::RecommendationList persisted =
        RunOptimized(*decoded, GetParam(), c.activity, c.k);
    ASSERT_EQ(original.size(), persisted.size())
        << core::StrategyName(GetParam()) << " (case seed " << case_seed
        << ")";
    for (size_t r = 0; r < original.size(); ++r) {
      ASSERT_EQ(original[r].action, persisted[r].action)
          << core::StrategyName(GetParam()) << " rank " << r << " (case seed "
          << case_seed << ")";
      ASSERT_EQ(original[r].score, persisted[r].score)
          << core::StrategyName(GetParam()) << " rank " << r << " (case seed "
          << case_seed << ")";
    }

    // And against the reference oracle on the ORIGINAL library: persistence
    // composed with the optimized path still matches the naive semantics.
    DiffOutcome outcome = CompareLists(
        persisted, RunReference(c.library, GetParam(), c.activity, c.k),
        strict);
    ASSERT_TRUE(outcome.match)
        << core::StrategyName(GetParam()) << ": " << outcome.detail
        << " (case seed " << case_seed << ")";
  }
  std::filesystem::remove(text_path);
}

// The same property through the filesystem: SaveSnapshot + LoadSnapshotFile
// (tmp file, fsync, rename) must not perturb a single bit of the library.
// Fewer cases — the disk round-trip is the slow part; the in-memory sweep
// above carries the volume.
TEST_P(SnapshotIoOracleTest, FileRoundTripMatchesInMemoryEncoding) {
  std::vector<CaseShape> shapes = DefaultCaseShapes();
  util::Rng seeds(kMasterSeed, /*stream=*/43);
  std::string path = (std::filesystem::temp_directory_path() /
                      ("goalrec_snapio_oracle_" +
                       std::string(core::StrategyName(GetParam())) + ".snap"))
                         .string();
  for (int i = 0; i < 20; ++i) {
    uint64_t case_seed = seeds.NextUint64();
    OracleCase c = GenerateCase(
        shapes[static_cast<size_t>(i) % shapes.size()], case_seed);
    ASSERT_TRUE(model::SaveSnapshot(c.library, path).ok());
    util::StatusOr<model::ImplementationLibrary> loaded =
        model::LoadSnapshotFile(path);
    ASSERT_TRUE(loaded.ok())
        << loaded.status().ToString() << " (case seed " << case_seed << ")";
    EXPECT_EQ(model::EncodeSnapshot(*loaded), model::EncodeSnapshot(c.library))
        << "(case seed " << case_seed << ")";

    core::RecommendationList original =
        RunOptimized(c.library, GetParam(), c.activity, c.k);
    core::RecommendationList persisted =
        RunOptimized(*loaded, GetParam(), c.activity, c.k);
    ASSERT_EQ(original.size(), persisted.size())
        << "(case seed " << case_seed << ")";
    for (size_t r = 0; r < original.size(); ++r) {
      ASSERT_EQ(original[r].action, persisted[r].action)
          << "rank " << r << " (case seed " << case_seed << ")";
      ASSERT_EQ(original[r].score, persisted[r].score)
          << "rank " << r << " (case seed " << case_seed << ")";
    }
  }
  std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, SnapshotIoOracleTest,
    ::testing::ValuesIn(core::AllStrategies()),
    [](const ::testing::TestParamInfo<core::Strategy>& info) {
      switch (info.param) {
        case core::Strategy::kFocusCompleteness:
          return std::string("FocusCmp");
        case core::Strategy::kFocusCloseness:
          return std::string("FocusCl");
        case core::Strategy::kBreadth:
          return std::string("Breadth");
        case core::Strategy::kBestMatch:
          return std::string("BestMatch");
      }
      return std::string("Unknown");
    });

}  // namespace
}  // namespace goalrec::testing
