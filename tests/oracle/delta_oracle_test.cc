// The delta-segment differential suite: a MergedLibraryView driven through
// randomized append/tombstone/compaction schedules must be BIT-IDENTICAL to
// rebuilding the library from scratch with LibraryBuilder at every step —
// at the snapshot-byte level (EncodeSnapshot equality pins vocabularies and
// implementation rows) and at the query level (every strategy, allocating
// and pooled paths, pins the derived indexes the fold rebuilds). Segments
// additionally round-trip through the GRSDLT1 codec on every application,
// so the differential also covers encode/decode, and a final on-disk pass
// drives the same schedules through DeltaLog's writer and reader.

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/query_workspace.h"
#include "model/delta.h"
#include "model/delta_log.h"
#include "model/library.h"
#include "model/merged_view.h"
#include "model/snapshot_io.h"
#include "testing/differential.h"
#include "testing/fixtures.h"
#include "util/crc32c.h"
#include "util/random.h"
#include "util/status.h"

namespace goalrec::testing {
namespace {

// >= 240 randomized mutation schedules per strategy (ISSUE 9 acceptance
// bar), each applying 1-4 segments with occasional mid-schedule compaction.
constexpr int kCasesPerStrategy = 256;
constexpr uint64_t kMasterSeed = 20260808;

// The from-scratch reference: replay base + tape with LibraryBuilder using
// the documented fold contract — base vocabularies interned in id order,
// every appended record's names interned in record order (actions then
// goal, dead records included), surviving rows added in logical order.
model::ImplementationLibrary ReplayReference(
    const model::ImplementationLibrary& base,
    const std::vector<model::DeltaOps>& tape) {
  model::LibraryBuilder builder;
  for (uint32_t a = 0; a < base.num_actions(); ++a) {
    builder.InternAction(base.actions().Name(a));
  }
  for (uint32_t g = 0; g < base.num_goals(); ++g) {
    builder.InternGoal(base.goals().Name(g));
  }
  struct Row {
    std::string goal;
    std::vector<std::string> actions;
    bool alive = true;
  };
  std::vector<Row> rows;
  for (model::ImplId p = 0; p < base.num_implementations(); ++p) {
    Row row;
    row.goal = base.goals().Name(base.GoalOf(p));
    for (model::ActionId a : base.ActionsOf(p)) {
      row.actions.push_back(base.actions().Name(a));
    }
    rows.push_back(std::move(row));
  }
  for (const model::DeltaOps& ops : tape) {
    // Apply order within a segment: appends, then goal tombstones (which
    // see the just-appended rows), then implementation tombstones.
    for (const model::DeltaImplementation& impl : ops.appended) {
      for (const std::string& action : impl.actions) {
        builder.InternAction(action);
      }
      builder.InternGoal(impl.goal);
      rows.push_back(Row{impl.goal, impl.actions, true});
    }
    for (const std::string& goal : ops.tombstoned_goals) {
      for (Row& row : rows) {
        if (row.alive && row.goal == goal) row.alive = false;
      }
    }
    for (uint32_t id : ops.tombstoned_impls) {
      if (id < rows.size()) rows[id].alive = false;
    }
  }
  for (const Row& row : rows) {
    if (row.alive) builder.AddImplementation(row.goal, row.actions);
  }
  return std::move(builder).Build();
}

// One randomized mutation batch against the current merged state. Never
// empty. Tombstone ids are drawn over the whole logical space (dead rows
// included — re-tombstoning is idempotent by contract).
model::DeltaOps RandomOps(const model::ImplementationLibrary& merged,
                          uint64_t logical_rows, int epoch, util::Rng& rng) {
  model::DeltaOps ops;
  uint32_t appends = rng.UniformUint32(4);  // 0..3
  for (uint32_t j = 0; j < appends; ++j) {
    model::DeltaImplementation impl;
    if (merged.num_goals() > 0 && rng.Bernoulli(0.5)) {
      impl.goal = merged.goals().Name(rng.UniformUint32(merged.num_goals()));
    } else {
      impl.goal = "delta goal " + std::to_string(epoch) + "-" +
                  std::to_string(j);
    }
    uint32_t actions = 1 + rng.UniformUint32(4);
    for (uint32_t a = 0; a < actions; ++a) {
      if (merged.num_actions() > 0 && rng.Bernoulli(0.7)) {
        impl.actions.push_back(
            merged.actions().Name(rng.UniformUint32(merged.num_actions())));
      } else {
        impl.actions.push_back("delta action " + std::to_string(epoch) + "-" +
                               std::to_string(j) + "-" + std::to_string(a));
      }
    }
    ops.appended.push_back(std::move(impl));
  }
  if (merged.num_goals() > 0 && rng.Bernoulli(0.3)) {
    ops.tombstoned_goals.push_back(
        merged.goals().Name(rng.UniformUint32(merged.num_goals())));
  }
  if (logical_rows > 0 && rng.Bernoulli(0.4)) {
    uint32_t kills = 1 + rng.UniformUint32(2);
    for (uint32_t j = 0; j < kills; ++j) {
      ops.tombstoned_impls.push_back(
          rng.UniformUint32(static_cast<uint32_t>(logical_rows)));
    }
  }
  if (ops.empty()) {
    model::DeltaImplementation impl;
    impl.goal = "delta goal " + std::to_string(epoch) + "-fallback";
    impl.actions.push_back("delta action " + std::to_string(epoch) +
                           "-fallback");
    ops.appended.push_back(std::move(impl));
  }
  return ops;
}

// Applies `ops` through the full codec: encode, decode, apply. Returns the
// decoded segment's CRC so the chain stays linked.
void ApplyThroughCodec(model::MergedLibraryView& view,
                       const model::DeltaOps& ops) {
  model::DeltaHeader header = view.NextHeader();
  std::string bytes = model::EncodeDeltaSegment(header, ops);
  util::StatusOr<model::DeltaSegment> decoded =
      model::DecodeDeltaSegment(bytes, "oracle");
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  util::Status applied =
      view.ApplySegment(*decoded, util::Crc32c(bytes), "oracle");
  ASSERT_TRUE(applied.ok()) << applied.ToString();
}

void ExpectBitIdentical(const model::ImplementationLibrary& merged,
                        const model::ImplementationLibrary& reference,
                        const std::string& context) {
  EXPECT_EQ(model::EncodeSnapshot(merged), model::EncodeSnapshot(reference))
      << "merged view diverged from the from-scratch rebuild (" << context
      << ")";
}

class DeltaOracleTest : public ::testing::TestWithParam<core::Strategy> {};

// The tentpole invariant: after every applied segment (and across
// compactions), queries against the merged view match queries against a
// from-scratch rebuild — allocating and pooled paths both — and the encoded
// snapshots are byte-equal.
TEST_P(DeltaOracleTest, MergedViewIsBitIdenticalToRebuildAcrossSchedules) {
  util::Rng seeds(kMasterSeed, /*stream=*/11);
  for (int i = 0; i < kCasesPerStrategy; ++i) {
    uint64_t case_seed = seeds.NextUint64();
    util::Rng rng(case_seed, /*stream=*/1);
    SCOPED_TRACE("case seed " + std::to_string(case_seed));

    model::ImplementationLibrary base =
        RandomLibrary(12 + rng.UniformUint32(24), 4 + rng.UniformUint32(10),
                      10 + rng.UniformUint32(60), 5, rng.NextUint64());
    std::string base_bytes = model::EncodeSnapshot(base);
    model::MergedLibraryView view(base, util::Crc32c(base_bytes));
    model::ImplementationLibrary ref_base = base;
    std::vector<model::DeltaOps> tape;

    uint32_t segments = 1 + rng.UniformUint32(4);
    for (uint32_t s = 0; s < segments; ++s) {
      uint64_t logical_rows = ref_base.num_implementations();
      for (const model::DeltaOps& ops : tape) {
        logical_rows += ops.appended.size();
      }
      tape.push_back(RandomOps(view.library(), logical_rows,
                               static_cast<int>(s), rng));
      ApplyThroughCodec(view, tape.back());

      model::ImplementationLibrary reference = ReplayReference(ref_base, tape);
      ExpectBitIdentical(view.library(), reference,
                         "segment " + std::to_string(s + 1));

      // Query differential over the merged vocabulary, both serving paths.
      core::QueryWorkspace workspace;
      for (int q = 0; q < 3; ++q) {
        model::Activity activity = RandomActivity(
            view.library().num_actions(),
            1 + rng.UniformUint32(5), rng);
        size_t k = 1 + rng.UniformUint32(10);
        core::RecommendationList expect =
            RunOptimized(reference, GetParam(), activity, k);
        core::RecommendationList got =
            RunOptimized(view.library(), GetParam(), activity, k);
        core::RecommendationList pooled = RunOptimizedPooled(
            view.library(), GetParam(), activity, k, workspace);
        ASSERT_EQ(got.size(), expect.size());
        ASSERT_EQ(pooled.size(), expect.size());
        for (size_t r = 0; r < expect.size(); ++r) {
          EXPECT_EQ(got[r].action, expect[r].action);
          EXPECT_EQ(got[r].score, expect[r].score);
          EXPECT_EQ(pooled[r].action, expect[r].action);
          EXPECT_EQ(pooled[r].score, expect[r].score);
        }
      }

      // Occasional compaction: the merged library becomes the new base and
      // the chain (and the reference tape) re-anchor.
      if (rng.Bernoulli(0.25)) {
        model::ImplementationLibrary compacted = view.library();
        std::string compacted_bytes = model::EncodeSnapshot(compacted);
        view = model::MergedLibraryView(std::move(compacted),
                                       util::Crc32c(compacted_bytes));
        ref_base = ReplayReference(ref_base, tape);
        tape.clear();
        ExpectBitIdentical(view.library(), ref_base, "post-compaction");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, DeltaOracleTest,
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

// The same bit-identity, through the on-disk DeltaLog: a single writer
// appends and compacts while an independently opened reader polls; both
// must track the from-scratch rebuild byte-for-byte.
TEST(DeltaLogOracleTest, WriterAndPollingReaderTrackRebuild) {
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("goalrec_delta_oracle_" + std::to_string(::getpid()));
  util::Rng seeds(kMasterSeed, /*stream=*/12);
  for (int i = 0; i < 40; ++i) {
    uint64_t case_seed = seeds.NextUint64();
    util::Rng rng(case_seed, /*stream=*/2);
    SCOPED_TRACE("case seed " + std::to_string(case_seed));
    std::filesystem::remove_all(dir);

    model::ImplementationLibrary base =
        RandomLibrary(20, 8, 40, 5, rng.NextUint64());
    util::StatusOr<model::DeltaLog> created =
        model::DeltaLog::Create(dir.string(), base);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    model::DeltaLog writer = std::move(created).value();

    model::DeltaLogOptions reader_options;
    reader_options.remove_stale_segments = false;
    util::StatusOr<model::DeltaLog> opened =
        model::DeltaLog::Open(dir.string(), reader_options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    model::DeltaLog reader = std::move(opened).value();

    model::ImplementationLibrary ref_base = base;
    std::vector<model::DeltaOps> tape;
    uint32_t epochs = 2 + rng.UniformUint32(4);
    for (uint32_t e = 0; e < epochs; ++e) {
      uint64_t logical_rows = ref_base.num_implementations();
      for (const model::DeltaOps& ops : tape) {
        logical_rows += ops.appended.size();
      }
      tape.push_back(RandomOps(writer.library(), logical_rows,
                               static_cast<int>(e), rng));
      util::Status appended = writer.Append(tape.back());
      ASSERT_TRUE(appended.ok()) << appended.ToString();
      if (rng.Bernoulli(0.3)) {
        util::Status compacted = writer.Compact();
        ASSERT_TRUE(compacted.ok()) << compacted.ToString();
        ref_base = ReplayReference(ref_base, tape);
        tape.clear();
      }
      util::StatusOr<model::DeltaLog::PollResult> polled = reader.Poll();
      ASSERT_TRUE(polled.ok()) << polled.status().ToString();
      ASSERT_TRUE(reader.quarantined().empty());

      model::ImplementationLibrary reference = ReplayReference(ref_base, tape);
      ExpectBitIdentical(writer.library(), reference,
                         "writer epoch " + std::to_string(e));
      ExpectBitIdentical(reader.library(), reference,
                         "reader epoch " + std::to_string(e));
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace goalrec::testing
