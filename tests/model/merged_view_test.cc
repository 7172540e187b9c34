// Semantics of the merged base+delta view: logical-id stability, tombstone
// masking, append-only vocabularies, transactional ApplySegment, and the
// validity of the folded library (ValidateLibrary must accept it — the
// reload guard depends on that). The bit-identity of the fold against a
// from-scratch rebuild is proven at scale by
// tests/oracle/delta_oracle_test.cc; this file pins the unit-level contract.

#include "model/merged_view.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "model/delta.h"
#include "model/library.h"
#include "model/snapshot_io.h"
#include "model/validate.h"
#include "testing/fixtures.h"
#include "util/crc32c.h"
#include "util/status.h"

namespace goalrec::model {
namespace {

MergedLibraryView ViewOver(const ImplementationLibrary& base) {
  return MergedLibraryView(base, util::Crc32c(EncodeSnapshot(base)));
}

void Apply(MergedLibraryView& view, const DeltaOps& ops) {
  DeltaSegment segment{view.NextHeader(), ops};
  std::string bytes = EncodeDeltaSegment(segment.header, ops);
  util::Status status =
      view.ApplySegment(segment, util::Crc32c(bytes), "test");
  ASSERT_TRUE(status.ok()) << status.ToString();
}

TEST(MergedViewTest, AppendAddsImplementationAndInternsNames) {
  ImplementationLibrary base = testing::PaperLibrary();
  MergedLibraryView view = ViewOver(base);

  DeltaOps ops;
  ops.appended.push_back(
      DeltaImplementation{"brand new goal", {"a1", "brand new action"}});
  Apply(view, ops);

  const ImplementationLibrary& merged = view.library();
  EXPECT_EQ(merged.num_implementations(), base.num_implementations() + 1);
  // Vocabularies are append-only: base ids unchanged, new names at the end.
  for (uint32_t a = 0; a < base.num_actions(); ++a) {
    EXPECT_EQ(merged.actions().Name(a), base.actions().Name(a));
  }
  ASSERT_TRUE(merged.actions().Find("brand new action").has_value());
  ASSERT_TRUE(merged.goals().Find("brand new goal").has_value());
  EXPECT_EQ(*merged.actions().Find("brand new action"), base.num_actions());
  EXPECT_EQ(*merged.goals().Find("brand new goal"), base.num_goals());
  EXPECT_TRUE(ValidateLibrary(merged).ok());
}

TEST(MergedViewTest, ImplTombstoneMasksRowAndRenumbersDensely) {
  ImplementationLibrary base = testing::PaperLibrary();
  MergedLibraryView view = ViewOver(base);

  DeltaOps ops;
  ops.tombstoned_impls.push_back(1);  // p2 = (g2, {a1, a4})
  Apply(view, ops);

  const ImplementationLibrary& merged = view.library();
  EXPECT_EQ(merged.num_implementations(), base.num_implementations() - 1);
  // Survivors renumbered densely in logical order: old row 2 is new row 1.
  EXPECT_EQ(merged.GoalOf(1), base.GoalOf(2));
  // Names survive tombstoning — only the implementation row is gone.
  EXPECT_TRUE(merged.goals().Find("g2").has_value());
  EXPECT_TRUE(merged.actions().Find("a4").has_value());
  EXPECT_TRUE(ValidateLibrary(merged).ok());
  EXPECT_EQ(view.stats().tombstoned_implementations, 1u);

  // Re-tombstoning a dead row is idempotent.
  DeltaOps again;
  again.tombstoned_impls.push_back(1);
  Apply(view, again);
  EXPECT_EQ(view.library().num_implementations(),
            base.num_implementations() - 1);
}

TEST(MergedViewTest, GoalTombstoneKillsAllLiveRowsOfTheGoal) {
  LibraryBuilder builder;
  builder.AddImplementation("g", {"a", "b"});
  builder.AddImplementation("g", {"c"});
  builder.AddImplementation("other", {"a", "c"});
  ImplementationLibrary base = std::move(builder).Build();
  MergedLibraryView view = ViewOver(base);

  DeltaOps ops;
  // The goal tombstone also kills rows appended in the SAME segment
  // (apply order: appends first, then goal tombstones).
  ops.appended.push_back(DeltaImplementation{"g", {"a", "d"}});
  ops.tombstoned_goals.push_back("g");
  Apply(view, ops);

  const ImplementationLibrary& merged = view.library();
  EXPECT_EQ(merged.num_implementations(), 1u);
  EXPECT_EQ(merged.goals().Name(merged.GoalOf(0)), "other");
  // The goal's name stays resolvable; its implementation list is empty.
  ASSERT_TRUE(merged.goals().Find("g").has_value());
  EXPECT_TRUE(merged.ImplsOfGoal(*merged.goals().Find("g")).empty());
  EXPECT_EQ(view.stats().tombstoned_goals, 1u);
  EXPECT_TRUE(ValidateLibrary(merged).ok());
}

TEST(MergedViewTest, LogicalIdsStayStableAcrossTombstones) {
  ImplementationLibrary base = testing::PaperLibrary();  // rows 0..4
  MergedLibraryView view = ViewOver(base);

  DeltaOps first;
  first.appended.push_back(DeltaImplementation{"ng", {"a1"}});  // logical 5
  Apply(view, first);

  DeltaOps second;
  second.tombstoned_impls.push_back(0);
  Apply(view, second);

  // Logical id 5 still addresses the appended row even though the merged
  // library renumbered — tombstoning it must empty goal "ng".
  DeltaOps third;
  third.tombstoned_impls.push_back(5);
  Apply(view, third);
  const ImplementationLibrary& merged = view.library();
  ASSERT_TRUE(merged.goals().Find("ng").has_value());
  EXPECT_TRUE(merged.ImplsOfGoal(*merged.goals().Find("ng")).empty());
  EXPECT_EQ(merged.num_implementations(), base.num_implementations() - 1);
}

TEST(MergedViewTest, ApplyIsTransactionalOnRejection) {
  ImplementationLibrary base = testing::PaperLibrary();
  MergedLibraryView view = ViewOver(base);
  std::string before = EncodeSnapshot(view.library());
  DeltaHeader position = view.NextHeader();

  // Mixed segment where one op is invalid: nothing may apply.
  DeltaOps ops;
  ops.appended.push_back(DeltaImplementation{"good goal", {"a1"}});
  ops.tombstoned_goals.push_back("goal that does not exist");
  DeltaSegment segment{view.NextHeader(), ops};
  util::Status status = view.ApplySegment(segment, 1, "mixed");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(EncodeSnapshot(view.library()), before);
  EXPECT_EQ(view.NextHeader().chain_seq, position.chain_seq);
  EXPECT_EQ(view.stats().segments_applied, 0u);
}

TEST(MergedViewTest, ChainPositionAdvancesWithAppliedSegments) {
  ImplementationLibrary base = testing::PaperLibrary();
  MergedLibraryView view = ViewOver(base);
  EXPECT_EQ(view.next_chain_seq(), 1u);
  EXPECT_EQ(view.prev_segment_crc32c(), 0u);

  DeltaOps ops;
  ops.appended.push_back(DeltaImplementation{"g9", {"a1"}});
  DeltaSegment segment{view.NextHeader(), ops};
  std::string bytes = EncodeDeltaSegment(segment.header, ops);
  ASSERT_TRUE(
      view.ApplySegment(segment, util::Crc32c(bytes), "seq1").ok());
  EXPECT_EQ(view.next_chain_seq(), 2u);
  EXPECT_EQ(view.prev_segment_crc32c(), util::Crc32c(bytes));
  EXPECT_EQ(view.NextHeader().base_crc32c, view.base_crc32c());
}

TEST(MergedViewTest, StatsTrackLiveAndFoldTimes) {
  ImplementationLibrary base = testing::PaperLibrary();
  MergedLibraryView view = ViewOver(base);
  DeltaOps ops;
  ops.appended.push_back(DeltaImplementation{"g6", {"a1", "a2"}});
  ops.tombstoned_impls.push_back(0);
  Apply(view, ops);
  const MergedLibraryView::Stats& stats = view.stats();
  EXPECT_EQ(stats.segments_applied, 1u);
  EXPECT_EQ(stats.appended_implementations, 1u);
  EXPECT_EQ(stats.tombstoned_implementations, 1u);
  EXPECT_EQ(stats.live_implementations, base.num_implementations());
  // The fold waits for the read: none has been performed yet.
  EXPECT_EQ(stats.folds, 0u);
  EXPECT_EQ(stats.last_fold_micros, 0);

  EXPECT_EQ(view.library().num_implementations(), base.num_implementations());
  EXPECT_EQ(stats.folds, 1u);
  EXPECT_GE(stats.last_fold_micros, 0);

  // Two more segments, one read: one more fold.
  Apply(view, ops);
  Apply(view, ops);
  EXPECT_EQ(stats.folds, 1u);
  EXPECT_EQ(view.library().num_implementations(),
            base.num_implementations() + 2);
  EXPECT_EQ(view.library().num_implementations(),
            base.num_implementations() + 2);
  EXPECT_EQ(stats.folds, 2u);
}

TEST(MergedViewTest, LibraryBeforeAnySegmentIsTheBase) {
  ImplementationLibrary base = testing::PaperLibrary();
  MergedLibraryView view = ViewOver(base);
  EXPECT_EQ(&view.library(), &view.base());
  EXPECT_EQ(view.stats().folds, 0u);
}

}  // namespace
}  // namespace goalrec::model
