// Crash-at-any-byte recovery for the delta directory: DeltaLog::Open must
// reopen at the last durable prefix no matter where a publish was torn —
// truncated or bit-flipped tail segments are quarantined (files left in
// place for the restarted writer to rewrite), chain gaps quarantine
// everything after them, and a crash mid-compaction leaves either the old
// world or the new base with recognisably stale leftovers.

#include "model/delta_log.h"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "model/delta.h"
#include "model/library.h"
#include "model/snapshot_io.h"
#include "obs/metrics.h"
#include "serve/sharded.h"
#include "serve/snapshot_manager.h"
#include "testing/fixtures.h"
#include "util/status.h"

namespace goalrec::model {
namespace {

class DeltaLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("goalrec_delta_log_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  DeltaLog Create() {
    util::StatusOr<DeltaLog> log =
        DeltaLog::Create(dir_, testing::PaperLibrary());
    EXPECT_TRUE(log.ok()) << log.status().ToString();
    return std::move(log).value();
  }

  static DeltaOps AppendOps(int i) {
    DeltaOps ops;
    ops.appended.push_back(DeltaImplementation{
        "delta goal " + std::to_string(i), {"a1", "da" + std::to_string(i)}});
    return ops;
  }

  std::string ReadFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  void WriteFile(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string dir_;
};

TEST_F(DeltaLogTest, CreateAppendReopenRecoversTheFullChain) {
  {
    DeltaLog log = Create();
    ASSERT_TRUE(log.Append(AppendOps(1)).ok());
    ASSERT_TRUE(log.Append(AppendOps(2)).ok());
    EXPECT_EQ(log.stats().segments_active, 2u);
  }
  util::StatusOr<DeltaLog> reopened = DeltaLog::Open(dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->stats().segments_active, 2u);
  EXPECT_EQ(reopened->library().num_implementations(),
            testing::PaperLibrary().num_implementations() + 2);
  EXPECT_TRUE(reopened->quarantined().empty());
}

// Every-byte crash model for segment publishes: whatever prefix of segment
// 2's bytes reaches disk, Open recovers exactly the base + segment 1 view.
// (A torn file can only exist through a non-atomic writer or fs damage —
// Append itself publishes via rename — but recovery must handle it.)
TEST_F(DeltaLogTest, TornTailSegmentIsQuarantinedAtEveryTruncation) {
  DeltaLog log = Create();
  ASSERT_TRUE(log.Append(AppendOps(1)).ok());
  const std::string good_snapshot = EncodeSnapshot(log.library());
  ASSERT_TRUE(log.Append(AppendOps(2)).ok());
  const std::string seg2 = log.SegmentPath(2);
  const std::string full = ReadFile(seg2);
  ASSERT_FALSE(full.empty());

  // Sweep a sample of truncation points including every boundary region
  // (all points would be ~full.size() reopens; step keeps it fast while
  // still crossing header/frame/footer edges).
  for (size_t n = 0; n < full.size(); n += (n < 64 ? 1 : 7)) {
    WriteFile(seg2, full.substr(0, n));
    util::StatusOr<DeltaLog> reopened = DeltaLog::Open(dir_);
    ASSERT_TRUE(reopened.ok()) << "torn at " << n << ": "
                               << reopened.status().ToString();
    EXPECT_EQ(reopened->stats().segments_active, 1u) << "torn at " << n;
    EXPECT_EQ(reopened->stats().quarantined_segments, 1u) << "torn at " << n;
    EXPECT_EQ(EncodeSnapshot(reopened->library()), good_snapshot)
        << "torn at " << n;
  }
  // The quarantined file stays on disk for the writer to rewrite.
  EXPECT_TRUE(std::filesystem::exists(seg2));
}

TEST_F(DeltaLogTest, BitFlippedTailSegmentIsQuarantined) {
  DeltaLog log = Create();
  ASSERT_TRUE(log.Append(AppendOps(1)).ok());
  const std::string seg1 = log.SegmentPath(1);
  const std::string full = ReadFile(seg1);
  for (size_t i = 0; i < full.size(); i += (i < 64 ? 1 : 5)) {
    std::string corrupt = full;
    corrupt[i] = static_cast<char>(corrupt[i] ^ (1u << (i % 8)));
    WriteFile(seg1, corrupt);
    util::StatusOr<DeltaLog> reopened = DeltaLog::Open(dir_);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ(reopened->stats().segments_active, 0u) << "flip at " << i;
    EXPECT_EQ(reopened->stats().quarantined_segments, 1u) << "flip at " << i;
  }
}

TEST_F(DeltaLogTest, ChainGapQuarantinesEverythingAfterIt) {
  DeltaLog log = Create();
  ASSERT_TRUE(log.Append(AppendOps(1)).ok());
  ASSERT_TRUE(log.Append(AppendOps(2)).ok());
  ASSERT_TRUE(log.Append(AppendOps(3)).ok());
  ASSERT_EQ(::unlink(log.SegmentPath(2).c_str()), 0);

  util::StatusOr<DeltaLog> reopened = DeltaLog::Open(dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->stats().segments_active, 1u);
  // Segment 3 is unreachable past the gap.
  std::vector<QuarantinedSegment> quarantined = reopened->quarantined();
  ASSERT_EQ(quarantined.size(), 1u);
  EXPECT_NE(quarantined[0].reason.find("no segment at seq 2"),
            std::string::npos)
      << quarantined[0].reason;
}

TEST_F(DeltaLogTest, CrashMidCompactionLeavesStaleSegmentsThatOpenCleans) {
  DeltaLog log = Create();
  ASSERT_TRUE(log.Append(AppendOps(1)).ok());
  ASSERT_TRUE(log.Append(AppendOps(2)).ok());
  std::string merged_snapshot = EncodeSnapshot(log.library());

  // Simulate the crash window: the compactor published the new base but
  // died before unlinking the consumed segments.
  ASSERT_TRUE(AtomicWriteFile(merged_snapshot, log.base_path()).ok());

  // Writer-mode Open: the old-chain files are recognisably stale (their
  // embedded CRC names the old base) and get deleted.
  util::StatusOr<DeltaLog> writer = DeltaLog::Open(dir_);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  EXPECT_EQ(EncodeSnapshot(writer->library()), merged_snapshot);
  EXPECT_EQ(writer->stats().segments_active, 0u);
  EXPECT_EQ(writer->stats().stale_segments_removed, 2u);
  size_t sdelta_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().extension() == ".sdelta") ++sdelta_files;
  }
  EXPECT_EQ(sdelta_files, 0u);
}

TEST_F(DeltaLogTest, ReaderModeQuarantinesStaleInsteadOfDeleting) {
  DeltaLog log = Create();
  ASSERT_TRUE(log.Append(AppendOps(1)).ok());
  ASSERT_TRUE(
      AtomicWriteFile(EncodeSnapshot(log.library()), log.base_path()).ok());

  DeltaLogOptions reader_options;
  reader_options.remove_stale_segments = false;
  util::StatusOr<DeltaLog> reader = DeltaLog::Open(dir_, reader_options);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->stats().stale_segments_removed, 0u);
  EXPECT_EQ(reader->stats().quarantined_segments, 1u);
  // The stale file is untouched — cleanup belongs to the writer.
  EXPECT_TRUE(std::filesystem::exists(log.SegmentPath(1)));
}

TEST_F(DeltaLogTest, CompactFoldsPublishesAndReanchors) {
  DeltaLog log = Create();
  ASSERT_TRUE(log.Append(AppendOps(1)).ok());
  ASSERT_TRUE(log.Append(AppendOps(2)).ok());
  std::string merged_before = EncodeSnapshot(log.library());
  ASSERT_TRUE(log.Compact().ok());

  EXPECT_EQ(EncodeSnapshot(log.library()), merged_before);
  EXPECT_EQ(ReadFile(log.base_path()), merged_before);
  EXPECT_EQ(log.stats().segments_active, 0u);
  EXPECT_EQ(log.stats().compactions, 1u);
  EXPECT_EQ(log.view().next_chain_seq(), 1u);

  // The chain continues on the new anchor.
  ASSERT_TRUE(log.Append(AppendOps(3)).ok());
  util::StatusOr<DeltaLog> reopened = DeltaLog::Open(dir_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(EncodeSnapshot(reopened->library()), EncodeSnapshot(log.library()));
}

TEST_F(DeltaLogTest, PollPicksUpSegmentsAndReanchoredBase) {
  DeltaLog writer = Create();
  DeltaLogOptions reader_options;
  reader_options.remove_stale_segments = false;
  util::StatusOr<DeltaLog> opened = DeltaLog::Open(dir_, reader_options);
  ASSERT_TRUE(opened.ok());
  DeltaLog reader = std::move(opened).value();

  // Nothing published: a no-op poll.
  util::StatusOr<DeltaLog::PollResult> poll = reader.Poll();
  ASSERT_TRUE(poll.ok());
  EXPECT_EQ(poll->segments_applied, 0u);
  EXPECT_FALSE(poll->reopened_base);

  ASSERT_TRUE(writer.Append(AppendOps(1)).ok());
  ASSERT_TRUE(writer.Append(AppendOps(2)).ok());
  poll = reader.Poll();
  ASSERT_TRUE(poll.ok());
  EXPECT_EQ(poll->segments_applied, 2u);
  EXPECT_FALSE(poll->reopened_base);
  EXPECT_EQ(EncodeSnapshot(reader.library()), EncodeSnapshot(writer.library()));

  ASSERT_TRUE(writer.Compact().ok());
  ASSERT_TRUE(writer.Append(AppendOps(3)).ok());
  poll = reader.Poll();
  ASSERT_TRUE(poll.ok());
  EXPECT_TRUE(poll->reopened_base);
  EXPECT_EQ(poll->segments_applied, 1u);
  EXPECT_EQ(EncodeSnapshot(reader.library()), EncodeSnapshot(writer.library()));
}

TEST_F(DeltaLogTest, PollSurvivesTornBaseDuringCompaction) {
  DeltaLog writer = Create();
  ASSERT_TRUE(writer.Append(AppendOps(1)).ok());

  DeltaLogOptions reader_options;
  reader_options.remove_stale_segments = false;
  util::StatusOr<DeltaLog> opened = DeltaLog::Open(dir_, reader_options);
  ASSERT_TRUE(opened.ok());
  DeltaLog reader = std::move(opened).value();
  std::string serving = EncodeSnapshot(reader.library());

  // A hostile/non-atomic base publish: half the new base. The poll must
  // fail without touching the serving view.
  std::string next_base = EncodeSnapshot(writer.library());
  WriteFile(writer.base_path(), next_base.substr(0, next_base.size() / 2));
  util::StatusOr<DeltaLog::PollResult> poll = reader.Poll();
  EXPECT_FALSE(poll.ok());
  EXPECT_EQ(EncodeSnapshot(reader.library()), serving);

  // The writer finishes the publish; the next poll re-anchors.
  WriteFile(writer.base_path(), next_base);
  poll = reader.Poll();
  ASSERT_TRUE(poll.ok()) << poll.status().ToString();
  EXPECT_TRUE(poll->reopened_base);
  EXPECT_EQ(EncodeSnapshot(reader.library()), next_base);
}

TEST_F(DeltaLogTest, ForeignSdeltaFilesAreQuarantinedNotDeleted) {
  DeltaLog log = Create();
  const std::string foreign = dir_ + "/not-a-chain-file.sdelta";
  WriteFile(foreign, "junk");
  util::StatusOr<DeltaLog> reopened = DeltaLog::Open(dir_);
  ASSERT_TRUE(reopened.ok());
  std::vector<QuarantinedSegment> quarantined = reopened->quarantined();
  ASSERT_EQ(quarantined.size(), 1u);
  EXPECT_NE(quarantined[0].reason.find("unrecognised"), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(foreign));
}

TEST_F(DeltaLogTest, OpenFailsWithoutABase) {
  std::filesystem::create_directories(dir_);
  EXPECT_FALSE(DeltaLog::Open(dir_).ok());
}

// --- Deferred fold: the merged library is built when read, not per append.

// The fold contract as a LibraryBuilder replay (the randomized proof is
// tests/oracle/delta_oracle_test.cc): base names in id order, every
// appended record's names in record order (dead records included), then the
// surviving rows in logical order.
ImplementationLibrary Replay(const ImplementationLibrary& base,
                             const std::vector<DeltaOps>& tape) {
  LibraryBuilder builder;
  for (ActionId a = 0; a < base.num_actions(); ++a) {
    builder.InternAction(base.actions().Name(a));
  }
  for (GoalId g = 0; g < base.num_goals(); ++g) {
    builder.InternGoal(base.goals().Name(g));
  }
  std::vector<DeltaImplementation> rows;
  std::vector<bool> alive;
  for (ImplId p = 0; p < base.num_implementations(); ++p) {
    DeltaImplementation row{base.goals().Name(base.GoalOf(p)), {}};
    for (ActionId a : base.ActionsOf(p)) {
      row.actions.push_back(base.actions().Name(a));
    }
    rows.push_back(std::move(row));
    alive.push_back(true);
  }
  for (const DeltaOps& ops : tape) {
    for (const DeltaImplementation& impl : ops.appended) {
      for (const std::string& a : impl.actions) builder.InternAction(a);
      builder.InternGoal(impl.goal);
      rows.push_back(impl);
      alive.push_back(true);
    }
    for (const std::string& goal : ops.tombstoned_goals) {
      for (size_t p = 0; p < rows.size(); ++p) {
        if (rows[p].goal == goal) alive[p] = false;
      }
    }
    for (uint32_t id : ops.tombstoned_impls) alive[id] = false;
  }
  for (size_t p = 0; p < rows.size(); ++p) {
    if (alive[p]) builder.AddImplementation(rows[p].goal, rows[p].actions);
  }
  return std::move(builder).Build();
}

// k segments of appends (new goals and a base goal), implementation
// tombstones, and goal tombstones of base goals and of appended ones.
std::vector<DeltaOps> FoldTape(int k) {
  std::vector<DeltaOps> tape;
  for (int i = 0; i < k; ++i) {
    DeltaOps ops;
    const std::string n = std::to_string(i);
    ops.appended.push_back(
        DeltaImplementation{"delta goal " + n, {"a1", "da" + n, "db" + n}});
    ops.appended.push_back(DeltaImplementation{"g2", {"a3", "da" + n}});
    ops.tombstoned_impls.push_back(static_cast<uint32_t>(i));
    if (i % 3 == 1) {
      ops.tombstoned_goals.push_back("g" + std::to_string(i % 5 + 1));
    }
    if (i % 3 == 2) {
      ops.tombstoned_goals.push_back("delta goal " + std::to_string(i - 1));
    }
    tape.push_back(std::move(ops));
  }
  return tape;
}

TEST_F(DeltaLogTest, WriterFoldsOnlyWhenCompactReadsTheLibrary) {
  for (int k : {1, 3, 8}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    const std::string dir = dir_ + "/k" + std::to_string(k);
    util::StatusOr<DeltaLog> created =
        DeltaLog::Create(dir, testing::PaperLibrary());
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    DeltaLog writer = std::move(created).value();
    const std::vector<DeltaOps> tape = FoldTape(k);
    for (const DeltaOps& ops : tape) {
      util::Status appended = writer.Append(ops);
      ASSERT_TRUE(appended.ok()) << appended.ToString();
    }
    EXPECT_EQ(writer.stats().view.segments_applied, static_cast<uint64_t>(k));
    EXPECT_EQ(writer.stats().view.folds, 0u);
    ASSERT_TRUE(writer.Compact().ok());
    EXPECT_EQ(ReadFile(writer.base_path()),
              EncodeSnapshot(Replay(testing::PaperLibrary(), tape)));
  }
}

TEST_F(DeltaLogTest, ReaderCatchingUpSeveralSegmentsFoldsOnce) {
  for (int k : {1, 3, 8}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    const std::string dir = dir_ + "/k" + std::to_string(k);
    util::StatusOr<DeltaLog> created =
        DeltaLog::Create(dir, testing::PaperLibrary());
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    DeltaLog writer = std::move(created).value();
    DeltaLogOptions reader_options;
    reader_options.remove_stale_segments = false;
    util::StatusOr<DeltaLog> opened = DeltaLog::Open(dir, reader_options);
    ASSERT_TRUE(opened.ok());
    DeltaLog reader = std::move(opened).value();

    const std::vector<DeltaOps> tape = FoldTape(k);
    for (const DeltaOps& ops : tape) ASSERT_TRUE(writer.Append(ops).ok());
    util::StatusOr<DeltaLog::PollResult> poll = reader.Poll();
    ASSERT_TRUE(poll.ok()) << poll.status().ToString();
    EXPECT_EQ(poll->segments_applied, static_cast<uint64_t>(k));
    EXPECT_EQ(reader.stats().view.folds, 0u);

    const std::string want =
        EncodeSnapshot(Replay(testing::PaperLibrary(), tape));
    EXPECT_EQ(EncodeSnapshot(reader.library()), want);
    EXPECT_EQ(EncodeSnapshot(reader.library()), want);
    EXPECT_EQ(reader.stats().view.folds, 1u);
  }
}

// The reader's fold is the snapshot the serving layer publishes: the served
// library is the fold's own object, and reading log.library() afterwards
// (as `goalrec serve` does for its status line) folds nothing again. The
// base is above kParallelMinPostings, so the fold, the guard and the
// ladder run their blocked passes.
TEST_F(DeltaLogTest, PublishServesTheFoldWithoutACopy) {
  ImplementationLibrary base =
      testing::RandomLibrary(2000, 3001, 48001, 11, 9);
  ASSERT_GE(base.num_postings(), kParallelMinPostings);
  util::StatusOr<DeltaLog> created = DeltaLog::Create(dir_, base);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  DeltaLog writer = std::move(created).value();
  DeltaLogOptions reader_options;
  reader_options.remove_stale_segments = false;
  util::StatusOr<DeltaLog> opened = DeltaLog::Open(dir_, reader_options);
  ASSERT_TRUE(opened.ok());
  DeltaLog reader = std::move(opened).value();

  obs::MetricRegistry metrics;
  serve::ShardedLadderOptions ladder;
  ladder.metrics = &metrics;
  serve::SnapshotManager manager(reader.snapshot(),
                                 serve::MakeShardedLadderFactory(ladder),
                                 &metrics);
  EXPECT_EQ(&manager.Acquire()->library->library, &reader.library());

  ASSERT_TRUE(writer.Append(AppendOps(1)).ok());
  util::StatusOr<uint64_t> version = manager.ReloadFromDeltaLog(reader);
  ASSERT_TRUE(version.ok()) << version.status().ToString();
  const uint64_t folds = reader.stats().view.folds;
  EXPECT_EQ(folds, 1u);
  std::shared_ptr<const serve::ServingSnapshot> served = manager.Acquire();
  EXPECT_EQ(served->library, reader.snapshot());
  EXPECT_EQ(&served->library->library, &reader.library());
  EXPECT_EQ(served->library->version, version.value());
  EXPECT_EQ(reader.library().num_implementations(),
            base.num_implementations() + 1);
  EXPECT_EQ(reader.stats().view.folds, folds);

  // A compaction re-anchors the reader on the new base, served as is too.
  ASSERT_TRUE(writer.Compact().ok());
  ASSERT_TRUE(manager.ReloadFromDeltaLog(reader).ok());
  EXPECT_EQ(&manager.Acquire()->library->library, &reader.library());
  EXPECT_EQ(EncodeSnapshot(reader.library()), ReadFile(writer.base_path()));
  // The snapshot published before the compaction is intact.
  EXPECT_EQ(served->library->library.num_implementations(),
            base.num_implementations() + 1);
}

}  // namespace
}  // namespace goalrec::model
