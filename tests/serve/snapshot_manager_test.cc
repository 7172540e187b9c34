// SnapshotManager semantics: lock-free acquire, atomic publish, ladder-shape
// pinning, failure-keeps-serving, and the engine's snapshot mode reporting
// which library version answered. The multi-threaded swap-under-query test
// lives in snapshot_reload_test.cc (also run under TSan).

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/best_match.h"
#include "core/breadth.h"
#include "model/delta.h"
#include "model/delta_log.h"
#include "model/library.h"
#include "model/library_io.h"
#include "model/snapshot.h"
#include "model/snapshot_io.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "serve/engine.h"
#include "serve/snapshot_manager.h"
#include "testing/fixtures.h"
#include "util/status.h"

namespace goalrec::serve {
namespace {

using testing::A;
using testing::PaperLibrary;
using testing::RandomLibrary;

// BestMatch over Breadth: two rungs, fixed names.
void TwoRungLadder(const model::ImplementationLibrary& library,
                   ServingSnapshot& out) {
  auto best = std::make_unique<core::BestMatchRecommender>(&library);
  auto breadth = std::make_unique<core::BreadthRecommender>(&library);
  out.rungs.push_back({"best_match", best.get()});
  out.rungs.push_back({"breadth", breadth.get()});
  out.owned.push_back(std::move(best));
  out.owned.push_back(std::move(breadth));
}

TEST(SnapshotManagerTest, ServesInitialSnapshot) {
  obs::MetricRegistry metrics;
  auto initial = model::MakeSnapshot(PaperLibrary(), "paper");
  uint64_t version = initial->version;
  SnapshotManager manager(initial, TwoRungLadder, &metrics);

  std::shared_ptr<const ServingSnapshot> serving = manager.Acquire();
  ASSERT_NE(serving, nullptr);
  EXPECT_EQ(serving->library, initial);
  EXPECT_EQ(manager.current_version(), version);
  EXPECT_EQ(manager.reload_count(), 0u);
  ASSERT_EQ(serving->rungs.size(), 2u);
  EXPECT_EQ(serving->rungs[0].name, "best_match");
  EXPECT_EQ(serving->rungs[1].name, "breadth");
}

TEST(SnapshotManagerTest, ReloadPublishesNewSnapshotAtomically) {
  obs::MetricRegistry metrics;
  SnapshotManager manager(model::MakeSnapshot(PaperLibrary(), "paper"),
                          TwoRungLadder, &metrics);
  std::shared_ptr<const ServingSnapshot> before = manager.Acquire();

  auto next = model::MakeSnapshot(RandomLibrary(8, 4, 10, 4, 7), "random");
  ASSERT_TRUE(manager.Reload(next).ok());

  EXPECT_EQ(manager.reload_count(), 1u);
  EXPECT_EQ(manager.current_version(), next->version);
  std::shared_ptr<const ServingSnapshot> after = manager.Acquire();
  EXPECT_EQ(after->library, next);
  // The pre-reload serving snapshot is still a fully valid, queryable view:
  // in-flight queries keep the old library alive until they finish.
  EXPECT_EQ(before->library->source, "paper");
  core::RecommendationList list =
      before->rungs[0].recommender->Recommend(model::Activity{A(1)}, 3);
  EXPECT_FALSE(list.empty());
}

TEST(SnapshotManagerTest, RejectsLadderShapeChange) {
  obs::MetricRegistry metrics;
  // A factory that (wrongly) grows the ladder on its second invocation.
  int calls = 0;
  LadderFactory unstable = [&calls](const model::ImplementationLibrary& library,
                                    ServingSnapshot& out) {
    ++calls;
    auto best = std::make_unique<core::BestMatchRecommender>(&library);
    out.rungs.push_back({"best_match", best.get()});
    out.owned.push_back(std::move(best));
    if (calls > 1) {
      auto extra = std::make_unique<core::BreadthRecommender>(&library);
      out.rungs.push_back({"breadth", extra.get()});
      out.owned.push_back(std::move(extra));
    }
  };
  auto initial = model::MakeSnapshot(PaperLibrary(), "paper");
  SnapshotManager manager(initial, unstable, &metrics);

  util::Status status =
      manager.Reload(model::MakeSnapshot(PaperLibrary(), "again"));
  EXPECT_EQ(status.code(), util::StatusCode::kFailedPrecondition);
  // The failed reload left the original snapshot serving.
  EXPECT_EQ(manager.Acquire()->library, initial);
  EXPECT_EQ(manager.reload_count(), 0u);
}

TEST(SnapshotManagerTest, ReloadFromFileFailureKeepsServing) {
  obs::MetricRegistry metrics;
  auto initial = model::MakeSnapshot(PaperLibrary(), "paper");
  SnapshotManager manager(initial, TwoRungLadder, &metrics);

  util::StatusOr<uint64_t> result =
      manager.ReloadFromFile("/nonexistent/library.txt");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(manager.Acquire()->library, initial);
  EXPECT_EQ(manager.reload_count(), 0u);
}

TEST(SnapshotManagerTest, ReloadFromFileRoundTrips) {
  obs::MetricRegistry metrics;
  SnapshotManager manager(model::MakeSnapshot(PaperLibrary(), "paper"),
                          TwoRungLadder, &metrics);
  std::string path =
      ::testing::TempDir() + "/snapshot_manager_reload_library.txt";
  ASSERT_TRUE(model::SaveLibraryText(RandomLibrary(8, 4, 10, 4, 11), path).ok());

  util::StatusOr<uint64_t> version = manager.ReloadFromFile(path);
  ASSERT_TRUE(version.ok()) << version.status().message();
  EXPECT_EQ(manager.current_version(), version.value());
  EXPECT_EQ(manager.reload_count(), 1u);
  EXPECT_EQ(manager.Acquire()->library->source, path);
  std::remove(path.c_str());
}

// A quarantine-mode reload hands back what it dropped, with provenance, so
// `goalrec serve` can print it as it does for the initial load.
TEST(SnapshotManagerTest, ReloadFromFileReportsQuarantinedRecords) {
  obs::MetricRegistry metrics;
  SnapshotManager manager(model::MakeSnapshot(PaperLibrary(), "paper"),
                          TwoRungLadder, &metrics);
  std::string path =
      ::testing::TempDir() + "/snapshot_manager_quarantine_library.txt";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "# goalrec-library v1\ng1\ta1\ta2\nlonely_goal\ng2\ta3\ta1\n";
  }
  model::LoadOptions quarantine;
  quarantine.mode = model::ValidationMode::kQuarantine;
  model::LoadReport report;
  util::StatusOr<uint64_t> version =
      manager.ReloadFromFile(path, {}, quarantine, &report);
  ASSERT_TRUE(version.ok()) << version.status().ToString();
  EXPECT_EQ(manager.Acquire()->library->library.num_implementations(), 2u);
  EXPECT_EQ(report.records_quarantined, 1u);
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].line, 3u);

  // Strict mode rejects the same file; the report still names the record.
  model::LoadReport strict_report;
  EXPECT_FALSE(manager.ReloadFromFile(path, {}, {}, &strict_report).ok());
  EXPECT_EQ(manager.current_version(), *version);
  EXPECT_EQ(strict_report.issues_total, 1u);
  std::remove(path.c_str());
}

// ---- Reload guard: validation, canaries, rollback, failure metrics. ----

int64_t FailureCount(obs::MetricRegistry& metrics, const std::string& reason) {
  return metrics
      .GetCounter("goalrec_reload_failure_total", {{"reason", reason}})
      ->Value();
}

TEST(SnapshotManagerGuardTest, CanaryFailureRejectsCandidateAndRollsBack) {
  obs::MetricRegistry metrics;
  ReloadGuardOptions guard;
  // Probes are action NAMES from the serving vocabulary; the candidate
  // below (RandomLibrary, "act0..." names) resolves none of them.
  guard.canary_probes = {{"a1", "a2"}, {"a1", "a6"}};
  auto initial = model::MakeSnapshot(PaperLibrary(), "paper");
  SnapshotManager manager(initial, TwoRungLadder, guard, &metrics);

  util::Status status =
      manager.Reload(model::MakeSnapshot(RandomLibrary(8, 4, 10, 4, 7),
                                         "vocabulary-drift"));
  ASSERT_FALSE(status.ok());
  // Rollback = the swap never happened: the old snapshot is still serving.
  EXPECT_EQ(manager.Acquire()->library, initial);
  EXPECT_EQ(manager.reload_count(), 0u);
  EXPECT_EQ(manager.consecutive_failures(), 1u);
  EXPECT_EQ(FailureCount(metrics, "canary"), 1);
  EXPECT_EQ(FailureCount(metrics, "load"), 0);
  EXPECT_EQ(FailureCount(metrics, "validate"), 0);

  // A good candidate then publishes and resets the failure streak.
  ASSERT_TRUE(
      manager.Reload(model::MakeSnapshot(PaperLibrary(), "paper-v2")).ok());
  EXPECT_EQ(manager.reload_count(), 1u);
  EXPECT_EQ(manager.consecutive_failures(), 0u);
}

TEST(SnapshotManagerGuardTest, MinCanaryPassesAllowsPartialVocabularyDrift) {
  obs::MetricRegistry metrics;
  ReloadGuardOptions guard;
  guard.canary_probes = {{"a1", "a2"}, {"gone_from_vocab"}};
  guard.min_canary_passes = 1;
  SnapshotManager manager(model::MakeSnapshot(PaperLibrary(), "paper"),
                          TwoRungLadder, guard, &metrics);
  // One of two probes resolves — enough under min_canary_passes=1.
  EXPECT_TRUE(
      manager.Reload(model::MakeSnapshot(PaperLibrary(), "paper-v2")).ok());
  EXPECT_EQ(FailureCount(metrics, "canary"), 0);

  // The default (all probes) would have rejected the same candidate.
  ReloadGuardOptions all;
  all.canary_probes = guard.canary_probes;
  SnapshotManager strict_manager(model::MakeSnapshot(PaperLibrary(), "paper"),
                                 TwoRungLadder, all, &metrics);
  EXPECT_FALSE(
      strict_manager.Reload(model::MakeSnapshot(PaperLibrary(), "v2")).ok());
  EXPECT_EQ(FailureCount(metrics, "canary"), 1);
}

TEST(SnapshotManagerGuardTest, LadderShapeFailureCountsLadderReason) {
  obs::MetricRegistry metrics;
  int calls = 0;
  LadderFactory unstable = [&calls](const model::ImplementationLibrary& library,
                                    ServingSnapshot& out) {
    ++calls;
    auto best = std::make_unique<core::BestMatchRecommender>(&library);
    out.rungs.push_back({"best_match", best.get()});
    out.owned.push_back(std::move(best));
    if (calls > 1) {
      auto extra = std::make_unique<core::BreadthRecommender>(&library);
      out.rungs.push_back({"breadth", extra.get()});
      out.owned.push_back(std::move(extra));
    }
  };
  SnapshotManager manager(model::MakeSnapshot(PaperLibrary(), "paper"),
                          unstable, &metrics);
  EXPECT_FALSE(
      manager.Reload(model::MakeSnapshot(PaperLibrary(), "again")).ok());
  EXPECT_EQ(FailureCount(metrics, "ladder"), 1);
  EXPECT_EQ(manager.consecutive_failures(), 1u);
}

// The rollback regression from the chaos harness, in miniature: a good
// snapshot is serving, the file on disk is replaced by a torn write, the
// reload is rejected with reason=load, the old version keeps serving, and
// once the file is repaired the manager converges to the new version.
TEST(SnapshotManagerGuardTest, TornSnapshotFileRollsBackThenRecovers) {
  obs::MetricRegistry metrics;
  ReloadGuardOptions guard;
  guard.canary_probes = {{"a1", "a2"}};
  auto initial = model::MakeSnapshot(PaperLibrary(), "paper");
  SnapshotManager manager(initial, TwoRungLadder, guard, &metrics);
  uint64_t serving_version = manager.current_version();

  std::string path = ::testing::TempDir() + "/snapshot_manager_torn.snap";
  ASSERT_TRUE(model::SaveSnapshot(PaperLibrary(), path).ok());

  // Tear the file: a non-atomic writer died mid-copy.
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  util::StatusOr<uint64_t> torn = manager.ReloadFromFile(path);
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(FailureCount(metrics, "load"), 1);
  EXPECT_EQ(manager.current_version(), serving_version);
  EXPECT_EQ(manager.Acquire()->library, initial);
  EXPECT_EQ(manager.consecutive_failures(), 1u);

  // Repair the file (atomically, as the real writer would) and converge.
  ASSERT_TRUE(model::SaveSnapshot(PaperLibrary(), path).ok());
  util::StatusOr<uint64_t> fixed = manager.ReloadFromFile(path);
  ASSERT_TRUE(fixed.ok()) << fixed.status().message();
  EXPECT_EQ(manager.current_version(), fixed.value());
  EXPECT_EQ(manager.reload_count(), 1u);
  EXPECT_EQ(manager.consecutive_failures(), 0u);
  // Failure totals are cumulative — recovery does not erase history.
  EXPECT_EQ(FailureCount(metrics, "load"), 1);
  std::remove(path.c_str());
}

TEST(SnapshotManagerGuardTest, ReloadFromFileRoutesSnapshotFormat) {
  obs::MetricRegistry metrics;
  SnapshotManager manager(model::MakeSnapshot(PaperLibrary(), "paper"),
                          TwoRungLadder, &metrics);
  std::string path = ::testing::TempDir() + "/snapshot_manager_route.snap";
  ASSERT_TRUE(model::SaveSnapshot(RandomLibrary(8, 4, 10, 4, 11), path).ok());
  util::StatusOr<uint64_t> version = manager.ReloadFromFile(path);
  ASSERT_TRUE(version.ok()) << version.status().message();
  EXPECT_EQ(manager.current_version(), version.value());
  EXPECT_EQ(manager.Acquire()->library->source, path);
  std::remove(path.c_str());
}

TEST(SnapshotManagerTest, EngineSnapshotModeReportsServingVersion) {
  obs::MetricRegistry metrics;
  auto first = model::MakeSnapshot(PaperLibrary(), "paper");
  SnapshotManager manager(first, TwoRungLadder, &metrics);
  EngineOptions options;
  options.metrics = &metrics;
  ServingEngine engine(&manager, options);

  model::Activity activity{A(1)};
  util::StatusOr<ServeResult> r1 = engine.Serve(activity, 5);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1.value().library_version, first->version);
  EXPECT_FALSE(r1.value().list.empty());

  auto second = model::MakeSnapshot(PaperLibrary(), "paper-v2");
  ASSERT_TRUE(manager.Reload(second).ok());
  util::StatusOr<ServeResult> r2 = engine.Serve(activity, 5);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value().library_version, second->version);
  // Same library content — the answer must not change across the swap.
  ASSERT_EQ(r2.value().list.size(), r1.value().list.size());
  for (size_t i = 0; i < r1.value().list.size(); ++i) {
    EXPECT_EQ(r2.value().list[i].action, r1.value().list[i].action);
    EXPECT_EQ(r2.value().list[i].score, r1.value().list[i].score);
  }
}

// ---- Age gauge freshness (the frozen-between-swaps regression). ----

// goalrec_snapshot_age_seconds used to be written only at swap time, so a
// quiet manager exported a permanently stale age. The manager now registers
// a scrape hook; every registry Snapshot() refreshes the gauge first.
TEST(SnapshotManagerTest, AgeGaugeRefreshesOnEveryScrapeWithoutAReload) {
  obs::MetricRegistry metrics;
  {
    SnapshotManager manager(model::MakeSnapshot(PaperLibrary(), "paper"),
                            TwoRungLadder, &metrics);
    // Backdate the swap by two minutes; no reload happens afterwards.
    manager.set_last_swap_ns_for_test(obs::FlightRecorder::NowNs() -
                                      120'000'000'000);
    obs::RegistrySnapshot scraped = metrics.Snapshot();
    const obs::MetricSnapshot* age =
        scraped.Find("goalrec_snapshot_age_seconds");
    ASSERT_NE(age, nullptr);
    EXPECT_GE(age->value, 120);

    // The age keeps tracking on the NEXT scrape too — it is a live hook,
    // not a one-shot write.
    manager.set_last_swap_ns_for_test(obs::FlightRecorder::NowNs());
    obs::RegistrySnapshot rescraped = metrics.Snapshot();
    const obs::MetricSnapshot* fresh =
        rescraped.Find("goalrec_snapshot_age_seconds");
    ASSERT_NE(fresh, nullptr);
    EXPECT_LE(fresh->value, 1);
  }
  // The destructor unregistered the hook: scraping after the manager is
  // gone must not touch freed memory.
  (void)metrics.Snapshot();
}

// ---- Delta-log reload: publish, no-op polls, quarantine accounting. ----

class SnapshotManagerDeltaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/snapshot_manager_delta_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    util::StatusOr<model::DeltaLog> created =
        model::DeltaLog::Create(dir_, PaperLibrary());
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    writer_.emplace(std::move(created).value());
    model::DeltaLogOptions reader_options;
    reader_options.remove_stale_segments = false;
    util::StatusOr<model::DeltaLog> opened =
        model::DeltaLog::Open(dir_, reader_options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    reader_.emplace(std::move(opened).value());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  model::DeltaOps AppendOps(int i) {
    model::DeltaOps ops;
    ops.appended.push_back(model::DeltaImplementation{
        "delta goal " + std::to_string(i), {"a1", "da" + std::to_string(i)}});
    return ops;
  }

  int64_t GaugeValue(obs::MetricRegistry& metrics, const std::string& name) {
    obs::RegistrySnapshot scraped = metrics.Snapshot();
    const obs::MetricSnapshot* metric = scraped.Find(name);
    return metric == nullptr ? -1 : metric->value;
  }

  std::string dir_;
  std::optional<model::DeltaLog> writer_;
  std::optional<model::DeltaLog> reader_;
};

TEST_F(SnapshotManagerDeltaTest, PublishesAppendsAndSkipsNoOpPolls) {
  obs::MetricRegistry metrics;
  SnapshotManager manager(model::MakeSnapshot(reader_->library(), dir_),
                          TwoRungLadder, &metrics);
  uint64_t initial_version = manager.current_version();

  // Nothing new on disk: the poll is a no-op, no snapshot churn.
  util::StatusOr<uint64_t> polled = manager.ReloadFromDeltaLog(*reader_);
  ASSERT_TRUE(polled.ok()) << polled.status().ToString();
  EXPECT_EQ(polled.value(), initial_version);
  EXPECT_EQ(manager.reload_count(), 0u);

  ASSERT_TRUE(writer_->Append(AppendOps(1)).ok());
  polled = manager.ReloadFromDeltaLog(*reader_);
  ASSERT_TRUE(polled.ok()) << polled.status().ToString();
  EXPECT_NE(polled.value(), initial_version);
  EXPECT_EQ(manager.reload_count(), 1u);
  EXPECT_EQ(manager.Acquire()->library->library.num_implementations(),
            PaperLibrary().num_implementations() + 1);
  EXPECT_EQ(GaugeValue(metrics, "goalrec_delta_segments_active"), 1);
}

TEST_F(SnapshotManagerDeltaTest, QuarantineCountsDeltaFailureServesPrefix) {
  obs::MetricRegistry metrics;
  SnapshotManager manager(model::MakeSnapshot(reader_->library(), dir_),
                          TwoRungLadder, &metrics);
  ASSERT_TRUE(writer_->Append(AppendOps(1)).ok());

  // Corrupt the second segment mid-publish (simulated torn write).
  ASSERT_TRUE(writer_->Append(AppendOps(2)).ok());
  std::string seg2 = writer_->SegmentPath(2);
  {
    std::ifstream in(seg2, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(seg2, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }

  util::StatusOr<uint64_t> polled = manager.ReloadFromDeltaLog(*reader_);
  ASSERT_TRUE(polled.ok()) << polled.status().ToString();
  // The valid prefix (segment 1) published; the torn tail was quarantined
  // and counted as a delta failure without blocking the swap.
  EXPECT_EQ(manager.reload_count(), 1u);
  EXPECT_EQ(manager.Acquire()->library->library.num_implementations(),
            PaperLibrary().num_implementations() + 1);
  EXPECT_EQ(FailureCount(metrics, "delta"), 1);
  EXPECT_EQ(FailureCount(metrics, "compact"), 0);
  EXPECT_EQ(GaugeValue(metrics, "goalrec_delta_segments_active"), 1);

  // Polling again does NOT recount the same quarantined file.
  polled = manager.ReloadFromDeltaLog(*reader_);
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(FailureCount(metrics, "delta"), 1);
}

TEST_F(SnapshotManagerDeltaTest, ReanchorsAfterCompactionAndTracksGauges) {
  obs::MetricRegistry metrics;
  SnapshotManager manager(model::MakeSnapshot(reader_->library(), dir_),
                          TwoRungLadder, &metrics);
  ASSERT_TRUE(writer_->Append(AppendOps(1)).ok());
  model::DeltaOps tombstone;
  tombstone.tombstoned_impls.push_back(0);
  ASSERT_TRUE(writer_->Append(tombstone).ok());
  ASSERT_TRUE(manager.ReloadFromDeltaLog(*reader_).ok());
  EXPECT_EQ(GaugeValue(metrics, "goalrec_delta_segments_active"), 2);
  EXPECT_EQ(
      GaugeValue(metrics, "goalrec_delta_tombstoned_implementations"), 1);

  ASSERT_TRUE(writer_->Compact().ok());
  util::StatusOr<uint64_t> polled = manager.ReloadFromDeltaLog(*reader_);
  ASSERT_TRUE(polled.ok()) << polled.status().ToString();
  // Compaction re-anchors: a fresh base, zero live segments, same content.
  EXPECT_EQ(manager.reload_count(), 2u);
  EXPECT_EQ(manager.Acquire()->library->library.num_implementations(),
            PaperLibrary().num_implementations());  // +1 append, -1 tombstone
  EXPECT_EQ(GaugeValue(metrics, "goalrec_delta_segments_active"), 0);
  EXPECT_EQ(
      GaugeValue(metrics, "goalrec_delta_tombstoned_implementations"), 0);
}

TEST_F(SnapshotManagerDeltaTest, TornBaseCountsCompactFailureKeepsServing) {
  obs::MetricRegistry metrics;
  SnapshotManager manager(model::MakeSnapshot(reader_->library(), dir_),
                          TwoRungLadder, &metrics);
  uint64_t serving_version = manager.current_version();

  // Tear the base snapshot: a hostile non-atomic compactor.
  std::string next_base = model::EncodeSnapshot(writer_->library());
  {
    std::ofstream out(writer_->base_path(),
                      std::ios::binary | std::ios::trunc);
    out.write(next_base.data(),
              static_cast<std::streamsize>(next_base.size() / 2));
  }
  util::StatusOr<uint64_t> polled = manager.ReloadFromDeltaLog(*reader_);
  ASSERT_FALSE(polled.ok());
  EXPECT_EQ(FailureCount(metrics, "compact"), 1);
  EXPECT_EQ(manager.current_version(), serving_version);
  EXPECT_EQ(manager.consecutive_failures(), 1u);
}

}  // namespace
}  // namespace goalrec::serve
