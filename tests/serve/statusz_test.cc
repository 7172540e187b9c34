// statusz rendering: the serve-aware recorder decode (rung names, outcome
// labels, priorities), the full page's sections against a live engine with
// SLO tracking and tail exemplars, and the snapshot freshness gauges
// (goalrec_snapshot_age_seconds / goalrec_library_version) in both export
// formats.

#include "serve/statusz.h"

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/best_match.h"
#include "core/breadth.h"
#include "model/library.h"
#include "model/snapshot.h"
#include "obs/exemplar.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/slo.h"
#include "serve/engine.h"
#include "serve/popularity_floor.h"
#include "serve/sharded.h"
#include "serve/snapshot_manager.h"
#include "testing/fixtures.h"

namespace goalrec::serve {
namespace {

using testing::A;
using testing::PaperLibrary;

TEST(FormatServeEventsTest, DecodesWithRungNamesAndLabels) {
  std::vector<obs::RecorderEvent> events;
  events.push_back(
      {1'000'000, 0, obs::RecorderEventType::kQueryStart, 0, 10, 0x2a});
  events.push_back({1'500'000, 1, obs::RecorderEventType::kStageStamp,
                    static_cast<uint16_t>(obs::KernelStage::kScatter), 117, 0});
  events.push_back({2'000'000, 2, obs::RecorderEventType::kRungExit, 0,
                    static_cast<uint32_t>(RungOutcome::kDeadlineExceeded),
                    1'500'000});
  events.push_back({2'500'000, 3, obs::RecorderEventType::kQueryEnd, 1,
                    static_cast<uint32_t>(obs::RecorderResult::kOk),
                    2'000'000});
  std::string text =
      FormatServeEvents(events, {"best_match", "popularity"});
  EXPECT_NE(text.find("+0.000ms query_start id=000000000000002a "
                      "priority=interactive k=10"),
            std::string::npos);
  EXPECT_NE(text.find("+0.500ms stage stage=scatter items=117"),
            std::string::npos);
  EXPECT_NE(text.find("+1.000ms rung_exit rung=best_match "
                      "outcome=deadline_exceeded latency=1.50ms"),
            std::string::npos);
  EXPECT_NE(text.find("+1.500ms query_end rung=popularity result=ok "
                      "latency=2.00ms"),
            std::string::npos);
}

TEST(FormatServeEventsTest, NoRungMarkerAndUnknownIndexesStaySafe) {
  std::vector<obs::RecorderEvent> events;
  events.push_back({0, 0, obs::RecorderEventType::kQueryEnd, 0xFFFF,
                    static_cast<uint32_t>(obs::RecorderResult::kShed), 10});
  events.push_back({0, 1, obs::RecorderEventType::kRungEnter, 9, 0, 0});
  std::string text = FormatServeEvents(events, {"only_rung"});
  EXPECT_NE(text.find("query_end rung=- result=shed"), std::string::npos);
  EXPECT_NE(text.find("rung_enter rung=9"), std::string::npos);
  EXPECT_TRUE(FormatServeEvents({}, {}).empty());
}

TEST(StatuszTest, RendersLadderSloAndExemplarSections) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with GOALREC_OBS_NOOP";
  model::ImplementationLibrary library = PaperLibrary();
  core::BestMatchRecommender best_match(&library);
  LibraryPopularityRecommender popularity(&library);
  obs::MetricRegistry metrics;
  obs::ExemplarReservoir exemplars;
  obs::SloOptions slo_options;
  slo_options.metrics = &metrics;
  obs::SloTracker slo(slo_options);
  EngineOptions options;
  options.metrics = &metrics;
  options.exemplars = &exemplars;
  options.slo = &slo;
  ServingEngine engine(
      {{"best_match", &best_match}, {"popularity", &popularity}}, options);

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine.Serve(model::Activity{A(1)}, 3).ok());
  }
  ASSERT_GT(exemplars.size(), 0u);

  StatuszSources sources;
  sources.engine = &engine;
  sources.slo = &slo;
  sources.exemplars = &exemplars;
  std::string page = RenderStatusz(sources);

  EXPECT_NE(page.find("=== goalrec statusz ==="), std::string::npos);
  EXPECT_NE(page.find("[ladder]"), std::string::npos);
  EXPECT_NE(page.find("'best_match': breaker off"), std::string::npos);
  EXPECT_NE(page.find("'popularity': breaker off"), std::string::npos);
  EXPECT_NE(page.find("[slo] objective 0.999"), std::string::npos);
  EXPECT_NE(page.find("burn_rate="), std::string::npos);
  EXPECT_NE(page.find("[tail exemplars]"), std::string::npos);
  EXPECT_NE(page.find("[recent events]"), std::string::npos);

  // The slowest retained exemplar is listed by its query id, with the
  // why-slow workspace counters and a decoded recorder slice.
  std::vector<obs::TailExemplar> retained = exemplars.Snapshot();
  ASSERT_FALSE(retained.empty());
  char id_hex[32];
  std::snprintf(id_hex, sizeof(id_hex), "id=%016" PRIx64, retained[0].id);
  EXPECT_NE(page.find(id_hex), std::string::npos);
  EXPECT_NE(page.find("|H|="), std::string::npos);
  ASSERT_FALSE(retained[0].events.empty());
  EXPECT_NE(page.find("query_start"), std::string::npos);

  // The served queries fed the SLO tracker as good events.
  EXPECT_EQ(slo.Window(60).good, 4);
}

TEST(StatuszTest, MissingSourcesRenderOnlyTheirSections) {
  StatuszSources sources;
  sources.recent_events = 0;
  std::string page = RenderStatusz(sources);
  EXPECT_NE(page.find("=== goalrec statusz ==="), std::string::npos);
  EXPECT_EQ(page.find("[ladder]"), std::string::npos);
  EXPECT_EQ(page.find("[slo]"), std::string::npos);
  EXPECT_EQ(page.find("[recent events]"), std::string::npos);
}

// --- Snapshot freshness gauges ----------------------------------------------

void TwoRungLadder(const model::ImplementationLibrary& library,
                   ServingSnapshot& out) {
  auto best = std::make_unique<core::BestMatchRecommender>(&library);
  auto breadth = std::make_unique<core::BreadthRecommender>(&library);
  out.rungs.push_back({"best_match", best.get()});
  out.rungs.push_back({"breadth", breadth.get()});
  out.owned.push_back(std::move(best));
  out.owned.push_back(std::move(breadth));
}

TEST(StatuszTest, SnapshotAgeAndVersionGaugesExportInBothFormats) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with GOALREC_OBS_NOOP";
  obs::MetricRegistry metrics;
  auto initial = model::MakeSnapshot(PaperLibrary(), "paper");
  uint64_t version = initial->version;
  SnapshotManager manager(initial, TwoRungLadder, &metrics);

  EXPECT_GE(manager.snapshot_age_seconds(), 0.0);
  manager.RefreshAgeGauge();

  obs::RegistrySnapshot snapshot = metrics.Snapshot();
  const obs::MetricSnapshot* age =
      snapshot.Find("goalrec_snapshot_age_seconds");
  ASSERT_NE(age, nullptr);
  EXPECT_GE(age->value, 0);
  const obs::MetricSnapshot* lib_version =
      snapshot.Find("goalrec_library_version");
  ASSERT_NE(lib_version, nullptr);
  EXPECT_EQ(lib_version->value, static_cast<int64_t>(version));

  std::string prometheus = obs::ExportPrometheus(metrics);
  EXPECT_NE(prometheus.find("goalrec_snapshot_age_seconds"),
            std::string::npos);
  EXPECT_NE(prometheus.find("goalrec_library_version"), std::string::npos);
  std::string json = obs::ExportJson(metrics);
  EXPECT_NE(json.find("goalrec_snapshot_age_seconds"), std::string::npos);
  EXPECT_NE(json.find("goalrec_library_version"), std::string::npos);

  // statusz renders the same freshness data as the [library] section.
  StatuszSources sources;
  sources.snapshots = &manager;
  sources.recent_events = 0;
  std::string page = RenderStatusz(sources);
  EXPECT_NE(page.find("[library]"), std::string::npos);
  EXPECT_NE(page.find("version: " + std::to_string(version)),
            std::string::npos);
  EXPECT_NE(page.find("age: "), std::string::npos);
}

TEST(StatuszTest, DeltaStatsProviderRendersSegmentAndCompactionLines) {
  model::DeltaLogStats stats;
  stats.segments_active = 3;
  stats.quarantined_segments = 1;
  stats.compactions = 2;
  stats.last_compaction_micros = 4200;
  stats.view.tombstoned_implementations = 5;
  stats.view.tombstoned_goals = 1;
  stats.view.appended_implementations = 7;

  StatuszSources sources;
  sources.recent_events = 0;
  sources.delta_stats = [&stats] {
    return std::optional<model::DeltaLogStats>(stats);
  };
  std::string page = RenderStatusz(sources);
  EXPECT_NE(page.find("[library]"), std::string::npos);
  EXPECT_NE(page.find("delta_segments: 3 (pending compaction backlog)"),
            std::string::npos);
  EXPECT_NE(page.find("delta_tombstones: impls=5 goals=1 appended=7"),
            std::string::npos);
  EXPECT_NE(page.find("compactions: 2 (last 4.2ms)"), std::string::npos);
  EXPECT_NE(page.find("quarantined_segments: 1"), std::string::npos);

  // A provider returning nullopt (e.g. the delta log is mid-teardown)
  // renders no delta lines at all.
  sources.delta_stats = [] { return std::optional<model::DeltaLogStats>(); };
  page = RenderStatusz(sources);
  EXPECT_EQ(page.find("delta_segments"), std::string::npos);
}

TEST(StatuszTest, ShardsSectionRendersPartitionAndMergeP99) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with GOALREC_OBS_NOOP";
  obs::MetricRegistry metrics;
  auto initial = model::MakeSnapshot(PaperLibrary(), "paper");
  ShardedLadderOptions ladder;
  ladder.num_shards = 3;
  ladder.metrics = &metrics;
  SnapshotManager manager(initial, MakeShardedLadderFactory(ladder), &metrics);
  EngineOptions options;
  options.metrics = &metrics;
  ServingEngine engine(&manager, options);
  // Populate the merge latency histogram so the p99 line renders.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(engine.Serve(model::Activity{0, 1}, 5).ok());
  }

  StatuszSources sources;
  sources.snapshots = &manager;
  sources.metrics = &metrics;
  sources.recent_events = 0;
  std::string page = RenderStatusz(sources);
  EXPECT_NE(page.find("[shards] 3\n"), std::string::npos);
  EXPECT_NE(page.find("shard 0: impls="), std::string::npos);
  EXPECT_NE(page.find("shard 2: impls="), std::string::npos);
  EXPECT_NE(page.find("merge_p99: "), std::string::npos);

  // Per-shard impl counts sum to the library across the rendered rows.
  auto sharded = manager.Acquire()->sharded;
  ASSERT_NE(sharded, nullptr);
  uint32_t total = 0;
  for (uint32_t s = 0; s < sharded->num_shards; ++s) {
    total += sharded->shard_library(s).num_implementations();
  }
  EXPECT_EQ(total, initial->library.num_implementations());
}

TEST(StatuszTest, UnshardedSnapshotOmitsShardsSection) {
  obs::MetricRegistry metrics;
  auto initial = model::MakeSnapshot(PaperLibrary(), "paper");
  SnapshotManager manager(initial, TwoRungLadder, &metrics);
  StatuszSources sources;
  sources.snapshots = &manager;
  sources.metrics = &metrics;
  sources.recent_events = 0;
  std::string page = RenderStatusz(sources);
  EXPECT_EQ(page.find("[shards]"), std::string::npos);
}

}  // namespace
}  // namespace goalrec::serve
