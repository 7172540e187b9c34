// FlightRecorder semantics: exact own-thread tails, oldest-first overwrite,
// cross-thread snapshot merging, the runtime kill switch, and the generic
// event decode. The engine-level wiring (which events the serving path
// emits where) is covered by serve/statusz_test.cc and engine_obs_test.cc.

#include "obs/recorder.h"

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace goalrec::obs {
namespace {

TEST(FlightRecorderTest, RecordsAndDecodesOwnThreadTail) {
  if (!kObsEnabled) GTEST_SKIP() << "built with GOALREC_OBS_NOOP";
  FlightRecorder recorder(16);
  int64_t t0 = FlightRecorder::NowNs();
  recorder.Record(RecorderEventType::kQueryStart, 1, 10, 77);
  recorder.Record(RecorderEventType::kRungExit, 0, 1, 500);

  std::vector<RecorderEvent> events = recorder.TailSince(t0);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, RecorderEventType::kQueryStart);
  EXPECT_EQ(events[0].a, 1);
  EXPECT_EQ(events[0].b, 10u);
  EXPECT_EQ(events[0].c, 77u);
  EXPECT_EQ(events[1].type, RecorderEventType::kRungExit);
  EXPECT_EQ(events[1].c, 500u);
  EXPECT_LT(events[0].seq, events[1].seq);
  EXPECT_GE(events[0].ts_ns, t0);
  EXPECT_EQ(recorder.events_recorded(), 2u);
  EXPECT_EQ(recorder.threads_seen(), 1u);
}

TEST(FlightRecorderTest, TailSinceExcludesOlderEvents) {
  if (!kObsEnabled) GTEST_SKIP() << "built with GOALREC_OBS_NOOP";
  FlightRecorder recorder(16);
  recorder.Record(RecorderEventType::kStageStamp, 0, 1);
  std::vector<RecorderEvent> all = recorder.TailSince(0);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_TRUE(recorder.TailSince(all.back().ts_ns + 1).empty());
}

TEST(FlightRecorderTest, RingOverwritesOldestFirst) {
  if (!kObsEnabled) GTEST_SKIP() << "built with GOALREC_OBS_NOOP";
  FlightRecorder recorder(8);  // 8 is the minimum ring capacity
  for (uint64_t i = 0; i < 20; ++i) {
    recorder.Record(RecorderEventType::kSnapshotSwap, 0, 0, i);
  }
  std::vector<RecorderEvent> tail = recorder.TailSince(0);
  ASSERT_LE(tail.size(), 8u);
  ASSERT_FALSE(tail.empty());
  // The newest events survive; whatever is retained is contiguous and ends
  // at the last write.
  EXPECT_EQ(tail.back().c, 19u);
  for (size_t i = 1; i < tail.size(); ++i) {
    EXPECT_EQ(tail[i].seq, tail[i - 1].seq + 1);
  }
  EXPECT_EQ(recorder.events_recorded(), 20u);
}

TEST(FlightRecorderTest, DisabledRecordsNothing) {
  if (!kObsEnabled) GTEST_SKIP() << "built with GOALREC_OBS_NOOP";
  FlightRecorder recorder(16);
  recorder.set_enabled(false);
  EXPECT_FALSE(recorder.enabled());
  recorder.Record(RecorderEventType::kQueryStart);
  EXPECT_TRUE(recorder.TailSince(0).empty());
  EXPECT_EQ(recorder.events_recorded(), 0u);
  recorder.set_enabled(true);
  recorder.Record(RecorderEventType::kQueryStart);
  EXPECT_EQ(recorder.events_recorded(), 1u);
}

TEST(FlightRecorderTest, SnapshotMergesEveryThreadsRing) {
  if (!kObsEnabled) GTEST_SKIP() << "built with GOALREC_OBS_NOOP";
  FlightRecorder recorder(16);
  auto writer = [&recorder](uint16_t tag) {
    for (uint32_t i = 0; i < 3; ++i) {
      recorder.Record(RecorderEventType::kStageStamp, tag, i);
    }
  };
  std::thread a(writer, 1);
  std::thread b(writer, 2);
  a.join();
  b.join();

  EXPECT_EQ(recorder.threads_seen(), 2u);
  EXPECT_EQ(recorder.events_recorded(), 6u);
  std::vector<RecorderEvent> merged = recorder.Snapshot(16);
  ASSERT_EQ(merged.size(), 6u);
  for (size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LE(merged[i - 1].ts_ns, merged[i].ts_ns);
  }
}

TEST(FlightRecorderTest, SnapshotCapsAtMaxEventsKeepingNewest) {
  if (!kObsEnabled) GTEST_SKIP() << "built with GOALREC_OBS_NOOP";
  FlightRecorder recorder(16);
  for (uint64_t i = 0; i < 10; ++i) {
    recorder.Record(RecorderEventType::kSnapshotSwap, 0, 0, i);
  }
  std::vector<RecorderEvent> merged = recorder.Snapshot(4);
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged.back().c, 9u);
  EXPECT_EQ(merged.front().c, 6u);
}

TEST(FlightRecorderTest, NowNsIsMonotonic) {
  int64_t a = FlightRecorder::NowNs();
  int64_t b = FlightRecorder::NowNs();
  EXPECT_LE(a, b);
}

TEST(FlightRecorderTest, NowNsResolvesWithinAQuery) {
  // A served query takes 0.1-1.5 ms, so the clock must tick well inside
  // that or a query's events share one timestamp. A coarse clock (4 ms
  // ticks) fails this on every try; the smallest step over a few tries
  // tolerates a preemption landing inside one of them.
  int64_t smallest_step = INT64_MAX;
  for (int attempt = 0; attempt < 20; ++attempt) {
    const int64_t start = FlightRecorder::NowNs();
    int64_t next = start;
    while (next == start) next = FlightRecorder::NowNs();
    smallest_step = std::min(smallest_step, next - start);
  }
  EXPECT_LT(smallest_step, 1'000'000);
}

TEST(RecorderDecodeTest, EventTypeAndStageLabels) {
  EXPECT_STREQ(RecorderEventTypeToString(RecorderEventType::kQueryStart),
               "query_start");
  EXPECT_STREQ(RecorderEventTypeToString(RecorderEventType::kBreakerTransition),
               "breaker");
  EXPECT_STREQ(RecorderEventTypeToString(RecorderEventType::kSnapshotSwap),
               "snapshot_swap");
  EXPECT_STREQ(KernelStageToString(KernelStage::kScatter), "scatter");
  EXPECT_STREQ(KernelStageToString(KernelStage::kRank), "rank");
  EXPECT_STREQ(KernelStageToString(KernelStage::kEmit), "emit");
}

TEST(RecorderDecodeTest, FormatRecorderEventsUsesRelativeTimestamps) {
  std::vector<RecorderEvent> events;
  events.push_back({1'000'000, 0, RecorderEventType::kQueryStart, 0, 10, 42});
  events.push_back({3'500'000, 1, RecorderEventType::kRungExit, 1, 0, 900});
  std::string text = FormatRecorderEvents(events);
  EXPECT_NE(text.find("+0.000ms"), std::string::npos);
  EXPECT_NE(text.find("+2.500ms"), std::string::npos);
  EXPECT_NE(text.find("query_start"), std::string::npos);
  EXPECT_NE(text.find("rung_exit"), std::string::npos);
  EXPECT_TRUE(FormatRecorderEvents({}).empty());
}

}  // namespace
}  // namespace goalrec::obs
