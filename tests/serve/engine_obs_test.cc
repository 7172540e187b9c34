// Serving-engine observability contract: with trace_sample_rate=1 and a
// private registry, the sampled trace's rung spans and their `outcome`
// annotations must agree with the ServeResult's RungReports, and the
// scraped counters must agree with both. If the trace says one thing and
// the audit trail another, an operator debugging a degraded query is lied
// to — these tests pin the two views together.

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/engine.h"
#include "testing/fixtures.h"
#include "util/deadline.h"

namespace goalrec::serve {
namespace {

using goalrec::testing::A;

class FixedRecommender : public core::Recommender {
 public:
  explicit FixedRecommender(core::RecommendationList list, std::string name)
      : list_(std::move(list)), name_(std::move(name)) {}
  std::string name() const override { return name_; }
  core::RecommendationList Recommend(const model::Activity&,
                                     size_t k) const override {
    core::RecommendationList out = list_;
    if (out.size() > k) out.resize(k);
    return out;
  }

 private:
  core::RecommendationList list_;
  std::string name_;
};

class SlowCooperativeRecommender : public core::Recommender {
 public:
  std::string name() const override { return "Slow"; }
  core::RecommendationList Recommend(const model::Activity&,
                                     size_t) const override {
    return {{model::ActionId{0}, 1.0}};
  }
  void RecommendPooled(util::IdSpan activity, size_t k,
                       const util::StopToken* stop, core::QueryWorkspace*,
                       core::RecommendationList& out) const override {
    out.clear();
    auto cap = std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (std::chrono::steady_clock::now() < cap) {
      if (stop != nullptr && stop->ShouldStop()) return;
    }
    out = Recommend(model::Activity(activity.begin(), activity.end()), k);
  }
};

core::RecommendationList SomeList() {
  return {{model::ActionId{3}, 2.0}, {model::ActionId{1}, 1.0}};
}

/// The rung spans of `trace` ("rung/<name>"), in start order.
std::vector<const obs::TraceSpan*> RungSpans(const obs::Trace& trace) {
  std::vector<const obs::TraceSpan*> rungs;
  for (const obs::TraceSpan& span : trace.spans()) {
    if (span.name.rfind("rung/", 0) == 0) rungs.push_back(&span);
  }
  return rungs;
}

/// Value of the string annotation `key` on `span`, or "" when absent.
std::string AnnotationValue(const obs::TraceSpan& span,
                            const std::string& key) {
  for (const obs::Annotation& annotation : span.annotations) {
    if (annotation.key == key) return annotation.value;
  }
  return "";
}

TEST(EngineObsTest, HealthyQueryTraceMatchesRungReports) {
  FixedRecommender only(SomeList(), "Only");
  EngineOptions options;
  obs::MetricRegistry registry;
  options.metrics = &registry;
  options.trace_sample_rate = 1.0;
  ServingEngine engine({{"only", &only}}, options);

  util::StatusOr<ServeResult> result = engine.Serve({A(1)}, 10);
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result->trace, nullptr);
  const obs::Trace& trace = *result->trace;

  // Root span is "serve", fully closed, annotated with the final outcome.
  ASSERT_FALSE(trace.spans().empty());
  const obs::TraceSpan& root = trace.spans()[0];
  EXPECT_EQ(root.name, "serve");
  EXPECT_GE(root.end_ns, 0);
  EXPECT_EQ(AnnotationValue(root, "outcome"), "served");
  EXPECT_EQ(AnnotationValue(root, "rung"), "only");
  EXPECT_EQ(AnnotationValue(root, "degraded"), "false");

  // Exactly one rung span, matching the one RungReport.
  std::vector<const obs::TraceSpan*> rungs = RungSpans(trace);
  ASSERT_EQ(rungs.size(), result->rungs.size());
  ASSERT_EQ(rungs.size(), 1u);
  EXPECT_EQ(rungs[0]->name, "rung/only");
  EXPECT_EQ(AnnotationValue(*rungs[0], "outcome"),
            RungOutcomeLabel(result->rungs[0].outcome));
  EXPECT_GE(rungs[0]->duration_ns(), 0);
}

TEST(EngineObsTest, DegradedQueryTraceRecordsFullRungSequence) {
  SlowCooperativeRecommender slow;
  FixedRecommender fallback(SomeList(), "Fallback");
  EngineOptions options;
  options.deadline_ms = 5;
  obs::MetricRegistry registry;
  options.metrics = &registry;
  options.trace_sample_rate = 1.0;
  std::vector<std::string> sink_roots;
  options.trace_sink = [&sink_roots](const obs::Trace& trace) {
    sink_roots.push_back(trace.name());
  };
  ServingEngine engine({{"slow", &slow}, {"fallback", &fallback}}, options);

  util::StatusOr<ServeResult> result = engine.Serve({A(1)}, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->degraded);
  ASSERT_EQ(result->rungs.size(), 2u);
  ASSERT_NE(result->trace, nullptr);
  const obs::Trace& trace = *result->trace;

  // One rung span per attempted rung, in ladder order, each annotated with
  // the same outcome the RungReport recorded.
  std::vector<const obs::TraceSpan*> rungs = RungSpans(trace);
  ASSERT_EQ(rungs.size(), result->rungs.size());
  for (size_t i = 0; i < rungs.size(); ++i) {
    EXPECT_EQ(rungs[i]->name, "rung/" + result->rungs[i].name);
    EXPECT_EQ(AnnotationValue(*rungs[i], "outcome"),
              RungOutcomeLabel(result->rungs[i].outcome));
    EXPECT_GE(rungs[i]->duration_ns(), 0);
    EXPECT_EQ(rungs[i]->parent, 0u);  // children of the serve root
  }
  EXPECT_EQ(AnnotationValue(*rungs[0], "outcome"), "deadline_exceeded");
  EXPECT_EQ(AnnotationValue(*rungs[1], "outcome"), "served");
  EXPECT_EQ(AnnotationValue(trace.spans()[0], "degraded"), "true");

  // The sink saw the same (finished) trace.
  ASSERT_EQ(sink_roots.size(), 1u);
  EXPECT_EQ(sink_roots[0], "serve");
}

TEST(EngineObsTest, CountersAgreeWithOutcomes) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with GOALREC_OBS_NOOP";
  SlowCooperativeRecommender slow;
  FixedRecommender fallback(SomeList(), "Fallback");
  EngineOptions options;
  options.deadline_ms = 5;
  obs::MetricRegistry registry;
  options.metrics = &registry;
  ServingEngine engine({{"slow", &slow}, {"fallback", &fallback}}, options);

  constexpr int kQueries = 3;
  for (int i = 0; i < kQueries; ++i) {
    ASSERT_TRUE(engine.Serve({A(1)}, 10).ok());
  }

  obs::RegistrySnapshot snapshot = registry.Snapshot();
  const obs::MetricSnapshot* queries =
      snapshot.Find("goalrec_serve_queries_total");
  ASSERT_NE(queries, nullptr);
  EXPECT_EQ(queries->value, kQueries);
  const obs::MetricSnapshot* degraded =
      snapshot.Find("goalrec_serve_degraded_total");
  ASSERT_NE(degraded, nullptr);
  EXPECT_EQ(degraded->value, kQueries);

  // Every query: slow rung deadline_exceeded, fallback rung served.
  const obs::MetricSnapshot* slow_deadline = snapshot.Find(
      "goalrec_serve_rung_attempts_total",
      {{"rung", "slow"}, {"outcome", "deadline_exceeded"}});
  ASSERT_NE(slow_deadline, nullptr);
  EXPECT_EQ(slow_deadline->value, kQueries);
  const obs::MetricSnapshot* fallback_served =
      snapshot.Find("goalrec_serve_rung_attempts_total",
                    {{"rung", "fallback"}, {"outcome", "served"}});
  ASSERT_NE(fallback_served, nullptr);
  EXPECT_EQ(fallback_served->value, kQueries);
  // The outcomes that never happened scrape as zero, not as absent series.
  const obs::MetricSnapshot* slow_served =
      snapshot.Find("goalrec_serve_rung_attempts_total",
                    {{"rung", "slow"}, {"outcome", "served"}});
  ASSERT_NE(slow_served, nullptr);
  EXPECT_EQ(slow_served->value, 0);

  // Per-rung latency histograms saw one observation per attempt.
  const obs::MetricSnapshot* slow_latency =
      snapshot.Find("goalrec_serve_rung_latency_us", {{"rung", "slow"}});
  ASSERT_NE(slow_latency, nullptr);
  EXPECT_EQ(slow_latency->histogram.count, kQueries);
  const obs::MetricSnapshot* serve_latency =
      snapshot.Find("goalrec_serve_latency_us");
  ASSERT_NE(serve_latency, nullptr);
  EXPECT_EQ(serve_latency->histogram.count, kQueries);
}

TEST(EngineObsTest, SampleRateZeroAttachesNoTrace) {
  FixedRecommender only(SomeList(), "Only");
  EngineOptions options;
  obs::MetricRegistry registry;
  options.metrics = &registry;
  options.trace_sample_rate = 0.0;
  bool sink_called = false;
  options.trace_sink = [&sink_called](const obs::Trace&) {
    sink_called = true;
  };
  ServingEngine engine({{"only", &only}}, options);

  util::StatusOr<ServeResult> result = engine.Serve({A(1)}, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->trace, nullptr);
  EXPECT_FALSE(sink_called);
}

TEST(EngineObsTest, FractionalSamplingTracesTheConfiguredFraction) {
  FixedRecommender only(SomeList(), "Only");
  EngineOptions options;
  obs::MetricRegistry registry;
  options.metrics = &registry;
  options.trace_sample_rate = 0.5;
  ServingEngine engine({{"only", &only}}, options);

  int traced = 0;
  constexpr int kQueries = 10;
  for (int i = 0; i < kQueries; ++i) {
    util::StatusOr<ServeResult> result = engine.Serve({A(1)}, 10);
    ASSERT_TRUE(result.ok());
    if (result->trace != nullptr) ++traced;
  }
  EXPECT_EQ(traced, kQueries / 2);
}

TEST(EngineObsTest, UnavailableQueryStillScrapesCleanly) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with GOALREC_OBS_NOOP";
  FixedRecommender a(SomeList(), "A");
  FaultInjectionOptions fault_options;
  fault_options.error_rate = 1.0;
  FaultInjector faults(fault_options);
  EngineOptions options;
  options.faults = &faults;
  obs::MetricRegistry registry;
  options.metrics = &registry;
  options.trace_sample_rate = 1.0;
  std::vector<std::string> sink_roots;
  options.trace_sink = [&sink_roots](const obs::Trace& trace) {
    sink_roots.push_back(trace.name());
  };
  ServingEngine engine({{"only", &a}}, options);

  util::StatusOr<ServeResult> result = engine.Serve({A(1)}, 10);
  EXPECT_FALSE(result.ok());

  // The failed query still shows up in the metrics and reaches the sink
  // (the error Status carries no ServeResult to attach the trace to).
  obs::RegistrySnapshot snapshot = registry.Snapshot();
  const obs::MetricSnapshot* unavailable =
      snapshot.Find("goalrec_serve_unavailable_total");
  ASSERT_NE(unavailable, nullptr);
  EXPECT_EQ(unavailable->value, 1);
  const obs::MetricSnapshot* fault_errors = snapshot.Find(
      "goalrec_faults_injected_total", {{"kind", "error"}});
  ASSERT_NE(fault_errors, nullptr);
  EXPECT_EQ(fault_errors->value, 1);
  ASSERT_EQ(sink_roots.size(), 1u);
}

}  // namespace
}  // namespace goalrec::serve
