// The degradation ladder's contract: deadline on rung 1 → rung 2's answer
// with the degradation flag set; every rung failing → a clean Status error,
// never a crash; identical fault seeds → identical serving decisions.

#include "serve/engine.h"

#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/best_match.h"
#include "core/breadth.h"
#include "serve/popularity_floor.h"
#include "testing/fixtures.h"
#include "util/deadline.h"

namespace goalrec::serve {
namespace {

using goalrec::testing::A;
using goalrec::testing::PaperLibrary;

// Returns a canned list instantly.
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

// Models a strategy too slow for any realistic budget: cooperatively
// busy-works until the stop token fires (2 s safety cap so a broken engine
// fails the test instead of hanging it).
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

// Waits out the engine's deadline without polling the token, then runs the
// real Best Match kernel. The token consults the clock on every 64th poll
// and the scan polls once per goal of GS(H), so with more than 64 goals the
// kernel meets the expired deadline partway through its scan.
class LateBestMatch : public core::Recommender {
 public:
  explicit LateBestMatch(const core::BestMatchRecommender* inner)
      : inner_(inner) {}
  std::string name() const override { return "LateBestMatch"; }
  core::RecommendationList Recommend(const model::Activity& activity,
                                     size_t k) const override {
    return inner_->Recommend(activity, k);
  }
  void RecommendPooled(util::IdSpan activity, size_t k,
                       const util::StopToken* stop,
                       core::QueryWorkspace* workspace,
                       core::RecommendationList& out) const override {
    if (stop != nullptr && !stop->deadline().is_infinite()) {
      while (!stop->deadline().Expired()) {
        std::this_thread::sleep_for(stop->deadline().Remaining());
      }
    }
    inner_->RecommendPooled(activity, k, stop, workspace, out);
    kernel_stopped = stop != nullptr && stop->StopRequested();
    kernel_list = out;
  }

  mutable bool kernel_stopped = false;
  mutable core::RecommendationList kernel_list;

 private:
  const core::BestMatchRecommender* inner_;
};

core::RecommendationList SomeList() {
  return {{model::ActionId{3}, 2.0}, {model::ActionId{1}, 1.0}};
}

TEST(ServingEngineTest, DeadlineOnRungOneServesRungTwoWithDegradationFlag) {
  SlowCooperativeRecommender slow;
  FixedRecommender fallback(SomeList(), "Fallback");
  EngineOptions options;
  options.deadline_ms = 5;
  ServingEngine engine({{"slow", &slow}, {"fallback", &fallback}}, options);

  util::StatusOr<ServeResult> result = engine.Serve({A(1)}, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rung_index, 1u);
  EXPECT_EQ(result->rung_name, "fallback");
  EXPECT_TRUE(result->degraded);
  EXPECT_EQ(result->list, SomeList());
  ASSERT_EQ(result->rungs.size(), 2u);
  EXPECT_EQ(result->rungs[0].outcome, RungOutcome::kDeadlineExceeded);
  EXPECT_EQ(result->rungs[1].outcome, RungOutcome::kServed);
}

TEST(ServingEngineTest, BestMatchStoppedMidScanIsDiscardedForNextRung) {
  model::ImplementationLibrary library = goalrec::testing::RandomLibrary(
      /*num_actions=*/40, /*num_goals=*/200, /*num_impls=*/600,
      /*max_size=*/3, /*seed=*/5);
  util::Rng rng(11);
  model::Activity activity = goalrec::testing::RandomActivity(40, 10, rng);
  ASSERT_GT(library.GoalSpace(activity).size(), 64u);
  core::BestMatchRecommender best_match(&library);
  LateBestMatch late(&best_match);
  FixedRecommender fallback(SomeList(), "Fallback");
  EngineOptions options;
  options.deadline_ms = 100;
  ServingEngine engine({{"best_match", &late}, {"fallback", &fallback}},
                       options);

  util::StatusOr<ServeResult> result = engine.Serve(activity, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(late.kernel_stopped);
  EXPECT_TRUE(late.kernel_list.empty());
  ASSERT_EQ(result->rungs.size(), 2u);
  EXPECT_EQ(result->rungs[0].outcome, RungOutcome::kDeadlineExceeded);
  EXPECT_EQ(result->rung_name, "fallback");
  EXPECT_EQ(result->list, SomeList());
}

TEST(ServingEngineTest, AllRungsFailingYieldsCleanStatusNotACrash) {
  FixedRecommender a(SomeList(), "A");
  FixedRecommender b(SomeList(), "B");
  FaultInjectionOptions fault_options;
  fault_options.error_rate = 1.0;
  FaultInjector faults(fault_options);
  EngineOptions options;
  options.faults = &faults;
  ServingEngine engine({{"a", &a}, {"b", &b}}, options);

  util::StatusOr<ServeResult> result = engine.Serve({A(1)}, 5);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kUnavailable);
  EXPECT_NE(result.status().message().find("2 rungs failed"),
            std::string::npos);
}

TEST(ServingEngineTest, InjectedErrorOnRungOneDegradesToRungTwo) {
  FixedRecommender a(SomeList(), "A");
  FixedRecommender b(SomeList(), "B");
  // Probe for a seed whose schedule is fail-then-pass, so the injector
  // deterministically kills rung one and spares rung two. (With latency_ms
  // left at 0, MaybeDelay consumes no RNG draw, so the probe sequence and
  // the engine's draw sequence line up exactly.)
  FaultInjectionOptions fault_options;
  fault_options.error_rate = 0.5;
  uint64_t seed = 0;
  for (uint64_t candidate = 1; candidate < 200; ++candidate) {
    fault_options.seed = candidate;
    FaultInjector probe(fault_options);
    if (!probe.MaybeFail("x").ok() && probe.MaybeFail("x").ok()) {
      seed = candidate;
      break;
    }
  }
  ASSERT_NE(seed, 0u) << "no fail-then-pass seed found";
  fault_options.seed = seed;
  FaultInjector faults(fault_options);
  EngineOptions options;
  options.faults = &faults;
  ServingEngine engine({{"a", &a}, {"b", &b}}, options);

  util::StatusOr<ServeResult> result = engine.Serve({A(1)}, 5);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rung_index, 1u);
  EXPECT_TRUE(result->degraded);
  EXPECT_EQ(result->rungs[0].outcome, RungOutcome::kError);
  EXPECT_EQ(result->rungs[0].status.code(), util::StatusCode::kUnavailable);
}

TEST(ServingEngineTest, EmptyAnswerFallsThrough) {
  FixedRecommender empty({}, "Empty");
  FixedRecommender fallback(SomeList(), "Fallback");
  ServingEngine engine({{"empty", &empty}, {"fallback", &fallback}});

  util::StatusOr<ServeResult> result = engine.Serve({A(1)}, 5);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rung_index, 1u);
  EXPECT_TRUE(result->degraded);
  EXPECT_EQ(result->rungs[0].outcome, RungOutcome::kEmpty);
}

TEST(ServingEngineTest, EmptyAnswerFromFinalRungIsServed) {
  FixedRecommender empty({}, "Empty");
  ServingEngine engine({{"empty", &empty}});
  util::StatusOr<ServeResult> result = engine.Serve({A(1)}, 5);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->list.empty());
  EXPECT_FALSE(result->degraded);
}

TEST(ServingEngineTest, FinalRungRunsUnboundedAfterDeadlineExpiry) {
  SlowCooperativeRecommender slow;
  model::ImplementationLibrary library = PaperLibrary();
  LibraryPopularityRecommender floor(&library);
  EngineOptions options;
  options.deadline_ms = 1;
  ServingEngine engine({{"slow", &slow}, {"popularity", &floor}}, options);

  util::StatusOr<ServeResult> result = engine.Serve({A(1)}, 3);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rung_name, "popularity");
  EXPECT_TRUE(result->degraded);
  EXPECT_FALSE(result->list.empty());
}

TEST(ServingEngineTest, HealthyLadderServesTopRungExactly) {
  model::ImplementationLibrary library = PaperLibrary();
  core::BestMatchRecommender best_match(&library);
  core::BreadthRecommender breadth(&library);
  LibraryPopularityRecommender floor(&library);
  ServingEngine engine({{"best_match", &best_match},
                        {"breadth", &breadth},
                        {"popularity", &floor}});

  model::Activity activity = {A(1), A(2)};
  util::StatusOr<ServeResult> result = engine.Serve(activity, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rung_index, 0u);
  EXPECT_FALSE(result->degraded);
  EXPECT_EQ(result->list, best_match.Recommend(activity, 10));
  EXPECT_EQ(result->num_rungs, 3u);
}

TEST(ServingEngineTest, DeterministicUnderFixedFaultSeed) {
  auto run_schedule = [](uint64_t seed) {
    FixedRecommender a(SomeList(), "A");
    FixedRecommender b(SomeList(), "B");
    FaultInjectionOptions fault_options;
    fault_options.seed = seed;
    fault_options.error_rate = 0.5;
    FaultInjector faults(fault_options);
    EngineOptions options;
    options.faults = &faults;
    ServingEngine engine({{"a", &a}, {"b", &b}}, options);
    std::vector<int> decisions;
    for (int i = 0; i < 60; ++i) {
      util::StatusOr<ServeResult> result = engine.Serve({A(1)}, 5);
      decisions.push_back(result.ok() ? static_cast<int>(result->rung_index)
                                      : -1);
    }
    return decisions;
  };
  EXPECT_EQ(run_schedule(17), run_schedule(17));
  EXPECT_NE(run_schedule(17), run_schedule(18));
}

TEST(ServingEngineTest, FormatServeReportNamesRungAndFailures) {
  SlowCooperativeRecommender slow;
  FixedRecommender fallback(SomeList(), "Fallback");
  EngineOptions options;
  options.deadline_ms = 5;
  ServingEngine engine({{"slow", &slow}, {"fallback", &fallback}}, options);
  util::StatusOr<ServeResult> result = engine.Serve({A(1)}, 5);
  ASSERT_TRUE(result.ok());
  std::string report = FormatServeReport(*result);
  EXPECT_NE(report.find("rung 2/2 'fallback'"), std::string::npos);
  EXPECT_NE(report.find("(degraded)"), std::string::npos);
  EXPECT_NE(report.find("slow: DEADLINE_EXCEEDED"), std::string::npos);
}

TEST(LibraryPopularityTest, RanksByImplementationDegree) {
  model::ImplementationLibrary library = PaperLibrary();
  LibraryPopularityRecommender floor(&library);
  // Degrees: a1=4 (p1,p2,p3,p5), a2=2 (p1,p4), a6=2 (p4,p5), a3=a4=a5=1.
  core::RecommendationList list = floor.Recommend({}, 3);
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0].action, A(1));
  EXPECT_EQ(list[0].score, 4.0);
  EXPECT_EQ(list[1].action, A(2));  // degree tie with a6, lower id first
  EXPECT_EQ(list[2].action, A(6));
}

TEST(LibraryPopularityTest, ExcludesPerformedActions) {
  model::ImplementationLibrary library = PaperLibrary();
  LibraryPopularityRecommender floor(&library);
  core::RecommendationList list = floor.Recommend({A(1), A(2)}, 2);
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0].action, A(6));
  EXPECT_EQ(list[1].action, A(3));
}

}  // namespace
}  // namespace goalrec::serve
