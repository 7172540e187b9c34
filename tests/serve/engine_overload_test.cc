// End-to-end overload protection through the serving engine: per-rung
// circuit breakers tripping on sustained failure and skipping the rung at
// admission time, the floor rung staying exempt, and the admission
// controller shedding excess queries with kResourceExhausted before they
// reach a rung. Breaker time is driven through the injectable clock, so
// trip/cooldown/recovery happen on simulated time.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/export.h"
#include "obs/metrics.h"
#include "serve/admission.h"
#include "serve/circuit_breaker.h"
#include "serve/engine.h"
#include "serve/fault_injection.h"
#include "testing/fixtures.h"
#include "util/deadline.h"

namespace goalrec::serve {
namespace {

using goalrec::testing::A;
using std::chrono::milliseconds;

core::RecommendationList SomeList() {
  return {{model::ActionId{3}, 2.0}, {model::ActionId{1}, 1.0}};
}

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

// Healthy (instant answer) or degraded (cooperatively busy-works until the
// deadline stops it), switchable mid-test — the shape of a dependency that
// goes bad and later recovers.
class FlakyRecommender : public core::Recommender {
 public:
  std::string name() const override { return "Flaky"; }
  void set_slow(bool slow) { slow_.store(slow); }
  core::RecommendationList Recommend(const model::Activity&,
                                     size_t) const override {
    return SomeList();
  }
  void RecommendPooled(util::IdSpan activity, size_t k,
                       const util::StopToken* stop, core::QueryWorkspace*,
                       core::RecommendationList& out) const override {
    out.clear();
    if (slow_.load()) {
      auto cap = std::chrono::steady_clock::now() + std::chrono::seconds(2);
      while (std::chrono::steady_clock::now() < cap) {
        if (stop != nullptr && stop->ShouldStop()) return;
      }
    }
    out = Recommend(model::Activity(activity.begin(), activity.end()), k);
  }

 private:
  std::atomic<bool> slow_{true};
};

// Blocks inside the rung until the test releases it; lets a test hold a
// query in flight at a precise point.
class GateRecommender : public core::Recommender {
 public:
  std::string name() const override { return "Gate"; }
  core::RecommendationList Recommend(const model::Activity&,
                                     size_t) const override {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_ = true;
    entered_cv_.notify_all();
    released_cv_.wait(lock, [this] { return released_; });
    return SomeList();
  }
  void AwaitEntered() {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_cv_.wait(lock, [this] { return entered_; });
  }
  void Release() {
    std::unique_lock<std::mutex> lock(mutex_);
    released_ = true;
    released_cv_.notify_all();
  }

 private:
  mutable std::mutex mutex_;
  mutable std::condition_variable entered_cv_;
  mutable std::condition_variable released_cv_;
  mutable bool entered_ = false;
  bool released_ = false;
};

TEST(EngineOverloadTest, BreakerTripsSkipsFailingRungAndRecovers) {
  FlakyRecommender flaky;
  FixedRecommender floor(SomeList(), "Floor");
  std::atomic<int64_t> now_ms{0};

  obs::MetricRegistry registry;
  EngineOptions options;
  options.deadline_ms = 5;
  options.metrics = &registry;
  CircuitBreakerOptions breaker_options;
  breaker_options.failure_threshold = 2;
  breaker_options.open_cooldown = milliseconds(100);
  breaker_options.now = [&now_ms] {
    return std::chrono::steady_clock::time_point(milliseconds(now_ms.load()));
  };
  options.breaker = breaker_options;
  ServingEngine engine({{"flaky", &flaky}, {"floor", &floor}}, options);

  // Two deadline-burning failures trip the flaky rung's breaker.
  for (int i = 0; i < 2; ++i) {
    util::StatusOr<ServeResult> result = engine.Serve({A(1)}, 10);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->rungs[0].outcome, RungOutcome::kDeadlineExceeded);
    EXPECT_EQ(result->rung_name, "floor");
  }
  ASSERT_NE(engine.breaker(0), nullptr);
  EXPECT_EQ(engine.breaker(0)->state(), CircuitBreaker::State::kOpen);

  // While open, the rung is skipped at admission time: no deadline burned,
  // the floor answers immediately.
  util::StatusOr<ServeResult> skipped = engine.Serve({A(1)}, 10);
  ASSERT_TRUE(skipped.ok());
  EXPECT_EQ(skipped->rungs[0].outcome, RungOutcome::kBreakerOpen);
  EXPECT_TRUE(skipped->degraded);
  EXPECT_LT(skipped->rungs[0].latency, milliseconds(1));
  const obs::RegistrySnapshot open_snapshot = registry.Snapshot();
  const obs::MetricSnapshot* state =
      open_snapshot.Find("goalrec_breaker_state", {{"rung", "flaky"}});
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->value, static_cast<int64_t>(CircuitBreaker::State::kOpen));

  // Cooldown elapses (simulated clock), the rung is still bad: the probe
  // fails and the breaker re-opens.
  now_ms.store(100);
  util::StatusOr<ServeResult> probe = engine.Serve({A(1)}, 10);
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(probe->rungs[0].outcome, RungOutcome::kDeadlineExceeded);
  EXPECT_EQ(engine.breaker(0)->state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(engine.breaker(0)->transitions_to(CircuitBreaker::State::kOpen), 2);

  // The rung heals; after another cooldown kHalfOpenSuccesses = 2 probes
  // succeed and the breaker closes — full-quality serving resumes.
  flaky.set_slow(false);
  now_ms.store(200);
  for (int probe_index = 0; probe_index < kHalfOpenSuccesses; ++probe_index) {
    EXPECT_EQ(engine.breaker(0)->state(),
              probe_index == 0 ? CircuitBreaker::State::kOpen
                               : CircuitBreaker::State::kHalfOpen);
    util::StatusOr<ServeResult> recovered = engine.Serve({A(1)}, 10);
    ASSERT_TRUE(recovered.ok());
    EXPECT_EQ(recovered->rung_index, 0u);
    EXPECT_FALSE(recovered->degraded);
  }
  EXPECT_EQ(engine.breaker(0)->state(), CircuitBreaker::State::kClosed);

  // The whole episode is visible in metrics: one breaker_open skip, and the
  // state gauge exports per rung.
  const obs::RegistrySnapshot snapshot = registry.Snapshot();
  const obs::MetricSnapshot* skips =
      snapshot.Find("goalrec_serve_rung_attempts_total",
                    {{"outcome", "breaker_open"}, {"rung", "flaky"}});
  ASSERT_NE(skips, nullptr);
  EXPECT_EQ(skips->value, 1);
  if (obs::kObsEnabled) {
    const std::string text = obs::ExportPrometheus(registry);
    EXPECT_NE(text.find("goalrec_breaker_state{rung=\"flaky\"} 0"),
              std::string::npos);
    EXPECT_NE(text.find("goalrec_breaker_state{rung=\"floor\"}"),
              std::string::npos);
    EXPECT_NE(text.find("goalrec_serve_shed_total"), std::string::npos);
  }
}

TEST(EngineOverloadTest, FinalRungIsNeverBreakerGated) {
  // Every rung fails via injected faults. The first rung's breaker opens
  // and skips it, but the floor must still be attempted on every query —
  // a breaker-gated floor would turn overload into a total outage.
  FixedRecommender a(SomeList(), "A");
  FixedRecommender b(SomeList(), "B");
  FaultInjectionOptions fault_options;
  fault_options.error_rate = 1.0;
  FaultInjector faults(fault_options);

  obs::MetricRegistry registry;
  EngineOptions options;
  options.faults = &faults;
  options.metrics = &registry;
  CircuitBreakerOptions breaker_options;
  breaker_options.failure_threshold = 2;
  breaker_options.open_cooldown = milliseconds(60'000);  // stays open
  options.breaker = breaker_options;
  ServingEngine engine({{"a", &a}, {"b", &b}}, options);

  for (int i = 0; i < 6; ++i) {
    util::StatusOr<ServeResult> result = engine.Serve({A(1)}, 10);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), util::StatusCode::kUnavailable);
  }
  EXPECT_EQ(engine.breaker(0)->state(), CircuitBreaker::State::kOpen);
  // The final rung was attempted (and failed) every single time.
  const obs::RegistrySnapshot snapshot = registry.Snapshot();
  const obs::MetricSnapshot* floor_errors = snapshot.Find(
      "goalrec_serve_rung_attempts_total", {{"outcome", "error"}, {"rung", "b"}});
  ASSERT_NE(floor_errors, nullptr);
  EXPECT_EQ(floor_errors->value, 6);
}

TEST(EngineOverloadTest, AdmissionShedsExcessQueriesBeforeTheLadder) {
  GateRecommender gate;
  obs::MetricRegistry registry;
  AdmissionOptions admission_options;
  admission_options.initial_limit = 1;
  admission_options.adaptive = false;
  admission_options.max_queue_interactive = 0;
  admission_options.metrics = &registry;
  AdmissionController admission(admission_options);

  EngineOptions options;
  options.admission = &admission;
  options.metrics = &registry;
  ServingEngine engine({{"gate", &gate}}, options);

  util::StatusOr<ServeResult> held = util::InternalError("not served yet");
  std::thread in_flight([&] { held = engine.Serve({A(1)}, 10); });
  gate.AwaitEntered();

  // The slot is taken and the queue capacity is zero: shed immediately,
  // without ever entering a rung.
  util::StatusOr<ServeResult> shed = engine.Serve({A(1)}, 10);
  EXPECT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), util::StatusCode::kResourceExhausted);

  gate.Release();
  in_flight.join();
  ASSERT_TRUE(held.ok());
  EXPECT_EQ(held->rung_name, "gate");

  const obs::RegistrySnapshot snapshot = registry.Snapshot();
  const obs::MetricSnapshot* shed_total =
      snapshot.Find("goalrec_serve_shed_total");
  ASSERT_NE(shed_total, nullptr);
  EXPECT_EQ(shed_total->value, 1);
  // The gate rung ran exactly once — the shed query never reached it.
  const obs::MetricSnapshot* served = snapshot.Find(
      "goalrec_serve_rung_attempts_total",
      {{"outcome", "served"}, {"rung", "gate"}});
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(served->value, 1);
}

TEST(EngineOverloadTest, AllServeOverloadsPassThroughAdmissionOnce) {
  FixedRecommender fixed(SomeList(), "Fixed");
  obs::MetricRegistry registry;
  AdmissionOptions admission_options;
  admission_options.initial_limit = 4;
  admission_options.adaptive = false;
  admission_options.metrics = &registry;
  AdmissionController admission(admission_options);

  EngineOptions options;
  options.admission = &admission;
  options.metrics = &registry;
  ServingEngine engine({{"fixed", &fixed}}, options);

  for (int i = 0; i < 3; ++i) EXPECT_TRUE(engine.Serve({A(1)}, 5).ok());
  EXPECT_EQ(admission.in_flight(), 0);  // every Admit paired with a Release
  const obs::RegistrySnapshot snapshot = registry.Snapshot();
  const obs::MetricSnapshot* admitted =
      snapshot.Find("goalrec_admission_admitted_total");
  ASSERT_NE(admitted, nullptr);
  EXPECT_EQ(admitted->value, 3);
}

}  // namespace
}  // namespace goalrec::serve
