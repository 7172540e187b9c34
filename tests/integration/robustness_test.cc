// Failure-injection / fuzz-style robustness: parsers must reject (never
// crash on) malformed bytes, loaders must round-trip arbitrary valid
// structures, retries must mask transient I/O failures, and the serving
// engine must survive random queries under injected faults and a tight
// deadline without ever crashing or hanging.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/best_match.h"
#include "core/breadth.h"
#include "model/library_io.h"
#include "model/validate.h"
#include "serve/engine.h"
#include "serve/popularity_floor.h"
#include "testing/fixtures.h"
#include "util/csv.h"
#include "util/random.h"
#include "util/retry.h"

namespace goalrec {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string RandomBytes(util::Rng& rng, size_t length) {
  std::string bytes(length, '\0');
  for (char& c : bytes) {
    c = static_cast<char>(rng.UniformUint32(256));
  }
  return bytes;
}

TEST(RobustnessTest, CsvParserNeverCrashesOnRandomBytes) {
  util::Rng rng(404);
  for (int trial = 0; trial < 500; ++trial) {
    std::string line = RandomBytes(rng, rng.UniformUint32(80));
    // Strip newlines — ParseCsvLine contract is one line.
    for (char& c : line) {
      if (c == '\n' || c == '\r') c = ' ';
    }
    util::StatusOr<util::CsvRow> row = util::ParseCsvLine(line);
    if (row.ok()) {
      // Whatever parsed must re-format and re-parse to the same fields.
      util::StatusOr<util::CsvRow> again =
          util::ParseCsvLine(util::FormatCsvLine(*row));
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(*again, *row);
    }
  }
}

TEST(RobustnessTest, TextLoaderNeverCrashesOnRandomPrintableLines) {
  util::Rng rng(406);
  std::string path = TempPath("goalrec_fuzz.txt");
  for (int trial = 0; trial < 200; ++trial) {
    {
      std::ofstream out(path);
      out << "# goalrec-library v1\n";
      uint32_t lines = rng.UniformUint32(6);
      for (uint32_t l = 0; l < lines; ++l) {
        std::string line = RandomBytes(rng, 1 + rng.UniformUint32(40));
        for (char& c : line) {
          unsigned char u = static_cast<unsigned char>(c);
          if (u < 32 || u > 126) c = 'x';
          if (rng.Bernoulli(0.2)) c = '\t';
        }
        out << line << "\n";
      }
    }
    util::StatusOr<model::ImplementationLibrary> loaded =
        model::LoadLibraryText(path);
    if (loaded.ok()) {
      EXPECT_TRUE(model::ValidateLibrary(*loaded).ok());
    }
  }
  std::remove(path.c_str());
}

TEST(RobustnessTest, RetryMasksTransientlyMissingLibraryFile) {
  std::string path = TempPath("goalrec_retry_lib.txt");
  std::remove(path.c_str());
  model::ImplementationLibrary lib = goalrec::testing::RandomLibrary(
      /*num_actions=*/10, /*num_goals=*/4, /*num_impls=*/20, /*max_size=*/3,
      /*seed=*/21);

  // The file materialises between attempts (a stand-in for a flaky mount);
  // the sleeper hook doubles as the "meanwhile, the world healed" event.
  util::RetryOptions retry;
  retry.max_attempts = 3;
  int sleeps = 0;
  retry.sleeper = [&](std::chrono::milliseconds) {
    if (++sleeps == 1) {
      ASSERT_TRUE(model::SaveLibraryText(lib, path).ok());
    }
  };
  util::StatusOr<std::shared_ptr<const model::LibrarySnapshot>> loaded =
      model::LoadLibrarySnapshot(path, retry);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(sleeps, 1);
  EXPECT_EQ((*loaded)->library.num_actions(), lib.num_actions());
  EXPECT_EQ((*loaded)->library.num_implementations(),
            lib.num_implementations());
  std::remove(path.c_str());
}

// Fuzz the full serving ladder: random activities against a random library,
// with injected faults and a 1 ms budget. Every query must end in either a
// served answer or a clean Status — never a crash, never a hang.
TEST(RobustnessTest, ServingEngineSurvivesFuzzedQueriesUnderFaults) {
  model::ImplementationLibrary lib = goalrec::testing::RandomLibrary(
      /*num_actions=*/40, /*num_goals=*/12, /*num_impls=*/120, /*max_size=*/5,
      /*seed=*/31);
  core::BestMatchRecommender best_match(&lib);
  core::BreadthRecommender breadth(&lib);
  serve::LibraryPopularityRecommender floor(&lib);

  serve::FaultInjectionOptions fault_options;
  fault_options.seed = 99;
  fault_options.error_rate = 0.2;
  fault_options.latency_rate = 0.1;
  fault_options.latency_ms = 2;
  serve::FaultInjector faults(fault_options);

  serve::EngineOptions options;
  options.deadline_ms = 1;
  options.faults = &faults;
  serve::ServingEngine engine({{"best_match", &best_match},
                               {"breadth", &breadth},
                               {"popularity", &floor}},
                              options);

  util::Rng rng(505);
  int served = 0;
  int failed = 0;
  for (int trial = 0; trial < 200; ++trial) {
    model::Activity activity =
        goalrec::testing::RandomActivity(40, 1 + rng.UniformUint32(6), rng);
    util::StatusOr<serve::ServeResult> result =
        engine.Serve(activity, 1 + rng.UniformUint32(10));
    if (result.ok()) {
      ++served;
      EXPECT_LT(result->rung_index, 3u);
      EXPECT_EQ(result->degraded, result->rung_index > 0);
    } else {
      ++failed;
      // The only clean terminal failure is "every rung failed".
      EXPECT_EQ(result.status().code(), util::StatusCode::kUnavailable);
    }
  }
  EXPECT_EQ(served + failed, 200);
  EXPECT_GT(served, 0) << "fault rates are moderate; some queries must land";
}

// Same fuzz, run twice with identical seeds: the rung decisions must match
// query for query, or fault schedules are not reproducible.
TEST(RobustnessTest, ServingEngineFuzzIsDeterministicUnderFixedSeeds) {
  auto run = []() {
    model::ImplementationLibrary lib = goalrec::testing::RandomLibrary(
        /*num_actions=*/25, /*num_goals=*/8, /*num_impls=*/60, /*max_size=*/4,
        /*seed=*/77);
    core::BreadthRecommender breadth(&lib);
    serve::LibraryPopularityRecommender floor(&lib);
    serve::FaultInjectionOptions fault_options;
    fault_options.seed = 13;
    fault_options.error_rate = 0.3;
    serve::FaultInjector faults(fault_options);
    serve::EngineOptions options;
    options.faults = &faults;
    serve::ServingEngine engine(
        {{"breadth", &breadth}, {"popularity", &floor}}, options);
    util::Rng rng(808);
    std::vector<int> decisions;
    for (int trial = 0; trial < 100; ++trial) {
      model::Activity activity =
          goalrec::testing::RandomActivity(25, 1 + rng.UniformUint32(4), rng);
      util::StatusOr<serve::ServeResult> result = engine.Serve(activity, 5);
      decisions.push_back(result.ok() ? static_cast<int>(result->rung_index)
                                      : -1);
    }
    return decisions;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace goalrec
