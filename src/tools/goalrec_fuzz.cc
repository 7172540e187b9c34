// goalrec_fuzz: differential fuzzing of the optimized src/core/ strategies
// against the naive reference oracle (src/testing/reference.h).
//
// Generate mode (default): runs `--rounds` seeded random cases through every
// strategy under test; on the first optimized-vs-reference mismatch it
// greedily shrinks the case (drop goals, drop implementations, drop actions
// from H) to a minimal repro, writes it as a loadable library file and exits
// 1 with the replay command line. Exits 0 when every round matches.
//
//   goalrec_fuzz --seed=42 --rounds=100
//   goalrec_fuzz --seed=42 --rounds=100 --strategy=Breadth --out=/tmp
//
// Replay mode: re-runs a repro file written by a previous fuzz run (or by
// hand; the format is the library text format plus #! directives, see
// src/testing/shrink.h). Exits 1 while the divergence persists, 0 once the
// bug is fixed.
//
//   goalrec_fuzz --replay=fuzz_repro_Breadth_1234.tsv

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/query_workspace.h"
#include "core/strategy.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "testing/differential.h"
#include "testing/generator.h"
#include "testing/shrink.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/status.h"

namespace goalrec {
namespace {

constexpr char kUsage[] =
    "usage: goalrec_fuzz [--seed=N] [--rounds=N] [--strategy=NAME|all]\n"
    "                    [--out=DIR] [--strict_order] [--quiet]\n"
    "       goalrec_fuzz --replay=REPRO_FILE\n"
    "\n"
    "Differential fuzzing of the optimized strategies against the naive\n"
    "reference oracle. Strategies: Focus_cmp, Focus_cl, Breadth, BestMatch;\n"
    "BestMatch runs all six variants (counts|boolean x euclidean|manhattan|\n"
    "cosine).\n";

struct FuzzConfig {
  uint64_t seed = 42;
  int64_t rounds = 100;
  std::vector<core::Strategy> strategies;
  std::string out_dir = ".";
  std::string replay;
  testing::DiffOptions diff;
  bool quiet = false;
};

// Re-runs the shrunk case once through a single-rung ServingEngine with
// tracing forced on and a private metric registry, and writes the trace tree
// plus a Prometheus snapshot next to the repro file. The repro reproduces
// the divergence; the obs snapshot shows what the optimized path actually
// did (spaces, candidate counts, per-span timings) without re-running under
// a debugger. Returns the written path, or "" on failure.
std::string DumpReproObservability(const testing::OracleCase& shrunk,
                                   const testing::OracleVariant& variant,
                                   const std::string& repro_path) {
  std::unique_ptr<core::Recommender> recommender = core::MakeStrategy(
      shrunk.library, variant.strategy, variant.best_match);
  obs::MetricRegistry registry;
  serve::EngineOptions options;
  options.metrics = &registry;
  options.trace_sample_rate = 1.0;
  serve::ServingEngine engine(
      {{testing::OracleVariantName(variant.strategy, variant.best_match),
        recommender.get()}},
      options);
  util::StatusOr<serve::ServeResult> served =
      engine.Serve(shrunk.activity, shrunk.k);
  std::string out =
      "# goalrec_fuzz observability snapshot for " + repro_path + "\n";
  if (served.ok() && served->trace != nullptr) {
    out += "# trace\n" + obs::FormatTrace(*served->trace);
  }
  out += "# metrics\n" + obs::ExportPrometheus(registry);
  std::string path = repro_path + ".obs.txt";
  if (!obs::WriteSnapshotFile(path, out)) return "";
  return path;
}

// Every strategy in `strategies`, Best Match under each of its variants.
std::vector<testing::OracleVariant> AllVariants(
    const std::vector<core::Strategy>& strategies) {
  std::vector<testing::OracleVariant> variants;
  for (core::Strategy strategy : strategies) {
    for (const core::BestMatchOptions& best_match :
         testing::OracleVariants(strategy)) {
      variants.push_back(testing::OracleVariant{strategy, best_match});
    }
  }
  return variants;
}

int Replay(const FuzzConfig& config) {
  util::StatusOr<testing::ReproCase> loaded =
      testing::LoadRepro(config.replay);
  if (!loaded.ok()) {
    GOALREC_LOG(ERROR) << "cannot load repro"
                       << util::Kv("path", config.replay)
                       << util::Kv("status", loaded.status().ToString());
    return 2;
  }
  const testing::ReproCase& repro = *loaded;
  std::vector<testing::OracleVariant> variants;
  if (!repro.strategy.empty()) {
    auto v = testing::OracleVariantFromName(repro.strategy);
    if (!v) {
      GOALREC_LOG(ERROR) << "repro names unknown strategy '" << repro.strategy
                         << "'";
      return 2;
    }
    variants.push_back(*v);
  } else {
    variants = AllVariants(core::AllStrategies());
  }
  // The header names the diverging strategy up front (DescribeRepro), so a
  // replay log identifies the suspect before any per-strategy output.
  std::printf("replaying %s — %s\n", config.replay.c_str(),
              testing::DescribeRepro(repro).c_str());
  bool mismatch = false;
  for (const testing::OracleVariant& variant : variants) {
    core::QueryWorkspace workspace;
    testing::DiffOutcome outcome = testing::DiffStrategy(
        repro.oracle_case.library, variant.strategy,
        repro.oracle_case.activity, repro.oracle_case.k, config.diff,
        variant.best_match, &workspace);
    if (outcome.match) {
      std::printf("  %s: match\n",
                  testing::OracleVariantName(variant.strategy,
                                             variant.best_match)
                      .c_str());
    } else {
      std::printf("  MISMATCH %s\n", outcome.detail.c_str());
      mismatch = true;
    }
  }
  std::printf(mismatch ? "divergence still present\n"
                       : "repro no longer diverges (bug fixed?)\n");
  return mismatch ? 1 : 0;
}

int Fuzz(const FuzzConfig& config) {
  std::vector<testing::CaseShape> shapes = testing::DefaultCaseShapes();
  const std::vector<testing::OracleVariant> variants =
      AllVariants(config.strategies);
  util::Rng seed_sequence(config.seed, /*stream=*/21);
  int64_t checks = 0;
  // One workspace for every round, as a serving thread keeps one.
  core::QueryWorkspace workspace;
  for (int64_t round = 0; round < config.rounds; ++round) {
    uint64_t case_seed = seed_sequence.NextUint64();
    const testing::CaseShape& shape =
        shapes[static_cast<size_t>(round) % shapes.size()];
    testing::OracleCase c = testing::GenerateCase(shape, case_seed);
    for (const testing::OracleVariant& variant : variants) {
      const core::Strategy strategy = variant.strategy;
      const core::BestMatchOptions best_match = variant.best_match;
      const std::string name =
          testing::OracleVariantName(strategy, best_match);
      testing::DiffOutcome outcome =
          testing::DiffStrategy(c.library, strategy, c.activity, c.k,
                                config.diff, best_match, &workspace);
      ++checks;
      if (outcome.match) continue;

      std::printf("round %lld (case seed %llu): MISMATCH %s\n",
                  static_cast<long long>(round),
                  static_cast<unsigned long long>(case_seed),
                  outcome.detail.c_str());
      std::printf("shrinking from %u implementations, |H| = %zu ...\n",
                  c.library.num_implementations(), c.activity.size());
      testing::DiffOptions diff = config.diff;
      // The shrinker re-checks both entry points, each candidate on a fresh
      // workspace.
      auto still_fails = [strategy, diff,
                          best_match](const testing::OracleCase& cand) {
        core::QueryWorkspace fresh;
        return !testing::DiffStrategy(cand.library, strategy, cand.activity,
                                      cand.k, diff, best_match, &fresh)
                    .match;
      };
      testing::ShrinkStats stats;
      testing::OracleCase shrunk = c;
      testing::DiffOutcome shrunk_outcome = outcome;
      if (still_fails(c)) {
        shrunk = testing::ShrinkFailure(c, still_fails, &stats);
        core::QueryWorkspace fresh;
        shrunk_outcome =
            testing::DiffStrategy(shrunk.library, strategy, shrunk.activity,
                                  shrunk.k, config.diff, best_match, &fresh);
      } else {
        // Only the workspace the earlier rounds left behind diverges.
        std::printf("no divergence on a fresh workspace: stale workspace "
                    "state; the case is written unshrunk\n");
      }
      std::printf(
          "shrunk to %u implementations, |H| = %zu "
          "(%zu predicate calls, %zu passes)\n",
          shrunk.library.num_implementations(), shrunk.activity.size(),
          stats.predicate_calls, stats.passes);
      std::printf("minimal divergence: %s\n", shrunk_outcome.detail.c_str());

      std::string file_name = name;
      std::replace(file_name.begin(), file_name.end(), '/', '_');
      std::string path = config.out_dir + "/fuzz_repro_" + file_name + "_" +
                         std::to_string(case_seed) + ".tsv";
      util::Status written = testing::WriteRepro(
          shrunk, name, case_seed, path, shrunk_outcome.entry_point);
      if (written.ok()) {
        std::printf("repro written: %s\nreplay with: %s\n", path.c_str(),
                    testing::ReproCommandLine(path).c_str());
        std::string obs_path =
            DumpReproObservability(shrunk, variant, path);
        if (!obs_path.empty()) {
          std::printf("observability snapshot: %s\n", obs_path.c_str());
        }
      } else {
        GOALREC_LOG(ERROR) << "failed to write repro"
                           << util::Kv("path", path)
                           << util::Kv("status", written.ToString());
      }
      return 1;
    }
    if (!config.quiet && (round + 1) % 50 == 0) {
      std::printf("  %lld/%lld rounds clean\n",
                  static_cast<long long>(round + 1),
                  static_cast<long long>(config.rounds));
    }
  }
  std::printf(
      "OK: %lld rounds x %zu strategy variants (%lld differential checks), "
      "0 mismatches (seed %llu)\n",
      static_cast<long long>(config.rounds), variants.size(),
      static_cast<long long>(checks),
      static_cast<unsigned long long>(config.seed));
  return 0;
}

int Main(int argc, char** argv) {
  util::FlagParser flags(argc, argv);
  std::vector<std::string> unknown = flags.UnknownFlags(
      {"seed", "rounds", "strategy", "out", "strict_order", "quiet", "replay",
       "help"});
  if (!unknown.empty()) {
    GOALREC_LOG(ERROR) << "unknown flag --" << unknown.front();
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  if (flags.Has("help")) {
    std::printf("%s", kUsage);
    return 0;
  }

  FuzzConfig config;
  config.seed = static_cast<uint64_t>(flags.Get<int64_t>("seed", 42));
  config.rounds = flags.Get<int64_t>("rounds", 100);
  config.diff.strict_order = flags.Get<bool>("strict_order", false);
  config.quiet = flags.Get<bool>("quiet", false);
  config.out_dir = flags.GetString("out", ".");
  config.replay = flags.GetString("replay", "");

  std::string strategy = flags.GetString("strategy", "all");
  if (strategy == "all" || strategy.empty()) {
    config.strategies = core::AllStrategies();
  } else {
    std::optional<core::Strategy> s = core::FindStrategy(strategy);
    if (!s) {
      GOALREC_LOG(ERROR) << "unknown strategy '" << strategy << "'";
      std::fprintf(stderr, "%s", kUsage);
      return 2;
    }
    config.strategies.push_back(*s);
  }

  if (!config.replay.empty()) return Replay(config);
  return Fuzz(config);
}

}  // namespace
}  // namespace goalrec

int main(int argc, char** argv) { return goalrec::Main(argc, argv); }
