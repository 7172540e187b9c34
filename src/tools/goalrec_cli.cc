// goalrec — command-line front end for the library.
//
//   goalrec stats <library>
//       Print the library's descriptive statistics (§6's dataset tables).
//
//   goalrec recommend <library> --actions=a,b,c [--strategy=focus_cmp]
//                     [--k=10] [--explain] [--metric=euclidean]
//                     [--deadline_ms=N] [--fallback_chain=s1,s2,...]
//                     [--fault_seed=N --fault_error_rate=P
//                      --fault_latency_ms=N --fault_latency_rate=P
//                      --fault_latency_burst_ms=N --fault_latency_burst_count=N]
//                     [--admission --admission_limit=N --admission_adaptive=B
//                      --admission_queue=N --admission_batch_queue=N
//                      --priority=interactive|batch]
//                     [--breaker_failures=N --breaker_cooldown_ms=N
//                      --breaker_probes=N]
//       Rank recommendations for the given activity. Strategies: focus_cmp,
//       focus_cl, breadth, best_match, popularity (structural floor).
//       --explain prints, per recommendation, the goals it advances.
//       --deadline_ms / --fallback_chain route the query through the
//       resilient serving engine (docs/serving.md): the chain's rungs are
//       tried best-first under the deadline and the serving rung is
//       reported. --fault_* inject deterministic faults to exercise the
//       ladder; --fault_latency_burst_* turn a spike into a sustained burst
//       (the breaker trip scenario). --admission* put an overload-
//       protection front door before the ladder (shed with
//       RESOURCE_EXHAUSTED instead of timing out); --breaker_* give every
//       non-final rung a circuit breaker. Defaults: chain
//       "<strategy>,popularity".
//
// Every command that loads a library or CSV honours --retry_attempts=N,
// --retry_backoff_ms=N and --retry_seed=N: transient I/O errors are retried
// with decorrelated-jitter backoff before giving up.
//
// Observability flags, honoured by every subcommand (docs/observability.md):
//   --log_level=info|warn|error   minimum severity emitted by GOALREC_LOG
//   --vlog=N                      GOALREC_VLOG verbosity (default 0)
//   --metrics_out=<path|->        write a metrics snapshot when the command
//                                 exits ("-" = stdout)
//   --metrics_format=prometheus|json
//   --metrics_every_ms=N          with --metrics_out=<file>, rewrite the
//                                 snapshot every N ms while the command runs
//   --trace_sample_rate=R         fraction of engine queries traced (the
//                                 `recommend` engine path; --trace_out alone
//                                 implies R=1)
//   --trace_out=<path|->          where the sampled trace tree is written
//                                 (default "-")
//
//   goalrec spaces <library> --actions=a,b,c
//       Print the activity's implementation/goal/action spaces (Eq. 1–2).
//
//   goalrec convert <in> <out>
//       Convert between the text and snapshot (.snap) library formats,
//       inferred from the file extensions.
//
//   goalrec generate <foodmart|43things> --out=<prefix> [--scale=small|full]
//       Write a synthetic dataset: <prefix>.library.txt and
//       <prefix>.activities.csv.
//
//   goalrec evaluate <library> <activities.csv> [--k=10] [--visible=0.3]
//                    [--seed=17]
//       Split the activities, run the full recommender roster and print the
//       paper's key metrics (overlap, popularity correlation, completeness,
//       TPR).
//
//   goalrec delta <init|append|compact|status> ...
//       Writer-side management of a delta-snapshot directory
//       (docs/data_plane.md, "Delta segments & compaction"): `init` seeds
//       <dir>/base.snap from a library; `append` publishes one delta
//       segment (--add="goal:a1,a2;..." appends implementations,
//       --tombstone_goals / --tombstone_impls remove them); `compact` folds
//       base + segments into a fresh base; `status` prints the chain state
//       without mutating the directory.
//
//   goalrec serve <library|delta-dir> [--strategy=breadth] [--deadline_ms=N]
//                 [--shards=1] [--watch_library] [--watch_interval_ms=500]
//                 [--slo_objective=0.999] [--statusz_out=<path|->]
//                 [--statusz_every_ms=1000]
//       Interactive serving REPL over a hot-reloadable library snapshot
//       (docs/serving.md, "Library hot reload"). Queries run through the
//       resilient engine's <strategy> → popularity ladder against the
//       current snapshot, fanned out over --shards partitions when it is
//       above 1; `reload [path]` swaps the library atomically
//       without dropping the session's activity, and --watch_library polls
//       the file's mtime and reloads automatically when it changes. The
//       `statusz` command prints the live introspection page — snapshot
//       version/age, SLO burn rates, breaker states, tail exemplars with
//       decoded flight-recorder slices (docs/observability.md); with
//       --statusz_out the same page is rewritten to a file every
//       --statusz_every_ms while the REPL runs ("-" writes once at exit).
//
// Library files ending in .snap are read/written in the crash-consistent
// CRC-framed snapshot format (docs/data_plane.md); anything else uses the
// text format. All loading commands accept --load_mode=strict|quarantine:
// quarantine drops malformed records (reported with file:line provenance)
// instead of failing the load. A flag whose value does not parse (say
// --k=abc) exits 2 with a message naming it.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/best_match.h"
#include "core/breadth.h"
#include "core/explanation.h"
#include "core/session.h"
#include "core/focus.h"
#include "data/foodmart.h"
#include "data/fortythree.h"
#include "data/loaders.h"
#include "data/splitter.h"
#include "eval/export.h"
#include "eval/reports.h"
#include "eval/suite.h"
#include "model/cooccurrence.h"
#include "model/delta.h"
#include "model/delta_log.h"
#include "model/export_dot.h"
#include "model/library_io.h"
#include "obs/dumper.h"
#include "obs/exemplar.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "model/snapshot.h"
#include "serve/engine.h"
#include "serve/fault_injection.h"
#include "serve/popularity_floor.h"
#include "serve/sharded.h"
#include "serve/snapshot_manager.h"
#include "serve/statusz.h"
#include "textmine/aliases.h"
#include "textmine/corpus.h"
#include "model/statistics.h"
#include "model/validate.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/set_ops.h"
#include "util/string_utils.h"

namespace {

using goalrec::model::ImplementationLibrary;
using goalrec::util::FlagParser;
using goalrec::util::Status;
using goalrec::util::StatusOr;

constexpr char kUsage[] =
    "usage: goalrec <stats|evaluate|recommend|spaces|convert|generate|dot|extract|related|delta|serve> ...\n"
    "run with a subcommand and --help for details; see the header of\n"
    "src/tools/goalrec_cli.cc for the full synopsis\n";

// The --retry_* flags, defaulting to a single attempt (no retry).
goalrec::util::RetryOptions RetryFromFlags(const FlagParser& flags) {
  goalrec::util::RetryOptions retry;
  retry.max_attempts = flags.Get<int>("retry_attempts", 1);
  retry.initial_backoff_ms = flags.Get<int64_t>("retry_backoff_ms", 10);
  retry.jitter_seed =
      static_cast<uint64_t>(flags.Get<int64_t>("retry_seed", 1));
  return retry;
}

// --load_mode=strict|quarantine (docs/data_plane.md, "Validated loading").
StatusOr<goalrec::model::LoadOptions> LoadOptionsFromFlags(
    const FlagParser& flags) {
  goalrec::model::LoadOptions options;
  std::string mode = flags.GetString("load_mode", "strict");
  if (mode == "quarantine") {
    options.mode = goalrec::model::ValidationMode::kQuarantine;
  } else if (mode != "strict") {
    return goalrec::util::InvalidArgumentError(
        "--load_mode must be 'strict' or 'quarantine', got '" + mode + "'");
  }
  return options;
}

// Prints what a quarantine-mode load dropped, with per-record provenance.
void PrintLoadReport(const goalrec::model::LoadReport& report) {
  if (report.issues_total == 0) return;
  std::fprintf(stderr, "load report: %s\n", report.Summary().c_str());
  for (const goalrec::model::LoadIssue& issue : report.issues) {
    std::fprintf(stderr, "  %s\n", issue.ToString().c_str());
  }
  if (report.issues.size() < report.issues_total) {
    std::fprintf(stderr, "  ... and %zu more\n",
                 report.issues_total - report.issues.size());
  }
}

StatusOr<ImplementationLibrary> LoadLibrary(const FlagParser& flags,
                                            const std::string& path) {
  goalrec::util::RetryOptions retry = RetryFromFlags(flags);
  StatusOr<goalrec::model::LoadOptions> options = LoadOptionsFromFlags(flags);
  if (!options.ok()) return options.status();
  goalrec::model::LoadReport report;
  StatusOr<ImplementationLibrary> library =
      goalrec::util::RetryCall(retry, [&] {
        return goalrec::model::LoadLibraryFile(path, *options, &report);
      });
  PrintLoadReport(report);
  return library;
}

// Resolves a comma-separated action-name list against the library.
StatusOr<goalrec::model::Activity> ParseActivity(
    const ImplementationLibrary& library, const std::string& csv) {
  goalrec::model::Activity activity;
  for (const std::string& raw : goalrec::util::Split(csv, ',')) {
    std::string name(goalrec::util::Trim(raw));
    if (name.empty()) continue;
    std::optional<uint32_t> id = library.actions().Find(name);
    if (!id.has_value()) {
      return goalrec::util::NotFoundError("unknown action '" + name + "'");
    }
    activity.push_back(*id);
  }
  goalrec::util::Normalize(activity);
  if (activity.empty()) {
    return goalrec::util::InvalidArgumentError(
        "--actions must name at least one known action");
  }
  return activity;
}

int CmdStats(const FlagParser& flags) {
  if (flags.positional().size() != 2) {
    std::fprintf(stderr, "usage: goalrec stats <library>\n");
    return 2;
  }
  StatusOr<ImplementationLibrary> library = LoadLibrary(flags, flags.positional()[1]);
  if (!library.ok()) {
    GOALREC_LOG(ERROR) << "library load failed"
                       << goalrec::util::Kv("status",
                                            library.status().ToString());
    return 1;
  }
  std::printf("%s", goalrec::model::StatsToString(
                        goalrec::model::ComputeStats(*library))
                        .c_str());
  return 0;
}

int CmdSpaces(const FlagParser& flags) {
  if (flags.positional().size() != 2 || !flags.Has("actions")) {
    std::fprintf(stderr,
                 "usage: goalrec spaces <library> --actions=a,b,c\n");
    return 2;
  }
  StatusOr<ImplementationLibrary> library = LoadLibrary(flags, flags.positional()[1]);
  if (!library.ok()) {
    GOALREC_LOG(ERROR) << "library load failed"
                       << goalrec::util::Kv("status",
                                            library.status().ToString());
    return 1;
  }
  StatusOr<goalrec::model::Activity> activity =
      ParseActivity(*library, flags.GetString("actions"));
  if (!activity.ok()) {
    GOALREC_LOG(ERROR) << "bad --actions"
                       << goalrec::util::Kv("status",
                                            activity.status().ToString());
    return 1;
  }
  goalrec::model::IdSet impls = library->ImplementationSpace(*activity);
  std::printf("implementation space (%zu):", impls.size());
  for (goalrec::model::ImplId p : impls) std::printf(" %u", p);
  std::printf("\ngoal space:");
  for (goalrec::model::GoalId g : library->GoalSpace(*activity)) {
    std::printf(" '%s'", library->goals().Name(g).c_str());
  }
  std::printf("\naction space:");
  for (goalrec::model::ActionId a : library->ActionSpace(*activity)) {
    std::printf(" '%s'", library->actions().Name(a).c_str());
  }
  std::printf("\ncandidates:");
  for (goalrec::model::ActionId a : library->CandidateActions(*activity)) {
    std::printf(" '%s'", library->actions().Name(a).c_str());
  }
  std::printf("\n");
  return 0;
}

int CmdRecommend(const FlagParser& flags) {
  if (flags.positional().size() != 2 || !flags.Has("actions")) {
    std::fprintf(stderr,
                 "usage: goalrec recommend <library> --actions=a,b,c "
                 "[--strategy=focus_cmp|focus_cl|breadth|best_match|popularity] "
                 "[--k=10] [--metric=euclidean|manhattan|cosine] "
                 "[--explain] [--deadline_ms=N] [--fallback_chain=s1,s2,...] "
                 "[--fault_seed=N] [--fault_error_rate=P] "
                 "[--fault_latency_ms=N] [--fault_latency_rate=P]\n");
    return 2;
  }
  StatusOr<ImplementationLibrary> library = LoadLibrary(flags, flags.positional()[1]);
  if (!library.ok()) {
    GOALREC_LOG(ERROR) << "library load failed"
                       << goalrec::util::Kv("status",
                                            library.status().ToString());
    return 1;
  }
  StatusOr<goalrec::model::Activity> activity =
      ParseActivity(*library, flags.GetString("actions"));
  if (!activity.ok()) {
    GOALREC_LOG(ERROR) << "bad --actions"
                       << goalrec::util::Kv("status",
                                            activity.status().ToString());
    return 1;
  }
  const int64_t k = flags.Get<int64_t>("k", 10);
  if (k <= 0) {
    GOALREC_LOG(ERROR) << "--k must be a positive integer";
    return 2;
  }
  const bool explain = flags.Get<bool>("explain", false);

  std::string metric_name = flags.GetString("metric", "euclidean");
  goalrec::core::BestMatchOptions best_match_options;
  if (metric_name == "manhattan") {
    best_match_options.metric = goalrec::util::DistanceMetric::kManhattan;
  } else if (metric_name == "cosine") {
    best_match_options.metric = goalrec::util::DistanceMetric::kCosine;
  } else if (metric_name != "euclidean") {
    GOALREC_LOG(ERROR) << "unknown --metric '" << metric_name << "'";
    return 2;
  }

  std::string strategy = flags.GetString("strategy", "focus_cmp");
  goalrec::core::FocusRecommender focus_cmp(
      &*library, goalrec::core::FocusVariant::kCompleteness);
  goalrec::core::FocusRecommender focus_cl(
      &*library, goalrec::core::FocusVariant::kCloseness);
  goalrec::core::BreadthRecommender breadth(&*library);
  goalrec::core::BestMatchRecommender best_match(&*library,
                                                 best_match_options);
  goalrec::serve::LibraryPopularityRecommender popularity(&*library);
  auto resolve = [&](const std::string& name) -> goalrec::core::Recommender* {
    if (name == "focus_cmp") return &focus_cmp;
    if (name == "focus_cl") return &focus_cl;
    if (name == "breadth") return &breadth;
    if (name == "best_match") return &best_match;
    if (name == "popularity") return &popularity;
    return nullptr;
  };
  goalrec::core::Recommender* recommender = resolve(strategy);
  if (recommender == nullptr) {
    GOALREC_LOG(ERROR) << "unknown --strategy '" << strategy << "'";
    return 2;
  }

  goalrec::core::RecommendationList list;
  bool use_admission =
      flags.Has("admission") || flags.Has("admission_limit") ||
      flags.Has("admission_queue") || flags.Has("admission_batch_queue");
  bool use_breakers = flags.Has("breaker_failures") ||
                      flags.Has("breaker_cooldown_ms") ||
                      flags.Has("breaker_probes");
  bool use_engine = flags.Has("deadline_ms") || flags.Has("fallback_chain") ||
                    flags.Has("fault_seed") || flags.Has("trace_sample_rate") ||
                    flags.Has("trace_out") || use_admission || use_breakers ||
                    flags.Has("priority");
  if (use_engine) {
    std::string chain = flags.GetString("fallback_chain");
    if (chain.empty()) chain = strategy + ",popularity";
    std::vector<goalrec::serve::ServingEngine::Rung> rungs;
    for (const std::string& raw : goalrec::util::Split(chain, ',')) {
      std::string name(goalrec::util::Trim(raw));
      if (name.empty()) continue;
      goalrec::core::Recommender* rung = resolve(name);
      if (rung == nullptr) {
        GOALREC_LOG(ERROR) << "unknown rung '" << name
                           << "' in --fallback_chain";
        return 2;
      }
      rungs.push_back({name, rung});
    }
    if (rungs.empty()) {
      GOALREC_LOG(ERROR) << "--fallback_chain names no strategies";
      return 2;
    }
    goalrec::serve::EngineOptions engine_options;
    engine_options.deadline_ms = flags.Get<int64_t>("deadline_ms", 0);
    if (engine_options.deadline_ms < 0) {
      GOALREC_LOG(ERROR) << "--deadline_ms must be a non-negative integer";
      return 2;
    }
    // --trace_out alone means "trace this query": the common one-shot
    // debugging call should not need two flags.
    engine_options.trace_sample_rate = flags.Get<double>(
        "trace_sample_rate", flags.Has("trace_out") ? 1.0 : 0.0);
    if (engine_options.trace_sample_rate < 0.0 ||
        engine_options.trace_sample_rate > 1.0) {
      GOALREC_LOG(ERROR) << "--trace_sample_rate must be in [0, 1]";
      return 2;
    }
    goalrec::serve::FaultInjectionOptions fault_options;
    std::optional<goalrec::serve::FaultInjector> faults;
    if (flags.Has("fault_seed")) {
      fault_options.seed =
          static_cast<uint64_t>(flags.Get<int64_t>("fault_seed", 1));
      fault_options.error_rate = flags.Get<double>("fault_error_rate", 0.0);
      fault_options.latency_rate =
          flags.Get<double>("fault_latency_rate", 0.0);
      fault_options.latency_ms = flags.Get<int64_t>("fault_latency_ms", 0);
      fault_options.latency_burst_ms =
          flags.Get<int64_t>("fault_latency_burst_ms", 0);
      fault_options.latency_burst_count =
          flags.Get<int>("fault_latency_burst_count", 0);
      faults.emplace(fault_options);
      engine_options.faults = &*faults;
    }
    // Overload protection: an admission front door and per-rung breakers.
    std::optional<goalrec::serve::AdmissionController> admission;
    if (use_admission) {
      goalrec::serve::AdmissionOptions admission_options;
      admission_options.initial_limit = flags.Get<int>("admission_limit", 8);
      admission_options.adaptive = flags.Get<bool>("admission_adaptive", true);
      admission_options.max_queue_interactive = static_cast<size_t>(
          flags.Get<int64_t>("admission_queue", 64));
      admission_options.max_queue_batch = static_cast<size_t>(
          flags.Get<int64_t>("admission_batch_queue", 16));
      admission.emplace(admission_options);
      engine_options.admission = &*admission;
    }
    if (use_breakers) {
      goalrec::serve::CircuitBreakerOptions breaker_options;
      breaker_options.failure_threshold = flags.Get<int>("breaker_failures", 5);
      breaker_options.open_cooldown = std::chrono::milliseconds(
          flags.Get<int64_t>("breaker_cooldown_ms", 1000));
      breaker_options.half_open_probes = flags.Get<int>("breaker_probes", 3);
      engine_options.breaker = breaker_options;
    }
    std::string priority_name = flags.GetString("priority", "interactive");
    goalrec::serve::QueryPriority priority =
        goalrec::serve::QueryPriority::kInteractive;
    if (priority_name == "batch") {
      priority = goalrec::serve::QueryPriority::kBatch;
    } else if (priority_name != "interactive") {
      GOALREC_LOG(ERROR) << "--priority must be interactive|batch";
      return 2;
    }
    goalrec::serve::ServingEngine engine(std::move(rungs), engine_options);
    goalrec::util::StatusOr<goalrec::serve::ServeResult> served =
        engine.Serve(*activity, static_cast<size_t>(k),
                     goalrec::util::CancellationToken(), priority);
    if (!served.ok()) {
      GOALREC_LOG(ERROR) << "serve failed"
                         << goalrec::util::Kv("status",
                                              served.status().ToString());
      return 1;
    }
    std::printf("%s\n", goalrec::serve::FormatServeReport(*served).c_str());
    if (served->trace != nullptr) {
      goalrec::obs::WriteSnapshotFile(
          flags.GetString("trace_out", "-"),
          goalrec::obs::FormatTrace(*served->trace));
    }
    list = std::move(served->list);
  } else {
    list = recommender->Recommend(*activity, static_cast<size_t>(k));
  }
  if (list.empty()) {
    std::printf("no recommendations (activity matches no implementation)\n");
    return 0;
  }
  for (size_t i = 0; i < list.size(); ++i) {
    std::printf("%2zu. %s (score %.4f)\n", i + 1,
                library->actions().Name(list[i].action).c_str(),
                list[i].score);
    if (explain) {
      goalrec::core::Explanation explanation =
          goalrec::core::ExplainAction(*library, *activity, list[i].action);
      std::printf("%s",
                  goalrec::core::FormatExplanation(*library, explanation)
                      .c_str());
    }
  }
  return 0;
}

int CmdConvert(const FlagParser& flags) {
  if (flags.positional().size() != 3) {
    std::fprintf(stderr, "usage: goalrec convert <in> <out>\n");
    return 2;
  }
  StatusOr<ImplementationLibrary> library = LoadLibrary(flags, flags.positional()[1]);
  if (!library.ok()) {
    GOALREC_LOG(ERROR) << "library load failed"
                       << goalrec::util::Kv("status",
                                            library.status().ToString());
    return 1;
  }
  Status saved =
      goalrec::model::SaveLibraryFile(*library, flags.positional()[2]);
  if (!saved.ok()) {
    GOALREC_LOG(ERROR) << "library save failed"
                       << goalrec::util::Kv("status", saved.ToString());
    return 1;
  }
  std::printf("wrote %s (%u implementations)\n",
              flags.positional()[2].c_str(), library->num_implementations());
  return 0;
}

int CmdGenerate(const FlagParser& flags) {
  if (flags.positional().size() != 2 || !flags.Has("out")) {
    std::fprintf(stderr,
                 "usage: goalrec generate <foodmart|43things> --out=<prefix> "
                 "[--scale=small|full] [--seed=N]\n");
    return 2;
  }
  const std::string& kind = flags.positional()[1];
  std::string scale = flags.GetString("scale", "small");
  const int64_t seed = flags.Get<int64_t>("seed", -1);

  goalrec::data::Dataset dataset;
  if (kind == "foodmart") {
    goalrec::data::FoodmartOptions options =
        scale == "full" ? goalrec::data::FoodmartOptions{}
                        : goalrec::data::SmallFoodmartOptions();
    if (seed >= 0) options.seed = static_cast<uint64_t>(seed);
    dataset = goalrec::data::GenerateFoodmart(options);
  } else if (kind == "43things") {
    goalrec::data::FortyThreeOptions options =
        scale == "full" ? goalrec::data::FortyThreeOptions{}
                        : goalrec::data::SmallFortyThreeOptions();
    if (seed >= 0) options.seed = static_cast<uint64_t>(seed);
    dataset = goalrec::data::GenerateFortyThree(options);
  } else {
    GOALREC_LOG(ERROR) << "unknown dataset '" << kind << "'";
    return 2;
  }

  std::string prefix = flags.GetString("out");
  Status lib_status = goalrec::model::SaveLibraryText(
      dataset.library, prefix + ".library.txt");
  if (!lib_status.ok()) {
    GOALREC_LOG(ERROR) << "library save failed"
                       << goalrec::util::Kv("status", lib_status.ToString());
    return 1;
  }
  std::vector<goalrec::model::Activity> activities;
  for (const goalrec::data::UserRecord& user : dataset.users) {
    activities.push_back(user.full_activity);
  }
  Status act_status = goalrec::data::SaveActivitiesCsv(
      prefix + ".activities.csv", activities, dataset.library.actions());
  if (!act_status.ok()) {
    GOALREC_LOG(ERROR) << "activities save failed"
                       << goalrec::util::Kv("status", act_status.ToString());
    return 1;
  }
  std::printf("wrote %s.library.txt and %s.activities.csv\n%s",
              prefix.c_str(), prefix.c_str(),
              goalrec::model::StatsToString(
                  goalrec::model::ComputeStats(dataset.library))
                  .c_str());
  return 0;
}

int CmdExtract(const FlagParser& flags) {
  if (flags.positional().size() != 3) {
    std::fprintf(stderr,
                 "usage: goalrec extract <corpus.txt> <out-library> "
                 "[--stem] [--aliases=<csv>]\n");
    return 2;
  }
  StatusOr<std::vector<goalrec::textmine::HowToDocument>> corpus =
      goalrec::textmine::LoadCorpus(flags.positional()[1]);
  if (!corpus.ok()) {
    GOALREC_LOG(ERROR) << "corpus load failed"
                       << goalrec::util::Kv("status",
                                            corpus.status().ToString());
    return 1;
  }
  goalrec::textmine::ExtractorOptions options;
  options.stem_words = flags.Get<bool>("stem", false);
  goalrec::textmine::AliasMap aliases;
  if (flags.Has("aliases")) {
    StatusOr<goalrec::textmine::AliasMap> loaded =
        goalrec::textmine::LoadAliasesCsv(flags.GetString("aliases"));
    if (!loaded.ok()) {
      GOALREC_LOG(ERROR) << "alias load failed"
                         << goalrec::util::Kv("status",
                                              loaded.status().ToString());
      return 1;
    }
    aliases = std::move(*loaded);
    options.aliases = &aliases;
  }
  ImplementationLibrary library =
      goalrec::textmine::BuildLibraryFromDocuments(*corpus, options);
  Status saved =
      goalrec::model::SaveLibraryFile(library, flags.positional()[2]);
  if (!saved.ok()) {
    GOALREC_LOG(ERROR) << "library save failed"
                       << goalrec::util::Kv("status", saved.ToString());
    return 1;
  }
  std::printf("extracted %zu documents into %s\n%s", corpus->size(),
              flags.positional()[2].c_str(),
              goalrec::model::StatsToString(
                  goalrec::model::ComputeStats(library))
                  .c_str());
  return 0;
}

int CmdRelated(const FlagParser& flags) {
  if (flags.positional().size() != 2 || !flags.Has("action")) {
    std::fprintf(stderr,
                 "usage: goalrec related <library> --action=<name> [--k=10]\n");
    return 2;
  }
  StatusOr<ImplementationLibrary> library = LoadLibrary(flags, flags.positional()[1]);
  if (!library.ok()) {
    GOALREC_LOG(ERROR) << "library load failed"
                       << goalrec::util::Kv("status",
                                            library.status().ToString());
    return 1;
  }
  std::optional<uint32_t> action =
      library->actions().Find(flags.GetString("action"));
  if (!action.has_value()) {
    GOALREC_LOG(ERROR) << "unknown action '" << flags.GetString("action")
                       << "'";
    return 1;
  }
  const int64_t k = flags.Get<int64_t>("k", 10);
  if (k <= 0) {
    GOALREC_LOG(ERROR) << "--k must be a positive integer";
    return 2;
  }
  std::vector<goalrec::model::CoAction> related = goalrec::model::TopCoActions(
      *library, *action, static_cast<size_t>(k));
  if (related.empty()) {
    std::printf("'%s' co-occurs with nothing\n",
                flags.GetString("action").c_str());
    return 0;
  }
  for (const goalrec::model::CoAction& entry : related) {
    std::printf("%-30s co-occurrences %-5u PMI %+.2f\n",
                library->actions().Name(entry.action).c_str(), entry.count,
                entry.pmi);
  }
  return 0;
}

// Parses --add="goal:a1,a2;goal2:b1,b2" into appended delta records.
StatusOr<std::vector<goalrec::model::DeltaImplementation>> ParseDeltaAdds(
    const std::string& spec) {
  std::vector<goalrec::model::DeltaImplementation> records;
  for (const std::string& raw : goalrec::util::Split(spec, ';')) {
    std::string_view record = goalrec::util::Trim(raw);
    if (record.empty()) continue;
    size_t colon = record.find(':');
    if (colon == std::string_view::npos) {
      return goalrec::util::InvalidArgumentError(
          "--add record '" + std::string(record) +
          "' is not goal:action1,action2");
    }
    goalrec::model::DeltaImplementation impl;
    impl.goal = std::string(goalrec::util::Trim(record.substr(0, colon)));
    for (const std::string& action :
         goalrec::util::Split(std::string(record.substr(colon + 1)), ',')) {
      std::string name(goalrec::util::Trim(action));
      if (!name.empty()) impl.actions.push_back(std::move(name));
    }
    if (impl.goal.empty() || impl.actions.empty()) {
      return goalrec::util::InvalidArgumentError(
          "--add record '" + std::string(record) +
          "' needs a goal and at least one action");
    }
    records.push_back(std::move(impl));
  }
  return records;
}

void PrintDeltaStatus(const goalrec::model::DeltaLog& log) {
  goalrec::model::DeltaLogStats stats = log.stats();
  std::printf("delta dir %s\n", log.dir().c_str());
  std::printf("  base: %s (chain crc %08x)\n", log.base_path().c_str(),
              log.view().base_crc32c());
  std::printf("  merged library: %u implementations (%u live)\n",
              log.library().num_implementations(),
              stats.view.live_implementations);
  std::printf("  segments: %llu active, next seq %llu\n",
              static_cast<unsigned long long>(stats.segments_active),
              static_cast<unsigned long long>(log.view().next_chain_seq()));
  std::printf("  appended: %llu  tombstoned: impls=%llu goals=%llu\n",
              static_cast<unsigned long long>(
                  stats.view.appended_implementations),
              static_cast<unsigned long long>(
                  stats.view.tombstoned_implementations),
              static_cast<unsigned long long>(stats.view.tombstoned_goals));
  std::printf("  compactions: %llu (last %.1fms), stale removed: %llu\n",
              static_cast<unsigned long long>(stats.compactions),
              static_cast<double>(stats.last_compaction_micros) / 1e3,
              static_cast<unsigned long long>(stats.stale_segments_removed));
  for (const goalrec::model::QuarantinedSegment& q : log.quarantined()) {
    std::printf("  quarantined: %s — %s\n", q.file.c_str(), q.reason.c_str());
  }
}

// goalrec delta — writer-side management of a delta-snapshot directory
// (docs/data_plane.md, "Delta segments & compaction"). Single-writer: run
// these from the one process that owns the directory; `goalrec serve <dir>`
// is the reader side.
int CmdDelta(const FlagParser& flags) {
  constexpr char kDeltaUsage[] =
      "usage: goalrec delta init <library> <dir>\n"
      "       goalrec delta append <dir> [--add=\"goal:a1,a2;goal2:b1\"]\n"
      "                            [--tombstone_goals=g1,g2]\n"
      "                            [--tombstone_impls=3,7]\n"
      "       goalrec delta compact <dir>\n"
      "       goalrec delta status <dir>\n";
  const std::vector<std::string>& args = flags.positional();
  if (args.size() < 3) {
    std::fprintf(stderr, "%s", kDeltaUsage);
    return 2;
  }
  const std::string& verb = args[1];
  StatusOr<goalrec::model::LoadOptions> load_options =
      LoadOptionsFromFlags(flags);
  if (!load_options.ok()) {
    GOALREC_LOG(ERROR) << load_options.status().ToString();
    return 2;
  }
  goalrec::model::DeltaLogOptions log_options;
  log_options.load = *load_options;

  if (verb == "init") {
    if (args.size() != 4) {
      std::fprintf(stderr, "%s", kDeltaUsage);
      return 2;
    }
    StatusOr<ImplementationLibrary> library = LoadLibrary(flags, args[2]);
    if (!library.ok()) {
      GOALREC_LOG(ERROR) << "library load failed"
                         << goalrec::util::Kv("status",
                                              library.status().ToString());
      return 1;
    }
    StatusOr<goalrec::model::DeltaLog> log =
        goalrec::model::DeltaLog::Create(args[3], *library, log_options);
    if (!log.ok()) {
      GOALREC_LOG(ERROR) << "delta init failed"
                         << goalrec::util::Kv("status",
                                              log.status().ToString());
      return 1;
    }
    std::printf("initialised %s from %s (%u implementations)\n",
                args[3].c_str(), args[2].c_str(),
                library->num_implementations());
    return 0;
  }

  if (args.size() != 3) {
    std::fprintf(stderr, "%s", kDeltaUsage);
    return 2;
  }
  // `status` is read-only: it must not delete another writer's stale files.
  if (verb == "status") log_options.remove_stale_segments = false;
  StatusOr<goalrec::model::DeltaLog> opened =
      goalrec::model::DeltaLog::Open(args[2], log_options);
  if (!opened.ok()) {
    GOALREC_LOG(ERROR) << "delta open failed"
                       << goalrec::util::Kv("status",
                                            opened.status().ToString());
    return 1;
  }
  goalrec::model::DeltaLog log = std::move(opened).value();

  if (verb == "status") {
    PrintDeltaStatus(log);
    return 0;
  }
  if (verb == "compact") {
    Status compacted = log.Compact();
    if (!compacted.ok()) {
      GOALREC_LOG(ERROR) << "compaction failed"
                         << goalrec::util::Kv("status", compacted.ToString());
      return 1;
    }
    PrintDeltaStatus(log);
    return 0;
  }
  if (verb == "append") {
    goalrec::model::DeltaOps ops;
    if (flags.Has("add")) {
      StatusOr<std::vector<goalrec::model::DeltaImplementation>> adds =
          ParseDeltaAdds(flags.GetString("add"));
      if (!adds.ok()) {
        GOALREC_LOG(ERROR) << adds.status().ToString();
        return 2;
      }
      ops.appended = std::move(*adds);
    }
    for (const std::string& raw :
         goalrec::util::Split(flags.GetString("tombstone_goals"), ',')) {
      std::string name(goalrec::util::Trim(raw));
      if (!name.empty()) ops.tombstoned_goals.push_back(std::move(name));
    }
    for (const std::string& raw :
         goalrec::util::Split(flags.GetString("tombstone_impls"), ',')) {
      std::string_view id = goalrec::util::Trim(raw);
      if (id.empty()) continue;
      ops.tombstoned_impls.push_back(static_cast<uint32_t>(
          std::strtoul(std::string(id).c_str(), nullptr, 10)));
    }
    if (ops.empty()) {
      GOALREC_LOG(ERROR)
          << "delta append needs --add, --tombstone_goals or "
             "--tombstone_impls";
      return 2;
    }
    uint64_t seq = log.view().next_chain_seq();
    Status appended = log.Append(ops);
    if (!appended.ok()) {
      GOALREC_LOG(ERROR) << "append failed"
                         << goalrec::util::Kv("status", appended.ToString());
      return 1;
    }
    std::printf("appended segment %llu (%zu adds, %zu goal tombstones, %zu "
                "impl tombstones); merged library now %u implementations\n",
                static_cast<unsigned long long>(seq), ops.appended.size(),
                ops.tombstoned_goals.size(), ops.tombstoned_impls.size(),
                log.library().num_implementations());
    return 0;
  }
  std::fprintf(stderr, "%s", kDeltaUsage);
  return 2;
}

// The --watch_library loop: every `interval`, `poll` reloads if its source
// changed (or, while `failing`, retries regardless) and returns the served
// version. While polls fail they back off with decorrelated jitter (capped
// at 60x the interval) instead of hammering the reload path, and state
// changes are logged once per transition: one WARN when reloads start
// failing, one INFO when they recover. A failed reload is safe by
// construction, since the manager keeps the current snapshot serving.
void WatchLibrary(const std::atomic<bool>& stop,
                  std::chrono::milliseconds interval, const char* what,
                  const goalrec::serve::SnapshotManager& manager,
                  const std::function<StatusOr<uint64_t>(bool failing)>& poll) {
  const int64_t backoff_cap_ms = interval.count() * 60;
  goalrec::util::BackoffPolicy backoff(interval.count(), backoff_cap_ms,
                                       /*seed=*/1);
  bool failing = false;
  std::chrono::milliseconds sleep_for = interval;
  while (!stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(sleep_for);
    StatusOr<uint64_t> version = poll(failing);
    if (version.ok()) {
      if (failing) {
        GOALREC_LOG(INFO) << what << " recovered"
                          << goalrec::util::Kv("version", *version);
      }
      failing = false;
      backoff = goalrec::util::BackoffPolicy(interval.count(), backoff_cap_ms,
                                             /*seed=*/1);
      sleep_for = interval;
    } else {
      if (!failing) {
        GOALREC_LOG(WARN) << what << " reload failing; still serving v"
                          << manager.current_version()
                          << goalrec::util::Kv("status",
                                               version.status().ToString());
      }
      failing = true;
      sleep_for = backoff.Next();
    }
  }
}

int CmdServe(const FlagParser& flags) {
  if (flags.positional().size() != 2) {
    std::fprintf(stderr,
                 "usage: goalrec serve <library|delta-dir> "
                 "[--strategy=breadth] "
                 "[--shards=N] [--partition=hash|modulo] "
                 "[--deadline_ms=N] [--watch_library] "
                 "[--watch_interval_ms=500] [--canary_probes=3] "
                 "[--load_mode=strict|quarantine] [--slo_objective=0.999] "
                 "[--statusz_out=<path|->] [--statusz_every_ms=1000]\n"
                 "a delta-dir (contains base.snap; see `goalrec delta`) is "
                 "served read-only and polled for published segments\n"
                 "interactive: perform <action> | undo <action> | "
                 "recommend [k] | reload [path] | status | statusz | quit\n");
    return 2;
  }
  const std::string library_path = flags.positional()[1];
  std::error_code delta_ec;
  const bool delta_mode =
      std::filesystem::is_directory(library_path, delta_ec);
  std::string strategy_name = flags.GetString("strategy", "breadth");
  if (strategy_name != "breadth" && strategy_name != "focus_cmp" &&
      strategy_name != "focus_cl" && strategy_name != "best_match") {
    GOALREC_LOG(ERROR) << "unknown --strategy '" << strategy_name << "'";
    return 2;
  }
  // --shards=1 (default) serves the plain kernels; N > 1 partitions the
  // library and fans every query out (docs/serving.md, "Sharded serving").
  const int64_t shards_flag = flags.Get<int64_t>("shards", 1);
  if (shards_flag < 1) {
    GOALREC_LOG(ERROR) << "--shards must be a positive integer";
    return 2;
  }
  const uint32_t num_shards = static_cast<uint32_t>(shards_flag);
  std::string partition_name = flags.GetString("partition", "hash");
  goalrec::model::ShardingOptions sharding_options;
  if (partition_name == "modulo") {
    sharding_options.policy = goalrec::model::PartitionPolicy::kModuloGoal;
  } else if (partition_name != "hash") {
    GOALREC_LOG(ERROR) << "--partition must be hash or modulo";
    return 2;
  }
  StatusOr<goalrec::model::LoadOptions> load_options =
      LoadOptionsFromFlags(flags);
  if (!load_options.ok()) {
    GOALREC_LOG(ERROR) << load_options.status().ToString();
    return 2;
  }
  // Delta mode: the positional path is a delta-snapshot directory. This
  // process is a READER — it never appends or compacts (that is the single
  // writer's job, via `goalrec delta`), so stale-chain files are left for
  // the writer to clean and the watcher polls the directory for published
  // segments instead of an mtime.
  std::optional<goalrec::model::DeltaLog> delta_log;
  std::mutex delta_mu;  // serialises watcher poll / REPL reload / statusz
  StatusOr<std::shared_ptr<const goalrec::model::LibrarySnapshot>> initial =
      goalrec::util::InternalError("uninitialised");
  if (delta_mode) {
    goalrec::model::DeltaLogOptions log_options;
    log_options.load = *load_options;
    log_options.remove_stale_segments = false;
    StatusOr<goalrec::model::DeltaLog> opened =
        goalrec::model::DeltaLog::Open(library_path, log_options);
    if (!opened.ok()) {
      GOALREC_LOG(ERROR) << "delta directory open failed"
                         << goalrec::util::Kv("status",
                                              opened.status().ToString());
      return 1;
    }
    delta_log.emplace(std::move(opened).value());
    initial = delta_log->snapshot();
  } else {
    goalrec::model::LoadReport report;
    initial = goalrec::model::LoadLibrarySnapshot(
        library_path, RetryFromFlags(flags), *load_options, &report);
    PrintLoadReport(report);
  }
  if (!initial.ok()) {
    GOALREC_LOG(ERROR) << "library load failed"
                       << goalrec::util::Kv("status",
                                            initial.status().ToString());
    return 1;
  }

  // Reload guard: structural validation plus canary probes pinned from the
  // initial library — action-name prefixes of a few implementations spread
  // across it. A candidate needs only one probe to pass (vocabularies may
  // legitimately drift between library generations), but zero passing means
  // the candidate answers nothing a known-good library answered, and the
  // reload is rejected (docs/data_plane.md, "Reload rollback").
  const int64_t canary_count = flags.Get<int64_t>("canary_probes", 3);
  if (canary_count < 0) {
    GOALREC_LOG(ERROR) << "--canary_probes must be a non-negative integer";
    return 2;
  }
  goalrec::serve::ReloadGuardOptions guard;
  {
    const goalrec::model::ImplementationLibrary& lib =
        initial.value()->library;
    const uint32_t want = static_cast<uint32_t>(canary_count);
    const uint32_t step =
        want > 0 ? std::max(1u, lib.num_implementations() / want) : 1;
    for (uint32_t p = 0;
         p < lib.num_implementations() && guard.canary_probes.size() < want;
         ++p) {
      goalrec::model::ImplementationView impl = lib.implementation(p);
      if (impl.actions.size() < 2) continue;
      std::vector<std::string> probe;
      // All but the last action: a nearly-complete implementation is the
      // query the ladder should always have an answer for.
      for (size_t i = 0; i + 1 < impl.actions.size(); ++i) {
        probe.push_back(lib.actions().Name(impl.actions[i]));
      }
      guard.canary_probes.push_back(std::move(probe));
      p += step - 1;
    }
    guard.min_canary_passes = guard.canary_probes.empty() ? 0 : 1;
  }
  // The fan-out pool must outlive the manager: rung recommenders inside the
  // serving snapshots hold the pool pointer until the last snapshot drops.
  std::optional<goalrec::util::ThreadPool> fanout_pool;
  if (num_shards > 1) fanout_pool.emplace(num_shards - 1);
  goalrec::serve::ShardedLadderOptions ladder_options;
  ladder_options.num_shards = num_shards;
  ladder_options.sharding = sharding_options;
  ladder_options.pool = fanout_pool ? &*fanout_pool : nullptr;
  ladder_options.rungs = {
      {strategy_name,
       strategy_name == "focus_cmp"
           ? goalrec::serve::ShardedStrategy::kFocusCompleteness
       : strategy_name == "focus_cl"
           ? goalrec::serve::ShardedStrategy::kFocusCloseness
       : strategy_name == "best_match"
           ? goalrec::serve::ShardedStrategy::kBestMatch
           : goalrec::serve::ShardedStrategy::kBreadth}};
  goalrec::serve::SnapshotManager manager(
      std::move(initial).value(),
      goalrec::serve::MakeShardedLadderFactory(ladder_options), guard);
  // Per-shard gauges (goalrec_shard_*) through the scrape-hook path; an
  // unsharded snapshot leaves them unset.
  goalrec::serve::ShardStatsExporter shard_exporter(
      nullptr, [&manager] { return manager.Acquire()->sharded; });
  goalrec::serve::EngineOptions engine_options;
  engine_options.deadline_ms = flags.Get<int64_t>("deadline_ms", 0);
  if (engine_options.deadline_ms < 0) {
    GOALREC_LOG(ERROR) << "--deadline_ms must be a non-negative integer";
    return 2;
  }
  // The observability plane: SLO accounting against the deadline, and a
  // tail exemplar reservoir feeding the statusz page and the histogram
  // exemplars (docs/observability.md).
  goalrec::obs::SloOptions slo_options;
  slo_options.objective = flags.Get<double>("slo_objective", 0.999);
  if (slo_options.objective <= 0.0 || slo_options.objective >= 1.0) {
    GOALREC_LOG(ERROR) << "--slo_objective must be in (0, 1)";
    return 2;
  }
  goalrec::obs::SloTracker slo(slo_options);
  goalrec::obs::ExemplarReservoir exemplars;
  engine_options.slo = &slo;
  engine_options.exemplars = &exemplars;
  goalrec::serve::ServingEngine engine(&manager, engine_options);

  goalrec::serve::StatuszSources statusz_sources;
  statusz_sources.engine = &engine;
  statusz_sources.snapshots = &manager;
  statusz_sources.metrics = &goalrec::obs::MetricRegistry::Default();
  statusz_sources.slo = &slo;
  statusz_sources.exemplars = &exemplars;
  if (delta_mode) {
    statusz_sources.delta_stats =
        [&delta_log,
         &delta_mu]() -> std::optional<goalrec::model::DeltaLogStats> {
      std::lock_guard<std::mutex> lock(delta_mu);
      return delta_log->stats();
    };
  }

  // --statusz_out: the statusz page as a periodically rewritten file, the
  // same dumper lifecycle --metrics_out uses, with the page as producer.
  std::string statusz_out = flags.GetString("statusz_out");
  const int64_t statusz_every = flags.Get<int64_t>("statusz_every_ms", 1000);
  if (statusz_every < 0) {
    GOALREC_LOG(ERROR) << "--statusz_every_ms must be a non-negative integer";
    return 2;
  }
  std::optional<goalrec::obs::PeriodicDumper> statusz_dumper;
  if (!statusz_out.empty() && statusz_out != "-" && statusz_every > 0) {
    goalrec::obs::DumperOptions statusz_dump_options;
    statusz_dump_options.interval = std::chrono::milliseconds(statusz_every);
    statusz_dump_options.producer = [statusz_sources] {
      return goalrec::serve::RenderStatusz(statusz_sources);
    };
    statusz_dumper.emplace(nullptr, statusz_out, statusz_dump_options);
  }

  // Re-reads the served source: polls a delta directory, or reloads a
  // library file under the startup --load_mode and prints what it dropped.
  auto poll_delta = [&manager, &delta_log, &delta_mu] {
    std::lock_guard<std::mutex> lock(delta_mu);
    return manager.ReloadFromDeltaLog(*delta_log);
  };
  auto reload_file = [&manager, &load_options](
                         const std::string& path,
                         const goalrec::util::RetryOptions& retry) {
    goalrec::model::LoadReport report;
    StatusOr<uint64_t> version =
        manager.ReloadFromFile(path, retry, *load_options, &report);
    PrintLoadReport(report);
    return version;
  };

  // --watch_library: poll the delta directory for published segments or a
  // re-anchored base, or the library file's mtime, and hot-reload on change.
  const bool watch = flags.Get<bool>("watch_library", false);
  const int64_t watch_ms = flags.Get<int64_t>("watch_interval_ms", 500);
  if (watch_ms <= 0) {
    GOALREC_LOG(ERROR) << "--watch_interval_ms must be a positive integer";
    return 2;
  }
  std::atomic<bool> stop_watch{false};
  std::thread watcher;
  if (watch) {
    std::function<StatusOr<uint64_t>(bool)> poll;
    if (delta_mode) {
      poll = [&poll_delta](bool) { return poll_delta(); };
    } else {
      std::error_code stat_ec;
      std::filesystem::file_time_type last =
          std::filesystem::last_write_time(library_path, stat_ec);
      poll = [&manager, &reload_file, library_path, stat_ec,
              last](bool failing) mutable -> StatusOr<uint64_t> {
        std::error_code poll_ec;
        std::filesystem::file_time_type now =
            std::filesystem::last_write_time(library_path, poll_ec);
        // While failing, keep retrying even without an mtime change: the
        // first failure consumed the change notification, but the file is
        // still bad and the writer may replace it at any moment.
        const bool changed = !poll_ec && (stat_ec || now != last);
        if (!changed && !failing) return manager.current_version();
        if (!poll_ec) {
          last = now;
          stat_ec.clear();
        }
        return reload_file(library_path, {});
      };
    }
    watcher = std::thread(
        [&stop_watch, &manager, poll = std::move(poll), delta_mode,
         interval = std::chrono::milliseconds(watch_ms)] {
          WatchLibrary(stop_watch, interval,
                       delta_mode ? "delta directory" : "watched library",
                       manager, poll);
        });
  }

  // The activity is tracked by *name* so it survives reloads that renumber
  // the vocabulary; ids are resolved against the current snapshot per query.
  std::vector<std::string> activity_names;
  auto resolve_activity =
      [&activity_names](const goalrec::model::ImplementationLibrary& library) {
        goalrec::model::Activity activity;
        for (const std::string& name : activity_names) {
          std::optional<uint32_t> id = library.actions().Find(name);
          if (id.has_value()) {
            activity.push_back(*id);
          } else {
            std::printf("(action '%s' not in the current library; skipped)\n",
                        name.c_str());
          }
        }
        goalrec::util::Normalize(activity);
        return activity;
      };

  std::printf("goalrec serve — %s ladder over library v%llu (%u "
              "implementations)%s. Commands: perform <action> | undo "
              "<action> | recommend [k] | reload [path] | status | statusz "
              "| quit\n",
              strategy_name.c_str(),
              static_cast<unsigned long long>(manager.current_version()),
              manager.Acquire()->library->library.num_implementations(),
              watch ? ", watching for changes" : "");
  std::string line;
  while (std::printf("> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    std::string_view trimmed = goalrec::util::Trim(line);
    if (trimmed.empty()) continue;
    if (trimmed == "quit" || trimmed == "exit") break;
    // Pin one snapshot for the whole command so names and ids agree even if
    // the watcher swaps the library mid-line.
    std::shared_ptr<const goalrec::serve::ServingSnapshot> snapshot =
        manager.Acquire();
    const goalrec::model::ImplementationLibrary& library =
        snapshot->library->library;
    if (trimmed == "status") {
      std::printf("library v%llu (%u implementations, %llu reloads)\n",
                  static_cast<unsigned long long>(snapshot->library->version),
                  library.num_implementations(),
                  static_cast<unsigned long long>(manager.reload_count()));
      std::printf("activity:");
      goalrec::model::Activity activity = resolve_activity(library);
      for (goalrec::model::ActionId a : activity) {
        std::printf(" '%s'", library.actions().Name(a).c_str());
      }
      goalrec::core::RecommendationSession session(
          &library, snapshot->rungs.front().recommender);
      for (goalrec::model::ActionId a : activity) session.Perform(a);
      goalrec::core::RecommendationSession::ClosestGoal closest =
          session.FindClosestGoal();
      if (closest.goal != goalrec::model::kInvalidId) {
        std::printf("\nclosest goal: '%s' at %.0f%%",
                    library.goals().Name(closest.goal).c_str(),
                    100.0 * closest.completeness);
      }
      std::printf("\n");
      continue;
    }
    if (trimmed == "statusz") {
      std::printf("%s", goalrec::serve::RenderStatusz(statusz_sources).c_str());
      continue;
    }
    if (trimmed == "reload" || goalrec::util::StartsWith(trimmed, "reload ")) {
      if (delta_mode) {
        // Reload == poll the delta directory now instead of waiting for the
        // watcher tick.
        StatusOr<uint64_t> version = poll_delta();
        if (!version.ok()) {
          std::printf("poll failed (%s); still serving v%llu\n",
                      version.status().ToString().c_str(),
                      static_cast<unsigned long long>(
                          manager.current_version()));
        } else {
          std::printf("polled %s; serving v%llu\n", library_path.c_str(),
                      static_cast<unsigned long long>(*version));
        }
        continue;
      }
      std::string path = library_path;
      if (trimmed.size() > 7) {
        std::string_view rest = goalrec::util::Trim(trimmed.substr(7));
        if (!rest.empty()) path = std::string(rest);
      }
      StatusOr<uint64_t> version = reload_file(path, RetryFromFlags(flags));
      if (!version.ok()) {
        std::printf("reload failed (%s); still serving v%llu\n",
                    version.status().ToString().c_str(),
                    static_cast<unsigned long long>(
                        manager.current_version()));
      } else {
        std::printf("reloaded %s as v%llu\n", path.c_str(),
                    static_cast<unsigned long long>(*version));
      }
      continue;
    }
    if (goalrec::util::StartsWith(trimmed, "perform ") ||
        goalrec::util::StartsWith(trimmed, "undo ")) {
      bool is_perform = goalrec::util::StartsWith(trimmed, "perform ");
      std::string name(
          goalrec::util::Trim(trimmed.substr(is_perform ? 8 : 5)));
      if (is_perform && !library.actions().Find(name).has_value()) {
        std::printf("unknown action '%s'\n", name.c_str());
        continue;
      }
      auto it = std::find(activity_names.begin(), activity_names.end(), name);
      bool changed = false;
      if (is_perform && it == activity_names.end()) {
        activity_names.push_back(name);
        changed = true;
      } else if (!is_perform && it != activity_names.end()) {
        activity_names.erase(it);
        changed = true;
      }
      std::printf("%s\n", changed ? "ok" : "no change");
      continue;
    }
    if (goalrec::util::StartsWith(trimmed, "recommend")) {
      size_t k = 5;
      std::string_view rest = goalrec::util::Trim(trimmed.substr(9));
      if (!rest.empty()) k = std::strtoul(std::string(rest).c_str(), nullptr, 10);
      if (k == 0) k = 5;
      goalrec::model::Activity activity = resolve_activity(library);
      StatusOr<goalrec::serve::ServeResult> served =
          engine.Serve(activity, k);
      if (!served.ok()) {
        std::printf("serve failed: %s\n", served.status().ToString().c_str());
        continue;
      }
      if (served->list.empty()) std::printf("(nothing to recommend yet)\n");
      for (const goalrec::core::ScoredAction& entry : served->list) {
        std::printf("  %s (%.3f)\n",
                    library.actions().Name(entry.action).c_str(),
                    entry.score);
      }
      if (served->degraded || served->library_version != snapshot->library->version) {
        std::printf("  [%s]\n",
                    goalrec::serve::FormatServeReport(*served).c_str());
      }
      continue;
    }
    std::printf("commands: perform <action> | undo <action> | recommend "
                "[k] | reload [path] | status | statusz | quit\n");
  }
  if (watcher.joinable()) {
    stop_watch.store(true, std::memory_order_relaxed);
    watcher.join();
  }
  if (statusz_dumper.has_value()) {
    statusz_dumper.reset();  // joins the ticker and writes the final page
  } else if (!statusz_out.empty()) {
    goalrec::obs::WriteSnapshotFile(
        statusz_out, goalrec::serve::RenderStatusz(statusz_sources));
  }
  return 0;
}

int CmdDot(const FlagParser& flags) {
  if (flags.positional().size() != 3) {
    std::fprintf(stderr,
                 "usage: goalrec dot <library> <out.dot> [--goals=g1,g2]\n");
    return 2;
  }
  StatusOr<ImplementationLibrary> library = LoadLibrary(flags, flags.positional()[1]);
  if (!library.ok()) {
    GOALREC_LOG(ERROR) << "library load failed"
                       << goalrec::util::Kv("status",
                                            library.status().ToString());
    return 1;
  }
  goalrec::model::DotOptions options;
  if (flags.Has("goals")) {
    for (const std::string& raw :
         goalrec::util::Split(flags.GetString("goals"), ',')) {
      std::string name(goalrec::util::Trim(raw));
      if (name.empty()) continue;
      std::optional<uint32_t> id = library->goals().Find(name);
      if (!id.has_value()) {
        GOALREC_LOG(ERROR) << "unknown goal '" << name << "'";
        return 1;
      }
      options.goals.push_back(*id);
    }
    goalrec::util::Normalize(options.goals);
  }
  Status written = goalrec::model::ExportDot(*library, flags.positional()[2],
                                             options);
  if (!written.ok()) {
    GOALREC_LOG(ERROR) << "dot export failed"
                       << goalrec::util::Kv("status", written.ToString());
    return 1;
  }
  std::printf("wrote %s\n", flags.positional()[2].c_str());
  return 0;
}

int CmdEvaluate(const FlagParser& flags) {
  if (flags.positional().size() != 3) {
    std::fprintf(stderr,
                 "usage: goalrec evaluate <library> <activities.csv> "
                 "[--k=10] [--visible=0.3] [--seed=17] [--out=<dir>]\n");
    return 2;
  }
  StatusOr<ImplementationLibrary> library = LoadLibrary(flags, flags.positional()[1]);
  if (!library.ok()) {
    GOALREC_LOG(ERROR) << "library load failed"
                       << goalrec::util::Kv("status",
                                            library.status().ToString());
    return 1;
  }
  Status valid = goalrec::model::ValidateLibrary(*library);
  if (!valid.ok()) {
    GOALREC_LOG(ERROR) << "library failed validation"
                       << goalrec::util::Kv("status", valid.ToString());
    return 1;
  }
  StatusOr<std::vector<goalrec::model::Activity>> activities =
      goalrec::data::LoadActivitiesCsv(flags.positional()[2],
                                       library->actions(),
                                       RetryFromFlags(flags));
  if (!activities.ok()) {
    GOALREC_LOG(ERROR) << "activities load failed"
                       << goalrec::util::Kv("status",
                                            activities.status().ToString());
    return 1;
  }
  const int64_t k = flags.Get<int64_t>("k", 10);
  const double visible = flags.Get<double>("visible", 0.3);
  const int64_t seed = flags.Get<int64_t>("seed", 17);
  if (k <= 0 || visible <= 0.0 || visible > 1.0) {
    GOALREC_LOG(ERROR) << "invalid --k/--visible/--seed";
    return 2;
  }

  goalrec::data::Dataset dataset;
  dataset.name = flags.positional()[2];
  dataset.library = std::move(*library);
  for (goalrec::model::Activity& activity : *activities) {
    dataset.users.push_back(
        goalrec::data::UserRecord{
            std::move(activity), {}, {},
            static_cast<uint32_t>(dataset.users.size())});
  }
  std::vector<goalrec::data::EvalUser> users = goalrec::data::SplitDataset(
      dataset, visible, static_cast<uint64_t>(seed));
  std::vector<goalrec::model::Activity> inputs;
  inputs.reserve(users.size());
  for (const goalrec::data::EvalUser& user : users) {
    inputs.push_back(user.visible);
  }
  std::printf("evaluating %zu users, k=%lld, visible fraction %.2f\n\n",
              users.size(), static_cast<long long>(k), visible);

  goalrec::eval::Suite suite(&dataset, inputs, goalrec::eval::SuiteOptions{});
  std::vector<goalrec::eval::MethodResult> results =
      suite.RunAll(inputs, static_cast<size_t>(k));

  std::printf("--- top-%lld list overlap ---\n%s\n",
              static_cast<long long>(k),
              goalrec::eval::RenderOverlap(
                  goalrec::eval::ComputeOverlap(results))
                  .c_str());
  std::printf(
      "--- popularity correlation ---\n%s\n",
      goalrec::eval::RenderCorrelations(
          goalrec::eval::ComputePopularityCorrelations(inputs, results))
          .c_str());
  std::printf("--- goal completeness after the list ---\n%s\n",
              goalrec::eval::RenderCompleteness(
                  goalrec::eval::ComputeCompleteness(dataset.library, users,
                                                     results))
                  .c_str());
  std::vector<goalrec::eval::TprRow> tpr =
      goalrec::eval::ComputeTpr(users, results);
  std::printf("--- true-positive rate vs hidden actions ---\n%s",
              goalrec::eval::RenderTpr(tpr, tpr).c_str());

  if (flags.Has("out")) {
    std::string out_dir = flags.GetString("out");
    // The report directory and its parents are created as needed.
    std::error_code mkdir_error;
    std::filesystem::create_directories(out_dir, mkdir_error);
    Status exported =
        mkdir_error ? goalrec::util::IoError("cannot create " + out_dir +
                                             ": " + mkdir_error.message())
                    : goalrec::eval::ExportReportsCsv(out_dir, dataset, users,
                                                      inputs, results);
    if (!exported.ok()) {
      GOALREC_LOG(ERROR) << "report export failed"
                         << goalrec::util::Kv("status", exported.ToString());
      return 1;
    }
    std::printf("\nwrote CSV reports into %s\n", out_dir.c_str());
  }
  return 0;
}

int Dispatch(const FlagParser& flags) {
  const std::string& command = flags.positional()[0];
  if (command == "stats") return CmdStats(flags);
  if (command == "spaces") return CmdSpaces(flags);
  if (command == "recommend") return CmdRecommend(flags);
  if (command == "convert") return CmdConvert(flags);
  if (command == "generate") return CmdGenerate(flags);
  if (command == "evaluate") return CmdEvaluate(flags);
  if (command == "dot") return CmdDot(flags);
  if (command == "extract") return CmdExtract(flags);
  if (command == "related") return CmdRelated(flags);
  if (command == "delta") return CmdDelta(flags);
  if (command == "serve") return CmdServe(flags);
  std::fprintf(stderr, "unknown command '%s'\n%s", command.c_str(), kUsage);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  if (flags.positional().empty()) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }

  // Observability flags apply before and after whichever subcommand runs.
  goalrec::util::LogLevel level = goalrec::util::LogLevel::kInfo;
  if (!goalrec::util::ParseLogLevel(flags.GetString("log_level", "info"),
                                    &level)) {
    std::fprintf(stderr, "--log_level must be info|warn|error\n");
    return 2;
  }
  goalrec::util::SetMinLogLevel(level);
  const int vlog = flags.Get<int>("vlog", 0);
  if (vlog < 0) {
    std::fprintf(stderr, "--vlog must be a non-negative integer\n");
    return 2;
  }
  goalrec::util::SetVerbosity(vlog);

  std::string metrics_out = flags.GetString("metrics_out");
  std::string metrics_format = flags.GetString("metrics_format", "prometheus");
  if (metrics_format != "prometheus" && metrics_format != "json") {
    std::fprintf(stderr, "--metrics_format must be prometheus|json\n");
    return 2;
  }
  const int64_t every_ms = flags.Get<int64_t>("metrics_every_ms", 0);
  if (every_ms < 0) {
    std::fprintf(stderr, "--metrics_every_ms must be a non-negative integer\n");
    return 2;
  }

  goalrec::obs::MetricRegistry& registry = goalrec::obs::MetricRegistry::Default();
  goalrec::obs::DumperOptions dumper_options;
  dumper_options.format = metrics_format == "json"
                              ? goalrec::obs::DumpFormat::kJson
                              : goalrec::obs::DumpFormat::kPrometheus;
  // A periodic dumper only makes sense against a real file; with plain
  // --metrics_out the snapshot is written once, after the command finishes.
  std::optional<goalrec::obs::PeriodicDumper> dumper;
  if (!metrics_out.empty() && every_ms > 0 && metrics_out != "-") {
    dumper_options.interval = std::chrono::milliseconds(every_ms);
    dumper.emplace(&registry, metrics_out, dumper_options);
  }

  int code = Dispatch(flags);

  if (dumper.has_value()) {
    dumper.reset();  // joins the ticker and writes the final snapshot
  } else if (!metrics_out.empty()) {
    std::string rendered = metrics_format == "json"
                               ? goalrec::obs::ExportJson(registry)
                               : goalrec::obs::ExportPrometheus(registry);
    if (!goalrec::obs::WriteSnapshotFile(metrics_out, rendered) && code == 0) {
      code = 1;
    }
  }
  return code;
}
