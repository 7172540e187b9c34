#include "model/library_io.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "model/snapshot_io.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/string_utils.h"

namespace goalrec::model {
namespace {

// Counts each load attempt by format/result and times it. Loads happen at
// startup, not per query, so the mutex-guarded registry lookups per call are
// acceptable here (unlike the serving hot path, which caches handles).
template <typename Fn>
auto InstrumentedLoad(const char* format, const std::string& path, Fn fn)
    -> decltype(fn()) {
  obs::MetricRegistry& registry = obs::MetricRegistry::Default();
  auto start = std::chrono::steady_clock::now();
  auto result = fn();
  double elapsed_us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  registry
      .GetHistogram("goalrec_library_load_latency_us",
                    obs::DefaultLatencyBucketsUs(), {{"format", format}},
                    "Library load attempt latency (microseconds)")
      ->Observe(elapsed_us);
  registry
      .GetCounter("goalrec_library_load_total",
                  {{"format", format}, {"result", result.ok() ? "ok" : "error"}},
                  "Library load attempts, by format and result")
      ->Increment();
  if (!result.ok()) {
    GOALREC_LOG(WARN) << "library load failed" << util::Kv("format", format)
                      << util::Kv("path", path)
                      << util::Kv("status", result.status().ToString());
  }
  return result;
}

constexpr char kTextHeader[] = "# goalrec-library v1";
// Declares an action that no implementation references (library_io.h).
constexpr char kUnreferencedAction[] = "#!unreferenced_action: ";

/// Offending tokens are echoed into diagnostics; clip so a pathological
/// multi-megabyte "line" cannot explode a log message.
constexpr size_t kMaxTokenEcho = 48;

std::string ClipToken(std::string_view token) {
  std::string clipped(token.substr(0, kMaxTokenEcho));
  // Control bytes (including the non-UTF8 junk the fuzz corpus feeds in)
  // render as '?' so diagnostics stay single-line and terminal-safe.
  for (char& c : clipped) {
    if (static_cast<unsigned char>(c) < 0x20 ||
        static_cast<unsigned char>(c) == 0x7F) {
      c = '?';
    }
  }
  if (token.size() > kMaxTokenEcho) clipped += "...";
  return clipped;
}

/// Size of `path` for the pre-allocation cap, or nullopt if unavailable
/// (nonexistent file, pipe); the open itself reports those cases.
std::optional<uint64_t> FileSizeBytes(const std::string& path) {
  std::error_code ec;
  uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) return std::nullopt;
  return static_cast<uint64_t>(size);
}

/// The one format decision: ".snap" is a snapshot, anything else is text.
bool IsSnapshotPath(const std::string& path) {
  return path.ends_with(".snap");
}

}  // namespace

std::string LoadIssue::ToString() const {
  std::string rendered = file;
  if (line > 0) rendered += ":" + std::to_string(line);
  rendered += ": " + reason;
  if (!token.empty()) rendered += " near '" + token + "'";
  return rendered;
}

std::string LoadReport::Summary() const {
  return std::to_string(records_loaded) + "/" + std::to_string(records_total) +
         " records loaded, " + std::to_string(records_quarantined) +
         " quarantined, " + std::to_string(duplicates) + " duplicates, " +
         std::to_string(issues_total) + " issues";
}

util::Status SaveLibraryText(const ImplementationLibrary& library,
                             const std::string& path) {
  std::ofstream out(path);
  if (!out) return util::IoError("cannot open " + path + " for writing");
  out << kTextHeader << '\n';
  for (ImplId p = 0; p < library.num_implementations(); ++p) {
    ImplementationView impl = library.implementation(p);
    out << library.goals().Name(impl.goal);
    for (ActionId a : impl.actions) {
      out << '\t' << library.actions().Name(a);
    }
    out << '\n';
  }
  // Actions no implementation references come last, so the implementation
  // lines intern every referenced action in the same order as before.
  for (ActionId a = 0; a < library.num_actions(); ++a) {
    if (library.ImplsOfAction(a).empty()) {
      out << kUnreferencedAction << library.actions().Name(a) << '\n';
    }
  }
  if (!out) return util::IoError("write failed: " + path);
  return util::Status::Ok();
}

namespace {

util::StatusOr<ImplementationLibrary> LoadLibraryTextImpl(
    const std::string& path, const LoadOptions& options, LoadReport* report) {
  LoadReport scratch;
  LoadReport& rep = report != nullptr ? *report : scratch;
  rep = LoadReport{};
  const LoadLimits& limits = options.limits;
  const bool quarantine = options.mode == ValidationMode::kQuarantine;

  if (std::optional<uint64_t> size = FileSizeBytes(path);
      size.has_value() && *size > limits.max_file_bytes) {
    return util::ResourceExhaustedError(
        path + ": file is " + std::to_string(*size) +
        " bytes, over the load cap of " +
        std::to_string(limits.max_file_bytes));
  }
  std::ifstream in(path);
  if (!in) return util::IoError("cannot open " + path);
  std::string line;
  if (!std::getline(in, line) || util::Trim(line) != kTextHeader) {
    return util::InvalidArgumentError(path + ":1: missing header '" +
                                      kTextHeader + "' near '" +
                                      ClipToken(line) + "'");
  }

  LibraryBuilder builder;
  // Canonical "<goal>\n<sorted actions>" keys of every record loaded so far;
  // maintained only when someone can observe the answer (dedup tracking on a
  // 100M-record load is pure overhead otherwise).
  const bool track_duplicates = report != nullptr;
  std::unordered_set<std::string> seen;

  // Flags one bad record: records it (with provenance) in the report, and
  // either fails the load (strict) or signals the caller to drop the record
  // and continue (quarantine, returns OK).
  auto bad_record = [&](size_t line_number, std::string_view token,
                        std::string reason) -> util::Status {
    ++rep.issues_total;
    std::string clipped = ClipToken(token);
    if (rep.issues.size() < kMaxReportedIssues) {
      rep.issues.push_back(LoadIssue{path, line_number, clipped, reason});
    }
    if (!quarantine) {
      return util::InvalidArgumentError(path + ":" +
                                        std::to_string(line_number) + ": " +
                                        std::move(reason) + " near '" +
                                        clipped + "'");
    }
    ++rep.records_quarantined;
    return util::Status::Ok();
  };

  size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (util::StartsWith(line, kUnreferencedAction)) {
      std::string_view action =
          std::string_view(line).substr(sizeof(kUnreferencedAction) - 1);
      if (action.empty() || action.size() > limits.max_name_bytes) {
        util::Status status =
            bad_record(line_number, line, "bad unreferenced action name");
        if (!status.ok()) return status;
        continue;
      }
      builder.InternAction(action);
      if (builder.num_actions() > limits.max_actions) {
        return util::ResourceExhaustedError(
            path + ":" + std::to_string(line_number) +
            ": vocabulary exceeds the load cap (" +
            std::to_string(builder.num_actions()) + " actions)");
      }
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    ++rep.records_total;

    std::vector<std::string> fields = util::Split(line, '\t');
    if (fields.size() < 2) {
      util::Status status = bad_record(
          line_number, line, "expected '<goal>\\t<action>...'");
      if (!status.ok()) return status;
      continue;
    }
    const std::string& goal = fields[0];
    if (goal.empty()) {
      util::Status status = bad_record(line_number, line, "empty goal name");
      if (!status.ok()) return status;
      continue;
    }
    if (goal.size() > limits.max_name_bytes) {
      util::Status status = bad_record(
          line_number, goal,
          "goal name is " + std::to_string(goal.size()) +
              " bytes, over the cap of " +
              std::to_string(limits.max_name_bytes));
      if (!status.ok()) return status;
      continue;
    }

    bool dropped = false;
    std::vector<std::string> actions(fields.begin() + 1, fields.end());
    if (actions.size() > limits.max_actions_per_impl) {
      util::Status status = bad_record(
          line_number, goal,
          "implementation has " + std::to_string(actions.size()) +
              " actions, over the cap of " +
              std::to_string(limits.max_actions_per_impl));
      if (!status.ok()) return status;
      continue;
    }
    for (const std::string& action : actions) {
      if (action.empty()) {
        util::Status status =
            bad_record(line_number, line, "empty action name");
        if (!status.ok()) return status;
        dropped = true;
        break;
      }
      if (action.size() > limits.max_name_bytes) {
        util::Status status = bad_record(
            line_number, action,
            "action name is " + std::to_string(action.size()) +
                " bytes, over the cap of " +
                std::to_string(limits.max_name_bytes));
        if (!status.ok()) return status;
        dropped = true;
        break;
      }
    }
    if (dropped) continue;

    if (track_duplicates) {
      std::vector<std::string> sorted_actions = actions;
      std::sort(sorted_actions.begin(), sorted_actions.end());
      sorted_actions.erase(
          std::unique(sorted_actions.begin(), sorted_actions.end()),
          sorted_actions.end());
      std::string key = goal;
      for (const std::string& action : sorted_actions) {
        key += '\n';
        key += action;
      }
      if (!seen.insert(std::move(key)).second) {
        ++rep.duplicates;
        ++rep.issues_total;
        if (rep.issues.size() < kMaxReportedIssues) {
          rep.issues.push_back(LoadIssue{
              path, line_number, ClipToken(goal),
              "duplicate implementation (same goal and action set)"});
        }
        // Duplicates are structurally legal, so they never fail a strict
        // load and are kept.
      }
    }

    // Hard caps are never quarantinable: past this point the file is trying
    // to make us allocate without bound, and dropping records one by one
    // would still scan (and intern from) all of it.
    if (builder.num_implementations() >= limits.max_implementations) {
      return util::ResourceExhaustedError(
          path + ":" + std::to_string(line_number) + ": implementation count "
          "exceeds the load cap of " +
          std::to_string(limits.max_implementations));
    }
    builder.AddImplementation(goal, actions);
    if (builder.num_actions() > limits.max_actions ||
        builder.num_goals() > limits.max_goals) {
      return util::ResourceExhaustedError(
          path + ":" + std::to_string(line_number) +
          ": vocabulary exceeds the load cap (" +
          std::to_string(builder.num_actions()) + " actions, " +
          std::to_string(builder.num_goals()) + " goals)");
    }
  }
  if (in.bad()) return util::IoError("read failed: " + path);
  rep.records_loaded = builder.num_implementations();
  if (rep.records_quarantined > 0) {
    GOALREC_LOG(WARN) << "library loaded with quarantined records"
                      << util::Kv("path", path)
                      << util::Kv("summary", rep.Summary());
  }
  return std::move(builder).Build();
}

}  // namespace

util::StatusOr<ImplementationLibrary> LoadLibraryText(
    const std::string& path) {
  return LoadLibraryText(path, LoadOptions{}, nullptr);
}

util::StatusOr<ImplementationLibrary> LoadLibraryText(const std::string& path,
                                                      const LoadOptions& options,
                                                      LoadReport* report) {
  return InstrumentedLoad(
      "text", path, [&] { return LoadLibraryTextImpl(path, options, report); });
}

util::StatusOr<ImplementationLibrary> LoadLibraryFile(
    const std::string& path, const LoadOptions& options, LoadReport* report) {
  if (!IsSnapshotPath(path)) return LoadLibraryText(path, options, report);
  if (report != nullptr) *report = LoadReport{};
  util::StatusOr<ImplementationLibrary> library = InstrumentedLoad(
      "snapshot", path, [&] { return LoadSnapshotFile(path, options); });
  if (report != nullptr && library.ok()) {
    report->records_total = report->records_loaded =
        library->num_implementations();
  }
  return library;
}

util::Status SaveLibraryFile(const ImplementationLibrary& library,
                             const std::string& path) {
  return IsSnapshotPath(path) ? SaveSnapshot(library, path)
                              : SaveLibraryText(library, path);
}

util::StatusOr<std::shared_ptr<const LibrarySnapshot>> LoadLibrarySnapshot(
    const std::string& path, const util::RetryOptions& retry,
    const LoadOptions& options, LoadReport* report) {
  util::StatusOr<ImplementationLibrary> loaded = util::RetryCall(
      retry, [&] { return LoadLibraryFile(path, options, report); });
  if (!loaded.ok()) return loaded.status();
  return MakeSnapshot(std::move(loaded).value(), path);
}

}  // namespace goalrec::model
