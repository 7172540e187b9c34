#include "testing/shrink.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "model/library.h"
#include "util/set_ops.h"
#include "util/string_utils.h"

namespace goalrec::testing {
namespace {

constexpr char kTextHeader[] = "# goalrec-library v1";

// Rebuilds a library containing `impls` over the FULL vocabulary of `base`,
// so action/goal ids stay stable while implementations come and go.
model::ImplementationLibrary RebuildWithImpls(
    const model::ImplementationLibrary& base,
    const std::vector<model::Implementation>& impls) {
  model::LibraryBuilder builder;
  for (uint32_t a = 0; a < base.num_actions(); ++a) {
    builder.InternAction(base.actions().Name(a));
  }
  for (uint32_t g = 0; g < base.num_goals(); ++g) {
    builder.InternGoal(base.goals().Name(g));
  }
  for (const model::Implementation& impl : impls) {
    builder.AddImplementationIds(impl.goal, impl.actions);
  }
  return std::move(builder).Build();
}

std::optional<uint64_t> ParseUint(std::string_view text) {
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

std::vector<std::string> SplitNames(std::string_view csv) {
  std::vector<std::string> names;
  for (const std::string& part : util::Split(csv, ',')) {
    std::string trimmed(util::Trim(part));
    if (!trimmed.empty()) names.push_back(trimmed);
  }
  return names;
}

}  // namespace

OracleCase ShrinkFailure(const OracleCase& failing,
                         const FailurePredicate& still_fails,
                         ShrinkStats* stats) {
  std::vector<model::Implementation> impls;
  impls.reserve(failing.library.num_implementations());
  for (model::ImplId p = 0; p < failing.library.num_implementations(); ++p) {
    model::ImplementationView view = failing.library.implementation(p);
    impls.push_back(model::Implementation{
        view.goal, model::IdSet(view.actions.begin(), view.actions.end())});
  }
  model::Activity activity = failing.activity;

  ShrinkStats local;
  ShrinkStats& s = stats != nullptr ? *stats : local;
  s.impls_before = static_cast<uint32_t>(impls.size());
  s.activity_before = activity.size();

  model::ImplementationLibrary current =
      RebuildWithImpls(failing.library, impls);
  auto fails = [&](const std::vector<model::Implementation>& candidate_impls,
                   const model::Activity& candidate_activity,
                   model::ImplementationLibrary* built) {
    model::ImplementationLibrary lib =
        RebuildWithImpls(failing.library, candidate_impls);
    ++s.predicate_calls;
    bool failed =
        still_fails(OracleCase{lib, candidate_activity, failing.k});
    if (failed && built != nullptr) *built = std::move(lib);
    return failed;
  };

  bool progress = true;
  while (progress) {
    progress = false;
    ++s.passes;
    // 1. Drop whole goals (all implementations of one goal at once) — the
    // coarsest edit, so big irrelevant chunks disappear early.
    std::set<model::GoalId> goals;
    for (const model::Implementation& impl : impls) goals.insert(impl.goal);
    for (model::GoalId g : goals) {
      std::vector<model::Implementation> candidate;
      for (const model::Implementation& impl : impls) {
        if (impl.goal != g) candidate.push_back(impl);
      }
      if (candidate.size() == impls.size()) continue;
      if (fails(candidate, activity, &current)) {
        impls = std::move(candidate);
        progress = true;
      }
    }
    // 2. Drop single implementations, last first so indices stay valid.
    for (size_t i = impls.size(); i-- > 0;) {
      std::vector<model::Implementation> candidate = impls;
      candidate.erase(candidate.begin() + static_cast<ptrdiff_t>(i));
      if (fails(candidate, activity, &current)) {
        impls = std::move(candidate);
        progress = true;
      }
    }
    // 3. Drop actions from H (the library is unchanged here).
    for (size_t i = activity.size(); i-- > 0;) {
      model::Activity candidate = activity;
      candidate.erase(candidate.begin() + static_cast<ptrdiff_t>(i));
      ++s.predicate_calls;
      if (still_fails(OracleCase{current, candidate, failing.k})) {
        activity = std::move(candidate);
        progress = true;
      }
    }
  }

  s.impls_after = static_cast<uint32_t>(impls.size());
  s.activity_after = activity.size();
  return OracleCase{std::move(current), std::move(activity), failing.k};
}

util::Status WriteRepro(const OracleCase& c, const std::string& strategy_name,
                        uint64_t seed, const std::string& path,
                        const std::string& entry_point) {
  const model::ImplementationLibrary& lib = c.library;
  // Only what the case references, in ascending original id order: a
  // monotone relabel on reload, which preserves scores and tie-breaks.
  std::set<model::ActionId> used_actions(c.activity.begin(),
                                         c.activity.end());
  std::set<model::GoalId> used_goals;
  for (model::ImplId p = 0; p < lib.num_implementations(); ++p) {
    used_goals.insert(lib.GoalOf(p));
    for (model::ActionId a : lib.ActionsOf(p)) used_actions.insert(a);
  }
  std::vector<std::string> action_names, goal_names, activity_names;
  for (model::ActionId a : used_actions) {
    action_names.push_back(lib.actions().Name(a));
  }
  for (model::GoalId g : used_goals) goal_names.push_back(lib.goals().Name(g));
  for (model::ActionId a : c.activity) {
    activity_names.push_back(lib.actions().Name(a));
  }

  std::ofstream out(path, std::ios::trunc);
  if (!out) return util::IoError("cannot open " + path + " for writing");
  out << kTextHeader << "\n";
  out << "# goalrec-fuzz repro; replay: " << ReproCommandLine(path) << "\n";
  out << "#!strategy: " << strategy_name << "\n";
  if (!entry_point.empty()) out << "#!entry_point: " << entry_point << "\n";
  out << "#!k: " << c.k << "\n";
  out << "#!seed: " << seed << "\n";
  out << "#!actions: " << util::Join(action_names, ",") << "\n";
  out << "#!goals: " << util::Join(goal_names, ",") << "\n";
  out << "#!activity: " << util::Join(activity_names, ",") << "\n";
  for (model::ImplId p = 0; p < lib.num_implementations(); ++p) {
    out << lib.goals().Name(lib.GoalOf(p));
    for (model::ActionId a : lib.ActionsOf(p)) {
      out << "\t" << lib.actions().Name(a);
    }
    out << "\n";
  }
  out.flush();
  if (!out) return util::IoError("write to " + path + " failed");
  return util::Status::Ok();
}

util::StatusOr<ReproCase> LoadRepro(const std::string& path) {
  std::ifstream in(path);
  if (!in) return util::IoError("cannot open " + path);
  std::string line;
  if (!std::getline(in, line) || util::Trim(line) != kTextHeader) {
    return util::InvalidArgumentError(path + ": missing '" +
                                      std::string(kTextHeader) + "' header");
  }

  ReproCase repro;
  model::LibraryBuilder builder;
  std::vector<std::string> activity_names;
  auto directive = [&line](std::string_view key) -> std::optional<std::string> {
    std::string prefix = "#!" + std::string(key) + ":";
    if (!util::StartsWith(line, prefix)) return std::nullopt;
    return std::string(util::Trim(line.substr(prefix.size())));
  };
  while (std::getline(in, line)) {
    if (util::Trim(line).empty()) continue;
    if (line[0] == '#') {
      if (auto v = directive("strategy")) {
        repro.strategy = *v;
      } else if (auto v = directive("entry_point")) {
        repro.entry_point = *v;
      } else if (auto v = directive("k")) {
        std::optional<uint64_t> k = ParseUint(*v);
        if (!k) {
          return util::InvalidArgumentError(path + ": bad #!k: " + *v);
        }
        repro.oracle_case.k = static_cast<size_t>(*k);
      } else if (auto v = directive("seed")) {
        std::optional<uint64_t> seed = ParseUint(*v);
        if (!seed) {
          return util::InvalidArgumentError(path + ": bad #!seed: " + *v);
        }
        repro.seed = *seed;
      } else if (auto v = directive("actions")) {
        for (const std::string& name : SplitNames(*v)) {
          builder.InternAction(name);
        }
      } else if (auto v = directive("goals")) {
        for (const std::string& name : SplitNames(*v)) {
          builder.InternGoal(name);
        }
      } else if (auto v = directive("activity")) {
        activity_names = SplitNames(*v);
      }
      continue;  // plain comments are ignored
    }
    std::vector<std::string> fields = util::Split(line, '\t');
    if (fields.empty() || util::Trim(fields[0]).empty()) {
      return util::InvalidArgumentError(path + ": malformed line '" + line +
                                        "'");
    }
    std::string goal(util::Trim(fields[0]));
    std::vector<std::string> actions;
    for (size_t i = 1; i < fields.size(); ++i) {
      std::string name(util::Trim(fields[i]));
      if (!name.empty()) actions.push_back(name);
    }
    builder.AddImplementation(goal, actions);
  }

  model::Activity activity;
  // Resolve activity names through a second interning pass: the builder has
  // already seen every directive name, so these interns are lookups.
  for (const std::string& name : activity_names) {
    activity.push_back(builder.InternAction(name));
  }
  util::Normalize(activity);
  repro.oracle_case.library = std::move(builder).Build();
  repro.oracle_case.activity = std::move(activity);
  return repro;
}

std::string ReproCommandLine(const std::string& path) {
  return "goalrec_fuzz --replay=" + path;
}

std::string DescribeRepro(const ReproCase& repro) {
  std::string out =
      repro.strategy.empty() ? "all strategies" : repro.strategy;
  if (!repro.entry_point.empty()) out += " via " + repro.entry_point;
  out += ": " +
         std::to_string(repro.oracle_case.library.num_implementations()) +
         " implementations, |H| = " +
         std::to_string(repro.oracle_case.activity.size()) +
         ", k = " + std::to_string(repro.oracle_case.k) + ", seed " +
         std::to_string(repro.seed);
  return out;
}

}  // namespace goalrec::testing
