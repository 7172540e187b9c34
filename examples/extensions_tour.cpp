// Extensions tour: per-recommendation explanations, sub-library scoping and
// the incremental recommendation session — everything beyond the paper's §5
// strategies in one walkthrough of an online-learning scenario.
//
//   $ ./extensions_tour

#include <algorithm>
#include <cstdio>

#include "core/breadth.h"
#include "core/explanation.h"
#include "core/focus.h"
#include "core/session.h"
#include "model/library.h"
#include "model/subset.h"

using goalrec::model::ImplementationLibrary;
using goalrec::model::LibraryBuilder;

namespace {

void PrintList(const ImplementationLibrary& library, const char* label,
               const goalrec::core::RecommendationList& list) {
  std::printf("%-28s:", label);
  for (const goalrec::core::ScoredAction& entry : list) {
    std::printf(" %s", library.actions().Name(entry.action).c_str());
  }
  std::printf("\n");
}

}  // namespace

int main() {
  // An online-learning catalogue: degrees implemented by course sets.
  LibraryBuilder builder;
  builder.AddImplementation("data science cert",
                            {"statistics", "python", "ml-basics"});
  builder.AddImplementation("data science cert",
                            {"statistics", "r-lang", "ml-basics"});
  builder.AddImplementation("web dev cert", {"html", "javascript", "react"});
  builder.AddImplementation("cloud cert", {"python", "docker", "kubernetes"});
  builder.AddImplementation("db admin cert", {"sql", "tuning", "backup"});
  ImplementationLibrary library = std::move(builder).Build();

  goalrec::model::Activity done = {*library.actions().Find("python"),
                                   *library.actions().Find("statistics")};
  std::sort(done.begin(), done.end());

  // 1. Focus: the data-science cert dominates (2/3 done).
  goalrec::core::FocusRecommender focus(
      &library, goalrec::core::FocusVariant::kCompleteness);
  PrintList(library, "Focus", focus.Recommend(done, 3));

  // 2. Why is docker recommended? Ask for the explanation.
  goalrec::core::Explanation explanation = goalrec::core::ExplainAction(
      library, done, *library.actions().Find("docker"));
  std::printf("\n%s\n",
              goalrec::core::FormatExplanation(library, explanation).c_str());

  // 3. Scope recommendations to data-only certificates via a sub-library.
  ImplementationLibrary data_only = goalrec::model::FilterByGoal(
      library, [](goalrec::model::GoalId, const std::string& name) {
        return name.find("data") != std::string::npos ||
               name.find("db") != std::string::npos;
      });
  goalrec::core::BreadthRecommender scoped(&data_only);
  goalrec::model::Activity scoped_done;
  for (const char* course : {"python", "statistics"}) {
    if (auto id = data_only.actions().Find(course)) {
      scoped_done.push_back(*id);
    }
  }
  std::sort(scoped_done.begin(), scoped_done.end());
  PrintList(data_only, "Breadth (data certs only)",
            scoped.Recommend(scoped_done, 3));

  // 4. An interactive session: each completed course updates the state
  //    incrementally.
  goalrec::core::BreadthRecommender breadth(&library);
  goalrec::core::RecommendationSession session(&library, &breadth);
  std::printf("\nsession walkthrough:\n");
  for (const char* course : {"python", "statistics", "ml-basics"}) {
    session.Perform(*library.actions().Find(course));
    goalrec::core::RecommendationSession::ClosestGoal closest =
        session.FindClosestGoal();
    std::printf("  after '%s': closest goal '%s' at %.0f%%, next:", course,
                library.goals().Name(closest.goal).c_str(),
                100.0 * closest.completeness);
    for (const goalrec::core::ScoredAction& entry : session.Recommend(2)) {
      std::printf(" %s", library.actions().Name(entry.action).c_str());
    }
    std::printf("\n");
  }
  return 0;
}
