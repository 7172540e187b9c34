#include "model/validate.h"

#include <span>
#include <string>
#include <vector>

#include "util/set_ops.h"

namespace goalrec::model {

namespace {

/// The per-posting A-GI checks, in the order that names the first violation
/// exactly: soundness (strictly ascending rows, every posting contains its
/// action) by action, then completeness by implementation. One binary search
/// per posting, so only run once the transpose comparison found a mismatch.
util::Status DiagnoseActionIndex(const ImplementationLibrary& library) {
  for (ActionId a = 0; a < library.num_actions(); ++a) {
    std::span<const ImplId> postings = library.ImplsOfAction(a);
    if (!util::IsSortedSet(postings)) {
      return util::FailedPreconditionError(
          "A-GI postings of action " + std::to_string(a) +
          " are not strictly ascending");
    }
    for (ImplId p : postings) {
      if (p >= library.num_implementations() ||
          !util::Contains(library.ActionsOf(p), a)) {
        return util::FailedPreconditionError(
            "A-GI postings of action " + std::to_string(a) +
            " reference implementation " + std::to_string(p) +
            " that does not contain it");
      }
    }
  }
  for (ImplId p = 0; p < library.num_implementations(); ++p) {
    for (ActionId a : library.ActionsOf(p)) {
      if (!util::Contains(library.ImplsOfAction(a), p)) {
        return util::FailedPreconditionError(
            "implementation " + std::to_string(p) + " contains action " +
            std::to_string(a) + " but is missing from its A-GI postings");
      }
    }
  }
  return util::Status::Ok();
}

/// True when every A-GI row equals the transpose of the GI-A rows: the set
/// {p : a ∈ A_p} in ascending order. Requires the GI-A rows to be checked
/// already (sorted, ids in range). The transpose is streamed, not built:
/// visiting implementations in id order yields each row's members in
/// ascending order, so each posting is compared against a per-action
/// cursor into the stored row.
bool ActionIndexIsTranspose(const ImplementationLibrary& library) {
  const uint32_t num_actions = library.num_actions();
  std::vector<const ImplId*> cursor(num_actions);
  std::vector<const ImplId*> end(num_actions);
  for (ActionId a = 0; a < num_actions; ++a) {
    std::span<const ImplId> row = library.ImplsOfAction(a);
    cursor[a] = row.data();
    end[a] = row.data() + row.size();
  }
  for (ImplId p = 0; p < library.num_implementations(); ++p) {
    for (ActionId a : library.ActionsOf(p)) {
      if (cursor[a] == end[a] || *cursor[a] != p) return false;
      ++cursor[a];
    }
  }
  for (ActionId a = 0; a < num_actions; ++a) {
    if (cursor[a] != end[a]) return false;
  }
  return true;
}

}  // namespace

util::Status ValidateLibrary(const ImplementationLibrary& library) {
  // Implementation records.
  for (ImplId p = 0; p < library.num_implementations(); ++p) {
    ImplementationView impl = library.implementation(p);
    if (impl.goal >= library.num_goals()) {
      return util::FailedPreconditionError(
          "implementation " + std::to_string(p) + " has goal id " +
          std::to_string(impl.goal) + " >= num_goals");
    }
    if (!util::IsSortedSet(impl.actions)) {
      return util::FailedPreconditionError(
          "implementation " + std::to_string(p) +
          " has an unsorted or duplicated action set");
    }
    for (ActionId a : impl.actions) {
      if (a >= library.num_actions()) {
        return util::FailedPreconditionError(
            "implementation " + std::to_string(p) + " references action " +
            std::to_string(a) + " >= num_actions");
      }
    }
  }

  // A-GI index against the forward records. A valid row is exactly its
  // transpose row, so the transpose comparison accepts exactly the
  // libraries the per-posting checks accept; those run only to name the
  // first violation.
  if (!ActionIndexIsTranspose(library)) {
    util::Status diagnosis = DiagnoseActionIndex(library);
    if (!diagnosis.ok()) return diagnosis;
    return util::InternalError(
        "A-GI index differs from the transpose of the GI-A index but no "
        "posting check names a violation");
  }

  // G-GI index.
  size_t goal_posting_total = 0;
  for (GoalId g = 0; g < library.num_goals(); ++g) {
    std::span<const ImplId> postings = library.ImplsOfGoal(g);
    goal_posting_total += postings.size();
    if (!util::IsSortedSet(postings)) {
      return util::FailedPreconditionError(
          "G-GI postings of goal " + std::to_string(g) +
          " are not strictly ascending");
    }
    for (ImplId p : postings) {
      if (p >= library.num_implementations() || library.GoalOf(p) != g) {
        return util::FailedPreconditionError(
            "G-GI postings of goal " + std::to_string(g) +
            " reference implementation " + std::to_string(p) +
            " with a different goal");
      }
    }
  }
  if (goal_posting_total != library.num_implementations()) {
    return util::FailedPreconditionError(
        "G-GI index covers " + std::to_string(goal_posting_total) +
        " implementations, expected " +
        std::to_string(library.num_implementations()));
  }
  return util::Status::Ok();
}

}  // namespace goalrec::model
