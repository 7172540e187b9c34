#include "model/validate.h"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/set_ops.h"
#include "util/thread_pool.h"

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

/// First position in `row` whose posting is >= p. A plain binary search,
/// defined on any row, a corrupt unsorted one too: neighbouring blocks
/// compute the same boundary, so their segments still tile the row.
const ImplId* SegmentStart(std::span<const ImplId> row, ImplId p) {
  size_t lo = 0;
  size_t hi = row.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (row[mid] < p) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return row.data() + lo;
}

/// The first violation among implementation records [lo, hi), in id order.
util::Status CheckRows(const ImplementationLibrary& library, ImplId lo,
                       ImplId hi) {
  for (ImplId p = lo; p < hi; ++p) {
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
  return util::Status::Ok();
}

/// True when, for every action a, the segment of a's A-GI row that belongs
/// to implementations [lo, hi) equals the transpose of the GI-A rows there:
/// {p in [lo, hi) : a in A_p}, ascending. The first block's segment starts
/// at the row's start and the last block's ends at the row's end, so the
/// blocks together compare every row whole. Requires rows [lo, hi) to be
/// checked already (sorted, ids in range). The transpose is streamed, not
/// built: visiting implementations in id order yields each segment's
/// members in ascending order, so each posting is compared against a
/// per-action cursor into the stored segment.
bool ActionIndexIsTranspose(const ImplementationLibrary& library, ImplId lo,
                            ImplId hi, bool first_block, bool last_block) {
  const uint32_t num_actions = library.num_actions();
  std::vector<const ImplId*> cursor(num_actions);
  std::vector<const ImplId*> end(num_actions);
  for (ActionId a = 0; a < num_actions; ++a) {
    std::span<const ImplId> row = library.ImplsOfAction(a);
    cursor[a] = first_block ? row.data() : SegmentStart(row, lo);
    end[a] = last_block ? row.data() + row.size() : SegmentStart(row, hi);
  }
  for (ImplId p = lo; p < hi; ++p) {
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

/// The first violation among the G-GI rows of goals [lo, hi), in id order;
/// adds the rows' lengths to `*total`.
util::Status CheckGoalIndex(const ImplementationLibrary& library, GoalId lo,
                            GoalId hi, size_t* total) {
  for (GoalId g = lo; g < hi; ++g) {
    std::span<const ImplId> postings = library.ImplsOfGoal(g);
    *total += postings.size();
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
  return util::Status::Ok();
}

}  // namespace

util::Status ValidateLibrary(const ImplementationLibrary& library) {
  // Above the size cut-off the checks run in blocks on every core: block b
  // checks the rows and the A-GI segments of one implementation range and
  // the G-GI rows of one goal range. Ranges ascend with b and each block
  // stops at its first violation, so taking the lowest block's status in
  // the serial order below returns exactly what one serial pass returns.
  const uint32_t num_impls = library.num_implementations();
  const uint32_t num_goals = library.num_goals();
  const size_t blocks = LibraryPassBlocks(library.num_postings());
  auto impl_first = [&](size_t b) {
    return static_cast<ImplId>(num_impls * b / blocks);
  };
  auto goal_first = [&](size_t b) {
    return static_cast<GoalId>(num_goals * b / blocks);
  };
  std::vector<util::Status> row_status(blocks);
  std::vector<uint8_t> transpose_ok(blocks, 0);
  std::vector<util::Status> goal_status(blocks);
  std::vector<size_t> goal_total(blocks, 0);
  util::ParallelFor(
      blocks,
      [&](size_t b) {
        const ImplId lo = impl_first(b);
        const ImplId hi = impl_first(b + 1);
        row_status[b] = CheckRows(library, lo, hi);
        if (row_status[b].ok()) {
          transpose_ok[b] = ActionIndexIsTranspose(library, lo, hi, b == 0,
                                                   b + 1 == blocks);
        }
        goal_status[b] = CheckGoalIndex(library, goal_first(b),
                                        goal_first(b + 1), &goal_total[b]);
      },
      blocks);

  // Implementation records.
  for (const util::Status& status : row_status) {
    if (!status.ok()) return status;
  }

  // A-GI index against the forward records. A valid row is exactly its
  // transpose row, so the transpose comparison accepts exactly the
  // libraries the per-posting checks accept; those run only to name the
  // first violation.
  for (uint8_t ok : transpose_ok) {
    if (ok) continue;
    util::Status diagnosis = DiagnoseActionIndex(library);
    if (!diagnosis.ok()) return diagnosis;
    return util::InternalError(
        "A-GI index differs from the transpose of the GI-A index but no "
        "posting check names a violation");
  }

  // G-GI index.
  size_t goal_posting_total = 0;
  for (size_t b = 0; b < blocks; ++b) {
    if (!goal_status[b].ok()) return goal_status[b];
    goal_posting_total += goal_total[b];
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
