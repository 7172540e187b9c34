#include "model/merged_view.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/set_ops.h"
#include "util/status.h"

namespace goalrec::model {

MergedLibraryView::MergedLibraryView(ImplementationLibrary base,
                                     uint32_t base_crc32c)
    : base_(std::move(base)),
      base_crc32c_(base_crc32c),
      goals_vocab_(base_.goals()) {
  const uint32_t n = base_.num_implementations();
  alive_.assign(n, 1);
  goal_of_.reserve(n);
  for (ImplId p = 0; p < n; ++p) goal_of_.push_back(base_.GoalOf(p));
  stats_.live_implementations = n;
}

util::Status MergedLibraryView::ValidateSegment(const DeltaSegment& segment,
                                                const std::string& name) const {
  const DeltaHeader& header = segment.header;
  if (header.base_crc32c != base_crc32c_) {
    return util::FailedPreconditionError(
        name + ": segment chains to base crc32c " +
        std::to_string(header.base_crc32c) + " but the view is anchored at " +
        std::to_string(base_crc32c_) + " (stale segment?)");
  }
  if (header.chain_seq != next_chain_seq()) {
    return util::FailedPreconditionError(
        name + ": segment has chain_seq " + std::to_string(header.chain_seq) +
        " but the view expects " + std::to_string(next_chain_seq()) +
        " (out-of-order or replayed segment)");
  }
  if (header.prev_crc32c != prev_segment_crc32c_) {
    return util::FailedPreconditionError(
        name + ": segment links prev_crc32c " +
        std::to_string(header.prev_crc32c) + " but the last applied segment " +
        "has crc32c " + std::to_string(prev_segment_crc32c_) +
        " (respliced chain?)");
  }

  // Semantics. Tombstoned implementation ids may name rows this segment
  // appends (appends apply first), so the bound includes them.
  const uint64_t logical_after = alive_.size() + segment.ops.appended.size();
  for (uint32_t id : segment.ops.tombstoned_impls) {
    if (id >= logical_after) {
      return util::InvalidArgumentError(
          name + ": tombstoned implementation id " + std::to_string(id) +
          " out of range [0, " + std::to_string(logical_after) + ")");
    }
  }
  for (const std::string& goal : segment.ops.tombstoned_goals) {
    if (goals_vocab_.Find(goal).has_value()) continue;
    bool appended_here = false;
    for (const DeltaImplementation& impl : segment.ops.appended) {
      if (impl.goal == goal) {
        appended_here = true;
        break;
      }
    }
    if (!appended_here) {
      return util::InvalidArgumentError(
          name + ": tombstoned goal '" + goal +
          "' is unknown to the chain (segment written against another "
          "library?)");
    }
  }
  return util::Status::Ok();
}

util::Status MergedLibraryView::ApplySegment(const DeltaSegment& segment,
                                             uint32_t segment_crc32c,
                                             const std::string& name) {
  if (util::Status s = ValidateSegment(segment, name); !s.ok()) return s;

  // Appends first: they extend the logical id space this segment's own
  // tombstones may reference.
  const uint32_t base_count = base_.num_implementations();
  for (const DeltaImplementation& impl : segment.ops.appended) {
    appended_.push_back(impl);
    alive_.push_back(1);
    goal_of_.push_back(goals_vocab_.Intern(impl.goal));
    ++stats_.appended_implementations;
  }

  // Goal tombstones kill every live row of the goal, appended ones included.
  for (const std::string& goal : segment.ops.tombstoned_goals) {
    GoalId gid = *goals_vocab_.Find(goal);
    if (gid < base_.num_goals()) {
      for (ImplId p : base_.ImplsOfGoal(gid)) alive_[p] = 0;
    }
    for (size_t i = 0; i < appended_.size(); ++i) {
      if (goal_of_[base_count + i] == gid) alive_[base_count + i] = 0;
    }
    ++stats_.tombstoned_goals;
  }

  for (uint32_t id : segment.ops.tombstoned_impls) alive_[id] = 0;

  ++segments_applied_;
  prev_segment_crc32c_ = segment_crc32c;
  stats_.segments_applied = segments_applied_;

  uint64_t dead = 0;
  for (uint8_t a : alive_) dead += a ? 0 : 1;
  stats_.tombstoned_implementations = dead;
  stats_.live_implementations = static_cast<uint32_t>(alive_.size() - dead);

  fold_pending_ = true;
  return util::Status::Ok();
}

const ImplementationLibrary& MergedLibraryView::library() const {
  if (fold_pending_) Fold();
  return segments_applied_ == 0 ? base_ : merged_;
}

ImplementationLibrary MergedLibraryView::TakeLibrary() && {
  if (fold_pending_) Fold();
  return segments_applied_ == 0 ? std::move(base_) : std::move(merged_);
}

void MergedLibraryView::Fold() const {
  const auto fold_start = std::chrono::steady_clock::now();
  // The previous fold is stale; free it before building the next.
  merged_ = ImplementationLibrary();

  // Base vocabularies are copied, never re-interned: ids 0..N-1 preserved.
  // The copies share the base's names and own only what the chain adds.
  Vocabulary actions = base_.actions();
  Vocabulary goals = base_.goals();

  // Intern every appended record's names in record order — dead records
  // included, because the logical id space (and so any segment already
  // written against it) assumed their names were assigned. Matches a
  // LibraryBuilder replay: actions in record order, then the goal;
  // duplicate names collapse via Normalize exactly as AddImplementation
  // collapses them.
  struct AppendedIds {
    GoalId goal;
    IdSet actions;
  };
  std::vector<AppendedIds> appended_ids;
  appended_ids.reserve(appended_.size());
  for (const DeltaImplementation& rec : appended_) {
    AppendedIds ids;
    ids.actions.reserve(rec.actions.size());
    for (const std::string& a : rec.actions) {
      ids.actions.push_back(actions.Intern(a));
    }
    ids.goal = goals.Intern(rec.goal);
    util::Normalize(ids.actions);
    appended_ids.push_back(std::move(ids));
  }

  // Survivors, renumbered densely in logical-id order. Base rows copy
  // straight out of the base arenas (already sorted action spans).
  const uint32_t base_count = base_.num_implementations();
  const size_t logical = alive_.size();
  size_t num_impls = 0;
  size_t total_postings = 0;
  for (size_t p = 0; p < logical; ++p) {
    if (!alive_[p]) continue;
    ++num_impls;
    total_postings += p < base_count
                          ? base_.ImplActionCount(static_cast<ImplId>(p))
                          : appended_ids[p - base_count].actions.size();
  }

  LibraryRowWriter writer(std::move(actions), std::move(goals), num_impls,
                          total_postings);
  for (size_t p = 0; p < logical; ++p) {
    if (!alive_[p]) continue;
    if (p < base_count) {
      const ImplId id = static_cast<ImplId>(p);
      writer.AppendRow(base_.GoalOf(id), base_.ActionsOf(id));
    } else {
      const AppendedIds& ids = appended_ids[p - base_count];
      writer.AppendRow(ids.goal, ids.actions);
    }
  }
  merged_ = std::move(writer).Finish();
  fold_pending_ = false;

  ++stats_.folds;
  stats_.last_fold_micros =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - fold_start)
          .count();
}

}  // namespace goalrec::model
