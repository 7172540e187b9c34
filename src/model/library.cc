#include "model/library.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "util/logging.h"
#include "util/set_ops.h"
#include "util/thread_pool.h"

namespace goalrec::model {

LibraryBuilder LibraryBuilder::FromLibrary(
    const ImplementationLibrary& library) {
  LibraryBuilder builder;
  builder.actions_ = library.actions();
  builder.goals_ = library.goals();
  builder.impls_.reserve(library.num_implementations());
  for (ImplId p = 0; p < library.num_implementations(); ++p) {
    std::span<const ActionId> actions = library.ActionsOf(p);
    builder.impls_.push_back(Implementation{
        library.GoalOf(p), IdSet(actions.begin(), actions.end())});
  }
  return builder;
}

ActionId LibraryBuilder::InternAction(std::string_view name) {
  return actions_.Intern(name);
}

GoalId LibraryBuilder::InternGoal(std::string_view name) {
  return goals_.Intern(name);
}

void LibraryBuilder::ReserveActions(size_t n) { actions_.Reserve(n); }

void LibraryBuilder::ReserveGoals(size_t n) { goals_.Reserve(n); }

ImplId LibraryBuilder::AddImplementation(
    std::string_view goal, const std::vector<std::string>& actions) {
  IdSet ids;
  ids.reserve(actions.size());
  for (const std::string& a : actions) ids.push_back(actions_.Intern(a));
  return AddImplementationIds(goals_.Intern(goal), std::move(ids));
}

ImplId LibraryBuilder::AddImplementationIds(GoalId goal, IdSet actions) {
  GOALREC_CHECK_LT(goal, goals_.size());
  util::Normalize(actions);
  for (ActionId a : actions) GOALREC_CHECK_LT(a, actions_.size());
  ImplId id = static_cast<ImplId>(impls_.size());
  impls_.push_back(Implementation{goal, std::move(actions)});
  return id;
}

ImplementationLibrary LibraryBuilder::Build() && {
  size_t total_postings = 0;
  for (const Implementation& impl : impls_) total_postings += impl.actions.size();
  LibraryRowWriter writer(std::move(actions_), std::move(goals_), impls_.size(),
                          total_postings);
  for (const Implementation& impl : impls_) {
    writer.AppendRow(impl.goal, impl.actions);
  }
  return std::move(writer).Finish();
}

LibraryRowWriter::LibraryRowWriter(Vocabulary actions, Vocabulary goals,
                                   size_t rows, size_t postings)
    : actions_(std::move(actions)), goals_(std::move(goals)) {
  // GI-A-idx / GI-G-idx: per-implementation action sets packed into one
  // contiguous arena.
  impl_offsets_.reserve(rows + 1);
  impl_offsets_.push_back(0);
  impl_actions_.reserve(postings);
  impl_goals_.reserve(rows);
}

void LibraryRowWriter::AppendRow(GoalId goal,
                                 std::span<const ActionId> actions) {
  impl_actions_.insert(impl_actions_.end(), actions.begin(), actions.end());
  impl_offsets_.push_back(static_cast<uint32_t>(impl_actions_.size()));
  impl_goals_.push_back(goal);
}

ImplementationLibrary LibraryRowWriter::Finish(size_t blocks) && {
  ImplementationLibrary lib;
  lib.actions_ = std::move(actions_);
  lib.goals_ = std::move(goals_);
  // Every later copy of the library (snapshot, fold, shard, builder) shares
  // these names instead of copying them.
  lib.actions_.Share();
  lib.goals_.Share();
  lib.impl_offsets_ = std::move(impl_offsets_);
  lib.impl_actions_ = std::move(impl_actions_);
  lib.impl_goals_ = std::move(impl_goals_);
  lib.BuildDerivedIndexes(blocks);
  return lib;
}

size_t LibraryPassBlocks(size_t postings) {
  if (postings < kParallelMinPostings) return 1;
  const size_t cores = std::thread::hardware_concurrency();
  return cores == 0 ? 1 : cores;
}

void ImplementationLibrary::BuildDerivedIndexes(size_t blocks) {
  const size_t num_impls = impl_goals_.size();
  const size_t num_actions = actions_.size();
  const size_t num_goals = goals_.size();
  if (blocks == 0) blocks = LibraryPassBlocks(impl_actions_.size());
  blocks = std::max<size_t>(1, std::min(blocks, num_impls));
  // Block b owns implementations [first(b), first(b + 1)).
  auto first = [&](size_t b) { return num_impls * b / blocks; };

  // A-GI-idx / G-GI-idx: a blocked counting sort. Each block counts the
  // postings of its own rows per action and per goal; a prefix sum over
  // (row, block) turns the counts into each block's start in every row; then
  // each block scatters its rows through its own cursors. Blocks cover
  // ascending id ranges and visit their rows in id order, so every row comes
  // out ascending, byte for byte what one serial pass writes.
  std::vector<std::vector<uint32_t>> action_cursor(
      blocks, std::vector<uint32_t>(num_actions, 0));
  std::vector<std::vector<uint32_t>> goal_cursor(
      blocks, std::vector<uint32_t>(num_goals, 0));
  std::vector<uint32_t> block_max(blocks, 0);
  impl_size_d_.resize(num_impls);
  util::ParallelFor(
      blocks,
      [&](size_t b) {
        std::vector<uint32_t>& actions = action_cursor[b];
        std::vector<uint32_t>& goals = goal_cursor[b];
        uint32_t max_size = 0;
        for (size_t p = first(b), end = first(b + 1); p < end; ++p) {
          ++goals[impl_goals_[p]];
          for (uint32_t at = impl_offsets_[p]; at < impl_offsets_[p + 1];
               ++at) {
            ++actions[impl_actions_[at]];
          }
          // Kernel precomputation: |A| as an exact double (the int->double
          // conversion done once here, so kernels reading it stay
          // bit-identical to code that converts inline).
          const uint32_t size = impl_offsets_[p + 1] - impl_offsets_[p];
          max_size = std::max(max_size, size);
          impl_size_d_[p] = static_cast<double>(size);
        }
        block_max[b] = max_size;
      },
      blocks);
  auto prefix = [blocks](std::vector<std::vector<uint32_t>>& cursor,
                         std::vector<uint32_t>& offsets, size_t rows) {
    offsets.resize(rows + 1);
    uint32_t at = 0;
    for (size_t row = 0; row < rows; ++row) {
      offsets[row] = at;
      for (size_t b = 0; b < blocks; ++b) {
        const uint32_t count = cursor[b][row];
        cursor[b][row] = at;
        at += count;
      }
    }
    offsets[rows] = at;
  };
  prefix(action_cursor, action_offsets_, num_actions);
  prefix(goal_cursor, goal_offsets_, num_goals);
  action_postings_.resize(impl_actions_.size());
  goal_postings_.resize(num_impls);
  util::ParallelFor(
      blocks,
      [&](size_t b) {
        std::vector<uint32_t>& actions = action_cursor[b];
        std::vector<uint32_t>& goals = goal_cursor[b];
        for (size_t p = first(b), end = first(b + 1); p < end; ++p) {
          goal_postings_[goals[impl_goals_[p]]++] = static_cast<ImplId>(p);
          for (uint32_t at = impl_offsets_[p]; at < impl_offsets_[p + 1];
               ++at) {
            action_postings_[actions[impl_actions_[at]]++] =
                static_cast<ImplId>(p);
          }
        }
      },
      blocks);

  // The 1/r reciprocal table, each entry the exact IEEE quotient.
  max_impl_size_ = *std::max_element(block_max.begin(), block_max.end());
  reciprocal_.assign(static_cast<size_t>(max_impl_size_) + 1, 0.0);
  for (uint32_t r = 1; r <= max_impl_size_; ++r) {
    reciprocal_[r] = 1.0 / static_cast<double>(r);
  }
}

uint32_t ImplementationLibrary::ImplActionCount(ImplId id) const {
  GOALREC_CHECK_LT(id, impl_goals_.size())
      << "implementation id " << id << " out of range (library has "
      << impl_goals_.size() << " implementations)";
  return impl_offsets_[id + 1] - impl_offsets_[id];
}

double ImplementationLibrary::ImplActionCountD(ImplId id) const {
  GOALREC_CHECK_LT(id, impl_size_d_.size())
      << "implementation id " << id << " out of range (library has "
      << impl_size_d_.size() << " implementations)";
  return impl_size_d_[id];
}

double ImplementationLibrary::Reciprocal(uint32_t r) const {
  GOALREC_CHECK_LT(r, reciprocal_.size())
      << "reciprocal index " << r << " beyond the largest implementation ("
      << max_impl_size_ << " actions)";
  return reciprocal_[r];
}

GoalId ImplementationLibrary::GoalOf(ImplId id) const {
  GOALREC_CHECK_LT(id, impl_goals_.size())
      << "implementation id " << id << " out of range (library has "
      << impl_goals_.size() << " implementations)";
  return impl_goals_[id];
}

std::span<const ActionId> ImplementationLibrary::ActionsOf(ImplId id) const {
  GOALREC_CHECK_LT(id, impl_goals_.size())
      << "implementation id " << id << " out of range (library has "
      << impl_goals_.size() << " implementations)";
  return std::span<const ActionId>(impl_actions_.data() + impl_offsets_[id],
                                   impl_offsets_[id + 1] - impl_offsets_[id]);
}

std::span<const ImplId> ImplementationLibrary::ImplsOfAction(
    ActionId a) const {
  GOALREC_CHECK_LT(a, actions_.size())
      << "action id " << a << " out of range (library has "
      << actions_.size() << " actions)";
  return std::span<const ImplId>(
      action_postings_.data() + action_offsets_[a],
      action_offsets_[a + 1] - action_offsets_[a]);
}

std::span<const ImplId> ImplementationLibrary::ImplsOfGoal(GoalId g) const {
  GOALREC_CHECK_LT(g, goals_.size())
      << "goal id " << g << " out of range (library has " << goals_.size()
      << " goals)";
  return std::span<const ImplId>(goal_postings_.data() + goal_offsets_[g],
                                 goal_offsets_[g + 1] - goal_offsets_[g]);
}

IdSet ImplementationLibrary::ImplementationSpace(
    const Activity& activity) const {
  IdSet result;
  for (ActionId a : activity) {
    if (a >= actions_.size()) continue;  // action unseen by the library
    std::span<const ImplId> postings = ImplsOfAction(a);
    result.insert(result.end(), postings.begin(), postings.end());
  }
  util::Normalize(result);
  return result;
}

IdSet ImplementationLibrary::GoalSpace(const Activity& activity) const {
  IdSet goals;
  for (ImplId p : ImplementationSpace(activity)) {
    goals.push_back(impl_goals_[p]);
  }
  util::Normalize(goals);
  return goals;
}

IdSet ImplementationLibrary::GoalSpaceOfAction(ActionId a) const {
  return GoalSpace(Activity{a});
}

IdSet ImplementationLibrary::ActionSpace(const Activity& activity) const {
  // Union of the actions of every implementation in IS(H) ...
  IdSet space;
  IdSet impl_space = ImplementationSpace(activity);
  for (ImplId p : impl_space) {
    std::span<const ActionId> acts = ActionsOf(p);
    space.insert(space.end(), acts.begin(), acts.end());
  }
  util::Normalize(space);
  // ... minus H members that never co-occur with a *different* H action
  // (Definition 4.2 excludes a from AS(a), so h ∈ AS(H) only via another
  // action of H sharing an implementation with it).
  IdSet filtered;
  filtered.reserve(space.size());
  for (ActionId x : space) {
    if (!util::Contains(activity, x)) {
      filtered.push_back(x);
      continue;
    }
    bool co_occurs = false;
    for (ImplId p : ImplsOfAction(x)) {
      size_t common = util::IntersectionSize(ActionsOf(p), activity);
      // ActionsOf(p) contains x ∈ H, so common >= 1; a second common action
      // is a different member of H.
      if (common >= 2) {
        co_occurs = true;
        break;
      }
    }
    if (co_occurs) filtered.push_back(x);
  }
  return filtered;
}

IdSet ImplementationLibrary::ActionSpaceOfAction(ActionId a) const {
  return ActionSpace(Activity{a});
}

IdSet ImplementationLibrary::CandidateActions(const Activity& activity) const {
  return util::Difference(ActionSpace(activity), activity);
}

double ImplementationLibrary::ActionConnectivity() const {
  size_t postings = action_postings_.size();
  size_t active_actions = 0;
  for (size_t a = 0; a + 1 < action_offsets_.size(); ++a) {
    if (action_offsets_[a + 1] > action_offsets_[a]) ++active_actions;
  }
  if (active_actions == 0) return 0.0;
  return static_cast<double>(postings) / static_cast<double>(active_actions);
}

double ImplementationLibrary::AvgImplementationLength() const {
  if (impl_goals_.empty()) return 0.0;
  return static_cast<double>(impl_actions_.size()) /
         static_cast<double>(impl_goals_.size());
}

}  // namespace goalrec::model
