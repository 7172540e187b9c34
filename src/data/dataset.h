#ifndef GOALREC_DATA_DATASET_H_
#define GOALREC_DATA_DATASET_H_

#include <string>
#include <vector>

#include "model/features.h"
#include "model/library.h"
#include "model/types.h"

// A fully materialised evaluation scenario: the goal implementation library,
// the user activities the recommenders receive as input, optional ground
// truth (the goals each user really pursues, known for 43T but not for
// FoodMart), and optional domain features (present for FoodMart only).

namespace goalrec::data {

/// One evaluation user.
struct UserRecord {
  /// The full activity (for FoodMart: one cart; for 43T: every action the
  /// user performed across all pursued goals).
  model::Activity full_activity;
  /// The same actions in the order they were performed (cart insertion
  /// order; goal-by-goal implementation order for 43T). perfbench's
  /// session_foodmart walks each cart step by step in this order; empty for
  /// datasets loaded from unordered sources.
  std::vector<model::ActionId> ordered_activity;
  /// The goals this user truly pursues; empty when unknown (FoodMart).
  model::IdSet true_goals;
  /// Groups records belonging to the same person (FoodMart customers can
  /// have several carts "in different time slots", §6). Defaults to a
  /// per-record unique id when the dataset has no repeat users.
  uint32_t customer_id = 0;
};

struct Dataset {
  std::string name;
  model::ImplementationLibrary library;
  std::vector<UserRecord> users;
  /// Domain features; empty for datasets without accepted features (43T).
  model::ActionFeatureTable features;
};

}  // namespace goalrec::data

#endif  // GOALREC_DATA_DATASET_H_
