#ifndef GOALREC_MODEL_COOCCURRENCE_H_
#define GOALREC_MODEL_COOCCURRENCE_H_

#include <cstdint>
#include <vector>

#include "model/library.h"
#include "model/types.h"

// Co-occurrence analytics over the implementation library: which actions
// appear together in implementations, and how much more often than chance.
// This is the *library-side* counterpart of the association rules §2 mines
// from user behaviour — §2's point is precisely that these two disagree,
// and this module makes the library side queryable: "related actions"
// boxes, diagnostics for generator structure, and the raw material for the
// goal-family statistics the 43Things analysis leans on.

namespace goalrec::model {

struct CoAction {
  ActionId action = kInvalidId;
  /// Implementations containing both actions.
  uint32_t count = 0;
  /// Pointwise mutual information: log2( P(a,b) / (P(a)·P(b)) ) with
  /// probabilities estimated over implementations. Positive = the pair
  /// co-occurs more than independence predicts.
  double pmi = 0.0;
};

/// Actions co-occurring with `action`, ranked by count (descending, id
/// ascending on ties), at most `k`. Runs in
/// O(connectivity · avg implementation length).
std::vector<CoAction> TopCoActions(const ImplementationLibrary& library,
                                   ActionId action, size_t k);

/// Number of implementations containing both `a` and `b`
/// (|IS(a) ∩ IS(b)| as posting-list intersection).
uint32_t CoOccurrenceCount(const ImplementationLibrary& library, ActionId a,
                           ActionId b);

/// PMI of the pair, or 0 when either action never occurs or the pair never
/// co-occurs.
double PointwiseMutualInformation(const ImplementationLibrary& library,
                                  ActionId a, ActionId b);

}  // namespace goalrec::model

#endif  // GOALREC_MODEL_COOCCURRENCE_H_
