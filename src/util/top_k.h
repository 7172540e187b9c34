#ifndef GOALREC_UTIL_TOP_K_H_
#define GOALREC_UTIL_TOP_K_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/logging.h"

namespace goalrec::util {

/// Collects the k largest elements (by `Compare`, a strict weak ordering where
/// "larger" means Compare(a, b) == true puts a ahead of b) from a stream of
/// pushes. Backed by a bounded min-heap: Push is O(log k), memory is O(k).
///
/// All recommenders funnel their (action, score) candidates through TopK so
/// ranking cost stays O(n log k) instead of a full O(n log n) sort, which
/// matters at FoodMart connectivity (~1.2K implementations per action).
template <typename T, typename Compare = std::less<T>>
class TopK {
 public:
  explicit TopK(size_t k, Compare compare = Compare())
      : k_(k), compare_(compare) {
    GOALREC_CHECK_GT(k_, 0u);
  }

  /// Offers one element. Keeps it only if it ranks within the current top k.
  void Push(T value) {
    if (heap_.size() < k_) {
      heap_.push_back(std::move(value));
      std::push_heap(heap_.begin(), heap_.end(), compare_);
      return;
    }
    // heap_.front() is the weakest retained element.
    if (compare_(value, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), compare_);
      heap_.back() = std::move(value);
      std::push_heap(heap_.begin(), heap_.end(), compare_);
    }
  }

  size_t size() const { return heap_.size(); }
  size_t capacity() const { return k_; }

  /// Extracts the retained elements best-first. The collector is empty after.
  std::vector<T> Take() {
    // sort_heap orders ascending w.r.t. compare_; since compare_(a, b) means
    // "a ranks ahead of b", ascending order is already best-first.
    std::sort_heap(heap_.begin(), heap_.end(), compare_);
    return std::move(heap_);
  }

  /// Take() into a caller-owned vector (clear + copy), keeping the internal
  /// buffer's capacity. With Reset, a long-lived TopK (e.g. inside a pooled
  /// query workspace) collects top-k sets with zero steady-state
  /// allocations.
  void TakeInto(std::vector<T>& out) {
    std::sort_heap(heap_.begin(), heap_.end(), compare_);
    out.assign(heap_.begin(), heap_.end());
    heap_.clear();
  }

  /// Re-arms the collector for a fresh stream of pushes with a new bound,
  /// retaining the heap buffer's capacity.
  void Reset(size_t k) {
    GOALREC_CHECK_GT(k, 0u);
    k_ = k;
    heap_.clear();
  }

 private:
  size_t k_;
  Compare compare_;
  std::vector<T> heap_;
};

/// Branch-lean bounded top-k specialised for the query kernels' (score, id)
/// pairs under the shared ranking order: score descending, id ascending on
/// ties — the same total order as core::ByScoreDesc, so the retained set is
/// independent of push order and the drain order is fully deterministic.
///
/// Two structure-of-arrays heaps (scores + ids) replace the generic TopK's
/// array-of-structs, and Push caches the current floor (the weakest retained
/// entry) so the overwhelmingly common case — a candidate that does not make
/// the cut once the heap is full — is a single predictable compare with no
/// heap traversal.
class ScoredTopK {
 public:
  explicit ScoredTopK(size_t k = 1) { Reset(k); }

  /// Re-arms the collector for a fresh stream with bound `k` (> 0), keeping
  /// buffer capacity: zero steady-state allocations once warm. The buffers
  /// grow with the entries actually pushed, never to `k` up front, so a
  /// caller's k far beyond the candidate count costs nothing.
  void Reset(size_t k) {
    GOALREC_CHECK_GT(k, 0u);
    k_ = k;
    size_ = 0;
  }

  /// Offers one (score, id). Keeps it only if it ranks within the top k.
  /// Ids must be unique within one stream (every caller pushes each action
  /// at most once), so an exact (score, id) duplicate of the floor never
  /// occurs and the fast reject can treat "ties with the floor on both
  /// fields" as impossible.
  void Push(double score, uint32_t id) {
    if (size_ == k_) {
      // Fast reject against the cached floor. NaN never enters (scores are
      // finite by construction), so the negated compare is exact.
      if (score < floor_score_ ||
          (score == floor_score_ && id > floor_id_)) {
        return;
      }
      ReplaceFloor(score, id);
      return;
    }
    if (size_ == scores_.size()) {
      scores_.push_back(score);
      ids_.push_back(id);
    } else {
      scores_[size_] = score;
      ids_[size_] = id;
    }
    SiftUp(size_);
    ++size_;
    if (size_ == k_) {
      floor_score_ = scores_[0];
      floor_id_ = ids_[0];
    }
  }

  size_t size() const { return size_; }
  size_t capacity() const { return k_; }

  /// Drains the retained entries best-first — score descending, id ascending
  /// on equal scores — invoking emit(score, id) for each. Empty after.
  template <typename Emit>
  void TakeInto(Emit&& emit) {
    // In-place heapsort: repeatedly move the root (the worst remaining
    // entry) behind the shrinking heap, leaving best-first order in front.
    size_t n = size_;
    while (size_ > 1) {
      --size_;
      std::swap(scores_[0], scores_[size_]);
      std::swap(ids_[0], ids_[size_]);
      SiftDown(size_);
    }
    size_ = 0;
    for (size_t i = 0; i < n; ++i) emit(scores_[i], ids_[i]);
  }

 private:
  /// Heap order: the root is the entry every other retained entry beats —
  /// lowest score, highest id among equal scores.
  bool Worse(size_t a, size_t b) const {
    if (scores_[a] != scores_[b]) return scores_[a] < scores_[b];
    return ids_[a] > ids_[b];
  }

  void SiftUp(size_t i) {
    while (i > 0) {
      size_t parent = (i - 1) / 2;
      if (!Worse(i, parent)) break;
      std::swap(scores_[i], scores_[parent]);
      std::swap(ids_[i], ids_[parent]);
      i = parent;
    }
  }

  void SiftDown(size_t limit) {
    size_t i = 0;
    for (;;) {
      size_t left = 2 * i + 1;
      if (left >= limit) break;
      size_t right = left + 1;
      size_t worst = (right < limit && Worse(right, left)) ? right : left;
      if (!Worse(worst, i)) break;
      std::swap(scores_[i], scores_[worst]);
      std::swap(ids_[i], ids_[worst]);
      i = worst;
    }
  }

  void ReplaceFloor(double score, uint32_t id) {
    scores_[0] = score;
    ids_[0] = id;
    SiftDown(size_);
    floor_score_ = scores_[0];
    floor_id_ = ids_[0];
  }

  size_t k_ = 1;
  size_t size_ = 0;
  double floor_score_ = 0.0;
  uint32_t floor_id_ = 0;
  std::vector<double> scores_;
  std::vector<uint32_t> ids_;
};

}  // namespace goalrec::util

#endif  // GOALREC_UTIL_TOP_K_H_
