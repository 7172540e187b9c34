#include "util/top_k.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace goalrec::util {
namespace {

TEST(TopKTest, KeepsLargest) {
  TopK<int, std::greater<int>> top(3);
  for (int v : {5, 1, 9, 3, 7, 2}) top.Push(v);
  EXPECT_EQ(top.Take(), (std::vector<int>{9, 7, 5}));
}

TEST(TopKTest, FewerElementsThanK) {
  TopK<int, std::greater<int>> top(10);
  top.Push(2);
  top.Push(8);
  EXPECT_EQ(top.Take(), (std::vector<int>{8, 2}));
}

TEST(TopKTest, SizeAndCapacity) {
  TopK<int, std::greater<int>> top(2);
  EXPECT_EQ(top.capacity(), 2u);
  EXPECT_EQ(top.size(), 0u);
  top.Push(1);
  EXPECT_EQ(top.size(), 1u);
  top.Push(2);
  top.Push(3);
  EXPECT_EQ(top.size(), 2u);
}

TEST(TopKTest, CustomComparatorSmallestFirst) {
  TopK<int, std::less<int>> bottom(2);
  for (int v : {5, 1, 9, 3}) bottom.Push(v);
  EXPECT_EQ(bottom.Take(), (std::vector<int>{1, 3}));
}

TEST(TopKTest, DuplicatesRetained) {
  TopK<int, std::greater<int>> top(3);
  for (int v : {4, 4, 4, 1}) top.Push(v);
  EXPECT_EQ(top.Take(), (std::vector<int>{4, 4, 4}));
}

// The recommenders' (score desc, action id asc) total order, as a strict
// comparator on (score, id) pairs.
struct ByScoreThenId {
  bool operator()(const std::pair<double, uint32_t>& a,
                  const std::pair<double, uint32_t>& b) const {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  }
};

// With a total order the boundary is never ambiguous: of several candidates
// tied at the cutoff score, the lowest ids are retained — exactly the
// tie-break the ranked lists promise.
TEST(TopKTest, BoundaryTiesResolvedByIdUnderTotalOrder) {
  TopK<std::pair<double, uint32_t>, ByScoreThenId> top(3);
  for (uint32_t id : {7u, 2u, 9u, 4u}) top.Push({1.0, id});
  top.Push({2.0, 8u});
  EXPECT_EQ(top.Take(),
            (std::vector<std::pair<double, uint32_t>>{
                {2.0, 8u}, {1.0, 2u}, {1.0, 4u}}));
}

// Property: under a total order the retained set and Take() order are
// insertion-order independent, even when the stream is mostly duplicate
// scores.
TEST(TopKPropertyTest, DuplicateScoreStreamsAreInsertionOrderIndependent) {
  Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::pair<double, uint32_t>> values;
    uint32_t n = 1 + rng.UniformUint32(40);
    for (uint32_t id = 0; id < n; ++id) {
      // Only three distinct scores → boundary ties on nearly every push.
      values.push_back({static_cast<double>(rng.UniformUint32(3)), id});
    }
    std::vector<std::pair<double, uint32_t>> expected = values;
    std::sort(expected.begin(), expected.end(), ByScoreThenId());
    size_t k = 1 + rng.UniformUint32(10);
    expected.resize(std::min(k, expected.size()));

    for (int shuffle = 0; shuffle < 4; ++shuffle) {
      rng.Shuffle(values);
      TopK<std::pair<double, uint32_t>, ByScoreThenId> top(k);
      for (const auto& v : values) top.Push(v);
      EXPECT_EQ(top.Take(), expected) << "trial " << trial;
    }
  }
}

TEST(TopKDeathTest, ZeroCapacityAborts) {
  EXPECT_DEATH({ TopK<int> top(0); }, "CHECK failed");
}

// Property: TopK agrees with full sort on random streams.
TEST(TopKPropertyTest, MatchesFullSort) {
  Rng rng(5);
  for (int trial = 0; trial < 100; ++trial) {
    size_t k = 1 + rng.UniformUint32(10);
    std::vector<int> values;
    uint32_t n = rng.UniformUint32(100);
    for (uint32_t i = 0; i < n; ++i) {
      values.push_back(static_cast<int>(rng.UniformUint32(1000)));
    }
    TopK<int, std::greater<int>> top(k);
    for (int v : values) top.Push(v);
    std::vector<int> expected = values;
    std::sort(expected.begin(), expected.end(), std::greater<int>());
    expected.resize(std::min(k, expected.size()));
    EXPECT_EQ(top.Take(), expected);
  }
}

// --- ScoredTopK: the branch-lean (score, id) collector the scoring kernels
// emit through. Its contract is the ranked lists' documented total order —
// score descending, id ascending on ties — independent of push order.

using Drained = std::vector<std::pair<double, uint32_t>>;

Drained Drain(ScoredTopK& top) {
  Drained out;
  top.TakeInto([&out](double score, uint32_t id) {
    out.push_back({score, id});
  });
  return out;
}

TEST(ScoredTopKTest, KeepsBestScoresBestFirst) {
  ScoredTopK top(3);
  top.Push(0.5, 10);
  top.Push(2.0, 4);
  top.Push(1.0, 7);
  top.Push(0.25, 1);
  EXPECT_EQ(Drain(top), (Drained{{2.0, 4}, {1.0, 7}, {0.5, 10}}));
}

// Equal scores must come out id-ascending regardless of push order, and the
// retained boundary set must be the lowest ids among the tied — the
// regression the emission rewrite must never break.
TEST(ScoredTopKTest, EqualScoresPreserveDocumentedIdOrder) {
  ScoredTopK top(4);
  for (uint32_t id : {9u, 2u, 14u, 5u, 11u, 3u}) top.Push(1.0, id);
  EXPECT_EQ(Drain(top), (Drained{{1.0, 2}, {1.0, 3}, {1.0, 5}, {1.0, 9}}));
}

// Boundary fast reject: once full, a push tying the floor score with a
// higher id must be rejected, and one with a lower id must evict the floor.
TEST(ScoredTopKTest, FloorTieRejectsHigherIdAdmitsLowerId) {
  ScoredTopK top(2);
  top.Push(1.0, 5);
  top.Push(2.0, 9);
  // Floor is (1.0, 5). Tie with higher id: rejected.
  top.Push(1.0, 8);
  EXPECT_EQ(top.size(), 2u);
  // Tie with lower id: replaces the floor.
  top.Push(1.0, 3);
  EXPECT_EQ(Drain(top), (Drained{{2.0, 9}, {1.0, 3}}));
}

TEST(ScoredTopKTest, ResetReusesBuffersAcrossStreams) {
  ScoredTopK top(3);
  top.Push(1.0, 1);
  top.Push(2.0, 2);
  EXPECT_EQ(Drain(top), (Drained{{2.0, 2}, {1.0, 1}}));
  // Shrink, refill, and drain again: the second stream must be unaffected
  // by the first (this is the per-query Reset the pooled path performs).
  top.Reset(2);
  for (uint32_t id : {4u, 1u, 3u, 2u}) {
    top.Push(static_cast<double>(id), id);
  }
  EXPECT_EQ(Drain(top), (Drained{{4.0, 4}, {3.0, 3}}));
}

// A bound far beyond the entries pushed (a client's k = SIZE_MAX) keeps
// every entry and reserves nothing for the unused slots.
TEST(ScoredTopKTest, BoundBeyondEntriesKeepsAll) {
  ScoredTopK top(std::numeric_limits<size_t>::max());
  for (uint32_t id : {3u, 1u, 2u}) top.Push(static_cast<double>(id), id);
  EXPECT_EQ(Drain(top), (Drained{{3.0, 3}, {2.0, 2}, {1.0, 1}}));
  top.Reset(std::numeric_limits<size_t>::max() - 1);
  top.Push(0.5, 7);
  EXPECT_EQ(Drain(top), (Drained{{0.5, 7}}));
}

TEST(ScoredTopKTest, NegativeScoresOrderCorrectly) {
  // BestMatch pushes -distance; best (least distant) first.
  ScoredTopK top(2);
  top.Push(-3.5, 1);
  top.Push(-1.25, 2);
  top.Push(-2.0, 3);
  EXPECT_EQ(Drain(top), (Drained{{-1.25, 2}, {-2.0, 3}}));
}

// Property: ScoredTopK agrees with full sort under the documented total
// order on duplicate-heavy random streams, for any push order.
TEST(ScoredTopKPropertyTest, MatchesFullSortOnDuplicateHeavyStreams) {
  Rng rng(23);
  ScoredTopK top;  // reused across trials, as the workspaces reuse it
  for (int trial = 0; trial < 100; ++trial) {
    uint32_t n = 1 + rng.UniformUint32(60);
    std::vector<std::pair<double, uint32_t>> values;
    for (uint32_t id = 0; id < n; ++id) {
      // Few distinct scores → constant boundary ties.
      values.push_back({static_cast<double>(rng.UniformUint32(4)), id});
    }
    std::vector<std::pair<double, uint32_t>> expected = values;
    std::sort(expected.begin(), expected.end(), ByScoreThenId());
    size_t k = 1 + rng.UniformUint32(12);
    expected.resize(std::min(k, expected.size()));

    rng.Shuffle(values);
    top.Reset(k);
    for (const auto& [score, id] : values) top.Push(score, id);
    EXPECT_EQ(Drain(top), expected) << "trial " << trial;
  }
}

TEST(ScoredTopKDeathTest, ZeroCapacityAborts) {
  EXPECT_DEATH({ ScoredTopK top(0); }, "CHECK failed");
}

}  // namespace
}  // namespace goalrec::util
