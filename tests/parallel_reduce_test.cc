// Unit tests for the parallel primitives that remain: ParallelForRanges
// chunking (the sweep engine's trial-level dispatch, run multithreaded here
// so TSan sees it) and the EpochFlagSet placement scratch.
#include <gtest/gtest.h>

#include <cstddef>
#include <utility>
#include <vector>

#include "src/common/parallel_for.h"
#include "src/scheduler/placement.h"

namespace omega {
namespace {

// ---------------------------------------------------------------------------
// ParallelForRanges
// ---------------------------------------------------------------------------

TEST(ParallelForRangesTest, ChunksAreAlignedBoundedAndCoverEveryIndex) {
  const size_t n = 1000;
  const size_t grain = 64;
  std::vector<int> covered(n, 0);
  std::vector<std::pair<size_t, size_t>> chunks;
  ParallelForRanges(
      n, grain,
      [&](size_t begin, size_t end) {
        ASSERT_LT(begin, end);
        ASSERT_LE(end, n);
        ASSERT_LE(end - begin, grain);
        ASSERT_EQ(begin % grain, 0u);
        for (size_t i = begin; i < end; ++i) {
          covered[i] += 1;
        }
        chunks.emplace_back(begin, end);
      },
      /*max_threads=*/1);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(covered[i], 1) << "index " << i;
  }
  // 1000 / 64 -> 15 full chunks plus the 40-element tail.
  EXPECT_EQ(chunks.size(), 16u);
  EXPECT_EQ(chunks.back().second - chunks.back().first, n % grain);
}

TEST(ParallelForRangesTest, CoversEveryIndexMultithreaded) {
  const size_t n = 4096;
  std::vector<int> covered(n, 0);
  ParallelForRanges(
      n, 100,
      [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          covered[i] += 1;  // chunks are disjoint: no two threads share i
        }
      },
      /*max_threads=*/4);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(covered[i], 1) << "index " << i;
  }
}

TEST(ParallelForRangesTest, GrainZeroMeansPerIndexDispatch) {
  const size_t n = 17;
  size_t calls = 0;
  ParallelForRanges(
      n, 0,
      [&](size_t begin, size_t end) {
        EXPECT_EQ(end, begin + 1);
        ++calls;
      },
      /*max_threads=*/1);
  EXPECT_EQ(calls, n);
}

// ---------------------------------------------------------------------------
// EpochFlagSet
// ---------------------------------------------------------------------------

TEST(EpochFlagSetTest, InsertContainsResetAndNegativeKeys) {
  EpochFlagSet set;
  EXPECT_FALSE(set.Contains(0));
  set.Insert(3);
  set.Insert(0);
  EXPECT_TRUE(set.Contains(3));
  EXPECT_TRUE(set.Contains(0));
  EXPECT_FALSE(set.Contains(1));
  EXPECT_FALSE(set.Contains(4000));
  set.Insert(-1);  // failure_domain can be "none": never stored
  EXPECT_FALSE(set.Contains(-1));
  set.Reset();
  EXPECT_FALSE(set.Contains(3));
  EXPECT_FALSE(set.Contains(0));
  set.Insert(3);
  EXPECT_TRUE(set.Contains(3));
}

}  // namespace
}  // namespace omega
