#include "storage/minmax.h"

#include <gtest/gtest.h>

namespace patchindex {
namespace {

Column SequentialColumn(std::int64_t n) {
  Column c(ColumnType::kInt64);
  for (std::int64_t i = 0; i < n; ++i) c.AppendInt64(i);
  return c;
}

TEST(MinMaxTest, BlockBounds) {
  Column c = SequentialColumn(100);
  MinMaxIndex idx(c, 10);
  EXPECT_EQ(idx.num_blocks(), 10u);
  EXPECT_EQ(idx.BlockMin(3), 30);
  EXPECT_EQ(idx.BlockMax(3), 39);
}

TEST(MinMaxTest, PruneSelectsOnlyCandidateBlocks) {
  Column c = SequentialColumn(100);
  MinMaxIndex idx(c, 10);
  auto ranges = idx.PruneRanges(35, 44);
  // Values 35..44 live in blocks 3 and 4 => rows [30, 50) coalesced.
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], (RowRange{30, 50}));
}

TEST(MinMaxTest, PruneNoMatch) {
  Column c = SequentialColumn(100);
  MinMaxIndex idx(c, 10);
  EXPECT_TRUE(idx.PruneRanges(1000, 2000).empty());
}

TEST(MinMaxTest, UnsortedDataCannotPrune) {
  // When every block spans the full domain, pruning keeps everything.
  Column c(ColumnType::kInt64);
  for (int b = 0; b < 10; ++b) {
    c.AppendInt64(0);
    c.AppendInt64(999);
  }
  MinMaxIndex idx(c, 2);
  auto ranges = idx.PruneRanges(500, 600);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], (RowRange{0, 20}));
}

TEST(MinMaxTest, PartialLastBlock) {
  Column c = SequentialColumn(25);
  MinMaxIndex idx(c, 10);
  EXPECT_EQ(idx.num_blocks(), 3u);
  auto ranges = idx.PruneRanges(24, 24);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], (RowRange{20, 25}));
}

TEST(MinMaxTest, DisjointRangesNotCoalesced) {
  // Sorted data, query range hitting blocks 0 and... pick values so two
  // non-adjacent blocks qualify: impossible on sorted data with one
  // interval, so use alternating block contents.
  Column c(ColumnType::kInt64);
  for (int i = 0; i < 10; ++i) c.AppendInt64(i);        // block 0: 0-9
  for (int i = 0; i < 10; ++i) c.AppendInt64(100 + i);  // block 1: 100-109
  for (int i = 0; i < 10; ++i) c.AppendInt64(i);        // block 2: 0-9
  MinMaxIndex idx(c, 10);
  auto ranges = idx.PruneRanges(0, 9);
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0], (RowRange{0, 10}));
  EXPECT_EQ(ranges[1], (RowRange{20, 30}));
}

}  // namespace
}  // namespace patchindex
