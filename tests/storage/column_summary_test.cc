// The per-block min/max summary of an INT64 Column: one entry per storage
// block, kept exact by every mutator, immutable once handed out, and
// never shared stale between a column and its copy-on-write copies.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "storage/column.h"
#include "storage/minmax.h"
#include "storage/table.h"

namespace patchindex {
namespace {

constexpr std::uint64_t kBlock = Column::kSummaryBlockRows;

Column Sequential(std::int64_t n) {
  Column c(ColumnType::kInt64);
  for (std::int64_t i = 0; i < n; ++i) c.AppendInt64(i);
  return c;
}

/// The summary's blocks tile the column's rows with at most kBlock rows
/// each, and every block's bounds equal a fresh min/max over its rows.
void ExpectMatchesFreshBuild(const Column& c, const MinMaxIndex& summary) {
  ASSERT_EQ(summary.num_rows(), c.size());
  RowId next = 0;
  for (std::uint64_t b = 0; b < summary.num_blocks(); ++b) {
    const RowRange rows = summary.BlockRange(b);
    ASSERT_EQ(rows.begin, next) << "block " << b;
    ASSERT_GT(rows.end, rows.begin) << "block " << b;
    ASSERT_LE(rows.end - rows.begin, kBlock) << "block " << b;
    std::int64_t lo = std::numeric_limits<std::int64_t>::max();
    std::int64_t hi = std::numeric_limits<std::int64_t>::min();
    for (RowId r = rows.begin; r < rows.end; ++r) {
      lo = std::min(lo, c.GetInt64(r));
      hi = std::max(hi, c.GetInt64(r));
    }
    EXPECT_EQ(summary.BlockMin(b), lo) << "block " << b;
    EXPECT_EQ(summary.BlockMax(b), hi) << "block " << b;
    next = rows.end;
  }
  EXPECT_EQ(next, c.size());
}

TEST(ColumnSummaryTest, OneEntryPerStorageBlock) {
  // Appends fill each block before the next, so an append-only column
  // has the fixed kBlock geometry.
  const Column c = Sequential(5 * kBlock + 10);
  std::shared_ptr<const MinMaxIndex> summary = c.BlockSummary();
  EXPECT_EQ(summary->num_blocks(), 6u);
  EXPECT_EQ(c.num_blocks(), 6u);
  EXPECT_EQ(summary->BlockRange(2), (RowRange{2 * kBlock, 3 * kBlock}));
  EXPECT_EQ(summary->BlockRange(5), (RowRange{5 * kBlock, 5 * kBlock + 10}));
  EXPECT_EQ(summary->BlockMin(2), 2 * static_cast<std::int64_t>(kBlock));
  EXPECT_EQ(summary->BlockMax(5), 5 * static_cast<std::int64_t>(kBlock) + 9);
  ExpectMatchesFreshBuild(c, *summary);
}

TEST(ColumnSummaryTest, SetInt64DropsTheSummary) {
  Column c = Sequential(3 * kBlock);
  std::shared_ptr<const MinMaxIndex> before = c.BlockSummary();
  c.SetInt64(kBlock + 5, 1'000'000);
  std::shared_ptr<const MinMaxIndex> after = c.BlockSummary();
  EXPECT_EQ(after->BlockMax(1), 1'000'000);
  ExpectMatchesFreshBuild(c, *after);
  // The old summary is immutable: a holder keeps its old bounds.
  EXPECT_EQ(before->BlockMax(1), 2 * static_cast<std::int64_t>(kBlock) - 1);

  // Overwriting a block's only minimum narrows the block's bounds.
  c.SetInt64(0, 500);
  EXPECT_EQ(c.BlockSummary()->BlockMin(0), 1);
  ExpectMatchesFreshBuild(c, *c.BlockSummary());
}

TEST(ColumnSummaryTest, SetValueDropsTheSummary) {
  Column c = Sequential(2 * kBlock);
  std::shared_ptr<const MinMaxIndex> before = c.BlockSummary();
  c.Set(3, Value(std::int64_t{-77}));
  std::shared_ptr<const MinMaxIndex> after = c.BlockSummary();
  EXPECT_EQ(after->BlockMin(0), -77);
  EXPECT_EQ(before->BlockMin(0), 0);
  ExpectMatchesFreshBuild(c, *after);
}

TEST(ColumnSummaryTest, DeleteRowsDropsTheSummary) {
  Column c = Sequential(3 * kBlock);
  std::shared_ptr<const MinMaxIndex> before = c.BlockSummary();
  std::vector<RowId> victims;
  for (RowId r = 0; r < kBlock + 100; ++r) victims.push_back(r);
  c.DeleteRows(victims);
  std::shared_ptr<const MinMaxIndex> after = c.BlockSummary();
  EXPECT_EQ(after->num_rows(), 2 * kBlock - 100);
  // The emptied first block is dropped; the second keeps its 924
  // surviving rows as a block of its own.
  EXPECT_EQ(after->num_blocks(), 2u);
  EXPECT_EQ(after->BlockRange(0), (RowRange{0, kBlock - 100}));
  EXPECT_EQ(after->BlockMin(0), static_cast<std::int64_t>(kBlock) + 100);
  ExpectMatchesFreshBuild(c, *after);
  EXPECT_EQ(before->num_rows(), 3 * kBlock);

  // An empty delete list changes nothing.
  c.DeleteRows({});
  EXPECT_EQ(c.BlockSummary()->num_blocks(), 2u);
  ExpectMatchesFreshBuild(c, *c.BlockSummary());
}

TEST(ColumnSummaryTest, AppendsExtendTheSummary) {
  Column c = Sequential(kBlock + 300);
  std::shared_ptr<const MinMaxIndex> before = c.BlockSummary();
  for (std::int64_t i = 0; i < 2'000; ++i) c.AppendInt64(-i);
  c.Append(Value(std::int64_t{99'999}));
  std::shared_ptr<const MinMaxIndex> after = c.BlockSummary();
  ExpectMatchesFreshBuild(c, *after);
  // The holder of the earlier summary still sees the prefix it covered.
  EXPECT_EQ(before->num_rows(), kBlock + 300);
  EXPECT_EQ(before->BlockMin(1), static_cast<std::int64_t>(kBlock));
}

TEST(ColumnSummaryTest, CopiedColumnNeverReusesStaleBounds) {
  Column original = Sequential(2 * kBlock);
  std::shared_ptr<const MinMaxIndex> shared = original.BlockSummary();
  Column copy(original);
  ExpectMatchesFreshBuild(copy, *copy.BlockSummary());
  // Once either side mutates, it gets bounds of its own.
  copy.SetInt64(0, -5);
  EXPECT_EQ(copy.BlockSummary()->BlockMin(0), -5);
  EXPECT_EQ(original.BlockSummary()->BlockMin(0), 0);
  ExpectMatchesFreshBuild(original, *original.BlockSummary());
  EXPECT_EQ(shared->BlockMin(0), 0);
}

TEST(ColumnSummaryTest, CopyOnWriteSnapshotKeepsItsBounds) {
  Table head(Schema({{"key", ColumnType::kInt64}}));
  for (std::int64_t i = 0; i < 3 * static_cast<std::int64_t>(kBlock); ++i) {
    head.AppendRow(Row{{Value(i)}});
  }
  std::unique_ptr<const Table> snapshot = head.CloneShared();
  std::shared_ptr<const MinMaxIndex> snap_summary =
      snapshot->column(0).BlockSummary();

  // A committed modify and delete on the head copy the blocks they touch.
  ASSERT_TRUE(head.BufferModify(5, 0, Value(std::int64_t{-1'000})).ok());
  head.Checkpoint();
  ASSERT_TRUE(head.BufferDelete(kBlock).ok());
  head.Checkpoint();

  const Table& const_head = head;
  std::shared_ptr<const MinMaxIndex> head_summary =
      const_head.column(0).BlockSummary();
  EXPECT_EQ(head_summary->BlockMin(0), -1'000);
  ExpectMatchesFreshBuild(const_head.column(0), *head_summary);

  ExpectMatchesFreshBuild(snapshot->column(0),
                          *snapshot->column(0).BlockSummary());
  EXPECT_EQ(snapshot->column(0).BlockSummary()->BlockMin(0), 0);
  EXPECT_EQ(snap_summary->BlockMin(0), 0);
  EXPECT_EQ(snap_summary->num_rows(), 3 * kBlock);
}

TEST(ColumnSummaryTest, ConcurrentReadersSeeEqualBounds) {
  const Column c = Sequential(64 * kBlock);
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const MinMaxIndex>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &got, t] { got[t] = c.BlockSummary(); });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) ExpectMatchesFreshBuild(c, *got[t]);
}

}  // namespace
}  // namespace patchindex
