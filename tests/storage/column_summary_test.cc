// Lifecycle of the per-block min/max summary an INT64 Column caches for
// scan pruning: built once on first use, dropped by every in-place
// mutator, extended after appends, never shared stale by a copy-on-write
// copy, and built exactly once when many readers ask at the same time.

#include <gtest/gtest.h>

#include <cstdint>
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

/// The summary equals a from-scratch MinMaxIndex over the column's rows.
void ExpectMatchesFreshBuild(const Column& c, const MinMaxIndex& summary) {
  const MinMaxIndex fresh(c, kBlock);
  ASSERT_EQ(summary.num_rows(), c.size());
  ASSERT_EQ(summary.num_blocks(), fresh.num_blocks());
  for (std::uint64_t b = 0; b < fresh.num_blocks(); ++b) {
    EXPECT_EQ(summary.BlockMin(b), fresh.BlockMin(b)) << "block " << b;
    EXPECT_EQ(summary.BlockMax(b), fresh.BlockMax(b)) << "block " << b;
  }
}

TEST(ColumnSummaryTest, BuiltOnFirstUseThenCached) {
  const Column c = Sequential(5 * kBlock + 10);
  std::shared_ptr<const MinMaxIndex> first = c.BlockSummary();
  EXPECT_EQ(first->block_size(), kBlock);
  EXPECT_EQ(first->num_blocks(), 6u);
  EXPECT_EQ(first->BlockMin(2), 2 * static_cast<std::int64_t>(kBlock));
  EXPECT_EQ(first->BlockMax(5), 5 * static_cast<std::int64_t>(kBlock) + 9);
  EXPECT_EQ(c.BlockSummary(), first);
}

TEST(ColumnSummaryTest, SetInt64DropsTheSummary) {
  Column c = Sequential(3 * kBlock);
  std::shared_ptr<const MinMaxIndex> before = c.BlockSummary();
  c.SetInt64(kBlock + 5, 1'000'000);
  std::shared_ptr<const MinMaxIndex> after = c.BlockSummary();
  EXPECT_NE(after, before);
  EXPECT_EQ(after->BlockMax(1), 1'000'000);
  ExpectMatchesFreshBuild(c, *after);
  // The old summary is immutable: a holder keeps its old bounds.
  EXPECT_EQ(before->BlockMax(1), 2 * static_cast<std::int64_t>(kBlock) - 1);
}

TEST(ColumnSummaryTest, SetValueDropsTheSummary) {
  Column c = Sequential(2 * kBlock);
  std::shared_ptr<const MinMaxIndex> before = c.BlockSummary();
  c.Set(3, Value(std::int64_t{-77}));
  std::shared_ptr<const MinMaxIndex> after = c.BlockSummary();
  EXPECT_NE(after, before);
  EXPECT_EQ(after->BlockMin(0), -77);
  ExpectMatchesFreshBuild(c, *after);
}

TEST(ColumnSummaryTest, DeleteRowsDropsTheSummary) {
  Column c = Sequential(3 * kBlock);
  std::shared_ptr<const MinMaxIndex> before = c.BlockSummary();
  std::vector<RowId> victims;
  for (RowId r = 0; r < kBlock + 100; ++r) victims.push_back(r);
  c.DeleteRows(victims);
  std::shared_ptr<const MinMaxIndex> after = c.BlockSummary();
  EXPECT_NE(after, before);
  EXPECT_EQ(after->num_rows(), 2 * kBlock - 100);
  ExpectMatchesFreshBuild(c, *after);

  // An empty delete list changes nothing and keeps the summary.
  c.DeleteRows({});
  EXPECT_EQ(c.BlockSummary(), after);
}

TEST(ColumnSummaryTest, AppendsExtendTheSummary) {
  Column c = Sequential(kBlock + 300);
  std::shared_ptr<const MinMaxIndex> before = c.BlockSummary();
  for (std::int64_t i = 0; i < 2'000; ++i) c.AppendInt64(-i);
  c.Append(Value(std::int64_t{99'999}));
  std::shared_ptr<const MinMaxIndex> after = c.BlockSummary();
  EXPECT_NE(after, before);
  ExpectMatchesFreshBuild(c, *after);
  // The holder of the earlier summary still sees the prefix it covered.
  EXPECT_EQ(before->num_rows(), kBlock + 300);
  EXPECT_EQ(before->BlockMin(1), static_cast<std::int64_t>(kBlock));
}

TEST(ColumnSummaryTest, CopiedColumnNeverReusesStaleBounds) {
  Column original = Sequential(2 * kBlock);
  std::shared_ptr<const MinMaxIndex> shared = original.BlockSummary();
  Column copy(original);
  // Identical data: the copy may hand out the same immutable summary...
  ExpectMatchesFreshBuild(copy, *copy.BlockSummary());
  // ...but once either side mutates, it gets bounds of its own.
  copy.SetInt64(0, -5);
  EXPECT_EQ(copy.BlockSummary()->BlockMin(0), -5);
  EXPECT_EQ(original.BlockSummary(), shared);
  EXPECT_EQ(original.BlockSummary()->BlockMin(0), 0);
}

TEST(ColumnSummaryTest, CopyOnWriteSnapshotKeepsItsBounds) {
  Table head(Schema({{"key", ColumnType::kInt64}}));
  for (std::int64_t i = 0; i < 3 * static_cast<std::int64_t>(kBlock); ++i) {
    head.AppendRow(Row{{Value(i)}});
  }
  std::unique_ptr<const Table> snapshot = head.CloneShared();
  std::shared_ptr<const MinMaxIndex> snap_summary =
      snapshot->column(0).BlockSummary();

  // A committed modify and delete on the head un-share the column.
  ASSERT_TRUE(head.BufferModify(5, 0, Value(std::int64_t{-1'000})).ok());
  head.Checkpoint();
  ASSERT_TRUE(head.BufferDelete(kBlock).ok());
  head.Checkpoint();

  const Table& const_head = head;
  std::shared_ptr<const MinMaxIndex> head_summary =
      const_head.column(0).BlockSummary();
  EXPECT_NE(head_summary, snap_summary);
  EXPECT_EQ(head_summary->BlockMin(0), -1'000);
  ExpectMatchesFreshBuild(const_head.column(0), *head_summary);

  EXPECT_EQ(snapshot->column(0).BlockSummary(), snap_summary);
  ExpectMatchesFreshBuild(snapshot->column(0), *snap_summary);
  EXPECT_EQ(snap_summary->BlockMin(0), 0);
}

TEST(ColumnSummaryTest, ConcurrentFirstUseBuildsOnce) {
  const Column c = Sequential(64 * kBlock);
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const MinMaxIndex>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &got, t] { got[t] = c.BlockSummary(); });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(got[t], got[0]);
  ExpectMatchesFreshBuild(c, *got[0]);
}

}  // namespace
}  // namespace patchindex
