#include "exec/scan.h"

#include <gtest/gtest.h>

#include "exec_test_util.h"

namespace patchindex {
namespace {

TEST(ScanTest, FullScanProducesAllRowsAndRowIds) {
  Table t = MakeKvTable({10, 20, 30, 40, 50});
  ScanOperator scan(t, {0, 1});
  Batch out = Collect(scan);
  ASSERT_EQ(out.num_rows(), 5u);
  EXPECT_EQ(out.columns[1].i64, (std::vector<std::int64_t>{10, 20, 30, 40, 50}));
  EXPECT_EQ(out.row_ids, (std::vector<RowId>{0, 1, 2, 3, 4}));
}

TEST(ScanTest, ColumnSubsetAndOrder) {
  Table t = MakeKvTable({10, 20});
  ScanOperator scan(t, {1});
  Batch out = Collect(scan);
  ASSERT_EQ(out.columns.size(), 1u);
  EXPECT_EQ(out.columns[0].i64, (std::vector<std::int64_t>{10, 20}));
}

TEST(ScanTest, StaticRangesRestrictBaseRows) {
  Table t = MakeKvTable({0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  ScanOptions opt;
  opt.ranges = {{2, 4}, {7, 9}};
  ScanOperator scan(t, {1}, opt);
  Batch out = Collect(scan);
  EXPECT_EQ(out.columns[0].i64, (std::vector<std::int64_t>{2, 3, 7, 8}));
  EXPECT_EQ(out.row_ids, (std::vector<RowId>{2, 3, 7, 8}));
}

// Scans read checkpointed base columns: the tests below checkpoint their
// buffered deltas before reading.

TEST(ScanTest, VisibleScanAppliesPendingDeletes) {
  Table t = MakeKvTable({0, 1, 2, 3, 4});
  ASSERT_TRUE(t.BufferDelete(1).ok());
  ASSERT_TRUE(t.BufferDelete(3).ok());
  t.Checkpoint();
  ScanOperator scan(t, {1});
  Batch out = Collect(scan);
  EXPECT_EQ(out.columns[0].i64, (std::vector<std::int64_t>{0, 2, 4}));
  // Deletes compact the rowIDs.
  EXPECT_EQ(out.row_ids, (std::vector<RowId>{0, 1, 2}));
}

TEST(ScanTest, VisibleScanAppliesPendingModifies) {
  Table t = MakeKvTable({0, 1, 2});
  ASSERT_TRUE(t.BufferModify(1, 1, Value(std::int64_t{99})).ok());
  t.Checkpoint();
  ScanOperator scan(t, {1});
  Batch out = Collect(scan);
  EXPECT_EQ(out.columns[0].i64, (std::vector<std::int64_t>{0, 99, 2}));
}

TEST(ScanTest, VisibleScanIncludesPendingInserts) {
  Table t = MakeKvTable({0, 1});
  t.BufferInsert(Row{{Value(std::int64_t{2}), Value(std::int64_t{22})}});
  t.Checkpoint();
  ScanOperator scan(t, {1});
  Batch out = Collect(scan);
  EXPECT_EQ(out.columns[0].i64, (std::vector<std::int64_t>{0, 1, 22}));
  EXPECT_EQ(out.row_ids, (std::vector<RowId>{0, 1, 2}));
}

TEST(ScanTest, InsertsOnlyScanEmitsPostCheckpointRowIds) {
  Table t = MakeKvTable({0, 1, 2, 3});
  ASSERT_TRUE(t.BufferDelete(0).ok());
  t.Checkpoint();
  t.BufferInsert(Row{{Value(std::int64_t{4}), Value(std::int64_t{44})}});
  t.BufferInsert(Row{{Value(std::int64_t{5}), Value(std::int64_t{55})}});
  t.Checkpoint();
  // A range over the appended rows reads exactly the inserts.
  ScanOptions opt;
  opt.ranges = {{3, 5}};
  ScanOperator scan(t, {1}, opt);
  Batch out = Collect(scan);
  EXPECT_EQ(out.columns[0].i64, (std::vector<std::int64_t>{44, 55}));
  // 4 base - 1 delete = 3 surviving; inserts land at 3, 4.
  EXPECT_EQ(out.row_ids, (std::vector<RowId>{3, 4}));
}

TEST(ScanTest, BaseOnlyScanIgnoresPdt) {
  // What the §5 handlers' probe relies on: a scan reads the base columns
  // and never merges the pending deltas, neither deletes nor inserts.
  Table t = MakeKvTable({0, 1, 2});
  ASSERT_TRUE(t.BufferDelete(1).ok());
  t.BufferInsert(Row{{Value(std::int64_t{9}), Value(std::int64_t{9})}});
  ScanOperator scan(t, {1});
  Batch out = Collect(scan);
  EXPECT_EQ(out.columns[0].i64, (std::vector<std::int64_t>{0, 1, 2}));
  EXPECT_EQ(out.row_ids, (std::vector<RowId>{0, 1, 2}));
}

TEST(ScanTest, LargeTableBatchBoundaries) {
  std::vector<std::int64_t> vals(kBatchSize * 2 + 5);
  for (std::size_t i = 0; i < vals.size(); ++i) {
    vals[i] = static_cast<std::int64_t>(i);
  }
  Table t = MakeKvTable(vals);
  ScanOperator scan(t, {1});
  scan.Open();
  Batch b;
  std::size_t total = 0, batches = 0;
  while (scan.Next(&b)) {
    total += b.num_rows();
    ++batches;
    EXPECT_LE(b.num_rows(), kBatchSize);
  }
  EXPECT_EQ(total, vals.size());
  EXPECT_EQ(batches, 3u);
}

TEST(ScanTest, RangesCombinedWithPendingDeletes) {
  Table t = MakeKvTable({0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  ASSERT_TRUE(t.BufferDelete(2).ok());
  ASSERT_TRUE(t.BufferDelete(6).ok());
  t.Checkpoint();
  ScanOptions opt;
  opt.ranges = {{0, 5}, {5, 8}};  // all surviving rows via two ranges
  ScanOperator scan(t, {1}, opt);
  Batch out = Collect(scan);
  EXPECT_EQ(out.columns[0].i64,
            (std::vector<std::int64_t>{0, 1, 3, 4, 5, 7, 8, 9}));
  EXPECT_EQ(out.row_ids, (std::vector<RowId>{0, 1, 2, 3, 4, 5, 6, 7}));
}

}  // namespace
}  // namespace patchindex
