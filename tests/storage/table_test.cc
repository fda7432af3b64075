#include "storage/table.h"

#include <gtest/gtest.h>

namespace patchindex {
namespace {

Schema TwoColSchema() {
  return Schema({{"key", ColumnType::kInt64}, {"val", ColumnType::kInt64}});
}

Row MakeRow(std::int64_t k, std::int64_t v) {
  return Row{{Value(k), Value(v)}};
}

TEST(SchemaTest, ColumnIndexLookup) {
  Schema s = TwoColSchema();
  EXPECT_EQ(s.ColumnIndex("key"), 0);
  EXPECT_EQ(s.ColumnIndex("val"), 1);
  EXPECT_LT(s.ColumnIndex("missing"), 0);
}

TEST(TableTest, AppendAndRead) {
  Table t(TwoColSchema());
  for (int i = 0; i < 10; ++i) t.AppendRow(MakeRow(i, i * 10));
  EXPECT_EQ(t.num_rows(), 10u);
  EXPECT_EQ(t.column(1).GetInt64(3), 30);
  EXPECT_EQ(t.ColumnByName("val")->GetInt64(4), 40);
  EXPECT_EQ(t.ColumnByName("nope"), nullptr);
}

TEST(TableTest, BufferedInsertVisibleBeforeCheckpoint) {
  Table t(TwoColSchema());
  t.AppendRow(MakeRow(1, 10));
  t.BufferInsert(MakeRow(2, 20));
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.VisibleCell(1, 1), Value(std::int64_t{20}));
  t.Checkpoint();
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.column(1).GetInt64(1), 20);
  EXPECT_TRUE(t.pdt().empty());
}

TEST(TableTest, BufferedDeleteShiftsVisibleRows) {
  Table t(TwoColSchema());
  for (int i = 0; i < 5; ++i) t.AppendRow(MakeRow(i, i * 10));
  ASSERT_TRUE(t.BufferDelete(1).ok());
  ASSERT_TRUE(t.BufferDelete(3).ok());
  // Visible rows: base 0, 2, 4.
  EXPECT_EQ(t.VisibleCell(0, 0), Value(std::int64_t{0}));
  EXPECT_EQ(t.VisibleCell(1, 0), Value(std::int64_t{2}));
  EXPECT_EQ(t.VisibleCell(2, 0), Value(std::int64_t{4}));
  t.Checkpoint();
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.column(0).GetInt64(1), 2);
}

TEST(TableTest, BufferedModifyAppliedOnScanAndCheckpoint) {
  Table t(TwoColSchema());
  for (int i = 0; i < 3; ++i) t.AppendRow(MakeRow(i, i));
  ASSERT_TRUE(t.BufferModify(1, 1, Value(std::int64_t{99})).ok());
  EXPECT_EQ(t.VisibleCell(1, 1), Value(std::int64_t{99}));
  EXPECT_EQ(t.column(1).GetInt64(1), 1);  // base unchanged pre-checkpoint
  t.Checkpoint();
  EXPECT_EQ(t.column(1).GetInt64(1), 99);
}

TEST(TableTest, MixedDeltasCheckpointOrder) {
  // Modify row 2, delete row 0, insert a new row: after checkpoint the
  // table is [1, 2(modified)] + inserted.
  Table t(TwoColSchema());
  for (int i = 0; i < 3; ++i) t.AppendRow(MakeRow(i, i));
  ASSERT_TRUE(t.BufferModify(2, 1, Value(std::int64_t{222})).ok());
  ASSERT_TRUE(t.BufferDelete(0).ok());
  t.BufferInsert(MakeRow(7, 70));
  EXPECT_EQ(t.VisibleCell(0, 0), Value(std::int64_t{1}));
  EXPECT_EQ(t.VisibleCell(1, 1), Value(std::int64_t{222}));
  EXPECT_EQ(t.VisibleCell(2, 0), Value(std::int64_t{7}));
  t.Checkpoint();
  ASSERT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.column(0).GetInt64(0), 1);
  EXPECT_EQ(t.column(1).GetInt64(1), 222);
  EXPECT_EQ(t.column(0).GetInt64(2), 7);
}

TEST(TableTest, BufferDeleteValidatesRange) {
  Table t(TwoColSchema());
  t.AppendRow(MakeRow(0, 0));
  EXPECT_EQ(t.BufferDelete(5).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(t.BufferModify(5, 0, Value(std::int64_t{1})).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(t.BufferModify(0, 9, Value(std::int64_t{1})).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(t.BufferModify(0, 0, Value("wrong type")).code(),
            StatusCode::kInvalidArgument);
}

TEST(TableTest, DeleteIsIdempotentInPdt) {
  Table t(TwoColSchema());
  for (int i = 0; i < 3; ++i) t.AppendRow(MakeRow(i, i));
  ASSERT_TRUE(t.BufferDelete(1).ok());
  ASSERT_TRUE(t.BufferDelete(1).ok());
  EXPECT_EQ(t.pdt().deletes().size(), 1u);
}

TEST(PartitionedTableTest, PartitionsAreIndependent) {
  PartitionedTable pt(TwoColSchema(), 3);
  EXPECT_EQ(pt.num_partitions(), 3u);
  pt.partition(0).AppendRow(MakeRow(1, 1));
  pt.partition(2).AppendRow(MakeRow(2, 2));
  pt.partition(2).AppendRow(MakeRow(3, 3));
  EXPECT_EQ(pt.num_rows(), 3u);
  EXPECT_EQ(pt.partition(0).num_rows(), 1u);
  EXPECT_EQ(pt.partition(1).num_rows(), 0u);
}

TEST(PartitionedTableTest, AppendRoutesToLeastLoadedPartition) {
  PartitionedTable pt(TwoColSchema(), 3);
  for (int i = 0; i < 7; ++i) pt.AppendRow(MakeRow(i, i));
  // Least-loaded with ties to the lowest index == round-robin from empty.
  EXPECT_EQ(pt.partition(0).num_rows(), 3u);
  EXPECT_EQ(pt.partition(1).num_rows(), 2u);
  EXPECT_EQ(pt.partition(2).num_rows(), 2u);
  EXPECT_EQ(pt.num_rows(), 7u);
}

TEST(PartitionedTableTest, GlobalRowIdsConcatenatePartitions) {
  PartitionedTable pt(TwoColSchema(), 3);
  pt.partition(0).AppendRow(MakeRow(0, 0));
  pt.partition(0).AppendRow(MakeRow(1, 1));
  pt.partition(1).AppendRow(MakeRow(2, 2));
  pt.partition(2).AppendRow(MakeRow(3, 3));
  EXPECT_EQ(pt.partition_base(0), 0u);
  EXPECT_EQ(pt.partition_base(1), 2u);
  EXPECT_EQ(pt.partition_base(2), 3u);
  const auto loc = pt.ResolveRow(2);
  EXPECT_EQ(loc.partition, 1u);
  EXPECT_EQ(loc.local_row, 0u);
  const auto last = pt.ResolveRow(3);
  EXPECT_EQ(last.partition, 2u);
  EXPECT_EQ(last.local_row, 0u);
}

TEST(PartitionedTableTest, BufferInsertCountsPendingInserts) {
  PartitionedTable pt(TwoColSchema(), 2);
  pt.partition(0).AppendRow(MakeRow(0, 0));
  // Partition 1 is emptier, so it gets the first buffered insert; the
  // second balances back to partition 0 because pending inserts count
  // toward the load (1 base+0 pending vs 0 base+1 pending ties, lowest
  // index wins).
  pt.BufferInsert(MakeRow(1, 1));
  pt.BufferInsert(MakeRow(2, 2));
  EXPECT_EQ(pt.partition(1).pdt().inserts().size(), 1u);
  EXPECT_EQ(pt.partition(0).pdt().inserts().size(), 1u);
  EXPECT_FALSE(pt.pdt_empty());
  pt.partition(0).Checkpoint();
  pt.partition(1).Checkpoint();
  EXPECT_TRUE(pt.pdt_empty());
  EXPECT_EQ(pt.num_rows(), 3u);
}

TEST(PartitionedTableTest, AdoptsExistingTables) {
  std::vector<std::unique_ptr<Table>> parts;
  for (int p = 0; p < 2; ++p) {
    auto t = std::make_unique<Table>(TwoColSchema());
    t->AppendRow(MakeRow(p, p));
    parts.push_back(std::move(t));
  }
  PartitionedTable pt(TwoColSchema(), std::move(parts));
  EXPECT_EQ(pt.num_partitions(), 2u);
  EXPECT_EQ(pt.num_rows(), 2u);
  EXPECT_EQ(pt.partition(1).column(0).GetInt64(0), 1);
}

}  // namespace
}  // namespace patchindex
