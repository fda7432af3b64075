// Tests for select/project/sort/aggregate/union/reuse operators, the patch
// filter of the PatchIndex scan, the k-way merge of sorted runs, and the
// expression evaluator.

#include <gtest/gtest.h>

#include <memory>

#include "exec/aggregate.h"
#include "exec/expression.h"
#include "exec/project.h"
#include "exec/scan.h"
#include "exec/select.h"
#include "exec/sort.h"
#include "exec/sort_merge.h"
#include "exec_test_util.h"

namespace patchindex {
namespace {

TEST(ExpressionTest, ComparisonsAndBooleans) {
  Batch b = MakeI64Batch({1, 2, 3, 4});
  EXPECT_EQ(Lt(Col(0), ConstInt(3))->Eval(b).i64,
            (std::vector<std::int64_t>{1, 1, 0, 0}));
  EXPECT_EQ(Eq(Col(0), ConstInt(2))->Eval(b).i64,
            (std::vector<std::int64_t>{0, 1, 0, 0}));
  auto pred = And(Gt(Col(0), ConstInt(1)), Le(Col(0), ConstInt(3)));
  EXPECT_EQ(pred->Eval(b).i64, (std::vector<std::int64_t>{0, 1, 1, 0}));
  EXPECT_EQ(Not(Eq(Col(0), ConstInt(1)))->Eval(b).i64,
            (std::vector<std::int64_t>{0, 1, 1, 1}));
}

TEST(ExpressionTest, ArithmeticPromotion) {
  Batch b = MakeI64Batch({2, 4});
  auto e = Mul(Col(0), ConstDouble(1.5));
  ColumnVector v = e->Eval(b);
  EXPECT_EQ(v.type, ColumnType::kDouble);
  EXPECT_DOUBLE_EQ(v.f64[0], 3.0);
  EXPECT_DOUBLE_EQ(v.f64[1], 6.0);
  auto i = Add(Col(0), ConstInt(10));
  EXPECT_EQ(i->Eval(b).i64, (std::vector<std::int64_t>{12, 14}));
}

TEST(ExpressionTest, InListIsDisjunction) {
  Batch b = MakeI64Batch({1, 2, 3, 4, 5});
  auto e = InList(Col(0), {Value(std::int64_t{2}), Value(std::int64_t{5})});
  EXPECT_EQ(e->Eval(b).i64, (std::vector<std::int64_t>{0, 1, 0, 0, 1}));
}

TEST(ExpressionTest, StringComparison) {
  Batch b;
  b.Reset({ColumnType::kString});
  for (const char* s : {"apple", "banana", "cherry"}) {
    b.columns[0].str.push_back(s);
    b.row_ids.push_back(b.row_ids.size());
  }
  EXPECT_EQ(Eq(Col(0), ConstString("banana"))->Eval(b).i64,
            (std::vector<std::int64_t>{0, 1, 0}));
  EXPECT_EQ(Lt(Col(0), ConstString("b"))->Eval(b).i64,
            (std::vector<std::int64_t>{1, 0, 0}));
}

TEST(SelectTest, KeepsMatchingRows) {
  SelectOperator sel(Source(MakeI64Batch({5, 1, 7, 3})),
                     Ge(Col(0), ConstInt(4)));
  Batch out = Collect(sel);
  EXPECT_EQ(out.columns[0].i64, (std::vector<std::int64_t>{5, 7}));
  EXPECT_EQ(out.row_ids, (std::vector<RowId>{0, 2}));
}

TEST(SelectTest, EmptyResult) {
  SelectOperator sel(Source(MakeI64Batch({1, 2})), Gt(Col(0), ConstInt(10)));
  EXPECT_EQ(Collect(sel).num_rows(), 0u);
}

// A RowIdFilter marking even rowIDs as patches.
class EvenRowFilter : public RowIdFilter {
 public:
  std::uint64_t NumRows() const override { return 1u << 20; }
  std::uint64_t NumPatches() const override { return 0; }
  bool IsPatch(RowId row) const override { return row % 2 == 0; }
  void ForEachPatchInRange(
      RowId begin, RowId end,
      const std::function<void(RowId)>& fn) const override {
    for (RowId r = begin + (begin % 2); r < end; r += 2) fn(r);
  }
};

TEST(PatchSelectTest, ExcludeAndUseModesPartitionTheInput) {
  // The PatchIndex scan: the selection is fused into the scan.
  EvenRowFilter filter;
  const Table t = MakeKvTable({10, 11, 12, 13, 14});
  ScanOptions options;
  options.patch_filter = &filter;
  options.patch_mode = PatchSelectMode::kExcludePatches;
  ScanOperator exclude(t, {1}, options);
  Batch ex = Collect(exclude);
  EXPECT_EQ(ex.columns[0].i64, (std::vector<std::int64_t>{11, 13}));

  options.patch_mode = PatchSelectMode::kUsePatches;
  ScanOperator use(t, {1}, options);
  Batch us = Collect(use);
  EXPECT_EQ(us.columns[0].i64, (std::vector<std::int64_t>{10, 12, 14}));
}

TEST(ProjectTest, ComputesExpressions) {
  ProjectOperator proj(Source(MakeI64Batch2({1, 2, 3}, {10, 20, 30})),
                       {Add(Col(0), Col(1)), Col(0)});
  Batch out = Collect(proj);
  EXPECT_EQ(out.columns[0].i64, (std::vector<std::int64_t>{11, 22, 33}));
  EXPECT_EQ(out.columns[1].i64, (std::vector<std::int64_t>{1, 2, 3}));
  EXPECT_EQ(out.row_ids, (std::vector<RowId>{0, 1, 2}));
}

TEST(SortTest, SortsAscendingAndDescending) {
  SortOperator asc(Source(MakeI64Batch({3, 1, 2})), {{0, true}});
  EXPECT_EQ(Collect(asc).columns[0].i64, (std::vector<std::int64_t>{1, 2, 3}));
  SortOperator desc(Source(MakeI64Batch({3, 1, 2})), {{0, false}});
  EXPECT_EQ(Collect(desc).columns[0].i64,
            (std::vector<std::int64_t>{3, 2, 1}));
}

TEST(SortTest, MultiKeySort) {
  SortOperator sort(Source(MakeI64Batch2({2, 1, 2, 1}, {5, 6, 3, 4})),
                    {{0, true}, {1, true}});
  Batch out = Collect(sort);
  EXPECT_EQ(out.columns[0].i64, (std::vector<std::int64_t>{1, 1, 2, 2}));
  EXPECT_EQ(out.columns[1].i64, (std::vector<std::int64_t>{4, 6, 3, 5}));
}

TEST(AggregateTest, DistinctSingleInt64Key) {
  HashAggregateOperator agg(Source(MakeI64Batch({3, 1, 3, 2, 1, 3})), {0});
  Batch out = Collect(agg);
  std::vector<std::int64_t> got = out.columns[0].i64;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<std::int64_t>{1, 2, 3}));
}

TEST(AggregateTest, CountAndSum) {
  HashAggregateOperator agg(
      Source(MakeI64Batch2({1, 2, 1, 2, 1}, {10, 20, 30, 40, 50})), {0},
      {{AggOp::kCount}, {AggOp::kSum, 1}});
  Batch out = Collect(agg);
  ASSERT_EQ(out.num_rows(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    if (out.columns[0].i64[i] == 1) {
      EXPECT_EQ(out.columns[1].i64[i], 3);   // count
      EXPECT_EQ(out.columns[2].i64[i], 90);  // sum 10+30+50
    } else {
      EXPECT_EQ(out.columns[1].i64[i], 2);
      EXPECT_EQ(out.columns[2].i64[i], 60);
    }
  }
}

TEST(AggregateTest, MinMaxAggregates) {
  HashAggregateOperator agg(
      Source(MakeI64Batch2({1, 1, 1}, {7, 3, 5})), {0},
      {{AggOp::kMin, 1}, {AggOp::kMax, 1}});
  Batch out = Collect(agg);
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.columns[1].i64[0], 3);
  EXPECT_EQ(out.columns[2].i64[0], 7);
}

TEST(AggregateTest, GenericMultiColumnKey) {
  Batch in = MakeI64Batch2({1, 1, 2, 1}, {5, 5, 5, 6});
  HashAggregateOperator agg(Source(std::move(in)), {0, 1},
                            {{AggOp::kCount}});
  Batch out = Collect(agg);
  EXPECT_EQ(out.num_rows(), 3u);  // (1,5), (2,5), (1,6)
}

TEST(AggregateTest, DoubleSum) {
  Batch in;
  in.Reset({ColumnType::kInt64, ColumnType::kDouble});
  for (int i = 0; i < 4; ++i) {
    in.columns[0].i64.push_back(i % 2);
    in.columns[1].f64.push_back(1.25);
    in.row_ids.push_back(i);
  }
  HashAggregateOperator agg(Source(std::move(in)), {0}, {{AggOp::kSum, 1}});
  Batch out = Collect(agg);
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(out.columns[1].f64[0], 2.5);
  EXPECT_DOUBLE_EQ(out.columns[1].f64[1], 2.5);
}

/// The k-way merge PatchSort combines its sorted runs with.
std::vector<std::int64_t> MergeRuns(
    const std::vector<std::vector<std::int64_t>>& runs) {
  std::vector<Batch> parts;
  for (const auto& run : runs) parts.push_back(MakeI64Batch(run));
  return MergeSortedBatches(std::move(parts), {{0, true}}).columns[0].i64;
}

TEST(MergeTest, TwoSortedInputs) {
  EXPECT_EQ(MergeRuns({{1, 4, 6}, {2, 3, 5, 7}}),
            (std::vector<std::int64_t>{1, 2, 3, 4, 5, 6, 7}));
}

TEST(MergeTest, HandlesEmptyChild) {
  EXPECT_EQ(MergeRuns({{}, {1, 2}}), (std::vector<std::int64_t>{1, 2}));
}

TEST(MergeTest, DuplicateKeysAcrossInputs) {
  EXPECT_EQ(MergeRuns({{1, 2, 2}, {2, 2, 3}}),
            (std::vector<std::int64_t>{1, 2, 2, 2, 2, 3}));
}

TEST(UnionTest, ConcatenatesChildren) {
  std::vector<OperatorPtr> children;
  children.push_back(Source(MakeI64Batch({1, 2})));
  children.push_back(Source(MakeI64Batch({3})));
  children.push_back(Source(MakeI64Batch({})));
  UnionOperator u(std::move(children));
  EXPECT_EQ(Collect(u).columns[0].i64, (std::vector<std::int64_t>{1, 2, 3}));
}

}  // namespace
}  // namespace patchindex
