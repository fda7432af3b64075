// Tests for the PatchIndex query rewrites (paper §3.3 Figure 2): rewritten
// plans must return the same results as the plain plans, ZBP must prune,
// and the cost model must gate the rewrite.

#include "optimizer/rewriter.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "engine/engine_test_util.h"
#include "engine/executor.h"

namespace patchindex {
namespace {

Schema KvSchema() {
  return Schema({{"key", ColumnType::kInt64}, {"val", ColumnType::kInt64}});
}

Table MakeTable(const std::vector<std::int64_t>& vals) {
  Table t(KvSchema());
  for (std::size_t i = 0; i < vals.size(); ++i) {
    t.AppendRow(Row{{Value(static_cast<std::int64_t>(i)), Value(vals[i])}});
  }
  return t;
}

/// Runs an optimized plan on four workers over small morsels.
Batch RunOnFourWorkers(const LogicalPtr& plan) {
  ThreadPool pool(4);
  return ExecutePlan(*plan, pool, StressOptions());
}

PatchIndexOptions SmallIdx() {
  PatchIndexOptions o;
  o.bitmap_options.shard_size_bits = 256;
  return o;
}

std::vector<std::int64_t> SortedCol0(const Batch& out) {
  std::vector<std::int64_t> v = out.columns[0].i64;
  std::sort(v.begin(), v.end());
  return v;
}

TEST(RewriterDistinctTest, RewrittenPlanMatchesPlain) {
  Rng rng(5);
  std::vector<std::int64_t> vals;
  for (int i = 0; i < 3000; ++i) {
    vals.push_back(static_cast<std::int64_t>(rng.Uniform(0, 400)));
  }
  Table t = MakeTable(vals);
  PatchIndexManager mgr;
  mgr.CreateIndex(t, 1, ConstraintKind::kNearlyUnique, SmallIdx());

  OptimizerOptions opt;
  opt.force_patch_rewrites = true;
  LogicalPtr logical = LDistinct(LScan(t, {1}), {0});
  LogicalPtr optimized = OptimizePlan(logical, mgr, opt);
  EXPECT_EQ(optimized->kind, LogicalNode::Kind::kPatchDistinct);
  Batch patched = RunOnFourWorkers(optimized);

  PatchIndexManager empty;
  Batch plain = PlanQuery(LDistinct(LScan(t, {1}), {0}), empty);
  EXPECT_EQ(SortedCol0(patched), SortedCol0(plain));
}

TEST(RewriterDistinctTest, NoIndexNoRewrite) {
  Table t = MakeTable({1, 2, 2});
  PatchIndexManager mgr;  // empty
  OptimizerOptions opt;
  opt.force_patch_rewrites = true;
  LogicalPtr optimized = OptimizePlan(LDistinct(LScan(t, {1}), {0}), mgr, opt);
  EXPECT_EQ(optimized->kind, LogicalNode::Kind::kDistinct);
}

TEST(RewriterDistinctTest, ZeroBranchPruningOnPerfectConstraint) {
  Table t = MakeTable({5, 3, 8, 1});  // all unique -> 0 patches
  PatchIndexManager mgr;
  mgr.CreateIndex(t, 1, ConstraintKind::kNearlyUnique, SmallIdx());
  OptimizerOptions opt;
  opt.force_patch_rewrites = true;
  Batch plan = PlanQuery(LDistinct(LScan(t, {1}), {0}), mgr, opt);
  EXPECT_EQ(SortedCol0(plan), (std::vector<std::int64_t>{1, 3, 5, 8}));
}

TEST(RewriterDistinctTest, WorksThroughSelectionChain) {
  Table t = MakeTable({1, 2, 2, 3, 3, 3, 4});
  PatchIndexManager mgr;
  mgr.CreateIndex(t, 1, ConstraintKind::kNearlyUnique, SmallIdx());
  OptimizerOptions opt;
  opt.force_patch_rewrites = true;
  LogicalPtr plan = LDistinct(
      LSelect(LScan(t, {1}), Ge(Col(0), ConstInt(2)), 0.8), {0});
  LogicalPtr optimized = OptimizePlan(plan, mgr, opt);
  EXPECT_EQ(optimized->kind, LogicalNode::Kind::kPatchDistinct);
  Batch op = RunOnFourWorkers(optimized);
  EXPECT_EQ(SortedCol0(op), (std::vector<std::int64_t>{2, 3, 4}));
}

TEST(RewriterSortTest, RewrittenSortIsGloballySorted) {
  Rng rng(9);
  // Mostly sorted data with random exceptions.
  std::vector<std::int64_t> vals;
  for (int i = 0; i < 2000; ++i) {
    vals.push_back(rng.NextBool(0.2)
                       ? static_cast<std::int64_t>(rng.Uniform(0, 5000))
                       : static_cast<std::int64_t>(i * 2));
  }
  Table t = MakeTable(vals);
  PatchIndexManager mgr;
  PatchIndex* idx =
      mgr.CreateIndex(t, 1, ConstraintKind::kNearlySorted, SmallIdx());
  ASSERT_GT(idx->NumPatches(), 0u);

  OptimizerOptions opt;
  opt.force_patch_rewrites = true;
  LogicalPtr optimized =
      OptimizePlan(LSort(LScan(t, {1}), {{0, true}}), mgr, opt);
  EXPECT_EQ(optimized->kind, LogicalNode::Kind::kPatchSort);
  Batch out = RunOnFourWorkers(optimized);
  ASSERT_EQ(out.num_rows(), vals.size());
  EXPECT_TRUE(std::is_sorted(out.columns[0].i64.begin(),
                             out.columns[0].i64.end()));
  std::vector<std::int64_t> expect = vals;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(out.columns[0].i64, expect);
}

TEST(RewriterSortTest, DescendingSortNotRewritten) {
  Table t = MakeTable({1, 2, 3});
  PatchIndexManager mgr;
  mgr.CreateIndex(t, 1, ConstraintKind::kNearlySorted, SmallIdx());
  OptimizerOptions opt;
  opt.force_patch_rewrites = true;
  LogicalPtr optimized =
      OptimizePlan(LSort(LScan(t, {1}), {{0, false}}), mgr, opt);
  EXPECT_EQ(optimized->kind, LogicalNode::Kind::kSort);
}

// Join fixture: dimension table "orders" sorted by key; fact table
// "lineitem" nearly sorted on the foreign key.
struct JoinFixture {
  Table orders;
  Table lineitem;

  JoinFixture() : orders(KvSchema()), lineitem(KvSchema()) {
    Rng rng(21);
    for (std::int64_t k = 0; k < 500; ++k) {
      orders.AppendRow(Row{{Value(k), Value(k * 100)}});
    }
    // lineitem: 1..4 rows per order key, mostly ascending, 10% exceptions.
    std::int64_t pos = 0;
    for (std::int64_t k = 0; k < 500; ++k) {
      const int copies = 1 + static_cast<int>(rng.Uniform(0, 3));
      for (int c = 0; c < copies; ++c) {
        const std::int64_t key =
            rng.NextBool(0.1) ? static_cast<std::int64_t>(rng.Uniform(0, 499))
                              : k;
        lineitem.AppendRow(Row{{Value(key), Value(pos++)}});
      }
    }
  }
};

TEST(RewriterJoinTest, PatchJoinMatchesHashJoin) {
  JoinFixture f;
  PatchIndexManager mgr;
  mgr.CreateIndex(f.lineitem, 0, ConstraintKind::kNearlySorted, SmallIdx());

  auto build_logical = [&] {
    return LJoin(LScan(f.orders, {0, 1}, /*sorted_col=*/0),
                 LScan(f.lineitem, {0, 1}), /*left_key=*/0,
                 /*right_key=*/0);
  };
  OptimizerOptions opt;
  opt.force_patch_rewrites = true;
  LogicalPtr optimized = OptimizePlan(build_logical(), mgr, opt);
  ASSERT_EQ(optimized->kind, LogicalNode::Kind::kPatchJoin);
  Batch patched = RunOnFourWorkers(optimized);

  PatchIndexManager empty;
  Batch plain = PlanQuery(build_logical(), empty);

  const Batch& a = patched;
  const Batch& b = plain;
  ASSERT_EQ(a.num_rows(), b.num_rows());
  // Compare as multisets of (order key, lineitem val).
  auto key_of = [](const Batch& batch, std::size_t i) {
    return batch.columns[0].i64[i] * 1000000 + batch.columns[3].i64[i];
  };
  std::vector<std::int64_t> ka, kb;
  for (std::size_t i = 0; i < a.num_rows(); ++i) ka.push_back(key_of(a, i));
  for (std::size_t i = 0; i < b.num_rows(); ++i) kb.push_back(key_of(b, i));
  std::sort(ka.begin(), ka.end());
  std::sort(kb.begin(), kb.end());
  EXPECT_EQ(ka, kb);
}

TEST(RewriterJoinTest, RequiresSortedX) {
  JoinFixture f;
  PatchIndexManager mgr;
  mgr.CreateIndex(f.lineitem, 0, ConstraintKind::kNearlySorted, SmallIdx());
  OptimizerOptions opt;
  opt.force_patch_rewrites = true;
  // X not marked sorted -> no rewrite.
  LogicalPtr optimized = OptimizePlan(
      LJoin(LScan(f.orders, {0, 1}), LScan(f.lineitem, {0, 1}), 0, 0), mgr,
      opt);
  EXPECT_EQ(optimized->kind, LogicalNode::Kind::kJoin);
}

TEST(RewriterJoinTest, ZeroBranchPruningUsesPureMergeJoin) {
  // Perfectly sorted fact table: with ZBP the plan degenerates to the
  // merge branch alone.
  Table orders(KvSchema());
  Table lineitem(KvSchema());
  for (std::int64_t k = 0; k < 100; ++k) {
    orders.AppendRow(Row{{Value(k), Value(k)}});
    lineitem.AppendRow(Row{{Value(k), Value(k * 2)}});
    lineitem.AppendRow(Row{{Value(k), Value(k * 2 + 1)}});
  }
  PatchIndexManager mgr;
  PatchIndex* idx = mgr.CreateIndex(lineitem, 0,
                                    ConstraintKind::kNearlySorted, SmallIdx());
  ASSERT_EQ(idx->NumPatches(), 0u);
  OptimizerOptions opt;
  opt.force_patch_rewrites = true;
  Batch plan = PlanQuery(
      LJoin(LScan(orders, {0, 1}, 0), LScan(lineitem, {0, 1}), 0, 0), mgr,
      opt);
  EXPECT_EQ(plan.num_rows(), 200u);
}

TEST(RewriterDistinctTest, ZeroBranchPruningAtFullExceptionRate) {
  // e = 1: every row is a patch, so the *excluded* subtree is the empty
  // one — generalized ZBP collapses the plan to a plain aggregation.
  Table t = MakeTable({7, 7, 7, 8, 8});
  PatchIndexManager mgr;
  PatchIndex* idx =
      mgr.CreateIndex(t, 1, ConstraintKind::kNearlyUnique, SmallIdx());
  ASSERT_EQ(idx->NumPatches(), t.num_rows());
  OptimizerOptions opt;
  opt.force_patch_rewrites = true;
  Batch plan = PlanQuery(LDistinct(LScan(t, {1}), {0}), mgr, opt);
  EXPECT_EQ(SortedCol0(plan), (std::vector<std::int64_t>{7, 8}));
}

TEST(RewriterSortTest, ZeroBranchPruningAtFullExceptionRate) {
  Table t = MakeTable({5, 4, 3, 2, 1});  // fully reversed: e = 1 - 1/n
  PatchIndexManager mgr;
  mgr.CreateIndex(t, 1, ConstraintKind::kNearlySorted, SmallIdx());
  OptimizerOptions opt;
  opt.force_patch_rewrites = true;
  Batch plan = PlanQuery(LSort(LScan(t, {1}), {{0, true}}), mgr, opt);
  EXPECT_EQ(plan.columns[0].i64, (std::vector<std::int64_t>{1, 2, 3, 4, 5}));
}

TEST(CostModelTest, DistinctRewritePaysOffAtLowExceptionRates) {
  CostModel cm;
  EXPECT_TRUE(cm.ShouldRewriteDistinct(1e6, 0.05));
  EXPECT_TRUE(cm.ShouldRewriteDistinct(1e6, 0.5));
  // At e = 1 the rewrite only adds overhead.
  EXPECT_FALSE(cm.ShouldRewriteDistinct(1e6, 1.0));
}

TEST(CostModelTest, JoinRewriteDependsOnJoinSize) {
  CostModel cm;
  // Large join, low exception rate: rewrite wins (paper Q3).
  EXPECT_TRUE(cm.ShouldRewriteJoin(1e7, 1e6, 0.05));
  // Tiny join (paper Q12 after selections): overhead dominates.
  EXPECT_FALSE(cm.ShouldRewriteJoin(1e3, 1e6, 0.10));
}

TEST(CostModelTest, SortRewriteScalesWithExceptionRate) {
  CostModel cm;
  EXPECT_TRUE(cm.ShouldRewriteSort(1e6, 0.1));
  EXPECT_LT(cm.SortPatched(1e6, 0.1), cm.SortPatched(1e6, 0.9));
}

TEST(PlanPropertiesTest, SortednessPropagation) {
  Table orders = MakeTable({0, 1, 2});
  Table fact = MakeTable({0, 1, 2});
  // Scan sorted on col 0.
  LogicalPtr scan = LScan(orders, {0, 1}, 0);
  EXPECT_EQ(SortedOutputColumn(*scan), 0);
  // Selection preserves.
  LogicalPtr sel = LSelect(scan, Ge(Col(1), ConstInt(0)), 1.0);
  EXPECT_EQ(SortedOutputColumn(*sel), 0);
  // Hash join preserves the probe (right) side's order.
  LogicalPtr join = LJoin(LScan(fact, {0}), sel, 0, 0);
  EXPECT_EQ(SortedOutputColumn(*join), 1);  // offset by left width 1
  // Projection remaps.
  LogicalPtr proj = LProject(sel, {Col(1), Col(0)});
  EXPECT_EQ(SortedOutputColumn(*proj), 1);
  // Aggregation destroys order.
  EXPECT_EQ(SortedOutputColumn(*LDistinct(sel, {0})), -1);
}

TEST(PlanPropertiesTest, OutputTypes) {
  Table t = MakeTable({1});
  LogicalPtr plan = LAggregate(LScan(t, {0, 1}), {0},
                               {{AggOp::kCount}, {AggOp::kSum, 1}});
  EXPECT_EQ(LogicalOutputTypes(*plan),
            (std::vector<ColumnType>{ColumnType::kInt64, ColumnType::kInt64,
                                     ColumnType::kInt64}));
}

}  // namespace
}  // namespace patchindex
