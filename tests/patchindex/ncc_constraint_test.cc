// Tests for the nearly-constant-column extension (paper §5.5 / §7 future
// work): discovery, update handling, invariants, and the distinct rewrite
// that collapses the non-patch subtree into a single constant row.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "engine/executor.h"
#include "patchindex/discovery.h"
#include "patchindex/manager.h"
#include "patchindex/ncc_constraint.h"
#include "patchindex/patch_set.h"

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

PatchIndexOptions SmallOptions() {
  PatchIndexOptions o;
  o.bitmap_options.shard_size_bits = 256;
  return o;
}

TEST(NccDiscoveryTest, MajorityValueIsTheConstant) {
  Column c(ColumnType::kInt64);
  for (std::int64_t v : {7, 7, 3, 7, 9, 7}) c.AppendInt64(v);
  auto d = DiscoverNccPatches(c);
  ASSERT_TRUE(d.has_constant);
  EXPECT_EQ(d.constant, 7);
  EXPECT_EQ(d.patches, (std::vector<RowId>{2, 4}));
}

TEST(NccDiscoveryTest, TieBreaksTowardsSmallerValue) {
  Column c(ColumnType::kInt64);
  for (std::int64_t v : {5, 2, 5, 2}) c.AppendInt64(v);
  auto d = DiscoverNccPatches(c);
  EXPECT_EQ(d.constant, 2);
  EXPECT_EQ(d.patches.size(), 2u);
}

TEST(NccDiscoveryTest, EmptyColumn) {
  Column c(ColumnType::kInt64);
  auto d = DiscoverNccPatches(c);
  EXPECT_FALSE(d.has_constant);
  EXPECT_TRUE(d.patches.empty());
}

// Direct tests of the internal update-handling unit (the same shape as
// the NUC/NSC units; PatchIndex::HandleUpdateQuery dispatches to it).

TEST(NccConstraintUnitTest, InsertHandlerDefinesConstantAndMarksPatches) {
  Table t = MakeTable({});
  auto patches = PatchSet::Create(PatchSetDesign::kIdentifier, 0, {});
  std::int64_t constant = 0;
  bool has_constant = false;
  t.BufferInsert(Row{{Value(std::int64_t{0}), Value(std::int64_t{5})}});
  t.BufferInsert(Row{{Value(std::int64_t{1}), Value(std::int64_t{5})}});
  t.BufferInsert(Row{{Value(std::int64_t{2}), Value(std::int64_t{9})}});
  patches->OnAppendRows(3);
  ASSERT_TRUE(internal::NccHandleInsert(t, 1, patches.get(), &constant,
                                        &has_constant)
                  .ok());
  EXPECT_TRUE(has_constant);
  EXPECT_EQ(constant, 5);
  EXPECT_FALSE(patches->IsPatch(0));
  EXPECT_FALSE(patches->IsPatch(1));
  EXPECT_TRUE(patches->IsPatch(2));
}

TEST(NccConstraintUnitTest, ModifyHandlerMarksOnlyDeviatingCells) {
  Table t = MakeTable({4, 4, 4});
  auto patches = PatchSet::Create(PatchSetDesign::kIdentifier, 3, {});
  ASSERT_TRUE(t.BufferModify(0, 1, Value(std::int64_t{4})).ok());   // no-op
  ASSERT_TRUE(t.BufferModify(1, 1, Value(std::int64_t{11})).ok());
  ASSERT_TRUE(t.BufferModify(2, 0, Value(std::int64_t{99})).ok());  // other col
  ASSERT_TRUE(internal::NccHandleModify(t, 1, patches.get(), 4).ok());
  EXPECT_FALSE(patches->IsPatch(0));
  EXPECT_TRUE(patches->IsPatch(1));
  EXPECT_FALSE(patches->IsPatch(2));
}

TEST(NccPatchIndexTest, CreateAndInvariant) {
  Table t = MakeTable({4, 4, 4, 9, 4, 1});
  auto idx = PatchIndex::Create(t, 1, ConstraintKind::kNearlyConstant,
                                SmallOptions());
  EXPECT_EQ(idx->NumPatches(), 2u);
  EXPECT_EQ(idx->constant_value(), 4);
  EXPECT_TRUE(idx->CheckInvariant());
}

TEST(NccPatchIndexTest, InsertHandling) {
  Table t = MakeTable({4, 4, 4});
  PatchIndexManager mgr;
  PatchIndex* idx = mgr.CreateIndex(t, 1, ConstraintKind::kNearlyConstant,
                                    SmallOptions());
  t.BufferInsert(Row{{Value(std::int64_t{3}), Value(std::int64_t{4})}});
  t.BufferInsert(Row{{Value(std::int64_t{4}), Value(std::int64_t{8})}});
  ASSERT_TRUE(mgr.CommitUpdateQuery(t).ok());
  EXPECT_FALSE(idx->IsPatch(3));  // equals the constant
  EXPECT_TRUE(idx->IsPatch(4));
  EXPECT_TRUE(idx->CheckInvariant());
}

TEST(NccPatchIndexTest, ModifyHandling) {
  Table t = MakeTable({4, 4, 4, 4});
  PatchIndexManager mgr;
  PatchIndex* idx = mgr.CreateIndex(t, 1, ConstraintKind::kNearlyConstant,
                                    SmallOptions());
  ASSERT_TRUE(t.BufferModify(1, 1, Value(std::int64_t{99})).ok());
  ASSERT_TRUE(t.BufferModify(2, 1, Value(std::int64_t{4})).ok());  // no-op
  ASSERT_TRUE(mgr.CommitUpdateQuery(t).ok());
  EXPECT_TRUE(idx->IsPatch(1));
  EXPECT_FALSE(idx->IsPatch(2));
  EXPECT_TRUE(idx->CheckInvariant());
}

TEST(NccPatchIndexTest, DeleteHandling) {
  Table t = MakeTable({4, 9, 4, 8});
  PatchIndexManager mgr;
  PatchIndex* idx = mgr.CreateIndex(t, 1, ConstraintKind::kNearlyConstant,
                                    SmallOptions());
  ASSERT_EQ(idx->NumPatches(), 2u);
  ASSERT_TRUE(t.BufferDelete(1).ok());
  ASSERT_TRUE(mgr.CommitUpdateQuery(t).ok());
  EXPECT_EQ(idx->NumPatches(), 1u);
  EXPECT_TRUE(idx->IsPatch(2));  // the 8, shifted down
  EXPECT_TRUE(idx->CheckInvariant());
}

TEST(NccPatchIndexTest, InsertIntoEmptyTableDefinesConstant) {
  Table t(KvSchema());
  PatchIndexManager mgr;
  PatchIndex* idx = mgr.CreateIndex(t, 1, ConstraintKind::kNearlyConstant,
                                    SmallOptions());
  EXPECT_FALSE(idx->has_constant());
  t.BufferInsert(Row{{Value(std::int64_t{0}), Value(std::int64_t{13})}});
  t.BufferInsert(Row{{Value(std::int64_t{1}), Value(std::int64_t{13})}});
  t.BufferInsert(Row{{Value(std::int64_t{2}), Value(std::int64_t{7})}});
  ASSERT_TRUE(mgr.CommitUpdateQuery(t).ok());
  EXPECT_TRUE(idx->has_constant());
  EXPECT_EQ(idx->constant_value(), 13);
  EXPECT_EQ(idx->NumPatches(), 1u);
  EXPECT_TRUE(idx->CheckInvariant());
}

std::vector<std::int64_t> RunDistinct(const Table& t,
                                      const PatchIndexManager& mgr,
                                      const OptimizerOptions& opt) {
  Batch out = PlanQuery(LDistinct(LScan(t, {1}), {0}), mgr, opt);
  std::vector<std::int64_t> v = out.columns[0].i64;
  std::sort(v.begin(), v.end());
  return v;
}

TEST(NccRewriteTest, DistinctCollapsesToConstantPlusPatches) {
  Table t = MakeTable({4, 4, 9, 4, 1, 4, 9});
  PatchIndexManager mgr;
  mgr.CreateIndex(t, 1, ConstraintKind::kNearlyConstant, SmallOptions());
  OptimizerOptions forced;
  forced.force_patch_rewrites = true;
  LogicalPtr optimized = OptimizePlan(LDistinct(LScan(t, {1}), {0}), mgr,
                                      forced);
  EXPECT_EQ(optimized->kind, LogicalNode::Kind::kPatchDistinct);
  PatchIndexManager empty;
  EXPECT_EQ(RunDistinct(t, mgr, forced),
            (std::vector<std::int64_t>{1, 4, 9}));
  EXPECT_EQ(RunDistinct(t, mgr, forced), RunDistinct(t, empty, {}));
}

TEST(NccRewriteTest, PatchHoldingConstantIsDeduplicated) {
  // A patch row modified back to the constant stays a patch (§5.2-style
  // optimality loss); the rewrite must not emit the constant twice.
  Table t = MakeTable({4, 4, 4, 7});
  PatchIndexManager mgr;
  mgr.CreateIndex(t, 1, ConstraintKind::kNearlyConstant, SmallOptions());
  ASSERT_TRUE(t.BufferModify(3, 1, Value(std::int64_t{4})).ok());
  ASSERT_TRUE(mgr.CommitUpdateQuery(t).ok());
  OptimizerOptions forced;
  forced.force_patch_rewrites = true;
  EXPECT_EQ(RunDistinct(t, mgr, forced), (std::vector<std::int64_t>{4}));
}

TEST(NccRewriteTest, ZeroBranchPruningYieldsSingleRow) {
  Table t = MakeTable({6, 6, 6, 6});
  PatchIndexManager mgr;
  PatchIndex* idx = mgr.CreateIndex(t, 1, ConstraintKind::kNearlyConstant,
                                    SmallOptions());
  ASSERT_EQ(idx->NumPatches(), 0u);
  OptimizerOptions opt;
  opt.force_patch_rewrites = true;
  EXPECT_EQ(RunDistinct(t, mgr, opt), (std::vector<std::int64_t>{6}));
}

TEST(NccRewriteTest, NotAppliedThroughSelections) {
  Table t = MakeTable({4, 4, 9});
  PatchIndexManager mgr;
  mgr.CreateIndex(t, 1, ConstraintKind::kNearlyConstant, SmallOptions());
  OptimizerOptions forced;
  forced.force_patch_rewrites = true;
  // A selection may filter every constant row; the rewrite must not fire.
  LogicalPtr plan = LDistinct(
      LSelect(LScan(t, {1}), Gt(Col(0), ConstInt(5)), 0.5), {0});
  LogicalPtr optimized = OptimizePlan(plan, mgr, forced);
  EXPECT_EQ(optimized->kind, LogicalNode::Kind::kDistinct);
}

TEST(NccRewriteTest, RandomUpdateStreamStaysExact) {
  Table t = MakeTable(std::vector<std::int64_t>(500, 42));
  PatchIndexManager mgr;
  PatchIndex* idx = mgr.CreateIndex(t, 1, ConstraintKind::kNearlyConstant,
                                    SmallOptions());
  PatchIndexManager empty;
  OptimizerOptions forced;
  forced.force_patch_rewrites = true;
  Rng rng(3);
  for (int step = 0; step < 30; ++step) {
    const int op = static_cast<int>(rng.Uniform(0, 2));
    if (op == 0) {
      for (int i = 0; i < 5; ++i) {
        const std::int64_t v =
            rng.NextBool(0.7) ? 42 : static_cast<std::int64_t>(
                                         rng.Uniform(0, 100));
        t.BufferInsert(Row{{Value(std::int64_t(1000 + step * 5 + i)),
                            Value(v)}});
      }
    } else if (op == 1) {
      for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(
            t.BufferModify(rng.Uniform(0, t.num_rows() - 1), 1,
                           Value(static_cast<std::int64_t>(
                               rng.Uniform(0, 100))))
                .ok());
      }
    } else {
      std::set<RowId> kill;
      while (kill.size() < 3) kill.insert(rng.Uniform(0, t.num_rows() - 1));
      for (RowId r : kill) ASSERT_TRUE(t.BufferDelete(r).ok());
    }
    ASSERT_TRUE(mgr.CommitUpdateQuery(t).ok()) << step;
    ASSERT_TRUE(idx->CheckInvariant()) << step;
    ASSERT_EQ(RunDistinct(t, mgr, forced), RunDistinct(t, empty, {}))
        << step;
  }
}

}  // namespace
}  // namespace patchindex
