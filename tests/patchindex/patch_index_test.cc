// End-to-end tests for PatchIndex creation and the §5 update handling:
// inserts (Figure 5 join with DRP), modifies, deletes, the recompute
// monitor, and the constraint invariant under long random update streams.

#include "patchindex/patch_index.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/rng.h"
#include "patchindex/manager.h"
#include "storage/minmax.h"

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

Row InsertRow(std::int64_t key, std::int64_t val) {
  return Row{{Value(key), Value(val)}};
}

PatchIndexOptions SmallOptions(PatchSetDesign design = PatchSetDesign::kBitmap) {
  PatchIndexOptions o;
  o.design = design;
  o.bitmap_options.shard_size_bits = 256;
  o.bitmap_options.parallel = false;
  return o;
}

TEST(PatchIndexCreateTest, NucDiscoversDuplicates) {
  Table t = MakeTable({7, 5, 7, 5, 7, 1});
  auto idx = PatchIndex::Create(t, 1, ConstraintKind::kNearlyUnique,
                                SmallOptions());
  // All occurrences of the duplicated values 7 and 5 are patches (§5.1).
  EXPECT_EQ(idx->NumPatches(), 5u);
  EXPECT_FALSE(idx->IsPatch(5));  // the unique value 1
  EXPECT_TRUE(idx->CheckInvariant());
  EXPECT_NEAR(idx->exception_rate(), 5.0 / 6.0, 1e-9);
}

TEST(PatchIndexCreateTest, NscDiscoversUnsortedRows) {
  Table t = MakeTable({1, 5, 2, 3, 4});
  auto idx = PatchIndex::Create(t, 1, ConstraintKind::kNearlySorted,
                                SmallOptions());
  EXPECT_EQ(idx->NumPatches(), 1u);
  EXPECT_TRUE(idx->IsPatch(1));
  EXPECT_TRUE(idx->CheckInvariant());
  EXPECT_EQ(idx->tail_value(), 4);
}

class NucUpdateTest : public ::testing::TestWithParam<PatchSetDesign> {};

TEST_P(NucUpdateTest, InsertWithoutCollisionAddsNoPatches) {
  Table t = MakeTable({10, 20, 30});
  PatchIndexManager mgr;
  PatchIndex* idx = mgr.CreateIndex(t, 1, ConstraintKind::kNearlyUnique,
                                    SmallOptions(GetParam()));
  t.BufferInsert(InsertRow(3, 40));
  t.BufferInsert(InsertRow(4, 50));
  ASSERT_TRUE(mgr.CommitUpdateQuery(t).ok());
  EXPECT_EQ(t.num_rows(), 5u);
  EXPECT_EQ(idx->NumPatches(), 0u);
  EXPECT_TRUE(idx->CheckInvariant());
}

TEST_P(NucUpdateTest, InsertCollidingWithExistingValuePatchesBothSides) {
  Table t = MakeTable({10, 20, 30});
  PatchIndexManager mgr;
  PatchIndex* idx = mgr.CreateIndex(t, 1, ConstraintKind::kNearlyUnique,
                                    SmallOptions(GetParam()));
  t.BufferInsert(InsertRow(3, 20));  // collides with row 1
  ASSERT_TRUE(mgr.CommitUpdateQuery(t).ok());
  // Paper §5.1: rowIDs of both join sides are merged into the patches.
  EXPECT_TRUE(idx->IsPatch(1));
  EXPECT_TRUE(idx->IsPatch(3));
  EXPECT_EQ(idx->NumPatches(), 2u);
  EXPECT_TRUE(idx->CheckInvariant());
}

TEST_P(NucUpdateTest, DuplicatesWithinTheInsertsAreFound) {
  Table t = MakeTable({10, 20});
  PatchIndexManager mgr;
  PatchIndex* idx = mgr.CreateIndex(t, 1, ConstraintKind::kNearlyUnique,
                                    SmallOptions(GetParam()));
  t.BufferInsert(InsertRow(2, 99));
  t.BufferInsert(InsertRow(3, 99));
  ASSERT_TRUE(mgr.CommitUpdateQuery(t).ok());
  EXPECT_TRUE(idx->IsPatch(2));
  EXPECT_TRUE(idx->IsPatch(3));
  EXPECT_TRUE(idx->CheckInvariant());
}

TEST_P(NucUpdateTest, ModifyCreatingCollisionPatchesBothRows) {
  Table t = MakeTable({10, 20, 30, 40});
  PatchIndexManager mgr;
  PatchIndex* idx = mgr.CreateIndex(t, 1, ConstraintKind::kNearlyUnique,
                                    SmallOptions(GetParam()));
  ASSERT_TRUE(t.BufferModify(0, 1, Value(std::int64_t{30})).ok());
  ASSERT_TRUE(mgr.CommitUpdateQuery(t).ok());
  EXPECT_TRUE(idx->IsPatch(0));
  EXPECT_TRUE(idx->IsPatch(2));
  EXPECT_TRUE(idx->CheckInvariant());
}

TEST_P(NucUpdateTest, ModifyOfOtherColumnIsIgnored) {
  Table t = MakeTable({10, 20});
  PatchIndexManager mgr;
  PatchIndex* idx = mgr.CreateIndex(t, 1, ConstraintKind::kNearlyUnique,
                                    SmallOptions(GetParam()));
  ASSERT_TRUE(t.BufferModify(0, 0, Value(std::int64_t{555})).ok());
  ASSERT_TRUE(mgr.CommitUpdateQuery(t).ok());
  EXPECT_EQ(idx->NumPatches(), 0u);
}

TEST_P(NucUpdateTest, DeleteDropsTrackingInformation) {
  Table t = MakeTable({7, 7, 8, 9});
  PatchIndexManager mgr;
  PatchIndex* idx = mgr.CreateIndex(t, 1, ConstraintKind::kNearlyUnique,
                                    SmallOptions(GetParam()));
  ASSERT_EQ(idx->NumPatches(), 2u);  // both 7s
  ASSERT_TRUE(t.BufferDelete(0).ok());
  ASSERT_TRUE(mgr.CommitUpdateQuery(t).ok());
  // Row 1's patch bit shifted to row 0. The paper accepts the lost
  // optimality (the remaining single 7 stays a patch) but never a wrong
  // result: the invariant must hold.
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(idx->NumPatches(), 1u);
  EXPECT_TRUE(idx->IsPatch(0));
  EXPECT_TRUE(idx->CheckInvariant());
}

INSTANTIATE_TEST_SUITE_P(BothDesigns, NucUpdateTest,
                         ::testing::Values(PatchSetDesign::kBitmap,
                                           PatchSetDesign::kIdentifier),
                         [](const auto& info) {
                           return info.param == PatchSetDesign::kBitmap
                                      ? "Bitmap"
                                      : "Identifier";
                         });

/// Sorted values i * 10 over `blocks` column-summary blocks.
std::vector<std::int64_t> SortedBlocks(std::uint64_t blocks) {
  std::vector<std::int64_t> vals(blocks * Column::kSummaryBlockRows);
  for (std::size_t i = 0; i < vals.size(); ++i) {
    vals[i] = static_cast<std::int64_t>(i) * 10;
  }
  return vals;
}

TEST(NucDrpTest, InsertHandlingPrunesProbeScan) {
  // 16 blocks of sorted values; inserting one colliding value must scan
  // only the one block holding its partner.
  Table t = MakeTable(SortedBlocks(16));
  PatchIndexManager mgr;
  PatchIndex* idx = mgr.CreateIndex(t, 1, ConstraintKind::kNearlyUnique,
                                    SmallOptions());
  t.BufferInsert(InsertRow(16384, 81920));  // collides with row 8192
  ASSERT_TRUE(mgr.CommitUpdateQuery(t).ok());
  EXPECT_TRUE(idx->IsPatch(8192));
  EXPECT_TRUE(idx->IsPatch(16384));
  EXPECT_LT(idx->last_handled_scan_fraction(), 0.1);
}

TEST(NucDrpTest, DisablingDrpScansFullTable) {
  Table t = MakeTable(SortedBlocks(16));
  PatchIndexOptions opt = SmallOptions();
  opt.use_dynamic_range_propagation = false;
  PatchIndexManager mgr;
  PatchIndex* idx =
      mgr.CreateIndex(t, 1, ConstraintKind::kNearlyUnique, opt);
  t.BufferInsert(InsertRow(16384, 81920));
  ASSERT_TRUE(mgr.CommitUpdateQuery(t).ok());
  EXPECT_TRUE(idx->IsPatch(8192));
  EXPECT_DOUBLE_EQ(idx->last_handled_scan_fraction(), 1.0);
}

class NucDrpDifferentialTest
    : public ::testing::TestWithParam<PatchSetDesign> {};

/// A random row that is not a patch. The handlers are exact only for
/// these: modifying or deleting a patch row leaves its partner a patch
/// although its value may now be unique (the optimality loss the paper
/// accepts), so a fresh discovery would differ.
RowId NonPatchRow(const PatchIndex& idx, Rng& rng) {
  for (;;) {
    const RowId r = rng.Uniform(0, idx.NumRows() - 1);
    if (!idx.IsPatch(r)) return r;
  }
}

TEST_P(NucDrpDifferentialTest, PatchSetMatchesRediscoveryAfterEveryCommit) {
  // Ten 1024-row blocks of clustered values (row i holds 3i plus a little
  // noise, so neighbours sometimes collide). Inserts land near one
  // cluster; every modify moves a value outside its block's bounds.
  constexpr std::uint64_t kBlocks = 10;
  Rng rng(2024);
  std::vector<std::int64_t> vals(kBlocks * Column::kSummaryBlockRows);
  for (std::size_t i = 0; i < vals.size(); ++i) {
    vals[i] = static_cast<std::int64_t>(3 * i + rng.Uniform(0, 4));
  }
  const auto domain = static_cast<std::int64_t>(3 * vals.size());
  Table t = MakeTable(vals);
  PatchIndexManager mgr;
  PatchIndex* idx = mgr.CreateIndex(t, 1, ConstraintKind::kNearlyUnique,
                                    SmallOptions(GetParam()));
  std::int64_t next_key = static_cast<std::int64_t>(vals.size());
  int pruned_steps = 0;
  for (int step = 0; step < 60; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const Column& col = t.column(1);
    const std::uint64_t n = t.num_rows();
    const int op = step % 3;
    if (op == 0) {
      const auto center = static_cast<std::int64_t>(rng.Uniform(0, domain));
      for (int k = 0; k < 20; ++k) {
        t.BufferInsert(InsertRow(
            next_key++,
            center + static_cast<std::int64_t>(rng.Uniform(0, 300))));
      }
    } else if (op == 1) {
      // Two rows in distinct blocks move to one value no block covers
      // (above every earlier one), so only their own blocks can find the
      // pair; a third row takes the value of a row outside its block.
      std::shared_ptr<const MinMaxIndex> summary = col.BlockSummary();
      auto block_covers = [&](RowId r, std::int64_t v) {
        const std::uint64_t b = r / summary->block_size();
        return v >= summary->BlockMin(b) && v <= summary->BlockMax(b);
      };
      const std::int64_t fresh = domain + step;
      const RowId a = NonPatchRow(*idx, rng);
      RowId b = NonPatchRow(*idx, rng);
      while (b / summary->block_size() == a / summary->block_size()) {
        b = NonPatchRow(*idx, rng);
      }
      ASSERT_TRUE(t.BufferModify(a, 1, Value(fresh)).ok());
      ASSERT_TRUE(t.BufferModify(b, 1, Value(fresh)).ok());
      for (int attempt = 0; attempt < 64; ++attempt) {
        const RowId c = NonPatchRow(*idx, rng);
        const std::int64_t v = col.GetInt64(rng.Uniform(0, n - 1));
        if (c == a || c == b || block_covers(c, v)) continue;
        ASSERT_TRUE(t.BufferModify(c, 1, Value(v)).ok());
        break;
      }
    } else {
      std::set<RowId> kill;
      while (kill.size() < 5) kill.insert(NonPatchRow(*idx, rng));
      for (RowId r : kill) ASSERT_TRUE(t.BufferDelete(r).ok());
    }
    ASSERT_TRUE(mgr.CommitUpdateQuery(t).ok());
    ASSERT_TRUE(idx->CheckInvariant());
    std::unique_ptr<Table> copy = t.CloneShared();
    auto fresh = PatchIndex::Create(*copy, 1, ConstraintKind::kNearlyUnique,
                                    SmallOptions(GetParam()));
    ASSERT_EQ(idx->patches().PatchRowIds(), fresh->patches().PatchRowIds());
    if (op != 2 && idx->last_handled_scan_fraction() < 1.0) ++pruned_steps;
  }
  EXPECT_GT(pruned_steps, 0);
}

INSTANTIATE_TEST_SUITE_P(BothDesigns, NucDrpDifferentialTest,
                         ::testing::Values(PatchSetDesign::kBitmap,
                                           PatchSetDesign::kIdentifier),
                         [](const auto& info) {
                           return info.param == PatchSetDesign::kBitmap
                                      ? "Bitmap"
                                      : "Identifier";
                         });

TEST(NscUpdateTest, InsertExtendingSortedSequenceAddsNoPatches) {
  Table t = MakeTable({1, 2, 3});
  PatchIndexManager mgr;
  PatchIndex* idx = mgr.CreateIndex(t, 1, ConstraintKind::kNearlySorted,
                                    SmallOptions());
  t.BufferInsert(InsertRow(3, 4));
  t.BufferInsert(InsertRow(4, 5));
  ASSERT_TRUE(mgr.CommitUpdateQuery(t).ok());
  EXPECT_EQ(idx->NumPatches(), 0u);
  EXPECT_EQ(idx->tail_value(), 5);
  EXPECT_TRUE(idx->CheckInvariant());
}

TEST(NscUpdateTest, InsertBelowTailBecomesPatch) {
  Table t = MakeTable({1, 2, 10});
  PatchIndexManager mgr;
  PatchIndex* idx = mgr.CreateIndex(t, 1, ConstraintKind::kNearlySorted,
                                    SmallOptions());
  t.BufferInsert(InsertRow(3, 5));  // below tail 10
  ASSERT_TRUE(mgr.CommitUpdateQuery(t).ok());
  EXPECT_TRUE(idx->IsPatch(3));
  EXPECT_TRUE(idx->CheckInvariant());
}

TEST(NscUpdateTest, PaperOptimalityLossExample) {
  // Paper §5.1: table (1, 2, 10), inserts (3, 4). The globally longest
  // sorted subsequence would be 1,2,3,4 (one patch), but extending from
  // tail 10 patches both inserts. Correctness (invariant) holds anyway.
  Table t = MakeTable({1, 2, 10});
  PatchIndexManager mgr;
  PatchIndex* idx = mgr.CreateIndex(t, 1, ConstraintKind::kNearlySorted,
                                    SmallOptions());
  t.BufferInsert(InsertRow(3, 3));
  t.BufferInsert(InsertRow(4, 4));
  ASSERT_TRUE(mgr.CommitUpdateQuery(t).ok());
  EXPECT_EQ(idx->NumPatches(), 2u);
  EXPECT_TRUE(idx->IsPatch(3));
  EXPECT_TRUE(idx->IsPatch(4));
  EXPECT_TRUE(idx->CheckInvariant());
  EXPECT_EQ(idx->tail_value(), 10);
}

TEST(NscUpdateTest, UnsortedInsertsRunLssAmongThemselves) {
  Table t = MakeTable({1, 2, 3});
  PatchIndexManager mgr;
  PatchIndex* idx = mgr.CreateIndex(t, 1, ConstraintKind::kNearlySorted,
                                    SmallOptions());
  // Candidates above tail 3: 7, 5, 6, 8 -> LSS {5,6,8} (or {7,8} shorter),
  // so exactly one of the four becomes a patch.
  for (std::int64_t v : {7, 5, 6, 8}) {
    t.BufferInsert(InsertRow(100 + v, v));
  }
  ASSERT_TRUE(mgr.CommitUpdateQuery(t).ok());
  EXPECT_EQ(idx->NumPatches(), 1u);
  EXPECT_TRUE(idx->IsPatch(3));  // the leading 7
  EXPECT_EQ(idx->tail_value(), 8);
  EXPECT_TRUE(idx->CheckInvariant());
}

TEST(NscUpdateTest, ModifyPatchesAllModifiedRows) {
  Table t = MakeTable({1, 2, 3, 4});
  PatchIndexManager mgr;
  PatchIndex* idx = mgr.CreateIndex(t, 1, ConstraintKind::kNearlySorted,
                                    SmallOptions());
  ASSERT_TRUE(t.BufferModify(1, 1, Value(std::int64_t{100})).ok());
  ASSERT_TRUE(t.BufferModify(2, 1, Value(std::int64_t{0})).ok());
  ASSERT_TRUE(mgr.CommitUpdateQuery(t).ok());
  EXPECT_TRUE(idx->IsPatch(1));
  EXPECT_TRUE(idx->IsPatch(2));
  EXPECT_EQ(idx->NumPatches(), 2u);
  EXPECT_TRUE(idx->CheckInvariant());
}

TEST(NscUpdateTest, DeleteKeepsInvariant) {
  Table t = MakeTable({1, 9, 2, 3});
  PatchIndexManager mgr;
  PatchIndex* idx = mgr.CreateIndex(t, 1, ConstraintKind::kNearlySorted,
                                    SmallOptions());
  ASSERT_EQ(idx->NumPatches(), 1u);  // value 9
  ASSERT_TRUE(t.BufferDelete(2).ok());
  ASSERT_TRUE(mgr.CommitUpdateQuery(t).ok());
  EXPECT_TRUE(idx->CheckInvariant());
}

TEST(PatchIndexTest, MixedDeltaKindsRejected) {
  Table t = MakeTable({1, 2, 3});
  PatchIndexManager mgr;
  mgr.CreateIndex(t, 1, ConstraintKind::kNearlyUnique, SmallOptions());
  t.BufferInsert(InsertRow(3, 4));
  ASSERT_TRUE(t.BufferDelete(0).ok());
  EXPECT_EQ(mgr.CommitUpdateQuery(t).code(), StatusCode::kInvalidArgument);
}

TEST(PatchIndexTest, PerfectConstraintBecomesApproximateOverTime) {
  // The paper's §6.3 observation: a clean dataset stays updatable and the
  // constraint degrades gracefully instead of updates aborting.
  Table t = MakeTable({1, 2, 3, 4, 5});
  PatchIndexManager mgr;
  PatchIndex* idx = mgr.CreateIndex(t, 1, ConstraintKind::kNearlyUnique,
                                    SmallOptions());
  EXPECT_EQ(idx->NumPatches(), 0u);
  t.BufferInsert(InsertRow(5, 3));
  ASSERT_TRUE(mgr.CommitUpdateQuery(t).ok());
  EXPECT_GT(idx->NumPatches(), 0u);
  EXPECT_GT(idx->exception_rate(), 0.0);
  EXPECT_TRUE(idx->CheckInvariant());
}

TEST(PatchIndexTest, RecomputeThresholdTriggersGlobalRecomputation) {
  Table t = MakeTable({1, 2, 10});
  PatchIndexOptions opt = SmallOptions();
  opt.recompute_threshold = 0.3;
  PatchIndexManager mgr;
  PatchIndex* idx =
      mgr.CreateIndex(t, 1, ConstraintKind::kNearlySorted, opt);
  // The (3, 4) inserts would leave 2/5 = 40% exceptions; the monitor must
  // recompute globally, finding the 1,2,3,4 subsequence (1 patch: the 10).
  t.BufferInsert(InsertRow(3, 3));
  t.BufferInsert(InsertRow(4, 4));
  ASSERT_TRUE(mgr.CommitUpdateQuery(t).ok());
  EXPECT_EQ(idx->NumPatches(), 1u);
  EXPECT_TRUE(idx->IsPatch(2));
  EXPECT_EQ(idx->tail_value(), 4);
}

TEST(PatchIndexTest, RandomUpdateStreamPreservesInvariants) {
  Rng rng(7);
  for (PatchSetDesign design :
       {PatchSetDesign::kBitmap, PatchSetDesign::kIdentifier}) {
    std::vector<std::int64_t> vals;
    for (int i = 0; i < 400; ++i) {
      vals.push_back(static_cast<std::int64_t>(rng.Uniform(0, 600)));
    }
    Table t = MakeTable(vals);
    PatchIndexManager mgr;
    PatchIndex* nuc = mgr.CreateIndex(t, 1, ConstraintKind::kNearlyUnique,
                                      SmallOptions(design));
    PatchIndex* nsc = mgr.CreateIndex(t, 1, ConstraintKind::kNearlySorted,
                                      SmallOptions(design));
    for (int step = 0; step < 40; ++step) {
      const int op = static_cast<int>(rng.Uniform(0, 2));
      const std::uint64_t n = t.num_rows();
      if (op == 0) {
        for (int k = 0; k < 5; ++k) {
          t.BufferInsert(InsertRow(
              static_cast<std::int64_t>(1000 + step * 10 + k),
              static_cast<std::int64_t>(rng.Uniform(0, 800))));
        }
      } else if (op == 1 && n > 0) {
        for (int k = 0; k < 3; ++k) {
          ASSERT_TRUE(t.BufferModify(
                           rng.Uniform(0, n - 1), 1,
                           Value(static_cast<std::int64_t>(
                               rng.Uniform(0, 800))))
                          .ok());
        }
      } else if (n > 10) {
        std::set<RowId> kill;
        while (kill.size() < 4) kill.insert(rng.Uniform(0, n - 1));
        for (RowId r : kill) ASSERT_TRUE(t.BufferDelete(r).ok());
      }
      ASSERT_TRUE(mgr.CommitUpdateQuery(t).ok()) << "step " << step;
      ASSERT_TRUE(nuc->CheckInvariant()) << "NUC step " << step;
      ASSERT_TRUE(nsc->CheckInvariant()) << "NSC step " << step;
      ASSERT_EQ(nuc->patches().NumRows(), t.num_rows());
      ASSERT_EQ(nsc->patches().NumRows(), t.num_rows());
    }
  }
}

}  // namespace
}  // namespace patchindex
