// Maintenance-path tests: block-summary rebuild after deletes, automatic
// bitmap condensing under heavy delete streams, staleness protection in
// the rewriter, and long alternating update sequences.

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "engine/executor.h"
#include "patchindex/manager.h"
#include "workload/generator.h"

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

TEST(MaintenanceTest, NucInsertHandlingWorksAfterDeletes) {
  // Deletes shift rowIDs and drop the column's block summary; the next
  // handling query must rebuild it and still find collisions correctly.
  std::vector<std::int64_t> vals(8192);
  for (int i = 0; i < 8192; ++i) vals[i] = i * 10;
  Table t = MakeTable(vals);
  PatchIndexOptions o;
  o.bitmap_options.shard_size_bits = 128;
  PatchIndexManager mgr;
  PatchIndex* idx = mgr.CreateIndex(t, 1, ConstraintKind::kNearlyUnique, o);

  for (RowId r : {5ull, 1000ull, 2000ull}) {
    ASSERT_TRUE(t.BufferDelete(r).ok());
  }
  ASSERT_TRUE(mgr.CommitUpdateQuery(t).ok());

  // Insert a collision with a value whose row shifted (base row 3000 held
  // 30000; after 3 deletes below it sits at row 2997).
  t.BufferInsert(
      Row{{Value(std::int64_t{9000}), Value(std::int64_t{30000})}});
  ASSERT_TRUE(mgr.CommitUpdateQuery(t).ok());
  EXPECT_TRUE(idx->IsPatch(2997));
  EXPECT_TRUE(idx->IsPatch(8189));  // the inserted row
  EXPECT_TRUE(idx->CheckInvariant());
  // The rebuilt summary still prunes: only a fraction was scanned.
  EXPECT_LT(idx->last_handled_scan_fraction(), 0.2);
}

TEST(MaintenanceTest, AutoCondenseKeepsBitmapUtilizationHigh) {
  std::vector<std::int64_t> vals(4096);
  for (int i = 0; i < 4096; ++i) vals[i] = i;
  Table t = MakeTable(vals);
  PatchIndexOptions o;
  o.bitmap_options.shard_size_bits = 128;
  o.bitmap_options.auto_condense_threshold = 0.8;
  PatchIndexManager mgr;
  PatchIndex* idx = mgr.CreateIndex(t, 1, ConstraintKind::kNearlySorted, o);

  Rng rng(3);
  for (int round = 0; round < 30; ++round) {
    std::set<RowId> kill;
    while (kill.size() < 50) kill.insert(rng.Uniform(0, t.num_rows() - 1));
    for (RowId r : kill) ASSERT_TRUE(t.BufferDelete(r).ok());
    ASSERT_TRUE(mgr.CommitUpdateQuery(t).ok());
    const auto* bps = dynamic_cast<const BitmapPatchSet*>(&idx->patches());
    ASSERT_NE(bps, nullptr);
    ASSERT_GE(bps->bitmap().Utilization(), 0.8) << "round " << round;
    ASSERT_TRUE(idx->CheckInvariant()) << "round " << round;
  }
  EXPECT_EQ(t.num_rows(), 4096u - 30 * 50);
}

TEST(MaintenanceTest, RewriterSkipsStaleIndex) {
  // If the table is updated *without* running the index handlers (e.g. a
  // bulk load bypassing the manager), the index cardinality no longer
  // matches and the rewriter must not use it.
  Table t = MakeTable({1, 2, 2, 3});
  PatchIndexManager mgr;
  mgr.CreateIndex(t, 1, ConstraintKind::kNearlyUnique, {});
  t.AppendRow(Row{{Value(std::int64_t{4}), Value(std::int64_t{2})}});

  OptimizerOptions forced;
  forced.force_patch_rewrites = true;
  LogicalPtr optimized = OptimizePlan(LDistinct(LScan(t, {1}), {0}), mgr,
                                      forced);
  EXPECT_EQ(optimized->kind, LogicalNode::Kind::kDistinct);
}

TEST(MaintenanceTest, AlternatingUpdateKindsAcrossManyQueries) {
  GeneratorConfig cfg;
  cfg.num_rows = 2'000;
  cfg.exception_rate = 0.1;
  Table t = GenerateNscTable(cfg);
  PatchIndexOptions o;
  o.bitmap_options.shard_size_bits = 256;
  PatchIndexManager mgr;
  PatchIndex* idx = mgr.CreateIndex(t, 1, ConstraintKind::kNearlySorted, o);
  Rng rng(8);
  std::int64_t key = 10'000;
  for (int q = 0; q < 60; ++q) {
    switch (q % 3) {
      case 0:
        for (int i = 0; i < 7; ++i) {
          t.BufferInsert(MakeGeneratorRow(
              key++, static_cast<std::int64_t>(rng.Uniform(0, 10'000))));
        }
        break;
      case 1:
        for (int i = 0; i < 4; ++i) {
          ASSERT_TRUE(t.BufferModify(rng.Uniform(0, t.num_rows() - 1), 1,
                                     Value(static_cast<std::int64_t>(
                                         rng.Uniform(0, 10'000))))
                          .ok());
        }
        break;
      case 2: {
        std::set<RowId> kill;
        while (kill.size() < 5) kill.insert(rng.Uniform(0, t.num_rows() - 1));
        for (RowId r : kill) ASSERT_TRUE(t.BufferDelete(r).ok());
        break;
      }
    }
    ASSERT_TRUE(mgr.CommitUpdateQuery(t).ok()) << "query " << q;
    ASSERT_TRUE(idx->CheckInvariant()) << "query " << q;
  }
  // The sort plan over the heavily-updated table is still exactly sorted.
  OptimizerOptions forced;
  forced.force_patch_rewrites = true;
  Batch out = PlanQuery(LSort(LScan(t, {1}), {{0, true}}), mgr, forced);
  ASSERT_EQ(out.num_rows(), t.num_rows());
  EXPECT_TRUE(
      std::is_sorted(out.columns[0].i64.begin(), out.columns[0].i64.end()));
}

}  // namespace
}  // namespace patchindex
