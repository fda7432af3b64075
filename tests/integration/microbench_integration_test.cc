// Integration tests mirroring the paper's §6.2 microbenchmark setups:
// distinct/sort queries over generated datasets with PatchIndexes vs the
// materialization baselines, including partitioned execution with a final
// merge, and update streams against all approaches.

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "baselines/materialized_view.h"
#include "baselines/sort_key.h"
#include "engine/executor.h"
#include "exec/sort_merge.h"
#include "patchindex/manager.h"
#include "workload/generator.h"

namespace patchindex {
namespace {

PatchIndexOptions IdxOptions(PatchSetDesign design = PatchSetDesign::kBitmap) {
  PatchIndexOptions o;
  o.design = design;
  o.bitmap_options.shard_size_bits = 1024;
  return o;
}

TEST(MicrobenchIntegrationTest, DistinctAgreesAcrossAllApproaches) {
  GeneratorConfig cfg;
  cfg.num_rows = 30'000;
  cfg.exception_rate = 0.2;
  Table t = GenerateNucTable(cfg);

  // Reference: plain distinct.
  PatchIndexManager empty;
  Batch ref = PlanQuery(LDistinct(LScan(t, {1}), {0}), empty);
  std::vector<std::int64_t> expect = ref.columns[0].i64;
  std::sort(expect.begin(), expect.end());

  // Materialized view.
  DistinctMaterializedView mv(t, 1);
  Batch mv_out = Collect(*mv.QueryPlan());
  std::vector<std::int64_t> mv_vals = mv_out.columns[0].i64;
  std::sort(mv_vals.begin(), mv_vals.end());
  EXPECT_EQ(mv_vals, expect);

  // PatchIndex, both designs.
  for (PatchSetDesign design :
       {PatchSetDesign::kBitmap, PatchSetDesign::kIdentifier}) {
    PatchIndexManager mgr;
    mgr.CreateIndex(t, 1, ConstraintKind::kNearlyUnique, IdxOptions(design));
    OptimizerOptions forced;
    forced.force_patch_rewrites = true;
    Batch out = PlanQuery(LDistinct(LScan(t, {1}), {0}), mgr, forced);
    std::vector<std::int64_t> vals = out.columns[0].i64;
    std::sort(vals.begin(), vals.end());
    EXPECT_EQ(vals, expect);
  }
}

TEST(MicrobenchIntegrationTest, SortAgreesAcrossAllApproaches) {
  GeneratorConfig cfg;
  cfg.num_rows = 20'000;
  cfg.exception_rate = 0.3;
  Table t = GenerateNscTable(cfg);
  std::vector<std::int64_t> expect = t.column(1).i64_data();
  std::sort(expect.begin(), expect.end());

  PatchIndexManager mgr;
  mgr.CreateIndex(t, 1, ConstraintKind::kNearlySorted, IdxOptions());
  OptimizerOptions forced;
  forced.force_patch_rewrites = true;
  Batch out = PlanQuery(LSort(LScan(t, {1}), {{0, true}}), mgr, forced);
  EXPECT_EQ(out.columns[0].i64, expect);

  // SortKey baseline (on a copy, since it physically reorders).
  Table copy = GenerateNscTable(cfg);
  SortKey sk(&copy, 1);
  Batch sk_out = Collect(*sk.QueryPlan());
  EXPECT_EQ(sk_out.columns[1].i64, expect);
}

TEST(MicrobenchIntegrationTest, PartitionedSortWithFinalMerge) {
  // Partition-local PatchIndex sort plans combined by a k-way merge
  // preserve the global order (paper §6.2: "an additional merge step of
  // the tuples from each partition is necessary").
  GeneratorConfig cfg;
  cfg.num_rows = 8'000;
  cfg.exception_rate = 0.2;
  auto pt = GenerateNscPartitioned(cfg, 4);
  PatchIndexManager mgr;
  mgr.CreatePartitionedIndex(*pt, 1, ConstraintKind::kNearlySorted,
                             IdxOptions());
  OptimizerOptions forced;
  forced.force_patch_rewrites = true;

  std::vector<Batch> partition_runs;
  std::vector<std::int64_t> expect;
  for (std::size_t p = 0; p < pt->num_partitions(); ++p) {
    partition_runs.push_back(PlanQuery(
        LSort(LScan(pt->partition(p), {1}), {{0, true}}), mgr, forced));
    const auto& vals = pt->partition(p).column(1).i64_data();
    expect.insert(expect.end(), vals.begin(), vals.end());
  }
  std::sort(expect.begin(), expect.end());

  Batch out = MergeSortedBatches(std::move(partition_runs), {{0, true}});
  EXPECT_EQ(out.columns[0].i64, expect);
}

TEST(MicrobenchIntegrationTest, UpdateStreamKeepsQueriesCorrect) {
  GeneratorConfig cfg;
  cfg.num_rows = 5'000;
  cfg.exception_rate = 0.5;
  Table t = GenerateNucTable(cfg);
  PatchIndexManager mgr;
  PatchIndex* idx =
      mgr.CreateIndex(t, 1, ConstraintKind::kNearlyUnique, IdxOptions());
  OptimizerOptions forced;
  forced.force_patch_rewrites = true;

  // Trickle inserts in small batches (the paper's granularity sweep).
  std::int64_t next_key = static_cast<std::int64_t>(t.num_rows());
  for (int batch = 0; batch < 20; ++batch) {
    for (int i = 0; i < 5; ++i) {
      // Half fresh values, half collisions with the duplicate domain.
      const std::int64_t v = (i % 2 == 0)
                                 ? 2'000'000'000 + next_key
                                 : static_cast<std::int64_t>(i % 50);
      t.BufferInsert(MakeGeneratorRow(next_key++, v));
    }
    ASSERT_TRUE(mgr.CommitUpdateQuery(t).ok());
  }
  ASSERT_TRUE(idx->CheckInvariant());

  // The distinct query over the updated table is still exact.
  PatchIndexManager empty;
  Batch ref = PlanQuery(LDistinct(LScan(t, {1}), {0}), empty);
  Batch out = PlanQuery(LDistinct(LScan(t, {1}), {0}), mgr, forced);
  std::vector<std::int64_t> a = ref.columns[0].i64;
  std::vector<std::int64_t> b = out.columns[0].i64;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace patchindex
