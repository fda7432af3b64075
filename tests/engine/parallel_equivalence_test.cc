// Property tests asserting the morsel-driven executor returns the same
// rows on many workers (small morsels) as on one, and a forced patch
// rewrite the same rows as its unrewritten plan, on generated
// NUC/NSC/NCC tables, across plan shapes, exception rates, and committed
// inserts/modifies/deletes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "engine/engine_test_util.h"
#include "engine/executor.h"
#include "obs/profile.h"
#include "optimizer/rewriter.h"
#include "patchindex/manager.h"
#include "workload/generator.h"

namespace patchindex {
namespace {

OptimizerOptions Forced() {
  OptimizerOptions options;
  options.force_patch_rewrites = true;
  return options;
}

/// StressOptions with zero-branch pruning on or off.
ParallelExecOptions Pruning(bool zero_branch_pruning) {
  ParallelExecOptions options = StressOptions();
  options.zero_branch_pruning = zero_branch_pruning;
  return options;
}

/// Morsels the scan under a patch rewrite (`plan`'s only child) claims
/// when `plan` runs on `pool`: each branch of the rewrite scans the
/// table once, so zero-branch pruning halves the count.
std::uint64_t ScanMorsels(const LogicalNode& plan, ThreadPool& pool,
                          bool zero_branch_pruning) {
  obs::ExecProfile profile;
  ParallelExecOptions options = Pruning(zero_branch_pruning);
  options.profile = &profile;
  ExecutePlan(plan, pool, options);
  const LogicalNode* scan = plan.children[0].get();
  EXPECT_EQ(scan->kind, LogicalNode::Kind::kScan);
  return profile.Find(scan)->morsels.load();
}

/// Zero-branch pruning skips one branch of `plan`'s rewrite when its
/// index holds no patches or only patches (`fires`), and changes nothing
/// otherwise.
void ExpectPruning(const LogicalNode& plan, ThreadPool& pool, bool fires) {
  ASSERT_EQ(fires, plan.pidx->NumPatches() == 0 ||
                       plan.pidx->NumPatches() == plan.pidx->NumRows());
  const std::uint64_t unpruned = ScanMorsels(plan, pool, false);
  const std::uint64_t pruned = ScanMorsels(plan, pool, true);
  ASSERT_GT(pruned, 0u);
  EXPECT_EQ(fires ? pruned * 2 : pruned, unpruned);
}

/// Column `col` of `batch` is ascending.
void ExpectSortedOn(const Batch& batch, std::size_t col) {
  const std::vector<std::int64_t>& v = batch.columns[col].i64;
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
}

TEST(ParallelEquivalenceTest, ChainShapesOnNucTable) {
  ThreadPool pool(4);
  for (double rate : {0.0, 0.05, 0.3, 1.0}) {
    GeneratorConfig config;
    config.num_rows = 3'000;
    config.exception_rate = rate;
    Table t = GenerateNucTable(config);

    ExpectEquivalent(LScan(t, {0, 1}), pool);
    ExpectEquivalent(
        LSelect(LScan(t, {0, 1}), Lt(Col(0), ConstInt(1'000)), 0.3), pool);
    ExpectEquivalent(
        LSelect(LSelect(LScan(t, {0, 1}), Gt(Col(0), ConstInt(100)), 0.9),
                Lt(Col(1), ConstInt(1'000'000)), 0.5),
        pool);
    ExpectEquivalent(
        LProject(LScan(t, {0, 1}),
                 {Add(Col(0), Col(1)), Mul(Col(0), ConstInt(3))}),
        pool);
    ExpectEquivalent(LDistinct(LScan(t, {1}), {0}), pool);
    ExpectEquivalent(LAggregate(LScan(t, {1, 0}), {0},
                                {{AggOp::kCount, 0},
                                 {AggOp::kSum, 1},
                                 {AggOp::kMin, 1},
                                 {AggOp::kMax, 1}}),
                     pool);
  }
}

TEST(ParallelEquivalenceTest, PatchDistinctOnNucAcrossExceptionRates) {
  ThreadPool pool(4);
  for (double rate : {0.0, 0.1, 0.5, 1.0}) {
    GeneratorConfig config;
    config.num_rows = 4'000;
    config.exception_rate = rate;
    Table t = GenerateNucTable(config);
    PatchIndexManager manager;
    manager.CreateIndex(t, 1, ConstraintKind::kNearlyUnique);

    // With and without zero-branch pruning (it fires at e = 0 and 1).
    LogicalPtr plan =
        OptimizePlan(LDistinct(LScan(t, {1}), {0}), manager, Forced());
    ASSERT_EQ(plan->kind, LogicalNode::Kind::kPatchDistinct);
    const Batch expected = RunOneWorker(*LDistinct(LScan(t, {1}), {0}));
    for (bool zbp : {false, true}) {
      ExpectSameRows(expected, ExecutePlan(*plan, pool, Pruning(zbp)));
    }
    ExpectPruning(*plan, pool, rate == 0.0 || rate == 1.0);

    // Through a selection chain (the PatchIndex scan fuses the filter
    // into every morsel's scan).
    const auto filtered_distinct = [&t] {
      return LDistinct(
          LSelect(LScan(t, {1}), Gt(Col(0), ConstInt(-1)), 0.99), {0});
    };
    LogicalPtr filtered =
        OptimizePlan(filtered_distinct(), manager, Forced());
    ASSERT_EQ(filtered->kind, LogicalNode::Kind::kPatchDistinct);
    ExpectEquivalent(filtered, pool, filtered_distinct());
  }
}

TEST(ParallelEquivalenceTest, PatchSortAcrossExceptionRates) {
  ThreadPool pool(4);
  for (double rate : {0.0, 0.05, 0.5, 1.0}) {
    GeneratorConfig config;
    config.num_rows = 3'000;
    config.exception_rate = rate;
    Table t = GenerateNscTable(config);
    PatchIndexManager manager;
    manager.CreateIndex(t, 1, ConstraintKind::kNearlySorted);

    // One sort column: tied rows are identical, so the order is exact.
    // With and without zero-branch pruning (it fires at e = 0 and 1).
    LogicalPtr sorted =
        OptimizePlan(LSort(LScan(t, {1}), {{0, true}}), manager, Forced());
    ASSERT_EQ(sorted->kind, LogicalNode::Kind::kPatchSort);
    const Batch expected = RunOneWorker(*LSort(LScan(t, {1}), {{0, true}}));
    for (bool zbp : {false, true}) {
      ExpectSameOrderedRows(expected,
                            ExecutePlan(*sorted, pool, Pruning(zbp)));
    }
    ExpectSameOrderedRows(expected, RunOneWorker(*sorted));
    // An NSC keeps a sorted subsequence, so only e = 0 prunes here.
    ExpectPruning(*sorted, pool, rate == 0.0);

    // A payload column and a selection: same rows, sorted on the key.
    const auto sort = [&t] {
      return LSort(LSelect(LScan(t, {1, 0}), Lt(Col(1), ConstInt(2'500)),
                           0.8),
                   {{0, true}});
    };
    LogicalPtr plan = OptimizePlan(sort(), manager, Forced());
    ASSERT_EQ(plan->kind, LogicalNode::Kind::kPatchSort);
    const Batch out = ExecutePlan(*plan, pool, StressOptions());
    ExpectSortedOn(out, 0);
    ExpectSameRows(RunOneWorker(*sort()), out);
  }

  // Only patches: a modified row is a patch, so modifying every row
  // leaves the constraint-satisfying branch empty and zero-branch pruning
  // sorts the whole input plainly.
  GeneratorConfig config;
  config.num_rows = 3'000;
  config.exception_rate = 0.05;
  Table t = GenerateNscTable(config);
  PatchIndexManager manager;
  manager.CreateIndex(t, 1, ConstraintKind::kNearlySorted);
  Rng rng(17);
  for (RowId r = 0; r < t.num_rows(); ++r) {
    ASSERT_TRUE(t.BufferModify(r, 1,
                               Value(static_cast<std::int64_t>(
                                   rng.Uniform(0, 100'000))))
                    .ok());
  }
  ASSERT_TRUE(manager.CommitUpdateQuery(t).ok());
  LogicalPtr sorted =
      OptimizePlan(LSort(LScan(t, {1}), {{0, true}}), manager, Forced());
  ASSERT_EQ(sorted->kind, LogicalNode::Kind::kPatchSort);
  const Batch expected = RunOneWorker(*LSort(LScan(t, {1}), {{0, true}}));
  for (bool zbp : {false, true}) {
    ExpectSameOrderedRows(expected, ExecutePlan(*sorted, pool, Pruning(zbp)));
  }
  ExpectPruning(*sorted, pool, true);
}

TEST(ParallelEquivalenceTest, NccDistinctCollapsesToConstantPlusPatches) {
  ThreadPool pool(4);
  Rng rng(11);
  Table t(Schema({{"key", ColumnType::kInt64}, {"val", ColumnType::kInt64}}));
  for (std::int64_t i = 0; i < 3'000; ++i) {
    const std::int64_t v =
        rng.NextBool(0.9) ? 7 : static_cast<std::int64_t>(rng.Uniform(0, 50));
    t.AppendRow(Row{{Value(i), Value(v)}});
  }
  PatchIndexManager manager;
  manager.CreateIndex(t, 1, ConstraintKind::kNearlyConstant);

  LogicalPtr plan =
      OptimizePlan(LDistinct(LScan(t, {1}), {0}), manager, Forced());
  ASSERT_EQ(plan->kind, LogicalNode::Kind::kPatchDistinct);
  ExpectEquivalent(plan, pool, LDistinct(LScan(t, {1}), {0}));
}

/// One buffered delta kind per round, committed through the §5 protocol
/// before the reads: many workers must reproduce the one-worker result,
/// and a forced rewrite the rows of its unrewritten plan.
TEST(ParallelEquivalenceTest, RandomizedPendingDeltaSweep) {
  ThreadPool pool(4);
  Rng rng(23);
  for (int round = 0; round < 12; ++round) {
    GeneratorConfig config;
    config.num_rows = 2'000 + rng.Uniform(0, 2'000);
    config.exception_rate = rng.NextDouble();
    config.seed = 1'000 + round;
    Table t = round % 2 == 0 ? GenerateNucTable(config)
                             : GenerateNscTable(config);
    PatchIndexManager manager;
    manager.CreateIndex(t, 1,
                        round % 2 == 0 ? ConstraintKind::kNearlyUnique
                                       : ConstraintKind::kNearlySorted);

    const int kind = static_cast<int>(rng.Uniform(0, 2));
    if (kind == 0) {
      for (int i = 0; i < 64; ++i) {
        t.BufferInsert(MakeGeneratorRow(
            static_cast<std::int64_t>(config.num_rows) + i,
            2'000'000'000 + round * 1'000 + i));
      }
    } else if (kind == 1) {
      std::set<RowId> victims;
      while (victims.size() < 64) {
        victims.insert(rng.Uniform(0, t.num_rows() - 1));
      }
      for (RowId r : victims) ASSERT_TRUE(t.BufferDelete(r).ok());
    } else {
      for (int i = 0; i < 64; ++i) {
        ASSERT_TRUE(t.BufferModify(rng.Uniform(0, t.num_rows() - 1), 1,
                                   Value(static_cast<std::int64_t>(
                                       rng.Uniform(0, 5'000))))
                        .ok());
      }
    }
    ASSERT_TRUE(manager.CommitUpdateQuery(t).ok()) << "round " << round;

    ExpectEquivalent(LScan(t, {0, 1}), pool);
    ExpectEquivalent(
        LSelect(LScan(t, {0, 1}),
                Lt(Col(1), ConstInt(static_cast<std::int64_t>(
                               rng.Uniform(0, 2'000'000)))),
                0.5),
        pool);
    ExpectEquivalent(LAggregate(LScan(t, {1, 0}), {0},
                                {{AggOp::kCount, 0}, {AggOp::kMax, 1}}),
                     pool);

    // The maintained index covers every committed row, so a forced
    // rewrite returns the rows of its unrewritten plan, and PatchSort
    // returns them sorted.
    if (round % 2 == 0) {
      LogicalPtr plan =
          OptimizePlan(LDistinct(LScan(t, {1}), {0}), manager, Forced());
      ASSERT_EQ(plan->kind, LogicalNode::Kind::kPatchDistinct);
      ExpectEquivalent(plan, pool, LDistinct(LScan(t, {1}), {0}));
    } else {
      LogicalPtr plan = OptimizePlan(LSort(LScan(t, {1}), {{0, true}}),
                                     manager, Forced());
      ASSERT_EQ(plan->kind, LogicalNode::Kind::kPatchSort);
      ExpectEquivalent(plan, pool, LSort(LScan(t, {1}), {{0, true}}));
      ExpectSortedOn(ExecutePlan(*plan, pool, StressOptions()), 0);
    }
  }
}

/// Committed updates through the §5 protocol keep one-worker and
/// many-worker runs equivalent as well (the index state changes between
/// rounds).
TEST(ParallelEquivalenceTest, CommittedUpdateStream) {
  ThreadPool pool(4);
  Rng rng(31);
  GeneratorConfig config;
  config.num_rows = 3'000;
  config.exception_rate = 0.1;
  Table t = GenerateNucTable(config);
  PatchIndexManager manager;
  PatchIndex* idx = manager.CreateIndex(t, 1, ConstraintKind::kNearlyUnique);

  for (int step = 0; step < 6; ++step) {
    const int op = static_cast<int>(rng.Uniform(0, 2));
    if (op == 0) {
      for (int i = 0; i < 32; ++i) {
        t.BufferInsert(MakeGeneratorRow(
            static_cast<std::int64_t>(t.num_rows()) + i,
            3'000'000'000LL + step * 100 + i));
      }
    } else if (op == 1) {
      std::set<RowId> victims;
      while (victims.size() < 16) {
        victims.insert(rng.Uniform(0, t.num_rows() - 1));
      }
      for (RowId r : victims) ASSERT_TRUE(t.BufferDelete(r).ok());
    } else {
      for (int i = 0; i < 16; ++i) {
        ASSERT_TRUE(t.BufferModify(rng.Uniform(0, t.num_rows() - 1), 1,
                                   Value(static_cast<std::int64_t>(
                                       rng.Uniform(0, 100'000'000))))
                        .ok());
      }
    }
    ASSERT_TRUE(manager.CommitUpdateQuery(t).ok()) << "step " << step;
    ASSERT_TRUE(idx->CheckInvariant()) << "step " << step;

    LogicalPtr plan =
        OptimizePlan(LDistinct(LScan(t, {1}), {0}), manager, Forced());
    ASSERT_EQ(plan->kind, LogicalNode::Kind::kPatchDistinct);
    ExpectEquivalent(plan, pool, LDistinct(LScan(t, {1}), {0}));
  }
}

}  // namespace
}  // namespace patchindex
