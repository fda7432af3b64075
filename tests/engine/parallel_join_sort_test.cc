// Property tests for the morsel executor's joins and order-bys: results
// on many workers must equal the one-worker run's (exactly for
// Sort-rooted plans, modulo order otherwise), across join shapes —
// multi-way joins and joins over non-chain inputs included — NUC-indexed
// build keys, exception rates, TopN limits, committed inserts/deletes on
// both join sides, and the PatchJoin rewrite against its unrewritten
// plan. Also covers the Session execution-path counters.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "engine/engine.h"
#include "engine/engine_test_util.h"
#include "engine/executor.h"
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

/// A fact table (fk, val) whose fk values are drawn from `dim`'s column
/// `dim_col`, so joins produce matches; every ~8th fk misses.
Table MakeFactTable(const Table& dim, std::size_t dim_col,
                    std::uint64_t rows, std::uint64_t seed) {
  Table fact(
      Schema({{"fk", ColumnType::kInt64}, {"val", ColumnType::kInt64}}));
  Rng rng(seed);
  for (std::uint64_t i = 0; i < rows; ++i) {
    std::int64_t fk;
    if (rng.NextBool(0.125)) {
      fk = -static_cast<std::int64_t>(i) - 1;  // guaranteed miss
    } else {
      fk = dim.column(dim_col).GetInt64(rng.Uniform(0, dim.num_rows() - 1));
    }
    fact.column(0).AppendInt64(fk);
    fact.column(1).AppendInt64(static_cast<std::int64_t>(i));
  }
  return fact;
}

TEST(ParallelJoinTest, JoinShapesMatchSerial) {
  ThreadPool pool(4);
  GeneratorConfig config;
  config.num_rows = 2'000;
  config.exception_rate = 0.2;
  Table dim = GenerateNucTable(config);
  Table fact = MakeFactTable(dim, 1, 6'000, 7);

  // Plain scan join, both key orders.
  ExpectEquivalent(LJoin(LScan(dim, {0, 1}), LScan(fact, {0, 1}), 1, 0),
                   pool);
  ExpectEquivalent(LJoin(LScan(fact, {0, 1}), LScan(dim, {0, 1}), 0, 1),
                   pool);

  // Selections and projections on both children.
  ExpectEquivalent(
      LJoin(LSelect(LScan(dim, {0, 1}), Gt(Col(0), ConstInt(100)), 0.9),
            LProject(LScan(fact, {0, 1}), {Col(0), Add(Col(1), Col(1))}),
            1, 0),
      pool);

  // Select + project above the join (the fused probe pipeline).
  ExpectEquivalent(
      LProject(
          LSelect(LJoin(LScan(dim, {0, 1}), LScan(fact, {0, 1}), 1, 0),
                  Lt(Col(3), ConstInt(3'000)), 0.5),
          {Add(Col(0), Col(3)), Col(1)}),
      pool);

  // Grouping aggregate over the join, merged from per-worker partials.
  ExpectEquivalent(
      LAggregate(LJoin(LScan(dim, {0, 1}), LScan(fact, {0, 1}), 1, 0), {0},
                 {{AggOp::kCount, 0}, {AggOp::kSum, 3}, {AggOp::kMax, 3}}),
      pool);
}

TEST(ParallelJoinTest, NucIndexedBuildKeyAcrossExceptionRates) {
  ThreadPool pool(4);
  for (double rate : {0.0, 0.1, 0.5, 1.0}) {
    GeneratorConfig config;
    config.num_rows = 2'000;
    config.exception_rate = rate;
    Table dim = GenerateNucTable(config);
    Table fact = MakeFactTable(dim, 1, 6'000, 11);
    PatchIndexManager manager;
    manager.CreateIndex(dim, 1, ConstraintKind::kNearlyUnique);

    LogicalPtr plan = OptimizePlan(
        LJoin(LScan(dim, {0, 1}), LScan(fact, {0, 1}), 1, 0), manager,
        Forced());
    ASSERT_EQ(plan->kind, LogicalNode::Kind::kJoin);
    EXPECT_NE(plan->left_key_nuc, nullptr) << "rate " << rate;
    ExpectEquivalent(plan, pool);

    // Through a selection on the indexed side.
    LogicalPtr filtered = OptimizePlan(
        LJoin(LSelect(LScan(dim, {0, 1}), Gt(Col(0), ConstInt(-1)), 0.99),
              LScan(fact, {0, 1}), 1, 0),
        manager, Forced());
    ASSERT_EQ(filtered->kind, LogicalNode::Kind::kJoin);
    EXPECT_NE(filtered->left_key_nuc, nullptr);
    ExpectEquivalent(filtered, pool);
  }
}

/// Inserts and deletes on both join sides, committed before the join
/// reads them: many workers must reproduce the one-worker join, and
/// inserts that duplicate a NUC build key must be the index's patches
/// after the commit, so they take the chained path.
TEST(ParallelJoinTest, PendingDeltasOnBothSides) {
  ThreadPool pool(4);
  Rng rng(29);
  for (int round = 0; round < 6; ++round) {
    GeneratorConfig config;
    config.num_rows = 2'000;
    config.exception_rate = 0.1;
    config.seed = 100 + round;
    Table dim = GenerateNucTable(config);
    Table fact = MakeFactTable(dim, 1, 5'000, 200 + round);
    PatchIndexManager manager;
    manager.CreateIndex(dim, 1, ConstraintKind::kNearlyUnique);

    // Inserts on the dim side duplicate existing build keys and add fresh
    // ones; deletes hit both sides. The dim side commits each delta kind
    // through the §5 protocol (its index must follow), the fact side
    // checkpoints.
    for (int i = 0; i < 32; ++i) {
      const std::int64_t dup =
          dim.column(1).GetInt64(rng.Uniform(0, dim.num_rows() - 1));
      dim.BufferInsert(Row{{Value(static_cast<std::int64_t>(
                                config.num_rows + i)),
                            Value(i % 2 == 0 ? dup : 9'000'000 + i)}});
    }
    ASSERT_TRUE(manager.CommitUpdateQuery(dim).ok());
    std::set<RowId> dim_victims;
    while (dim_victims.size() < 32) {
      dim_victims.insert(rng.Uniform(0, dim.num_rows() - 1));
    }
    for (RowId r : dim_victims) ASSERT_TRUE(dim.BufferDelete(r).ok());
    ASSERT_TRUE(manager.CommitUpdateQuery(dim).ok());

    for (int i = 0; i < 48; ++i) {
      const std::int64_t fk =
          dim.column(1).GetInt64(rng.Uniform(0, dim.num_rows() - 1));
      fact.BufferInsert(Row{{Value(fk), Value(static_cast<std::int64_t>(
                                           100'000 + i))}});
    }
    std::set<RowId> fact_victims;
    while (fact_victims.size() < 48) {
      fact_victims.insert(rng.Uniform(0, fact.num_rows() - 1));
    }
    for (RowId r : fact_victims) ASSERT_TRUE(fact.BufferDelete(r).ok());
    fact.Checkpoint();

    LogicalPtr plan = OptimizePlan(
        LJoin(LScan(dim, {0, 1}), LScan(fact, {0, 1}), 1, 0), manager,
        Forced());
    ASSERT_EQ(plan->kind, LogicalNode::Kind::kJoin);
    EXPECT_NE(plan->left_key_nuc, nullptr);
    ExpectEquivalent(plan, pool);

    // Same deltas, unannotated join (no index consulted).
    ExpectEquivalent(LJoin(LScan(dim, {0, 1}), LScan(fact, {0, 1}), 1, 0),
                     pool);
  }
}

TEST(ParallelSortTest, OrderByMatchesSerialExactly) {
  ThreadPool pool(4);
  GeneratorConfig config;
  config.num_rows = 4'000;
  config.exception_rate = 0.3;
  Table t = GenerateNucTable(config);

  // Unique sort key (col 0): order fully determined.
  ExpectOrderedEquivalent(LSort(LScan(t, {0, 1}), {{0, true}}), pool);
  ExpectOrderedEquivalent(LSort(LScan(t, {0, 1}), {{0, false}}), pool);

  // Duplicated primary key broken by the unique secondary: multi-key
  // comparator, still fully determined.
  ExpectOrderedEquivalent(
      LSort(LScan(t, {1, 0}), {{0, true}, {1, false}}), pool);

  // Through a selection, and over a projection.
  ExpectOrderedEquivalent(
      LSort(LSelect(LScan(t, {0, 1}), Lt(Col(0), ConstInt(2'500)), 0.6),
            {{0, true}}),
      pool);
  ExpectOrderedEquivalent(
      LSort(LProject(LScan(t, {0, 1}), {Sub(Col(0), Col(1)), Col(0)}),
            {{0, true}, {1, true}}),
      pool);
}

TEST(ParallelSortTest, TopNLimitMatchesSerial) {
  ThreadPool pool(4);
  GeneratorConfig config;
  config.num_rows = 4'000;
  Table t = GenerateNucTable(config);

  for (std::size_t limit : {1u, 10u, 1'000u, 4'000u, 10'000u}) {
    ExpectOrderedEquivalent(LSort(LScan(t, {0, 1}), {{0, true}}, limit),
                            pool);
    ExpectOrderedEquivalent(LSort(LScan(t, {0, 1}), {{0, false}}, limit),
                            pool);
  }
}

TEST(ParallelSortTest, SortOverAggregateAndPendingDeltas) {
  ThreadPool pool(4);
  Rng rng(37);
  GeneratorConfig config;
  config.num_rows = 3'000;
  config.exception_rate = 0.4;
  Table t = GenerateNucTable(config);

  // Sort over a grouping aggregate: partial-aggregate parallel, then the
  // merged result (group keys are unique after the merge) is read back
  // as a morsel source and sorted.
  ExpectOrderedEquivalent(
      LSort(LAggregate(LScan(t, {1, 0}), {0},
                       {{AggOp::kCount, 0}, {AggOp::kMax, 1}}),
            {{0, true}}),
      pool);

  // Checkpointed deltas under a sort: deletes then inserts.
  std::set<RowId> victims;
  while (victims.size() < 64) victims.insert(rng.Uniform(0, t.num_rows() - 1));
  for (RowId r : victims) ASSERT_TRUE(t.BufferDelete(r).ok());
  for (int i = 0; i < 64; ++i) {
    t.BufferInsert(MakeGeneratorRow(
        static_cast<std::int64_t>(config.num_rows) + i, 5'000'000 + i));
  }
  t.Checkpoint();
  ExpectOrderedEquivalent(LSort(LScan(t, {0, 1}), {{0, true}}), pool);
  ExpectOrderedEquivalent(LSort(LScan(t, {0, 1}), {{0, true}}, 100), pool);
}

TEST(ParallelSortTest, JoinWithOrderByRunsParallelEndToEnd) {
  ThreadPool pool(4);
  GeneratorConfig config;
  config.num_rows = 2'000;
  config.exception_rate = 0.1;
  Table dim = GenerateNucTable(config);
  Table fact = MakeFactTable(dim, 1, 6'000, 13);

  // ORDER BY the fact's unique val column over the join, tie-broken by
  // the dim's unique key (one fact row can match several dim exception
  // rows): fully determined output order end to end.
  LogicalPtr plan =
      LSort(LJoin(LScan(dim, {0, 1}), LScan(fact, {0, 1}), 1, 0),
            {{3, true}, {0, true}});
  ParallelExecReport report;
  const Batch parallel_out =
      ExecutePlan(*plan, pool, StressOptions(), &report);
  EXPECT_EQ(report.workers, 4u);
  EXPECT_TRUE(report.parallel_join);
  EXPECT_TRUE(report.parallel_sort);
  ExpectSameOrderedRows(RunOneWorker(*plan), parallel_out);

  // TopN over the join.
  ExpectOrderedEquivalent(
      LSort(LJoin(LScan(dim, {0, 1}), LScan(fact, {0, 1}), 1, 0),
            {{3, false}, {0, true}}, 50),
      pool);
}

TEST(ParallelJoinTest, MultiWayJoinsAndNonChainInputs) {
  ThreadPool pool(4);
  GeneratorConfig config;
  config.num_rows = 2'000;
  config.exception_rate = 0.2;
  Table dim = GenerateNucTable(config);
  Table fact = MakeFactTable(dim, 1, 6'000, 19);
  Table other = MakeFactTable(dim, 1, 3'000, 23);

  // Three-way: the inner join's probe pipeline probes the outer build.
  ExpectEquivalent(
      LJoin(LJoin(LScan(dim, {0, 1}), LScan(fact, {0, 1}), 1, 0),
            LScan(other, {0, 1}), 1, 0),
      pool);
  // The inner join as the build side of the outer one.
  ExpectEquivalent(
      LJoin(LScan(other, {0, 1}),
            LJoin(LScan(dim, {0, 1}), LScan(fact, {0, 1}), 1, 0), 0, 1),
      pool);
  // Aggregate over a three-way join.
  ExpectEquivalent(
      LAggregate(LJoin(LJoin(LScan(dim, {0, 1}), LScan(fact, {0, 1}), 1, 0),
                       LScan(other, {0, 1}), 1, 0),
                 {0}, {{AggOp::kCount, 0}, {AggOp::kSum, 5}}),
      pool);
  // A join over an aggregate and over a TopN (executed first, read back
  // as morsel sources).
  ExpectEquivalent(
      LJoin(LAggregate(LScan(fact, {0, 1}), {0}, {{AggOp::kCount, 0}}),
            LScan(dim, {0, 1}), 0, 1),
      pool);
  ExpectEquivalent(
      LJoin(LSort(LScan(fact, {0, 1}), {{1, true}}, 700),
            LScan(dim, {0, 1}), 0, 1),
      pool);
}

/// X (orders, sorted on its key) joined with a fact table nearly sorted
/// on the foreign key, as the PatchJoin rewrite expects.
struct PatchJoinTables {
  Table orders{Schema({{"key", ColumnType::kInt64},
                       {"val", ColumnType::kInt64}})};
  Table lineitem{Schema({{"fk", ColumnType::kInt64},
                         {"pos", ColumnType::kInt64}})};

  PatchJoinTables(double exception_rate, std::uint64_t seed) {
    Rng rng(seed);
    for (std::int64_t k = 0; k < 1'500; ++k) {
      orders.AppendRow(Row{{Value(k), Value(k * 100)}});
    }
    std::int64_t pos = 0;
    for (std::int64_t k = 0; k < 1'500; ++k) {
      const int copies = 1 + static_cast<int>(rng.Uniform(0, 3));
      for (int c = 0; c < copies; ++c) {
        const std::int64_t fk =
            rng.NextBool(exception_rate)
                ? static_cast<std::int64_t>(rng.Uniform(0, 1'700))
                : k;
        lineitem.AppendRow(Row{{Value(fk), Value(pos++)}});
      }
    }
  }
};

TEST(ParallelJoinTest, PatchJoinAcrossExceptionRates) {
  ThreadPool pool(4);
  for (double rate : {0.0, 0.05, 0.5, 1.0}) {
    PatchJoinTables t(rate, 41);
    PatchIndexManager manager;
    manager.CreateIndex(t.lineitem, 0, ConstraintKind::kNearlySorted);
    const auto join = [&t] {
      return LJoin(LScan(t.orders, {0, 1}, /*sorted_col=*/0),
                   LSelect(LScan(t.lineitem, {0, 1}),
                           Lt(Col(1), ConstInt(3'500)), 0.9),
                   0, 0);
    };
    const auto aggregate = [&join] {
      return LAggregate(join(), {0}, {{AggOp::kCount, 0}, {AggOp::kSum, 3}});
    };
    for (bool zbp : {false, true}) {
      LogicalPtr plan = OptimizePlan(join(), manager, Forced());
      ASSERT_EQ(plan->kind, LogicalNode::Kind::kPatchJoin) << rate;
      ParallelExecOptions exec = StressOptions();
      exec.zero_branch_pruning = zbp;
      ParallelExecReport report;
      ExpectSameRows(RunOneWorker(*join()),
                     ExecutePlan(*plan, pool, exec, &report));
      EXPECT_TRUE(report.parallel_join);

      // Aggregate over the PatchJoin: partial aggregates per worker.
      LogicalPtr agg = OptimizePlan(aggregate(), manager, Forced());
      ASSERT_EQ(agg->children[0]->kind, LogicalNode::Kind::kPatchJoin);
      ExpectSameRows(RunOneWorker(*aggregate()),
                     ExecutePlan(*agg, pool, exec));
    }
  }
}

/// The Session-level counters: one query bumps exactly one of
/// serial_fallbacks (one worker throughout) / parallel_pipelines, or the
/// join/sort feature counters when those paths ran.
TEST(ExecPathCounterTest, SessionReportsExecutionPaths) {
  EngineOptions options;
  options.num_threads = 4;
  options.morsel_rows = 1'024;  // 2K-row tables -> 2 morsels
  Engine engine(options);
  GeneratorConfig config;
  config.num_rows = 2'000;
  auto* dim = engine.catalog()
                  .AddTable("dim", std::make_unique<Table>(
                                       GenerateNucTable(config)))
                  .value();
  auto* fact = engine.catalog()
                   .AddTable("fact", std::make_unique<Table>(MakeFactTable(
                                         *dim, 1, 4'000, 17)))
                   .value();

  Session session = engine.CreateSession();
  const ExecPathCounters& counters = session.path_counters();

  // Plain pipeline.
  ASSERT_TRUE(session.Execute(LScan(*dim, {0, 1})).ok());
  EXPECT_EQ(counters.parallel_pipelines.load(), 1u);

  // Join + order-by: both feature counters, not the pipeline counter.
  auto result = session.Execute(
      LSort(LJoin(LScan(*dim, {0, 1}), LScan(*fact, {0, 1}), 1, 0),
            {{3, true}}, 100));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().parallel);
  EXPECT_TRUE(result.value().parallel_join);
  EXPECT_TRUE(result.value().parallel_sort);
  EXPECT_EQ(counters.parallel_joins.load(), 1u);
  EXPECT_EQ(counters.parallel_sorts.load(), 1u);
  EXPECT_EQ(counters.parallel_pipelines.load(), 1u);
  EXPECT_EQ(counters.serial_fallbacks.load(), 0u);

  // A join over an aggregate probes on several workers too.
  auto over_agg = session.Execute(LJoin(
      LAggregate(LScan(*dim, {1}), {0}, {{AggOp::kCount, 0}}),
      LScan(*fact, {0, 1}), 0, 0));
  ASSERT_TRUE(over_agg.ok());
  EXPECT_TRUE(over_agg.value().parallel_join);
  EXPECT_EQ(counters.parallel_joins.load(), 2u);

  // A block-pruned point SELECT reads one morsel: one worker, inline.
  auto point = session.Execute(
      LSelect(LScan(*dim, {0, 1}), Eq(Col(0), ConstInt(5)), 0.001));
  ASSERT_TRUE(point.ok());
  ASSERT_EQ(point.value().rows.num_rows(), 1u);
  EXPECT_FALSE(point.value().parallel);
  EXPECT_EQ(counters.serial_fallbacks.load(), 1u);
}

}  // namespace
}  // namespace patchindex
