// Partition-local engine tests: PartitionedTable as the catalog's storage
// unit, SQL `CREATE TABLE ... PARTITIONS n`, global-rowID DML routing,
// per-partition index creation, per-partition sortedness inference, and
// many-workers-vs-one equivalence for partitioned scans, aggregates and
// joins — including pending PDT deltas on both join sides (the §3.2
// "partitioning is transparent to query processing" claim).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "engine/engine.h"
#include "engine/engine_test_util.h"
#include "engine/executor.h"
#include "optimizer/rewriter.h"

namespace patchindex {
namespace {

Schema KvSchema() {
  return Schema({{"key", ColumnType::kInt64}, {"val", ColumnType::kInt64}});
}

Row KvRow(std::int64_t key, std::int64_t val) {
  return Row{{Value(key), Value(val)}};
}

TEST(PartitionedEngineTest, SqlCreateTableWithPartitionsRoutesDml) {
  Engine engine;
  Session session = engine.CreateSession();

  ASSERT_TRUE(
      session.Sql("CREATE TABLE t (k INT64, v INT64) PARTITIONS 4").ok());
  const PartitionedTable* pt = engine.catalog().FindPartitionedTable("t");
  ASSERT_NE(pt, nullptr);
  EXPECT_EQ(pt->num_partitions(), 4u);
  // The single-table view refuses multi-partition entries.
  EXPECT_EQ(engine.catalog().FindTable("t"), nullptr);
  // Re-creating fails.
  EXPECT_EQ(session.Sql("CREATE TABLE t (x INT64)").status().code(),
            StatusCode::kAlreadyExists);

  // Inserts spread over the partitions.
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(session
                    .Sql("INSERT INTO t VALUES (" + std::to_string(i) + ", " +
                         std::to_string(i * 10) + ")")
                    .ok());
  }
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(pt->partition(p).num_rows(), 8u) << p;
  }

  // UPDATE/DELETE route by global rowID back to the owning partitions.
  Result<QueryResult> upd = session.Sql("UPDATE t SET v = 0 WHERE k >= 16");
  ASSERT_TRUE(upd.ok());
  EXPECT_EQ(upd.value().rows_affected, 16u);
  Result<QueryResult> del = session.Sql("DELETE FROM t WHERE k < 4");
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del.value().rows_affected, 4u);
  EXPECT_EQ(pt->num_rows(), 28u);

  Batch rows = session.Sql("SELECT k, v FROM t ORDER BY k").value().rows;
  ASSERT_EQ(rows.num_rows(), 28u);
  for (std::size_t r = 0; r < rows.num_rows(); ++r) {
    const std::int64_t k = rows.columns[0].i64[r];
    EXPECT_EQ(k, static_cast<std::int64_t>(r) + 4);
    EXPECT_EQ(rows.columns[1].i64[r], k >= 16 ? 0 : k * 10);
  }
}

TEST(PartitionedEngineTest, SessionDefaultPartitionsApplyWithoutClause) {
  EngineOptions options;
  options.default_table_partitions = 3;
  Engine engine(options);
  Session session = engine.CreateSession();
  ASSERT_TRUE(session.Sql("CREATE TABLE d (k INT64)").ok());
  ASSERT_TRUE(session.Sql("CREATE TABLE e (k INT64) PARTITIONS 1").ok());
  EXPECT_EQ(engine.catalog().FindPartitionedTable("d")->num_partitions(), 3u);
  EXPECT_EQ(engine.catalog().FindPartitionedTable("e")->num_partitions(), 1u);
  // An explicit single partition keeps the plain-table view.
  EXPECT_NE(engine.catalog().FindTable("e"), nullptr);
}

TEST(PartitionedEngineTest, PartitionedAndSingleTableSqlAgree) {
  // The same data in a 6-partition and a 1-partition table must answer
  // every query identically, through the whole SQL + executor stack.
  Engine part_engine;
  Engine flat_engine;
  Session part_session = part_engine.CreateSession();
  Session flat_session = flat_engine.CreateSession();
  ASSERT_TRUE(
      part_session.Sql("CREATE TABLE t (k INT64, v INT64) PARTITIONS 6")
          .ok());
  ASSERT_TRUE(flat_session.Sql("CREATE TABLE t (k INT64, v INT64)").ok());

  Rng rng(77);
  std::string values;
  for (int i = 0; i < 500; ++i) {
    if (i > 0) values += ", ";
    values += "(" + std::to_string(i) + ", " +
              std::to_string(rng.Uniform(0, 50)) + ")";
  }
  ASSERT_TRUE(part_session.Sql("INSERT INTO t VALUES " + values).ok());
  ASSERT_TRUE(flat_session.Sql("INSERT INTO t VALUES " + values).ok());

  for (const char* sql : {
           "SELECT k, v FROM t WHERE v < 25 ORDER BY k",
           "SELECT v, COUNT(*), SUM(k) FROM t GROUP BY v ORDER BY v",
           "SELECT DISTINCT v FROM t ORDER BY v",
           "SELECT COUNT(*) FROM t",
           "SELECT v, AVG(k) FROM t GROUP BY v ORDER BY v",
       }) {
    Result<QueryResult> a = part_session.Sql(sql);
    Result<QueryResult> b = flat_session.Sql(sql);
    ASSERT_TRUE(a.ok()) << sql << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << sql << ": " << b.status().ToString();
    ASSERT_EQ(a.value().rows.num_rows(), b.value().rows.num_rows()) << sql;
    for (std::size_t c = 0; c < a.value().rows.columns.size(); ++c) {
      const ColumnVector& ca = a.value().rows.columns[c];
      const ColumnVector& cb = b.value().rows.columns[c];
      for (std::size_t r = 0; r < a.value().rows.num_rows(); ++r) {
        if (ca.type == ColumnType::kDouble) {
          EXPECT_DOUBLE_EQ(ca.f64[r], cb.f64[r]) << sql;
        } else {
          EXPECT_EQ(ca.i64[r], cb.i64[r]) << sql;
        }
      }
    }
  }
}

TEST(PartitionedEngineTest, ParallelScanAggregateEquivalenceWithDeltas) {
  ThreadPool pool(4);
  Rng rng(13);
  PartitionedTable pt(KvSchema(), 5);
  for (std::int64_t i = 0; i < 4'000; ++i) {
    pt.AppendRow(KvRow(i, static_cast<std::int64_t>(rng.Uniform(0, 300))));
  }
  // Deltas in some partitions, committed partition-locally before the
  // reads: inserts in 0 and 3, deletes in 1, modifies in 2. Partition 4
  // stays clean, so the partitions end up with different row counts.
  for (int i = 0; i < 40; ++i) {
    pt.partition(0).BufferInsert(KvRow(10'000 + i, 7));
    pt.partition(3).BufferInsert(KvRow(20'000 + i, 9));
  }
  std::set<RowId> victims;
  while (victims.size() < 50) {
    victims.insert(rng.Uniform(0, pt.partition(1).num_rows() - 1));
  }
  for (RowId r : victims) ASSERT_TRUE(pt.partition(1).BufferDelete(r).ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(pt.partition(2)
                    .BufferModify(rng.Uniform(0, pt.partition(2).num_rows() - 1),
                                  1, Value(std::int64_t{-5}))
                    .ok());
  }
  PatchIndexManager manager;
  ASSERT_TRUE(manager.CommitUpdateQuery(pt, &pool).ok());

  ExpectEquivalent(LScan(pt, {0, 1}), pool);
  ExpectEquivalent(
      LSelect(LScan(pt, {0, 1}), Lt(Col(1), ConstInt(150)), 0.5), pool);
  ExpectEquivalent(
      LProject(LScan(pt, {0, 1}), {Add(Col(0), Col(1)), Col(1)}), pool);
  ExpectEquivalent(LAggregate(LScan(pt, {1, 0}), {0},
                              {{AggOp::kCount, 0},
                               {AggOp::kSum, 1},
                               {AggOp::kMin, 1},
                               {AggOp::kMax, 1}}),
                   pool);
  ExpectEquivalent(LDistinct(LScan(pt, {1}), {0}), pool);
  // Sort root: per-worker local sorts + k-way merge across partitions.
  ExpectEquivalent(LSort(LScan(pt, {0, 1}), {{1, true}, {0, true}}), pool);
}

TEST(PartitionedEngineTest, ParallelJoinEquivalenceWithDeltasOnBothSides) {
  ThreadPool pool(4);
  Rng rng(29);
  // Fact side: 4 partitions; dimension side: 3 partitions.
  PartitionedTable fact(KvSchema(), 4);
  for (std::int64_t i = 0; i < 5'000; ++i) {
    fact.AppendRow(KvRow(static_cast<std::int64_t>(rng.Uniform(0, 400)),
                         i));
  }
  PartitionedTable dim(KvSchema(), 3);
  for (std::int64_t k = 0; k < 400; ++k) {
    dim.AppendRow(KvRow(k, k * 1'000));
  }

  // Deltas on BOTH sides, committed before the reads: inserts + deletes
  // on the fact, inserts + modifies on the dimension. One delta kind per
  // partition (the §5 update-query model), different kinds across
  // partitions.
  for (int i = 0; i < 60; ++i) {
    fact.partition(i % 3)  // partitions 0..2; partition 3 holds deletes
        .BufferInsert(KvRow(rng.Uniform(0, 400), 100'000 + i));
  }
  std::set<RowId> victims;
  while (victims.size() < 40) {
    victims.insert(rng.Uniform(0, fact.partition(3).num_rows() - 1));
  }
  for (RowId r : victims) ASSERT_TRUE(fact.partition(3).BufferDelete(r).ok());
  for (int k = 0; k < 20; ++k) {
    dim.partition(k % 2)  // partitions 0/1; partition 2 holds modifies
        .BufferInsert(KvRow(400 + k, 900'000 + k));
  }
  for (int i = 0; i < 15; ++i) {
    ASSERT_TRUE(dim.partition(2)
                    .BufferModify(rng.Uniform(0, dim.partition(2).num_rows() - 1),
                                  1, Value(std::int64_t{-1}))
                    .ok());
  }
  PatchIndexManager manager;
  ASSERT_TRUE(manager.CommitUpdateQuery(fact, &pool).ok());
  ASSERT_TRUE(manager.CommitUpdateQuery(dim, &pool).ok());

  // Plain join, join under selections, and join + grouped aggregate.
  ExpectEquivalent(LJoin(LScan(dim, {0, 1}), LScan(fact, {0, 1}), 0, 0),
                   pool);
  ExpectEquivalent(
      LJoin(LSelect(LScan(dim, {0, 1}), Lt(Col(0), ConstInt(300)), 0.7),
            LSelect(LScan(fact, {0, 1}), Gt(Col(1), ConstInt(500)), 0.8), 0,
            0),
      pool);
  ExpectEquivalent(
      LAggregate(LJoin(LScan(dim, {0, 1}), LScan(fact, {0, 1}), 0, 0), {0},
                 {{AggOp::kCount, 0}, {AggOp::kMax, 3}}),
      pool);
}

TEST(PartitionedEngineTest, PerPartitionIndexesServeDistinctQueries) {
  Engine engine;
  Session session = engine.CreateSession();
  ASSERT_TRUE(
      session.Sql("CREATE TABLE t (k INT64, v INT64) PARTITIONS 3").ok());
  std::string values;
  for (int i = 0; i < 900; ++i) {
    if (i > 0) values += ", ";
    values += "(" + std::to_string(i) + ", " + std::to_string(i % 37) + ")";
  }
  ASSERT_TRUE(session.Sql("INSERT INTO t VALUES " + values).ok());

  // One NUC index per partition (on k: unique within each partition).
  ASSERT_TRUE(
      session.CreatePatchIndex("t", 0, ConstraintKind::kNearlyUnique).ok());
  EXPECT_EQ(engine.catalog().manager().num_indexes(), 3u);
  const PartitionedTable* pt = engine.catalog().FindPartitionedTable("t");
  for (const PatchIndex* idx : engine.catalog().manager().IndexesOn(*pt)) {
    EXPECT_EQ(idx->NumRows(), idx->table().num_rows());
    EXPECT_TRUE(idx->CheckInvariant());
  }

  // Queries stay correct; updates keep the per-partition indexes
  // maintained through the partition-local commit.
  ASSERT_TRUE(session.Sql("DELETE FROM t WHERE k < 30").ok());
  for (const PatchIndex* idx : engine.catalog().manager().IndexesOn(*pt)) {
    EXPECT_EQ(idx->NumRows(), idx->table().num_rows());
    EXPECT_TRUE(idx->CheckInvariant());
  }
  Batch distinct = session.Sql("SELECT DISTINCT v FROM t").value().rows;
  EXPECT_EQ(distinct.num_rows(), 37u);

  // DROP TABLE drops every per-partition index.
  ASSERT_TRUE(engine.catalog().DropTable("t").ok());
  EXPECT_EQ(engine.catalog().manager().num_indexes(), 0u);
}

TEST(PartitionedEngineTest, SortednessInferredPerPartitionWhenAligned) {
  // Partition-local NSC proofs lift to a global sortedness annotation
  // only when the partition boundaries line up with the global rowID
  // order.
  PartitionedTable aligned(KvSchema(), 2);
  for (std::int64_t i = 0; i < 100; ++i) {
    aligned.partition(i < 50 ? 0 : 1).AppendRow(KvRow(i, i));
  }
  PatchIndexManager manager;
  manager.CreatePartitionedIndex(aligned, 0, ConstraintKind::kNearlySorted);

  LogicalPtr plan = OptimizePlan(LScan(aligned, {0, 1}), manager, {});
  EXPECT_EQ(plan->scan_sorted_col, 0);

  // Same data round-robined: each partition is sorted, but the
  // boundaries interleave — no global claim may be made.
  PartitionedTable interleaved(KvSchema(), 2);
  for (std::int64_t i = 0; i < 100; ++i) {
    interleaved.partition(i % 2).AppendRow(KvRow(i, i));
  }
  PatchIndexManager manager2;
  manager2.CreatePartitionedIndex(interleaved, 0,
                                  ConstraintKind::kNearlySorted);
  LogicalPtr plan2 = OptimizePlan(LScan(interleaved, {0, 1}), manager2, {});
  EXPECT_EQ(plan2->scan_sorted_col, -1);
}

TEST(PartitionedEngineTest, PartitionCountIsCapped) {
  Engine engine;
  Session session = engine.CreateSession();
  // An absurd PARTITIONS value fails with a status, not bad_alloc.
  Result<QueryResult> r =
      session.Sql("CREATE TABLE t (k INT64) PARTITIONS 4000000000");
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.catalog()
                .CreatePartitionedTable("t", KvSchema(),
                                        Catalog::kMaxPartitions + 1)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(engine.catalog()
                  .CreatePartitionedTable("t", KvSchema(), 16)
                  .ok());
}

TEST(PartitionedEngineTest, CreatePatchIndexRepairsPartialCoverage) {
  Engine engine;
  Session session = engine.CreateSession();
  ASSERT_TRUE(
      session.Sql("CREATE TABLE t (k INT64, v INT64) PARTITIONS 3").ok());
  std::string values;
  for (int i = 0; i < 90; ++i) {
    if (i > 0) values += ", ";
    values += "(" + std::to_string(i) + ", " + std::to_string(i) + ")";
  }
  ASSERT_TRUE(session.Sql("INSERT INTO t VALUES " + values).ok());
  ASSERT_TRUE(
      session.CreatePatchIndex("t", 0, ConstraintKind::kNearlyUnique).ok());
  ASSERT_EQ(engine.catalog().manager().num_indexes(), 3u);
  // Full coverage: re-creating is an error.
  EXPECT_EQ(session.CreatePatchIndex("t", 0, ConstraintKind::kNearlyUnique)
                .code(),
            StatusCode::kAlreadyExists);

  // Simulate a commit-failure drop of one partition's index; re-creating
  // must fill exactly the gap instead of failing forever.
  const PartitionedTable* pt = engine.catalog().FindPartitionedTable("t");
  std::vector<PatchIndex*> indexes = engine.catalog().manager().IndexesOn(*pt);
  ASSERT_EQ(indexes.size(), 3u);
  ASSERT_TRUE(engine.catalog().manager().DropIndex(indexes[1]));
  ASSERT_EQ(engine.catalog().manager().num_indexes(), 2u);

  ASSERT_TRUE(
      session.CreatePatchIndex("t", 0, ConstraintKind::kNearlyUnique).ok());
  EXPECT_EQ(engine.catalog().manager().num_indexes(), 3u);
  // Every partition is covered again, each index consistent.
  std::vector<bool> covered(3, false);
  for (const PatchIndex* idx : engine.catalog().manager().IndexesOn(*pt)) {
    for (std::size_t p = 0; p < 3; ++p) {
      if (&idx->table() == &pt->partition(p)) covered[p] = true;
    }
    EXPECT_TRUE(idx->CheckInvariant());
  }
  EXPECT_EQ(covered, std::vector<bool>(3, true));
}

TEST(PartitionedEngineTest, ExecuteUpdateValidatesAgainstGlobalRowIds) {
  Engine engine;
  Session session = engine.CreateSession();
  ASSERT_TRUE(
      session.Sql("CREATE TABLE t (k INT64, v INT64) PARTITIONS 2").ok());
  ASSERT_TRUE(session.Sql("INSERT INTO t VALUES (0, 0), (1, 1), (2, 2)").ok());

  // Global rowIDs 0..2 exist; 3 is out of range across all partitions.
  EXPECT_TRUE(session.ExecuteUpdate("t", UpdateQuery::Delete({2})).ok());
  EXPECT_EQ(session.ExecuteUpdate("t", UpdateQuery::Delete({3})).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(
      session
          .ExecuteUpdate("t", UpdateQuery::Modify(
                                  {{5, 1, Value(std::int64_t{1})}}))
          .code(),
      StatusCode::kOutOfRange);
  EXPECT_EQ(engine.catalog().FindPartitionedTable("t")->num_rows(), 2u);
}

}  // namespace
}  // namespace patchindex
