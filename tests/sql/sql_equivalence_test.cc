// SQL-vs-handbuilt equivalence: every statement kind the front end
// supports must produce exactly the rows of the equivalent hand-built
// LogicalNode / UpdateQuery program — including under PatchIndex
// rewrites, `?` parameters and the morsel-parallel executor. The
// randomized sweep drives generator-built tables through both paths.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

#include "common/rng.h"
#include "engine/engine.h"
#include "engine/engine_test_util.h"
#include "workload/generator.h"

namespace patchindex {
namespace {

/// Two engines loaded with identical data: one driven via SQL, one via
/// hand-built plans; results must match row-for-row.
class SqlEquivalenceTest : public ::testing::Test {
 protected:
  SqlEquivalenceTest()
      : sql_session_(sql_engine_.CreateSession()),
        hand_session_(hand_engine_.CreateSession()) {}

  /// Registers a copy of the generated table in both engines.
  void Load(const std::string& name, const Table& table,
            std::optional<ConstraintKind> index_col1 = std::nullopt) {
    for (Engine* engine : {&sql_engine_, &hand_engine_}) {
      auto copy = std::make_unique<Table>(table.schema());
      for (RowId r = 0; r < table.num_rows(); ++r) {
        Row row;
        for (std::size_t c = 0; c < table.schema().num_fields(); ++c) {
          row.cells.push_back(table.VisibleCell(r, c));
        }
        copy->AppendRow(row);
      }
      ASSERT_TRUE(
          engine->catalog().AddTable(name, std::move(copy)).ok());
      if (index_col1.has_value()) {
        Session s = engine->CreateSession();
        ASSERT_TRUE(s.CreatePatchIndex(name, 1, *index_col1).ok());
      }
    }
  }

  Batch RunSql(const std::string& sql, std::vector<Value> params = {}) {
    Result<QueryResult> r = sql_session_.Sql(sql, std::move(params));
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(r).value().rows : Batch{};
  }

  Batch RunPlan(LogicalPtr plan) {
    Result<QueryResult> r = hand_session_.Execute(std::move(plan));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(r).value().rows : Batch{};
  }

  const Table& SqlTable(const std::string& name) {
    return *sql_engine_.catalog().FindTable(name);
  }
  const Table& HandTable(const std::string& name) {
    return *hand_engine_.catalog().FindTable(name);
  }

  /// Full-table contents via both engines must agree (used after DML).
  void ExpectTablesEqual(const std::string& name) {
    const Table& a = SqlTable(name);
    const Table& b = HandTable(name);
    ASSERT_EQ(a.num_rows(), b.num_rows());
    std::vector<std::size_t> cols;
    for (std::size_t c = 0; c < a.schema().num_fields(); ++c) {
      cols.push_back(c);
    }
    Batch ba = RunSql("SELECT * FROM " + name);
    Batch bb = RunPlan(LScan(b, cols));
    ExpectSameRows(bb, ba);
  }

  Engine sql_engine_;
  Engine hand_engine_;
  Session sql_session_;
  Session hand_session_;
};

TEST_F(SqlEquivalenceTest, FilterProjectOrderLimit) {
  GeneratorConfig cfg;
  cfg.num_rows = 20'000;
  cfg.exception_rate = 0.1;
  Load("t", GenerateNucTable(cfg));

  ExpectSameRows(
      RunPlan(LSelect(LScan(HandTable("t"), {0, 1}),
                      Lt(Col(0), ConstInt(5'000)), 0.3)),
      RunSql("SELECT key, val FROM t WHERE key < 5000"));

  // ORDER BY ... LIMIT: both paths must agree exactly (sorted output).
  Batch sql = RunSql("SELECT val FROM t WHERE key < 1000 "
                     "ORDER BY val DESC LIMIT 50");
  Batch hand = RunPlan(
      LSort(LSelect(LScan(HandTable("t"), {0, 1}),
                    Lt(Col(0), ConstInt(1'000)), 0.3),
            {{1, false}}, 50));
  // The hand plan keeps both columns; project val for comparison.
  ASSERT_EQ(sql.num_rows(), hand.num_rows());
  for (std::size_t r = 0; r < sql.num_rows(); ++r) {
    EXPECT_EQ(sql.columns[0].i64[r], hand.columns[1].i64[r]);
  }
}

TEST_F(SqlEquivalenceTest, DistinctWithPatchIndex) {
  GeneratorConfig cfg;
  cfg.num_rows = 30'000;
  cfg.exception_rate = 0.08;
  Load("t", GenerateNucTable(cfg), ConstraintKind::kNearlyUnique);

  // The SQL side runs through the kPatchDistinct rewrite (verified by the
  // binder tests); the hand side too — rows must agree either way.
  ExpectSameRows(RunPlan(LDistinct(LScan(HandTable("t"), {1}), {0})),
                 RunSql("SELECT DISTINCT val FROM t"));
  ExpectSameRows(
      RunPlan(LDistinct(LSelect(LScan(HandTable("t"), {0, 1}),
                                Lt(Col(0), ConstInt(9'000)), 0.3),
                        {1})),
      RunSql("SELECT DISTINCT val FROM t WHERE key < 9000"));
}

TEST_F(SqlEquivalenceTest, SortWithPatchIndex) {
  GeneratorConfig cfg;
  cfg.num_rows = 30'000;
  cfg.exception_rate = 0.05;
  Load("t", GenerateNscTable(cfg), ConstraintKind::kNearlySorted);

  Batch sql = RunSql("SELECT val FROM t ORDER BY val");
  Batch hand = RunPlan(LSort(LScan(HandTable("t"), {1}), {{0, true}}));
  ASSERT_EQ(sql.num_rows(), hand.num_rows());
  EXPECT_EQ(sql.columns[0].i64, hand.columns[0].i64);
}

TEST_F(SqlEquivalenceTest, JoinGroupByOrderBy) {
  GeneratorConfig cfg;
  cfg.num_rows = 10'000;
  cfg.exception_rate = 0.1;
  cfg.num_exception_values = 50;
  Load("fact", GenerateNucTable(cfg), ConstraintKind::kNearlyUnique);
  Table dim(Schema({{"id", ColumnType::kInt64},
                    {"group_id", ColumnType::kInt64}}));
  for (std::int64_t i = 0; i < 10'000; ++i) {
    dim.AppendRow(Row{{Value(i), Value(i % 7)}});
  }
  Load("dim", dim);

  // Join + group-by + order-by through SQL...
  Batch sql = RunSql(
      "SELECT dim.group_id, COUNT(*) AS n FROM fact "
      "JOIN dim ON fact.key = dim.id WHERE fact.key < 8000 "
      "GROUP BY dim.group_id ORDER BY n DESC, dim.group_id");
  // ...vs the hand-built equivalent: join output is left ++ right.
  LogicalPtr hand_plan = LSort(
      LAggregate(LJoin(LSelect(LScan(HandTable("fact"), {0}),
                               Lt(Col(0), ConstInt(8'000)), 0.3),
                       LScan(HandTable("dim"), {0, 1}), 0, 0),
                 {2}, {{AggOp::kCount, 0}}),
      {{1, false}, {0, true}});
  Batch hand = RunPlan(std::move(hand_plan));
  ASSERT_EQ(sql.num_rows(), hand.num_rows());
  EXPECT_EQ(sql.columns[0].i64, hand.columns[0].i64);
  EXPECT_EQ(sql.columns[1].i64, hand.columns[1].i64);
}

TEST_F(SqlEquivalenceTest, InsertUpdateDeleteMatchHandBuiltDeltas) {
  GeneratorConfig cfg;
  cfg.num_rows = 5'000;
  cfg.exception_rate = 0.1;
  Load("t", GenerateNucTable(cfg), ConstraintKind::kNearlyUnique);

  // INSERT.
  RunSql("INSERT INTO t VALUES (5000, 123), (5001, 124)");
  ASSERT_TRUE(hand_session_
                  .ExecuteUpdate("t", UpdateQuery::Insert(
                                          {Row{{Value(std::int64_t{5000}),
                                                Value(std::int64_t{123})}},
                                           Row{{Value(std::int64_t{5001}),
                                                Value(std::int64_t{124})}}}))
                  .ok());
  ExpectTablesEqual("t");

  // UPDATE with expression over the old value.
  Result<QueryResult> upd =
      sql_session_.Sql("UPDATE t SET val = val + 7 WHERE key < 100");
  ASSERT_TRUE(upd.ok()) << upd.status().ToString();
  EXPECT_EQ(upd.value().rows_affected, 100u);
  {
    const Table& t = HandTable("t");
    std::vector<CellUpdate> cells;
    for (RowId r = 0; r < t.num_rows(); ++r) {
      if (t.VisibleCell(r, 0).AsInt64() < 100) {
        cells.push_back(
            {r, 1, Value(t.VisibleCell(r, 1).AsInt64() + 7)});
      }
    }
    ASSERT_TRUE(
        hand_session_.ExecuteUpdate("t", UpdateQuery::Modify(cells)).ok());
  }
  ExpectTablesEqual("t");

  // DELETE.
  Result<QueryResult> del =
      sql_session_.Sql("DELETE FROM t WHERE key >= 4900 AND key < 5000");
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_EQ(del.value().rows_affected, 100u);
  {
    const Table& t = HandTable("t");
    std::vector<RowId> rows;
    for (RowId r = 0; r < t.num_rows(); ++r) {
      const std::int64_t key = t.VisibleCell(r, 0).AsInt64();
      if (key >= 4900 && key < 5000) rows.push_back(r);
    }
    ASSERT_TRUE(
        hand_session_.ExecuteUpdate("t", UpdateQuery::Delete(rows)).ok());
  }
  ExpectTablesEqual("t");
}

TEST_F(SqlEquivalenceTest, PreparedStatementReusesBoundPlan) {
  GeneratorConfig cfg;
  cfg.num_rows = 10'000;
  cfg.exception_rate = 0.1;
  Load("t", GenerateNucTable(cfg), ConstraintKind::kNearlyUnique);

  Result<PreparedStatement> prepared = sql_session_.Prepare(
      "SELECT key, val FROM t WHERE key >= ? AND key < ?");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ(prepared.value().num_params(), 2u);

  for (std::int64_t lo : {0, 100, 7'000}) {
    Result<QueryResult> got = prepared.value().Execute(
        {Value(lo), Value(lo + 500)});
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    Batch want = RunPlan(LSelect(
        LScan(HandTable("t"), {0, 1}),
        And(Ge(Col(0), ConstInt(lo)), Lt(Col(0), ConstInt(lo + 500))),
        0.3));
    ExpectSameRows(want, got.value().rows);
  }

  // Parameter validation.
  EXPECT_FALSE(prepared.value().Execute({Value(std::int64_t{1})}).ok());
  EXPECT_FALSE(prepared.value()
                   .Execute({Value("x"), Value(std::int64_t{2})})
                   .ok());

  // Prepared INSERT, executed repeatedly.
  Result<PreparedStatement> ins =
      sql_session_.Prepare("INSERT INTO t VALUES (?, ?)");
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  for (std::int64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        ins.value().Execute({Value(10'000 + i), Value(i)}).ok());
  }
  EXPECT_EQ(SqlTable("t").num_rows(), 10'003u);
}

// The randomized sweep: SQL strings generated for the plan shapes the
// workload generator's tables support, executed against both engines.
TEST_F(SqlEquivalenceTest, RandomizedGeneratorPlans) {
  GeneratorConfig cfg;
  cfg.num_rows = 8'000;
  cfg.exception_rate = 0.07;
  Load("nuc", GenerateNucTable(cfg), ConstraintKind::kNearlyUnique);
  Load("nsc", GenerateNscTable(cfg), ConstraintKind::kNearlySorted);

  Rng rng(20260729);
  for (int round = 0; round < 25; ++round) {
    const bool use_nsc = rng.NextBool(0.5);
    const std::string table = use_nsc ? "nsc" : "nuc";
    const Table& hand = HandTable(table);
    const std::int64_t lo =
        static_cast<std::int64_t>(rng.Uniform(0, cfg.num_rows - 1));
    const std::int64_t hi =
        lo + static_cast<std::int64_t>(rng.Uniform(1, cfg.num_rows));
    const std::string range = "key >= " + std::to_string(lo) +
                              " AND key < " + std::to_string(hi);
    ExprPtr pred =
        And(Ge(Col(0), ConstInt(lo)), Lt(Col(0), ConstInt(hi)));

    switch (rng.Uniform(0, 3)) {
      case 0: {  // filter + projection
        ExpectSameRows(
            RunPlan(LSelect(LScan(hand, {0, 1}), pred, 0.3)),
            RunSql("SELECT key, val FROM " + table + " WHERE " + range));
        break;
      }
      case 1: {  // distinct (the generator's microbenchmark query)
        ExpectSameRows(
            RunPlan(LDistinct(LSelect(LScan(hand, {0, 1}), pred, 0.3),
                              {1})),
            RunSql("SELECT DISTINCT val FROM " + table + " WHERE " +
                   range));
        break;
      }
      case 2: {  // order by val
        Batch sql = RunSql("SELECT val FROM " + table + " WHERE " + range +
                           " ORDER BY val");
        Batch hand_rows = RunPlan(LSort(
            LSelect(LScan(hand, {0, 1}), pred, 0.3), {{1, true}}));
        ASSERT_EQ(sql.num_rows(), hand_rows.num_rows());
        for (std::size_t r = 0; r < sql.num_rows(); ++r) {
          ASSERT_EQ(sql.columns[0].i64[r], hand_rows.columns[1].i64[r])
              << "round " << round << " row " << r;
        }
        break;
      }
      case 3: {  // global aggregate
        Batch sql = RunSql("SELECT COUNT(*), MIN(val), MAX(val) FROM " +
                           table + " WHERE " + range);
        Batch filtered =
            RunPlan(LSelect(LScan(hand, {0, 1}), pred, 0.3));
        std::int64_t count = 0, min_v = 0, max_v = 0;
        for (std::size_t r = 0; r < filtered.num_rows(); ++r) {
          const std::int64_t v = filtered.columns[1].i64[r];
          if (count == 0 || v < min_v) min_v = v;
          if (count == 0 || v > max_v) max_v = v;
          ++count;
        }
        if (count == 0) {
          // This global aggregate mixes MIN/MAX with COUNT, so an empty
          // input produces no row (no NULL support for MIN/MAX); a
          // COUNT-only select would produce a single zero row instead.
          EXPECT_EQ(sql.num_rows(), 0u);
        } else {
          ASSERT_EQ(sql.num_rows(), 1u);
          EXPECT_EQ(sql.columns[0].i64[0], count);
          EXPECT_EQ(sql.columns[1].i64[0], min_v);
          EXPECT_EQ(sql.columns[2].i64[0], max_v);
        }
        break;
      }
    }
  }
}

TEST_F(SqlEquivalenceTest, PreparedJoinStaysCorrectAfterSortOrderBreaks) {
  // The kPatchJoin rewrite needs the dim scan annotated as sorted. That
  // annotation is inferred per execution (in the rewriter, under the
  // table locks) — a prepared statement bound while `dim` was perfectly
  // sorted must NOT keep exploiting sortedness after an INSERT appends
  // an out-of-order row.
  GeneratorConfig cfg;
  cfg.num_rows = 5'000;
  cfg.exception_rate = 0.05;
  sql_engine_.catalog().AddTable(
      "fact", std::make_unique<Table>(GenerateNscTable(cfg)));
  ASSERT_TRUE(
      sql_session_.CreatePatchIndex("fact", 1, ConstraintKind::kNearlySorted)
          .ok());
  Table dim(Schema({{"id", ColumnType::kInt64}}));
  for (std::int64_t i = 0; i < 5'000; ++i) dim.AppendRow(Row{{Value(i)}});
  sql_engine_.catalog().AddTable("dim",
                                   std::make_unique<Table>(std::move(dim)));
  ASSERT_TRUE(
      sql_session_.CreatePatchIndex("dim", 0, ConstraintKind::kNearlySorted)
          .ok());

  const std::string sql =
      "SELECT COUNT(*) FROM dim JOIN fact ON dim.id = fact.val";
  // Sorted: the rewrite fires.
  EXPECT_NE(sql_session_.Explain(sql).value().find("PatchJoin"),
            std::string::npos);
  Result<PreparedStatement> prepared = sql_session_.Prepare(sql);
  ASSERT_TRUE(prepared.ok());
  const std::int64_t before =
      prepared.value().Execute().value().rows.columns[0].i64[0];

  // Append an out-of-order dim row that matches at least one fact row.
  const std::int64_t match = SqlTable("fact").VisibleCell(100, 1).AsInt64();
  ASSERT_TRUE(sql_session_
                  .Sql("INSERT INTO dim VALUES (" + std::to_string(match) +
                       ")")
                  .ok());
  const std::int64_t prepared_after =
      prepared.value().Execute().value().rows.columns[0].i64[0];
  const std::int64_t fresh_after =
      sql_session_.Sql(sql).value().rows.columns[0].i64[0];
  EXPECT_EQ(prepared_after, fresh_after);
  EXPECT_GT(prepared_after, before);
  // And the rewrite no longer claims sortedness.
  EXPECT_EQ(sql_session_.Explain(sql).value().find("PatchJoin"),
            std::string::npos);
}

TEST_F(SqlEquivalenceTest, CountOnlyGlobalAggregateOverEmptyInput) {
  Table t(Schema({{"key", ColumnType::kInt64}, {"val", ColumnType::kInt64}}));
  sql_engine_.catalog().AddTable("e", std::make_unique<Table>(std::move(t)));

  // COUNT-only global aggregates return their mandatory single row.
  Batch counts = RunSql("SELECT COUNT(*), COUNT(val) FROM e");
  ASSERT_EQ(counts.num_rows(), 1u);
  EXPECT_EQ(counts.columns[0].i64[0], 0);
  EXPECT_EQ(counts.columns[1].i64[0], 0);
  Batch filtered = RunSql("SELECT COUNT(*) FROM e WHERE key > 10");
  ASSERT_EQ(filtered.num_rows(), 1u);
  EXPECT_EQ(filtered.columns[0].i64[0], 0);

  // Mixing in MIN/MAX/SUM keeps the documented zero-row behavior (the
  // engine has no NULLs for those columns).
  EXPECT_EQ(RunSql("SELECT COUNT(*), MAX(val) FROM e").num_rows(), 0u);
}

TEST_F(SqlEquivalenceTest, AvgOverInt64IsAlwaysDouble) {
  Table t(Schema({{"g", ColumnType::kInt64}, {"v", ColumnType::kInt64}}));
  // Group 1: values 1, 2 -> AVG 1.5 (integer division would yield 1).
  // Group 2: values 2, 3, 4 -> AVG 3.0.
  // Group 3: single value 7 -> AVG 7.0.
  for (auto [g, v] : std::vector<std::pair<std::int64_t, std::int64_t>>{
           {1, 1}, {1, 2}, {2, 2}, {2, 3}, {2, 4}, {3, 7}}) {
    t.AppendRow(Row{{Value(g), Value(v)}});
  }
  sql_engine_.catalog().AddTable("a", std::make_unique<Table>(std::move(t)));

  Batch grouped = RunSql("SELECT g, AVG(v) FROM a GROUP BY g ORDER BY g");
  ASSERT_EQ(grouped.num_rows(), 3u);
  ASSERT_EQ(grouped.columns[1].type, ColumnType::kDouble);
  EXPECT_DOUBLE_EQ(grouped.columns[1].f64[0], 1.5);
  EXPECT_DOUBLE_EQ(grouped.columns[1].f64[1], 3.0);
  EXPECT_DOUBLE_EQ(grouped.columns[1].f64[2], 7.0);

  // Global AVG: (1+2+2+3+4+7)/6 = 19/6, fractional — integer division
  // anywhere on the path would truncate it.
  Batch global = RunSql("SELECT AVG(v) FROM a");
  ASSERT_EQ(global.num_rows(), 1u);
  ASSERT_EQ(global.columns[0].type, ColumnType::kDouble);
  EXPECT_DOUBLE_EQ(global.columns[0].f64[0], 19.0 / 6.0);

  // ORDER BY on the AVG column sorts its DOUBLE values.
  Batch ordered = RunSql("SELECT g, AVG(v) FROM a GROUP BY g ORDER BY avg(v)");
  ASSERT_EQ(ordered.num_rows(), 3u);
  EXPECT_EQ(ordered.columns[0].i64[0], 1);  // avg 1.5 first
  EXPECT_EQ(ordered.columns[0].i64[2], 3);  // avg 7.0 last
}

TEST_F(SqlEquivalenceTest, AvgEmptyGroupVsEmptyInput) {
  Table t(Schema({{"g", ColumnType::kInt64}, {"v", ColumnType::kInt64}}));
  sql_engine_.catalog().AddTable("e2", std::make_unique<Table>(std::move(t)));

  // Empty input, grouped: no groups exist, so zero rows — a group can
  // only come into existence with at least one row behind it.
  EXPECT_EQ(RunSql("SELECT g, AVG(v) FROM e2 GROUP BY g").num_rows(), 0u);
  // Empty input, global non-COUNT aggregate: zero rows (the engine has
  // no NULL to put in the AVG column); COUNT-only keeps its mandatory
  // row — pinned in CountOnlyGlobalAggregateOverEmptyInput.
  EXPECT_EQ(RunSql("SELECT AVG(v) FROM e2").num_rows(), 0u);
  EXPECT_EQ(RunSql("SELECT COUNT(*), AVG(v) FROM e2").num_rows(), 0u);

  // A WHERE that filters everything behaves exactly like empty input.
  Result<QueryResult> insert =
      sql_session_.Sql("INSERT INTO e2 VALUES (1, 5)");
  ASSERT_TRUE(insert.ok());
  EXPECT_EQ(RunSql("SELECT g, AVG(v) FROM e2 WHERE v > 99 GROUP BY g")
                .num_rows(),
            0u);
  EXPECT_EQ(RunSql("SELECT AVG(v) FROM e2 WHERE v > 99").num_rows(), 0u);
  // And a surviving group averages exactly its rows.
  Batch one = RunSql("SELECT g, AVG(v) FROM e2 GROUP BY g");
  ASSERT_EQ(one.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(one.columns[1].f64[0], 5.0);
}

TEST_F(SqlEquivalenceTest, LimitZeroReturnsNoRows) {
  Table t(Schema({{"key", ColumnType::kInt64}}));
  for (std::int64_t i = 0; i < 10; ++i) t.AppendRow(Row{{Value(i)}});
  sql_engine_.catalog().AddTable("t", std::make_unique<Table>(std::move(t)));
  EXPECT_EQ(RunSql("SELECT key FROM t LIMIT 0").num_rows(), 0u);
  EXPECT_EQ(RunSql("SELECT key FROM t ORDER BY key LIMIT 0").num_rows(), 0u);
  EXPECT_EQ(RunSql("SELECT key FROM t LIMIT 3").num_rows(), 3u);
}

TEST_F(SqlEquivalenceTest, ParallelAndSerialSqlAgree) {
  // The same SQL on four workers over small morsels and on one worker
  // (a one-thread pool) must agree.
  EngineOptions parallel_opts;
  parallel_opts.num_threads = 4;
  parallel_opts.morsel_rows = 4'096;
  Engine parallel(parallel_opts);
  EngineOptions serial_opts;
  serial_opts.num_threads = 1;
  Engine serial(serial_opts);

  GeneratorConfig cfg;
  cfg.num_rows = 40'000;
  cfg.exception_rate = 0.1;
  const Table data = GenerateNucTable(cfg);
  for (Engine* engine : {&parallel, &serial}) {
    auto copy = std::make_unique<Table>(data.schema());
    for (RowId r = 0; r < data.num_rows(); ++r) {
      copy->AppendRow(Row{{data.VisibleCell(r, 0), data.VisibleCell(r, 1)}});
    }
    ASSERT_TRUE(engine->catalog().AddTable("t", std::move(copy)).ok());
  }
  Session ps = parallel.CreateSession();
  Session ss = serial.CreateSession();
  const std::string sql = "SELECT key, val FROM t WHERE val >= 1000";
  Result<QueryResult> pr = ps.Sql(sql);
  Result<QueryResult> sr = ss.Sql(sql);
  ASSERT_TRUE(pr.ok());
  ASSERT_TRUE(sr.ok());
  EXPECT_TRUE(pr.value().parallel);
  EXPECT_FALSE(sr.value().parallel);
  ExpectSameRows(sr.value().rows, pr.value().rows);
  EXPECT_GE(ps.path_counters().parallel_pipelines.load(), 1u);
}

}  // namespace
}  // namespace patchindex
