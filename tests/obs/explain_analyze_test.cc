// EXPLAIN and EXPLAIN ANALYZE through Session::Sql: the plan-text result
// shape, the golden annotated operator tree (times masked — row, morsel
// and worker counts are deterministic for a pinned engine config), the
// phase profile attached to QueryResult, and the engine metrics the SQL
// path feeds.

#include <gtest/gtest.h>

#include <memory>
#include <regex>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "obs/profile.h"
#include "workload/generator.h"

namespace patchindex {
namespace {

/// Replaces every `<number>.<3 digits>ms` with `<t>ms` and every
/// mem=/peak_mem= byte figure with `<m>` — wall times are nondeterministic,
/// and memory figures of partial-aggregate operators depend on how many
/// groups each worker happened to see (morsel scheduling), so both are
/// masked; everything else is deterministic for a pinned engine config.
std::string MaskTimes(const std::string& text) {
  static const std::regex kTime("[0-9]+\\.[0-9]{3}ms");
  static const std::regex kMem("(mem=)[0-9]+");
  return std::regex_replace(std::regex_replace(text, kTime, "<t>ms"), kMem,
                            "$1<m>");
}

/// Joins a plan-text result (single STRING column, one row per line)
/// back into one newline-separated string.
std::string PlanText(const QueryResult& r) {
  std::string out;
  for (std::size_t i = 0; i < r.rows.num_rows(); ++i) {
    if (!out.empty()) out += "\n";
    out += r.rows.columns[0].str[i];
  }
  return out;
}

void MustSql(Session& session, const std::string& sql) {
  Result<QueryResult> r = session.Sql(sql);
  ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
}

/// dim (4 rows) ⋈ fact (12 rows) with a group-by and order-by on top —
/// every operator kind EXPLAIN ANALYZE annotates, on a fixed dataset.
void LoadJoinTables(Session& session) {
  MustSql(session, "CREATE TABLE dim (k INT64, name STRING)");
  MustSql(session,
          "INSERT INTO dim VALUES (1, 'ash'), (2, 'birch'), (3, 'cedar'), "
          "(4, 'doug')");
  MustSql(session, "CREATE TABLE fact (fk INT64, v INT64)");
  MustSql(session,
          "INSERT INTO fact VALUES (1, 10), (1, 11), (2, 20), (2, 21), "
          "(2, 22), (3, 30), (3, 31), (3, 32), (3, 33), (4, 40), (4, 41), "
          "(9, 90)");
}

const char* kJoinAnalyzeSql =
    "EXPLAIN ANALYZE SELECT dim.name, COUNT(*) AS n, SUM(fact.v) AS s "
    "FROM fact JOIN dim ON fact.fk = dim.k "
    "GROUP BY dim.name ORDER BY n DESC, dim.name LIMIT 2";

TEST(ExplainAnalyzeTest, GoldenJoinGroupByOrderBy) {
  // Pinned config so counts are deterministic: 2 threads, 8-row morsels
  // (the 12-row fact table is two morsels, so its pipeline runs on two
  // workers; the 4-row dim table and the aggregate's 4 groups are one).
  EngineOptions options;
  options.num_threads = 2;
  options.morsel_rows = 8;
  Engine engine(options);
  Session session = engine.CreateSession();
  LoadJoinTables(session);

  Result<QueryResult> r = session.Sql(kJoinAnalyzeSql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().column_names, (std::vector<std::string>{"plan"}));
  ASSERT_NE(r.value().profile, nullptr);

  EXPECT_EQ(
      MaskTimes(PlanText(r.value())),
      "Sort(2 keys, limit=2)  [rows=2, workers=1, time=<t>ms, mem=<m>]\n"
      "  Aggregate(groups=1, aggs=2)  [rows=4, workers=2, time=<t>ms, "
      "max=<t>ms, mem=<m>]\n"
      "    Join(keys 0=0)  [rows=11, workers=2, time=<t>ms, max=<t>ms, "
      "build=<t>ms, mem=<m>]\n"
      "      Scan(2 cols, 12 rows)  [rows=12, morsels=2, workers=2, "
      "time=<t>ms, max=<t>ms]\n"
      "      Scan(2 cols, 4 rows)  [rows=4, morsels=1, workers=1, "
      "time=<t>ms]\n"
      "phases: parse=<t>ms bind=<t>ms optimize=<t>ms execute=<t>ms "
      "total=<t>ms peak_mem=<m>\n"
      "execution: parallel, workers=2, parallel join");
}

TEST(ExplainAnalyzeTest, GoldenPatchSortOverPrunedKeyRange) {
  // A 10240-row nearly-sorted table (ten 1024-row blocks, key clustered)
  // with an NSC index on val: the key range keeps one block of ten.
  EngineOptions options;
  options.num_threads = 2;
  options.morsel_rows = 256;  // the kept block is four morsels
  options.optimizer.force_patch_rewrites = true;
  Engine engine(options);
  Session session = engine.CreateSession();
  GeneratorConfig gen;
  gen.num_rows = 10'240;
  gen.exception_rate = 0.05;
  ASSERT_TRUE(engine.catalog()
                  .AddTable("s", std::make_unique<Table>(GenerateNscTable(gen)))
                  .ok());
  ASSERT_TRUE(
      session.CreatePatchIndex("s", 1, ConstraintKind::kNearlySorted).ok());

  Result<QueryResult> r = session.Sql(
      "EXPLAIN ANALYZE SELECT key, val FROM s WHERE key >= 2048 AND "
      "key < 3072 ORDER BY val");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // The chain runs once per PatchSort branch (exclude / use patches),
  // each on two workers over the four morsels of the kept block, so its
  // nodes count four instances whose rows add up to the range; the
  // PatchSort node counts the two workers that sorted patches.
  EXPECT_EQ(
      MaskTimes(PlanText(r.value())),
      "PatchSort [NSC e=5.00%]  [rows=1024, workers=2, time=<t>ms, "
      "max=<t>ms, mem=<m>]\n"
      "  Select((#0 < 3072), sel=0.30)  [rows=1024, workers=4, time=<t>ms, "
      "max=<t>ms]\n"
      "    Select((#0 >= 2048), sel=0.30)  [rows=1024, workers=4, "
      "time=<t>ms, max=<t>ms]\n"
      "      Scan(2 cols, 10240 rows)  [rows=1024, morsels=8, blocks=1/10, "
      "workers=4, time=<t>ms, max=<t>ms]\n"
      "phases: parse=<t>ms bind=<t>ms optimize=<t>ms execute=<t>ms "
      "total=<t>ms peak_mem=<m>\n"
      "execution: parallel, workers=2, parallel sort");
}

TEST(ExplainAnalyzeTest, ZeroExceptionPatchDistinctScansTheTableOnce) {
  // A 4096-row unique column with a NUC index of no patches: zero-branch
  // pruning (on in the engine) runs PatchDistinct's exclude-patches branch
  // alone, so the scan claims the table's four morsels once, not twice.
  EngineOptions options;
  options.num_threads = 2;
  options.morsel_rows = 1024;
  options.optimizer.force_patch_rewrites = true;
  Engine engine(options);
  Session session = engine.CreateSession();
  GeneratorConfig gen;
  gen.num_rows = 4096;
  gen.exception_rate = 0.0;
  ASSERT_TRUE(engine.catalog()
                  .AddTable("u", std::make_unique<Table>(GenerateNucTable(gen)))
                  .ok());
  ASSERT_TRUE(
      session.CreatePatchIndex("u", 1, ConstraintKind::kNearlyUnique).ok());

  Result<QueryResult> r =
      session.Sql("EXPLAIN ANALYZE SELECT DISTINCT val FROM u");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // No patches: the patch branch never runs; the node counts the two
  // workers that drained the excluded branch.
  EXPECT_EQ(
      MaskTimes(PlanText(r.value())),
      "PatchDistinct [NUC e=0.00%]  [rows=4096, workers=2, time=<t>ms, "
      "max=<t>ms, mem=<m>]\n"
      "  Scan(1 cols, 4096 rows)  [rows=4096, morsels=4, workers=2, "
      "time=<t>ms, max=<t>ms]\n"
      "phases: parse=<t>ms bind=<t>ms optimize=<t>ms execute=<t>ms "
      "total=<t>ms peak_mem=<m>\n"
      "execution: parallel, workers=2");
}

TEST(ExplainAnalyzeTest, SerialFallbackRendersSerial) {
  // Default morsels: every input is one morsel, so one worker runs the
  // whole plan inline.
  Engine engine;
  Session session = engine.CreateSession();
  LoadJoinTables(session);

  Result<QueryResult> r = session.Sql(kJoinAnalyzeSql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::string text = PlanText(r.value());
  EXPECT_NE(text.find("execution: serial"), std::string::npos) << text;
  EXPECT_EQ(text.find("execution: parallel"), std::string::npos) << text;
}

TEST(ExplainAnalyzeTest, AnalyzeOnDmlIsRejectedAtBind) {
  Engine engine;
  Session session = engine.CreateSession();
  MustSql(session, "CREATE TABLE t (a INT64)");

  Result<QueryResult> r =
      session.Sql("EXPLAIN ANALYZE INSERT INTO t VALUES (1)");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("EXPLAIN ANALYZE supports SELECT"),
            std::string::npos);
  // Plain EXPLAIN on the same DML statement is fine.
  r = session.Sql("EXPLAIN INSERT INTO t VALUES (1)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // ...and must not have executed it.
  r = session.Sql("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().rows.columns[0].i64[0], 0);
}

TEST(ExplainAnalyzeTest, NestedExplainIsASyntaxError) {
  Engine engine;
  Session session = engine.CreateSession();
  Result<QueryResult> r = session.Sql("EXPLAIN EXPLAIN SELECT 1");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("EXPLAIN cannot be nested"),
            std::string::npos);
}

TEST(ExplainAnalyzeTest, PlainExplainReturnsPlanRowsWithoutProfile) {
  Engine engine;
  Session session = engine.CreateSession();
  LoadJoinTables(session);

  Result<QueryResult> r = session.Sql(
      "EXPLAIN SELECT dim.name FROM fact JOIN dim ON fact.fk = dim.k");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().column_names, (std::vector<std::string>{"plan"}));
  EXPECT_GT(r.value().rows.num_rows(), 0u);
  // Plain EXPLAIN never runs the query, so there is nothing to profile.
  EXPECT_EQ(r.value().profile, nullptr);
  // The rendering matches Session::Explain for the same statement.
  Result<std::string> direct = session.Explain(
      "SELECT dim.name FROM fact JOIN dim ON fact.fk = dim.k");
  ASSERT_TRUE(direct.ok());
  std::string joined = PlanText(r.value());
  EXPECT_EQ(joined + "\n", direct.value());
}

TEST(ExplainAnalyzeTest, SelectCarriesPhaseProfileAndFeedsMetrics) {
  Engine engine;
  Session session = engine.CreateSession();
  LoadJoinTables(session);

  const obs::HistogramSnapshot before =
      engine.metrics().HistogramSnapshotOf("pidx_query_latency_us");
  Result<QueryResult> r =
      session.Sql("SELECT COUNT(*) FROM fact WHERE v >= 20");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r.value().profile, nullptr);
  const obs::QueryProfile& p = *r.value().profile;
  EXPECT_GT(p.total_ms, 0.0);
  EXPECT_GE(p.parse_ms, 0.0);
  EXPECT_GE(p.execute_ms, 0.0);
  // Not an ANALYZE run: no per-operator tree.
  EXPECT_TRUE(p.ops.empty());

  obs::HistogramSnapshot after =
      engine.metrics().HistogramSnapshotOf("pidx_query_latency_us");
  EXPECT_EQ(after.Subtract(before).count, 1u);
  const std::string text = engine.metrics().RenderText();
  EXPECT_NE(text.find("pidx_sql_statements_total"), std::string::npos);
  EXPECT_NE(text.find("pidx_read_queries_total"), std::string::npos);
}

TEST(ExplainAnalyzeTest, DmlProfileCoversCommitPhases) {
  Engine engine;
  Session session = engine.CreateSession();
  MustSql(session, "CREATE TABLE t (a INT64, b INT64)");
  MustSql(session, "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)");

  Result<QueryResult> r = session.Sql("UPDATE t SET b = 99 WHERE a = 2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r.value().profile, nullptr);
  const obs::QueryProfile& p = *r.value().profile;
  EXPECT_GT(p.total_ms, 0.0);
  EXPECT_GE(p.commit_wait_ms, 0.0);
  EXPECT_GE(p.commit_ms, 0.0);
  // The INSERT above counts too: both DML kinds share the counter.
  const std::string text = engine.metrics().RenderText();
  EXPECT_NE(text.find("pidx_update_queries_total 2"), std::string::npos);
  EXPECT_NE(text.find("pidx_phase_commit_us"), std::string::npos);
}

}  // namespace
}  // namespace patchindex
