// Per-query memory limits end to end: an over-budget statement aborts
// with kResourceExhausted naming the operator while the engine stays
// fully usable and keeps the phases it ran in pi_stats.queries, the
// accounted balance drains when statements retire, peak_mem and phase
// figures agree across every surface (EXPLAIN ANALYZE text,
// QueryResult::profile, pi_stats.queries, the trace), and the
// pi_stats.memory / pi_stats.histograms system tables serve live rows.

#include <gtest/gtest.h>

#include <cstdint>
#include <regex>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "server/meta_commands.h"

namespace patchindex {
namespace {

void MustSql(Session& session, const std::string& sql) {
  Result<QueryResult> r = session.Sql(sql);
  ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
}

/// Loads the standard generated table `big` (key INT64, val INT64).
void GenBig(Engine& engine, Session& session, std::size_t rows) {
  const std::string out = RunMetaCommand(
      engine, session, ".gen nuc big " + std::to_string(rows) + " 0.05");
  ASSERT_EQ(out.rfind("error:", 0), std::string::npos) << out;
}

std::string PlanText(const QueryResult& r) {
  std::string out;
  for (std::size_t i = 0; i < r.rows.num_rows(); ++i) {
    if (!out.empty()) out += "\n";
    out += r.rows.columns[0].str[i];
  }
  return out;
}

TEST(ResourceLimitTest, OverLimitQueryAbortsNamingOperatorEngineUsable) {
  EngineOptions options;
  options.query_memory_limit = 256 * 1024;
  Engine engine(options);
  Session session = engine.CreateSession();
  GenBig(engine, session, 200'000);

  // Materializing 200k two-column rows charges megabytes against a 256KB
  // budget: the statement must abort with the structured status.
  const std::string sort = "SELECT key, val FROM big ORDER BY val";
  Result<QueryResult> r = session.Sql(sort);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status().ToString();
  const std::string msg = r.status().message();
  EXPECT_NE(msg.find("memory limit exceeded in operator"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("query"), std::string::npos) << msg;

  // The failed statement released everything it had charged.
  EXPECT_EQ(engine.memory().current(), 0u);

  // The session and engine keep working: a statement under budget runs,
  // and the failure is recorded — not wedged — in the flight recorder.
  Result<QueryResult> count = session.Sql("SELECT COUNT(*) FROM big");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count.value().rows.columns[0].i64[0], 200'000);

  // An UPDATE whose row matching trips the budget fails in its execute
  // phase, after the table-lock wait.
  const std::string update = "UPDATE big SET val = 1";
  EXPECT_EQ(session.Sql(update).status().code(),
            StatusCode::kResourceExhausted);

  // Each failure keeps the phases it ran: the sort was optimized and
  // executed until the budget tripped, and both executions took time.
  Result<QueryResult> failed = session.Sql(
      "SELECT sql, optimize_ms, execute_ms, total_ms FROM pi_stats.queries "
      "WHERE status = 'ResourceExhausted'");
  ASSERT_TRUE(failed.ok()) << failed.status().ToString();
  const Batch& rows = failed.value().rows;
  ASSERT_EQ(rows.num_rows(), 2u);
  for (std::size_t i = 0; i < rows.num_rows(); ++i) {
    const std::string& sql = rows.columns[0].str[i];
    if (sql == sort) {
      EXPECT_GT(rows.columns[1].f64[i], 0.0) << "optimize_ms";
    } else {
      EXPECT_EQ(sql, update);
    }
    EXPECT_GT(rows.columns[2].f64[i], 0.0) << sql << ": execute_ms";
    EXPECT_LE(rows.columns[2].f64[i], rows.columns[3].f64[i]) << sql;
  }
}

TEST(ResourceLimitTest, DmlDeltaChargesAgainstTheBudget) {
  EngineOptions options;
  options.query_memory_limit = 16 * 1024;
  Engine engine(options);
  Session session = engine.CreateSession();
  MustSql(session, "CREATE TABLE t (a INT64, b STRING)");

  // One small insert fits.
  MustSql(session, "INSERT INTO t VALUES (1, 'x')");

  // A bulk insert whose delta alone exceeds 16KB must be refused as
  // kResourceExhausted — and must not partially apply.
  std::string bulk = "INSERT INTO t VALUES (0, 'padpadpadpadpadpad')";
  for (int i = 1; i < 400; ++i) {
    bulk += ", (" + std::to_string(i) + ", 'padpadpadpadpadpad')";
  }
  Result<QueryResult> r = session.Sql(bulk);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status().ToString();

  Result<QueryResult> count = session.Sql("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value().rows.columns[0].i64[0], 1);
}

/// One statement's phase figures on every surface: its pi_stats.queries
/// row equals the profile exactly, and each phase span in its trace lasts
/// the profile's value to within the trace's microsecond resolution.
void ExpectPhasesAgree(Session& session, const std::string& sql,
                       const QueryResult& result) {
  ASSERT_NE(result.profile, nullptr) << sql;
  ASSERT_NE(result.trace, nullptr) << sql;
  const obs::QueryProfile& p = *result.profile;
  const std::vector<std::pair<std::string, double>> phases = {
      {"parse", p.parse_ms},
      {"bind", p.bind_ms},
      {"optimize", p.optimize_ms},
      {"execute", p.execute_ms},
      {"commit_wait", p.commit_wait_ms},
      {"commit", p.commit_ms}};

  Result<QueryResult> rec = session.Sql(
      "SELECT total_ms, parse_ms, bind_ms, optimize_ms, execute_ms, "
      "commit_wait_ms, commit_ms FROM pi_stats.queries WHERE sql = '" +
      sql + "'");
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  const Batch& row = rec.value().rows;
  ASSERT_EQ(row.num_rows(), 1u) << sql;
  EXPECT_EQ(row.columns[0].f64[0], p.total_ms) << sql;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    EXPECT_EQ(row.columns[i + 1].f64[0], phases[i].second)
        << sql << ": " << phases[i].first;
  }

  std::size_t spans = 0;
  for (const obs::TraceEvent& e : result.trace->Events()) {
    for (const auto& [name, ms] : phases) {
      if (e.name != name) continue;
      ++spans;
      EXPECT_NEAR(static_cast<double>(e.dur_us), ms * 1000.0, 1.0)
          << sql << ": " << name;
    }
  }
  // parse + bind + optimize + execute for reads; parse + bind +
  // commit_wait + execute + commit for DML.
  EXPECT_GE(spans, 4u) << sql;
}

TEST(ResourceLimitTest, PeakMemAgreesAcrossAllSurfaces) {
  EngineOptions options;
  options.trace_sampling = 1.0;
  Engine engine(options);
  Session session = engine.CreateSession();
  GenBig(engine, session, 50'000);

  const std::string sql =
      "EXPLAIN ANALYZE SELECT key, val FROM big ORDER BY val LIMIT 10";
  Result<QueryResult> r = session.Sql(sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::string plan = PlanText(r.value());

  // The rendered phases line carries the statement-wide peak.
  std::smatch m;
  ASSERT_TRUE(std::regex_search(plan, m, std::regex("peak_mem=([0-9]+)")))
      << plan;
  const std::uint64_t rendered = std::stoull(m[1]);
  EXPECT_GT(rendered, 0u);

  // Same figure on the programmatic profile...
  ASSERT_NE(r.value().profile, nullptr);
  EXPECT_EQ(r.value().profile->peak_mem_bytes, rendered);

  // ...and on the statement's pi_stats.queries row: one peak read feeds
  // every surface, so these are byte-identical, not merely close.
  Result<QueryResult> rec = session.Sql(
      "SELECT peak_mem_bytes FROM pi_stats.queries WHERE sql = '" + sql +
      "'");
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  ASSERT_EQ(rec.value().rows.num_rows(), 1u);
  EXPECT_EQ(static_cast<std::uint64_t>(rec.value().rows.columns[0].i64[0]),
            rendered);

  // The phase times come from one span each, so every surface carries
  // the same figures.
  for (const std::string& stmt :
       {std::string("SELECT COUNT(*) FROM big WHERE val >= 100"),
        std::string("INSERT INTO big VALUES (999999999, 1)")}) {
    Result<QueryResult> run = session.Sql(stmt);
    ASSERT_TRUE(run.ok()) << stmt << ": " << run.status().ToString();
    ExpectPhasesAgree(session, stmt, run.value());
  }
}

TEST(ResourceLimitTest, MemorySystemTableReportsScopes) {
  Engine engine;
  Session session = engine.CreateSession();
  GenBig(engine, session, 10'000);
  MustSql(session, "SELECT COUNT(*) FROM big");

  Result<QueryResult> r = session.Sql(
      "SELECT scope, name, current_bytes FROM pi_stats.memory");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  bool saw_process = false;
  bool saw_engine = false;
  bool saw_big = false;
  const auto& rows = r.value().rows;
  for (std::size_t i = 0; i < rows.num_rows(); ++i) {
    const std::string& scope = rows.columns[0].str[i];
    const std::string& name = rows.columns[1].str[i];
    if (scope == "process" && name == "process") saw_process = true;
    if (scope == "engine" && name == "engine") saw_engine = true;
    if (scope == "table" && name == "big") {
      saw_big = true;
      // 10k rows of two INT64 columns occupy at least 160KB resident.
      EXPECT_GE(rows.columns[2].i64[i], 160 * 1024);
    }
  }
  EXPECT_TRUE(saw_process);
  EXPECT_TRUE(saw_engine);
  EXPECT_TRUE(saw_big);
}

TEST(ResourceLimitTest, HistogramsSystemTableServesBucketRows) {
  Engine engine;
  Session session = engine.CreateSession();
  MustSql(session, "CREATE TABLE t (a INT64)");
  MustSql(session, "INSERT INTO t VALUES (1), (2), (3)");
  MustSql(session, "SELECT SUM(a) FROM t");

  // Completed statements recorded into the query-latency histogram; the
  // system table explodes it into one row per non-empty bucket with
  // Prometheus-style cumulative counts.
  Result<QueryResult> r = session.Sql(
      "SELECT le_us, bucket_count, cumulative_count, total_count "
      "FROM pi_stats.histograms WHERE name = 'pidx_query_latency_us'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& rows = r.value().rows;
  ASSERT_GT(rows.num_rows(), 0u);
  std::int64_t prev_le = -1;
  std::int64_t prev_cumulative = 0;
  for (std::size_t i = 0; i < rows.num_rows(); ++i) {
    EXPECT_GT(rows.columns[0].i64[i], prev_le);  // ascending bounds
    prev_le = rows.columns[0].i64[i];
    EXPECT_GT(rows.columns[1].i64[i], 0);  // only non-empty buckets
    EXPECT_EQ(rows.columns[2].i64[i],
              prev_cumulative + rows.columns[1].i64[i]);
    prev_cumulative = rows.columns[2].i64[i];
    EXPECT_LE(rows.columns[2].i64[i], rows.columns[3].i64[i]);
  }
  // The last cumulative count accounts for every sample.
  EXPECT_EQ(prev_cumulative, rows.columns[3].i64[rows.num_rows() - 1]);
}

TEST(ResourceLimitTest, WaitEventHistogramsRegisterAndRecord) {
  EngineOptions options;
  // Several workers over small morsels: pool tasks queue, so waits record.
  options.num_threads = 2;
  options.morsel_rows = 4'096;
  Engine engine(options);
  Session session = engine.CreateSession();
  GenBig(engine, session, 20'000);
  Result<QueryResult> sorted =
      session.Sql("SELECT key, val FROM big ORDER BY val");
  ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
  ASSERT_TRUE(sorted.value().parallel);  // else no pool tasks were queued
  MustSql(session, "INSERT INTO big VALUES (999999999, 1)");

  // Pool-queue waits record for every parallel query; table-lock waits
  // for every DML statement (even uncontended ones record ~0us spans).
  EXPECT_GT(engine.metrics().HistogramSnapshotOf("pidx_wait_pool_queue_us")
                .count,
            0u);
  EXPECT_GT(engine.metrics().HistogramSnapshotOf("pidx_wait_table_lock_us")
                .count,
            0u);
}

}  // namespace
}  // namespace patchindex
