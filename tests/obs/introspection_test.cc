// The introspection surface: flight-recorder ring semantics (wraparound,
// concurrent writers, active registry), Chrome trace rendering, the
// trace sampler, and the SQL-visible side — pi_stats system tables
// served from live engine state, read-only enforcement, durability
// metrics and commit CSNs flowing into pi_stats.queries.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"

namespace patchindex {
namespace {

TEST(FlightRecorderTest, RingWrapsKeepingNewestFirst) {
  obs::FlightRecorder recorder(4);
  for (int i = 1; i <= 10; ++i) {
    obs::FlightRecorder::Handle h =
        recorder.Begin(/*session_id=*/1, /*connection_id=*/-1,
                       "stmt " + std::to_string(i));
    obs::QueryRecord rec;
    rec.rows_returned = static_cast<std::uint64_t>(i);
    recorder.Complete(h, std::move(rec));
  }
  const std::vector<obs::QueryRecord> got = recorder.CompletedSnapshot();
  ASSERT_EQ(got.size(), 4u);  // capacity, not total
  // Newest first: statements 10, 9, 8, 7 with engine-wide ids 10..7.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(got[i].sql, "stmt " + std::to_string(10 - i));
    EXPECT_EQ(got[i].query_id, static_cast<std::uint64_t>(10 - i));
    EXPECT_EQ(got[i].rows_returned, static_cast<std::uint64_t>(10 - i));
    EXPECT_EQ(got[i].status, "ok");
    EXPECT_GT(got[i].start_unix_us, 0u);
  }
  EXPECT_TRUE(recorder.ActiveSnapshot().empty());
}

TEST(FlightRecorderTest, ActiveRegistryTracksPhaseUntilComplete) {
  obs::FlightRecorder recorder(8);
  obs::FlightRecorder::Handle h = recorder.Begin(7, 3, "SELECT 1");
  std::vector<obs::ActiveQuery> active = recorder.ActiveSnapshot();
  ASSERT_EQ(active.size(), 1u);
  EXPECT_EQ(active[0].session_id, 7u);
  EXPECT_EQ(active[0].connection_id, 3);
  EXPECT_EQ(active[0].sql, "SELECT 1");
  EXPECT_EQ(active[0].phase, "parse");
  EXPECT_GE(active[0].elapsed_ms, 0.0);

  obs::FlightRecorder::SetPhase(h, obs::QueryPhase::kCommit);
  active = recorder.ActiveSnapshot();
  ASSERT_EQ(active.size(), 1u);
  EXPECT_EQ(active[0].phase, "commit");

  // A commit waiting on the writer–writer lock names the blocking table
  // in its phase — pi_stats.active_queries renders this string verbatim,
  // so an operator can see *which* table a stalled commit is queued on.
  obs::FlightRecorder::SetPhase(h, obs::QueryPhase::kCommitWait);
  obs::FlightRecorder::SetPhaseDetail(h, "orders");
  active = recorder.ActiveSnapshot();
  ASSERT_EQ(active.size(), 1u);
  EXPECT_EQ(active[0].phase, "commit_wait(orders)");
  obs::FlightRecorder::SetPhaseDetail(h, "");
  active = recorder.ActiveSnapshot();
  EXPECT_EQ(active[0].phase, "commit_wait");

  recorder.Complete(h, obs::QueryRecord{});
  EXPECT_TRUE(recorder.ActiveSnapshot().empty());
  const std::vector<obs::QueryRecord> done = recorder.CompletedSnapshot();
  ASSERT_EQ(done.size(), 1u);
  // Identity comes from the handle, not the caller's record.
  EXPECT_EQ(done[0].session_id, 7u);
  EXPECT_EQ(done[0].connection_id, 3);
  EXPECT_EQ(done[0].sql, "SELECT 1");
}

TEST(FlightRecorderTest, ConcurrentWritersAndSnapshotsStayConsistent) {
  // 8 threads × 200 statements against a 64-slot ring while a reader
  // snapshots continuously: the ASan/TSan-relevant interleaving. Every
  // retained record must be internally consistent (id matches sql).
  obs::FlightRecorder recorder(64);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      for (const obs::QueryRecord& r : recorder.CompletedSnapshot()) {
        ASSERT_GT(r.query_id, 0u);
        ASSERT_FALSE(r.sql.empty());
      }
      (void)recorder.ActiveSnapshot();
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 8; ++t) {
    writers.emplace_back([&recorder, t] {
      const std::string sql = "writer " + std::to_string(t);
      for (int i = 0; i < 200; ++i) {
        obs::FlightRecorder::Handle h = recorder.Begin(1, -1, sql);
        obs::FlightRecorder::SetPhase(h, obs::QueryPhase::kExecute);
        recorder.Complete(h, obs::QueryRecord{});
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true);
  reader.join();
  const std::vector<obs::QueryRecord> done = recorder.CompletedSnapshot();
  ASSERT_EQ(done.size(), 64u);
  // The ring holds the last 64 statements to *complete*, which is not
  // query_id order: a writer can be preempted between Begin and
  // Complete. What holds: the ids are distinct and in range, and the
  // last-begun statement (id 1600) survived — once it began, each of the
  // other 7 writers had at most one statement left, so at most 7 can
  // have completed after it.
  std::set<std::uint64_t> ids;
  for (const obs::QueryRecord& r : done) {
    EXPECT_GE(r.query_id, 1u);
    EXPECT_LE(r.query_id, 1600u);
    ids.insert(r.query_id);
  }
  EXPECT_EQ(ids.size(), 64u);
  EXPECT_EQ(ids.count(1600u), 1u);
}

TEST(TraceTest, RenderChromeTraceShapesAndEscapes) {
  std::vector<obs::TraceEvent> events;
  events.push_back({"parse", 0, 0, 5});
  events.push_back({"weird \"name\"\n", 2, 10, 7});
  const std::string json = obs::RenderChromeTrace(events);
  // Loadable shape: traceEvents array of complete ("X") events.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"parse\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":2"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":10"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":7"), std::string::npos);
  // Escaping: the quote and newline must not break the JSON.
  EXPECT_NE(json.find("weird \\\"name\\\"\\n"), std::string::npos) << json;
  EXPECT_EQ(json.find("weird \"name\""), std::string::npos) << json;
}

TEST(TraceTest, BufferBaseOffsetBackdatesOrigin) {
  obs::TraceBuffer buf(1000);
  // The live clock starts at ~1000us, leaving [0, 1000) for synthetic
  // front-end spans.
  EXPECT_GE(buf.NowUs(), 1000u);
  EXPECT_LT(buf.NowUs(), 1000u + 1'000'000u);
}

TEST(EngineIntrospectionTest, TraceSamplerIsDeterministic) {
  EngineOptions options;
  options.num_threads = 2;
  options.trace_sampling = 0.25;
  Engine engine(options);
  int sampled = 0;
  for (int i = 0; i < 100; ++i) {
    if (engine.SampleTrace()) ++sampled;
  }
  EXPECT_EQ(sampled, 25);

  EngineOptions all;
  all.num_threads = 2;
  all.trace_sampling = 1.0;
  Engine every(all);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(every.SampleTrace());

  Engine none(EngineOptions{});  // default 0.0
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(none.SampleTrace());
}

TEST(EngineIntrospectionTest, SampledStatementCarriesTrace) {
  EngineOptions options;
  options.num_threads = 2;
  options.trace_sampling = 1.0;
  Engine engine(options);
  Session session = engine.CreateSession();
  ASSERT_TRUE(session.Sql("CREATE TABLE t (a INT64)").ok());
  ASSERT_TRUE(session.Sql("INSERT INTO t VALUES (1), (2), (3)").ok());
  Result<QueryResult> r = session.Sql("SELECT count(*) FROM t WHERE a > 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r.value().trace, nullptr);

  const std::vector<obs::TraceEvent> events = r.value().trace->Events();
  std::uint64_t query_dur = 0;
  std::uint64_t phase_sum = 0;  // parse + bind + optimize + execute
  bool saw_execute = false;
  for (const obs::TraceEvent& e : events) {
    if (e.name == "query") {
      query_dur = e.dur_us;
    } else if (e.name == "parse" || e.name == "bind" ||
               e.name == "optimize" || e.name == "execute") {
      phase_sum += e.dur_us;
      if (e.name == "execute") saw_execute = true;
    }
  }
  EXPECT_TRUE(saw_execute);
  EXPECT_GT(query_dur, 0u);
  // Coordinator phase spans cover the statement: their sum lands within
  // 20% of (or 200us around) the enclosing query span.
  const std::uint64_t tolerance =
      std::max<std::uint64_t>(200, query_dur / 5);
  EXPECT_LE(phase_sum, query_dur + tolerance);
  EXPECT_GE(phase_sum + tolerance, query_dur);

  // The rendered JSON of the last trace is retained on the engine.
  const std::string json = engine.LastTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"query\""), std::string::npos);

  // DML traces carry commit-side spans.
  r = session.Sql("INSERT INTO t VALUES (4)");
  ASSERT_TRUE(r.ok());
  ASSERT_NE(r.value().trace, nullptr);
  bool saw_commit = false;
  for (const obs::TraceEvent& e : r.value().trace->Events()) {
    if (e.name == "commit") saw_commit = true;
  }
  EXPECT_TRUE(saw_commit);
}

TEST(EngineIntrospectionTest, PiStatsQueriesRecordsSuccessAndFailure) {
  EngineOptions options;
  options.num_threads = 2;
  options.flight_recorder_capacity = 16;
  Engine engine(options);
  Session session = engine.CreateSession();
  ASSERT_TRUE(session.Sql("CREATE TABLE t (a INT64)").ok());
  ASSERT_TRUE(session.Sql("INSERT INTO t VALUES (1), (2)").ok());
  ASSERT_TRUE(session.Sql("SELECT a FROM t").ok());

  Result<QueryResult> q = session.Sql(
      "SELECT sql, status, error, rows_returned, rows_affected, session_id "
      "FROM pi_stats.queries");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  {
    const Batch& rows = q.value().rows;
    // Newest first: SELECT, INSERT, CREATE.
    ASSERT_EQ(rows.num_rows(), 3u);
    EXPECT_EQ(rows.columns[0].str[0], "SELECT a FROM t");
    EXPECT_EQ(rows.columns[1].str[0], "ok");
    EXPECT_EQ(rows.columns[3].i64[0], 2);  // rows_returned
    EXPECT_EQ(rows.columns[0].str[1], "INSERT INTO t VALUES (1), (2)");
    EXPECT_EQ(rows.columns[4].i64[1], 2);  // rows_affected
    // Every recorded statement came from this session, in-process.
    for (std::size_t i = 0; i < rows.num_rows(); ++i) {
      EXPECT_EQ(rows.columns[5].i64[i],
                static_cast<std::int64_t>(session.session_id()));
    }
  }

  // A statement that fails *during* execution is retained with its
  // status code name and message: prepare a DML statement (it re-resolves
  // its table by name per execution), drop the table, then execute.
  Result<PreparedStatement> prepared =
      session.Prepare("INSERT INTO t VALUES (9)");
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(engine.catalog().DropTable("t").ok());
  Result<QueryResult> failed = prepared.value().Execute({});
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kNotFound);

  q = session.Sql("SELECT sql, status, error FROM pi_stats.queries");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const Batch& rows = q.value().rows;
  bool found_failure = false;
  for (std::size_t i = 0; i < rows.num_rows(); ++i) {
    if (rows.columns[1].str[i] != "ok") {
      found_failure = true;
      EXPECT_EQ(rows.columns[0].str[i], "INSERT INTO t VALUES (9)");
      EXPECT_EQ(rows.columns[1].str[i], "NotFound");
      EXPECT_FALSE(rows.columns[2].str[i].empty());
    }
  }
  EXPECT_TRUE(found_failure);

  // Parse/bind failures never begin executing and are not recorded.
  ASSERT_FALSE(session.Sql("SELECT a FROM missing_table").ok());
  q = session.Sql(
      "SELECT count(*) FROM pi_stats.queries WHERE status = 'NotFound'");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().rows.columns[0].i64[0], 1);
}

TEST(EngineIntrospectionTest, PiStatsTablesAndPartitionsSeeLiveState) {
  EngineOptions options;
  options.num_threads = 2;
  Engine engine(options);
  Session session = engine.CreateSession();
  ASSERT_TRUE(
      session.Sql("CREATE TABLE t (a INT64, b STRING) PARTITIONS 4").ok());
  ASSERT_TRUE(
      session.Sql("INSERT INTO t VALUES (1,'x'),(2,'y'),(3,'z')").ok());

  Result<QueryResult> q = session.Sql(
      "SELECT name, partitions, rows, pending_inserts, durable "
      "FROM pi_stats.tables WHERE name = 't'");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q.value().rows.num_rows(), 1u);
  EXPECT_EQ(q.value().rows.columns[1].i64[0], 4);
  EXPECT_EQ(q.value().rows.columns[2].i64[0], 3);
  EXPECT_EQ(q.value().rows.columns[4].i64[0], 0);  // volatile engine

  // MVCC columns: the INSERT's commit published a version, so at least
  // one is alive and its csn is positive. With no reader pinning an old
  // version, a later commit supersedes it and the epoch GC reclaims —
  // live stays small and the oldest live csn advances with the head.
  q = session.Sql(
      "SELECT live_versions, oldest_pinned_csn FROM pi_stats.tables "
      "WHERE name = 't'");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q.value().rows.num_rows(), 1u);
  EXPECT_GE(q.value().rows.columns[0].i64[0], 1);
  const std::int64_t csn_before = q.value().rows.columns[1].i64[0];
  EXPECT_GE(csn_before, 1);
  ASSERT_TRUE(session.Sql("UPDATE t SET a = 7 WHERE a = 1").ok());
  q = session.Sql(
      "SELECT live_versions, oldest_pinned_csn FROM pi_stats.tables "
      "WHERE name = 't'");
  ASSERT_TRUE(q.ok());
  EXPECT_GE(q.value().rows.columns[0].i64[0], 1);
  EXPECT_GT(q.value().rows.columns[1].i64[0], csn_before);

  // Partition rows sum to the table's; one row per partition.
  q = session.Sql(
      "SELECT count(*), sum(rows) FROM pi_stats.partitions "
      "WHERE table_name = 't'");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().rows.columns[0].i64[0], 4);
  EXPECT_EQ(q.value().rows.columns[1].i64[0], 3);

  // pi_stats filters/sorts like any table: the scan feeds the normal
  // operator tree.
  q = session.Sql(
      "SELECT partition FROM pi_stats.partitions "
      "WHERE rows > 0 ORDER BY partition");
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  // No server attached: connections is empty, wal is empty (volatile).
  q = session.Sql("SELECT count(*) FROM pi_stats.connections");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().rows.columns[0].i64[0], 0);
  q = session.Sql("SELECT count(*) FROM pi_stats.wal");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().rows.columns[0].i64[0], 0);
}

TEST(EngineIntrospectionTest, PiStatsIsReadOnly) {
  Engine engine(EngineOptions{});
  Session session = engine.CreateSession();
  const char* rejected[] = {
      "INSERT INTO pi_stats.queries VALUES (1)",
      "UPDATE pi_stats.metrics SET value = 0",
      "DELETE FROM pi_stats.queries",
      "CREATE TABLE pi_stats.mine (a INT64)",
  };
  for (const char* sql : rejected) {
    Result<QueryResult> r = session.Sql(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_NE(r.status().message().find("read-only"), std::string::npos)
        << sql << " -> " << r.status().ToString();
  }
  // Unknown pi_stats member names the known set.
  Result<QueryResult> r = session.Sql("SELECT * FROM pi_stats.nope");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("pi_stats"), std::string::npos);
}

TEST(EngineIntrospectionTest, DurabilityMetricsAndCsnFlow) {
  const std::string dir = std::string(::testing::TempDir()) +
                          "/obs_dura." + std::to_string(::getpid());
  (void)std::system(("rm -rf '" + dir + "'").c_str());
  {
    EngineOptions options;
    options.num_threads = 2;
    options.durability.data_dir = dir;
    Engine engine(options);
    ASSERT_TRUE(engine.recovery_status().ok());
    Session session = engine.CreateSession();
    ASSERT_TRUE(
        session.Sql("CREATE TABLE d (a INT64) PARTITIONS 2").ok());
    ASSERT_TRUE(session.Sql("INSERT INTO d VALUES (1), (2)").ok());
    ASSERT_TRUE(session.Sql("UPDATE d SET a = 3 WHERE a = 1").ok());

    // Durable DML carries its WAL commit sequence number into
    // pi_stats.queries; reads stay -1.
    Result<QueryResult> q = session.Sql(
        "SELECT sql, csn FROM pi_stats.queries");
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    const Batch& rows = q.value().rows;
    std::int64_t insert_csn = -1;
    std::int64_t update_csn = -1;
    for (std::size_t i = 0; i < rows.num_rows(); ++i) {
      const std::string& sql = rows.columns[0].str[i];
      if (sql.rfind("INSERT", 0) == 0) insert_csn = rows.columns[1].i64[i];
      if (sql.rfind("UPDATE", 0) == 0) update_csn = rows.columns[1].i64[i];
      if (sql.rfind("SELECT", 0) == 0) EXPECT_EQ(rows.columns[1].i64[i], -1);
    }
    EXPECT_GT(insert_csn, 0);
    EXPECT_EQ(update_csn, insert_csn + 1);

    // WAL introspection: per-partition rows for the durable table, CSNs
    // past the commits.
    q = session.Sql(
        "SELECT count(*), sum(wal_bytes) FROM pi_stats.wal "
        "WHERE table_name = 'd'");
    ASSERT_TRUE(q.ok());
    EXPECT_EQ(q.value().rows.columns[0].i64[0], 2);
    EXPECT_GT(q.value().rows.columns[1].i64[0], 0);

    // Durability metrics moved: appended bytes and fsync observations.
    q = session.Sql(
        "SELECT value FROM pi_stats.metrics "
        "WHERE name = 'pidx_wal_appended_bytes_total'");
    ASSERT_TRUE(q.ok());
    ASSERT_EQ(q.value().rows.num_rows(), 1u);
    EXPECT_GT(q.value().rows.columns[0].i64[0], 0);
    // Histogram observation counts ride in column 3 ("count" is also the
    // aggregate keyword, so read it positionally via SELECT *).
    q = session.Sql(
        "SELECT * FROM pi_stats.metrics "
        "WHERE name = 'pidx_fsync_latency_us'");
    ASSERT_TRUE(q.ok());
    ASSERT_EQ(q.value().rows.num_rows(), 1u);
    EXPECT_GT(q.value().rows.columns[3].i64[0], 0);

    ASSERT_TRUE(engine.Checkpoint().ok());
    q = session.Sql(
        "SELECT * FROM pi_stats.metrics "
        "WHERE name = 'pidx_checkpoint_duration_us'");
    ASSERT_TRUE(q.ok());
    ASSERT_EQ(q.value().rows.num_rows(), 1u);
    EXPECT_GT(q.value().rows.columns[3].i64[0], 0);
  }
  {
    // Restart: the recovery gauges land in pi_stats.metrics.
    EngineOptions options;
    options.num_threads = 2;
    options.durability.data_dir = dir;
    Engine engine(options);
    ASSERT_TRUE(engine.recovery_status().ok());
    Session session = engine.CreateSession();
    Result<QueryResult> q = session.Sql(
        "SELECT value FROM pi_stats.metrics "
        "WHERE name = 'pidx_recovery_tables'");
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    ASSERT_EQ(q.value().rows.num_rows(), 1u);
    EXPECT_EQ(q.value().rows.columns[0].i64[0], 1);
  }
  (void)std::system(("rm -rf '" + dir + "'").c_str());
}

}  // namespace
}  // namespace patchindex
