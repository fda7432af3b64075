// The server-side observability surface: the slow-query log, server
// metrics folded into the engine registry (.stats and after Stop()),
// query profiles crossing the wire, and the Prometheus HTTP endpoint.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "engine/engine.h"
#include "obs/metrics_http.h"
#include "server/server.h"

namespace patchindex::net {
namespace {

struct TestServer {
  explicit TestServer(ServerOptions options = {},
                      EngineOptions engine_options = {})
      : engine(engine_options) {
    options.port = 0;  // ephemeral
    server = std::make_unique<PiServer>(engine, std::move(options));
    const Status st = server->Start();
    EXPECT_TRUE(st.ok()) << st.ToString();
  }

  ~TestServer() {
    if (server != nullptr) server->Stop();
  }

  PiClient Connect() {
    PiClient client;
    const Status st = client.Connect("127.0.0.1", server->port());
    EXPECT_TRUE(st.ok()) << st.ToString();
    return client;
  }

  Engine engine;
  std::unique_ptr<PiServer> server;
};

TEST(ServerObservabilityTest, SlowQueryLogCapturesSqlAndPhases) {
  std::mutex mu;
  std::vector<std::string> logged;
  ServerOptions options;
  options.slow_query_ms = 1;
  options.slow_query_sink = [&](const std::string& line) {
    std::lock_guard<std::mutex> lock(mu);
    logged.push_back(line);
  };
  TestServer ts(std::move(options));
  PiClient client = ts.Connect();

  // Meta commands are not query tasks — table setup must not be logged.
  Result<std::string> gen = client.Meta(".gen nuc big 300000 0.05");
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_TRUE(logged.empty());
  }

  // Streaming a 300k-row result over loopback cannot finish inside the
  // 1ms threshold, so exactly this query shows up in the log.
  Result<QueryResult> r = client.Sql("SELECT key, val FROM big");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows.num_rows(), 300'000u);

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(logged.size(), 1u);
  EXPECT_NE(logged[0].find("slow query ("), std::string::npos) << logged[0];
  EXPECT_NE(logged[0].find("SELECT key, val FROM big"), std::string::npos);
  // The phase breakdown rides along when the query carried a profile.
  EXPECT_NE(logged[0].find("phases: parse="), std::string::npos) << logged[0];
  EXPECT_NE(logged[0].find("execute="), std::string::npos) << logged[0];
  // ...and the dedicated counter moved.
  const std::string text = ts.engine.metrics().RenderText();
  EXPECT_NE(text.find("pidx_server_slow_queries_total 1"), std::string::npos);
}

TEST(ServerObservabilityTest, StatsMetaIncludesServerMetrics) {
  TestServer ts;
  PiClient client = ts.Connect();
  ASSERT_TRUE(client.Sql("CREATE TABLE t (a INT64)").ok());
  ASSERT_TRUE(client.Sql("INSERT INTO t VALUES (1), (2)").ok());
  ASSERT_TRUE(client.Sql("SELECT COUNT(*) FROM t").ok());

  Result<std::string> stats = client.Meta(".stats");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const std::string& text = stats.value();
  // Engine-side metrics...
  EXPECT_NE(text.find("pidx_sql_statements_total 3"), std::string::npos)
      << text;
  EXPECT_NE(text.find("pidx_query_latency_us count="), std::string::npos);
  // ...and the server's own, through the same registry.
  EXPECT_NE(text.find("pidx_server_queries_executed_total 3"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("pidx_server_connections_accepted_total 1"),
            std::string::npos);
  EXPECT_NE(text.find("pidx_server_query_latency_us count=3"),
            std::string::npos);
  // The connection-queue wait is recorded once, under its wait-event name.
  EXPECT_NE(text.find("pidx_wait_server_queue_us count="), std::string::npos);
  EXPECT_EQ(text.find("pidx_wait_server_queue_us count=0 "), std::string::npos)
      << text;
  EXPECT_EQ(text.find("pidx_server_queue_wait_us"), std::string::npos);
}

TEST(ServerObservabilityTest, StoppedServerLeavesFrozenStatsInRegistry) {
  Engine* engine = nullptr;
  std::string after;
  {
    TestServer ts;
    engine = &ts.engine;
    PiClient client = ts.Connect();
    ASSERT_TRUE(client.Sql("CREATE TABLE t (a INT64)").ok());
    ASSERT_TRUE(client.Sql("SELECT COUNT(*) FROM t").ok());
    client.Close();
    ts.server->Stop();
    // The server is stopped (and about to be destroyed) but the engine
    // registry must keep rendering its final values — the callbacks were
    // frozen in Stop(). Under ASan this is also the use-after-free check.
    ts.server.reset();
    after = engine->metrics().RenderText();
  }
  EXPECT_NE(after.find("pidx_server_queries_executed_total 2"),
            std::string::npos)
      << after;
  EXPECT_NE(after.find("pidx_server_connections_accepted_total 1"),
            std::string::npos);
}

TEST(ServerObservabilityTest, WireCarriesQueryProfile) {
  TestServer ts;
  PiClient client = ts.Connect();
  ASSERT_TRUE(client.Sql("CREATE TABLE t (a INT64, b INT64)").ok());

  // DML: commit phases cross the wire.
  Result<QueryResult> r = client.Sql("INSERT INTO t VALUES (1, 10), (2, 20)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r.value().profile, nullptr);
  EXPECT_GT(r.value().profile->total_ms, 0.0);
  EXPECT_GE(r.value().profile->commit_ms, 0.0);

  // Read: phase spans cross the wire.
  r = client.Sql("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r.value().profile, nullptr);
  EXPECT_GT(r.value().profile->total_ms, 0.0);

  // EXPLAIN ANALYZE: plan rows plus the profile.
  r = client.Sql("EXPLAIN ANALYZE SELECT COUNT(*) FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().column_names, (std::vector<std::string>{"plan"}));
  ASSERT_NE(r.value().profile, nullptr);
  bool has_phases = false;
  for (std::size_t i = 0; i < r.value().rows.num_rows(); ++i) {
    if (r.value().rows.columns[0].str[i].rfind("phases:", 0) == 0) {
      has_phases = true;
    }
  }
  EXPECT_TRUE(has_phases);

  // Plain EXPLAIN never ran the query: no profile byte on the wire.
  r = client.Sql("EXPLAIN SELECT COUNT(*) FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().profile, nullptr);
}

/// One blocking HTTP exchange against 127.0.0.1:`port`: sends `request`
/// verbatim, reads to EOF (the endpoint closes after each response).
std::string HttpExchange(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

/// Renders a result batch as one line per row — for comparing the same
/// pi_stats query served in-process and over the wire.
std::string RenderRows(const QueryResult& qr) {
  std::string out;
  for (std::size_t r = 0; r < qr.rows.num_rows(); ++r) {
    for (std::size_t c = 0; c < qr.rows.columns.size(); ++c) {
      if (c > 0) out += " | ";
      out += qr.rows.columns[c].GetValue(r).ToString();
    }
    out += "\n";
  }
  return out;
}

TEST(ServerObservabilityTest, PiStatsIdenticalInProcessAndOverTheWire) {
  TestServer ts;
  PiClient client = ts.Connect();
  ASSERT_TRUE(client.Sql("CREATE TABLE t (a INT64, b INT64) PARTITIONS 2")
                  .ok());
  ASSERT_TRUE(client.Sql("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
                  .ok());

  Session local = ts.engine.CreateSession();
  for (const char* sql :
       {"SELECT name, partitions, rows, indexes, durable FROM "
        "pi_stats.tables ORDER BY name",
        "SELECT table_name, partition, rows FROM pi_stats.partitions "
        "ORDER BY table_name, partition",
        "SELECT name, kind FROM pi_stats.metrics ORDER BY name"}) {
    Result<QueryResult> remote = client.Sql(sql);
    ASSERT_TRUE(remote.ok()) << sql << ": " << remote.status().ToString();
    Result<QueryResult> in_process = local.Sql(sql);
    ASSERT_TRUE(in_process.ok()) << in_process.status().ToString();
    EXPECT_EQ(RenderRows(remote.value()), RenderRows(in_process.value()))
        << sql;
    EXPECT_EQ(remote.value().column_names, in_process.value().column_names);
  }
}

TEST(ServerObservabilityTest, PiStatsConnectionsShowsRemotePeers) {
  TestServer ts;
  PiClient client = ts.Connect();
  ASSERT_TRUE(client.Sql("CREATE TABLE t (a INT64)").ok());
  ASSERT_TRUE(client.Sql("INSERT INTO t VALUES (1)").ok());

  Result<QueryResult> r = client.Sql(
      "SELECT connection_id, remote, state, queries "
      "FROM pi_stats.connections");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Batch& rows = r.value().rows;
  ASSERT_EQ(rows.num_rows(), 1u);
  EXPECT_GE(rows.columns[0].i64[0], 1);
  EXPECT_NE(rows.columns[1].str[0].find("127.0.0.1:"), std::string::npos)
      << rows.columns[1].str[0];
  EXPECT_EQ(rows.columns[2].str[0], "open");
  // The counter includes this very statement (bumped at dispatch).
  EXPECT_GE(rows.columns[3].i64[0], 3);

  // A second client is a second row, and the recorder attributes each
  // connection's statements to its id.
  PiClient other = ts.Connect();
  Result<QueryResult> two = other.Sql(
      "SELECT connection_id FROM pi_stats.connections "
      "ORDER BY connection_id");
  ASSERT_TRUE(two.ok()) << two.status().ToString();
  ASSERT_EQ(two.value().rows.num_rows(), 2u);
  EXPECT_LT(two.value().rows.columns[0].i64[0],
            two.value().rows.columns[0].i64[1]);
}

TEST(ServerObservabilityTest, ActiveQueryVisibleFromSecondConnection) {
  // Park one connection's statement inside execution (engine-level hook,
  // which fires after the flight recorder registered the query), then
  // look at pi_stats.active_queries from a second connection.
  std::mutex mu;
  std::condition_variable cv;
  bool parked = false;
  bool release = false;
  const std::string kParked = "SELECT a FROM park_t";
  EngineOptions engine_options;
  engine_options.sql_exec_hook = [&](std::string_view sql) {
    if (sql != kParked) return;
    std::unique_lock<std::mutex> lock(mu);
    parked = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  TestServer ts({}, engine_options);
  PiClient setup = ts.Connect();
  ASSERT_TRUE(setup.Sql("CREATE TABLE park_t (a INT64)").ok());
  ASSERT_TRUE(setup.Sql("INSERT INTO park_t VALUES (7)").ok());

  PiClient slow = ts.Connect();
  std::thread runner([&] {
    Result<QueryResult> r = slow.Sql(kParked);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().rows.num_rows(), 1u);
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return parked; });
  }

  Result<QueryResult> active = setup.Sql(
      "SELECT sql, phase, connection_id FROM pi_stats.active_queries");
  ASSERT_TRUE(active.ok()) << active.status().ToString();
  bool seen = false;
  const Batch& rows = active.value().rows;
  for (std::size_t i = 0; i < rows.num_rows(); ++i) {
    if (rows.columns[0].str[i] == kParked) {
      seen = true;
      EXPECT_EQ(rows.columns[1].str[i], "execute");
      EXPECT_GE(rows.columns[2].i64[i], 1);
    }
  }
  EXPECT_TRUE(seen) << RenderRows(active.value());

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  runner.join();

  // Once finished it leaves the active registry and enters the ring.
  Result<QueryResult> after = setup.Sql(
      "SELECT sql FROM pi_stats.active_queries");
  ASSERT_TRUE(after.ok());
  for (std::size_t i = 0; i < after.value().rows.num_rows(); ++i) {
    EXPECT_NE(after.value().rows.columns[0].str[i], kParked);
  }
  Result<QueryResult> ring = setup.Sql(
      "SELECT sql, status FROM pi_stats.queries");
  ASSERT_TRUE(ring.ok());
  bool retired = false;
  for (std::size_t i = 0; i < ring.value().rows.num_rows(); ++i) {
    if (ring.value().rows.columns[0].str[i] == kParked) {
      retired = true;
      EXPECT_EQ(ring.value().rows.columns[1].str[i], "ok");
    }
  }
  EXPECT_TRUE(retired);
}

TEST(ServerObservabilityTest, MemoryLimitErrorCrossesWireServerKeepsServing) {
  EngineOptions engine_options;
  engine_options.query_memory_limit = 256 * 1024;
  TestServer ts({}, engine_options);
  PiClient client = ts.Connect();
  ASSERT_TRUE(client.Meta(".gen nuc big 200000 0.05").ok());

  // The over-budget statement fails with the structured status — the
  // code survives the wire, not a generic "internal error" downgrade.
  Result<QueryResult> r = client.Sql("SELECT key, val FROM big ORDER BY val");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("memory limit exceeded in operator"),
            std::string::npos)
      << r.status().ToString();

  // Same connection, next statement: the server kept serving.
  Result<QueryResult> count = client.Sql("SELECT COUNT(*) FROM big");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count.value().rows.columns[0].i64[0], 200'000);

  // The failure is attributed in the flight recorder, queryable remotely.
  Result<QueryResult> ring = client.Sql(
      "SELECT COUNT(*) FROM pi_stats.queries "
      "WHERE status = 'ResourceExhausted'");
  ASSERT_TRUE(ring.ok()) << ring.status().ToString();
  EXPECT_EQ(ring.value().rows.columns[0].i64[0], 1);
}

TEST(ServerObservabilityTest, PeakMemAgreesAcrossSurfacesOverTheWire) {
  TestServer ts;
  PiClient client = ts.Connect();
  ASSERT_TRUE(client.Meta(".gen nuc big 50000 0.05").ok());

  const std::string sql =
      "EXPLAIN ANALYZE SELECT key, val FROM big ORDER BY val LIMIT 10";
  Result<QueryResult> r = client.Sql(sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::string plan;
  for (std::size_t i = 0; i < r.value().rows.num_rows(); ++i) {
    plan += r.value().rows.columns[0].str[i] + "\n";
  }
  std::smatch m;
  ASSERT_TRUE(std::regex_search(plan, m, std::regex("peak_mem=([0-9]+)")))
      << plan;
  const std::int64_t rendered = std::stoll(m[1]);
  EXPECT_GT(rendered, 0);

  // The pi_stats.queries row for the same statement, fetched over the
  // same connection, reports the identical byte count.
  Result<QueryResult> rec = client.Sql(
      "SELECT peak_mem_bytes FROM pi_stats.queries WHERE sql = '" + sql +
      "'");
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  ASSERT_EQ(rec.value().rows.num_rows(), 1u);
  EXPECT_EQ(rec.value().rows.columns[0].i64[0], rendered);
}

TEST(ServerObservabilityTest, MemoryHighWatermarkShedsLoadUntilItClears) {
  ServerOptions options;
  options.memory_soft_limit = 1 << 20;
  TestServer ts(std::move(options));
  PiClient client = ts.Connect();
  ASSERT_TRUE(client.Sql("CREATE TABLE t (a INT64)").ok());

  // Pin tracked engine memory above the watermark (standing in for a
  // fleet of hungry queries) — new statements are shed at admission.
  ts.engine.memory().Charge(2 << 20, "test ballast");
  Result<QueryResult> shed = client.Sql("SELECT COUNT(*) FROM t");
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable)
      << shed.status().ToString();
  EXPECT_NE(shed.status().message().find("SERVER_BUSY"), std::string::npos)
      << shed.status().ToString();
  EXPECT_NE(shed.status().message().find("high-watermark"), std::string::npos);

  // The rejection is counted on its own metric, separate from queue-full.
  EXPECT_NE(ts.engine.metrics().RenderText().find(
                "pidx_server_queries_rejected_memory_total 1"),
            std::string::npos);

  // Memory drains back under the watermark: the same connection serves
  // again — shedding is a back-pressure valve, not a death sentence.
  ts.engine.memory().Release(2 << 20);
  Result<QueryResult> ok = client.Sql("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST(MetricsHttpTest, ServesPrometheusTextAndRejectsOtherPaths) {
  Engine engine;
  Session session = engine.CreateSession();
  ASSERT_TRUE(session.Sql("CREATE TABLE t (a INT64)").ok());
  ASSERT_TRUE(session.Sql("SELECT COUNT(*) FROM t").ok());

  obs::MetricsHttpServer http(engine.metrics(), "127.0.0.1", 0);
  ASSERT_TRUE(http.Start().ok());
  ASSERT_GT(http.port(), 0);

  const std::string ok = HttpExchange(
      http.port(), "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(ok.find("HTTP/1.1 200 OK"), std::string::npos) << ok;
  EXPECT_NE(ok.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(ok.find("# TYPE pidx_sql_statements_total counter"),
            std::string::npos);
  EXPECT_NE(ok.find("pidx_sql_statements_total 2"), std::string::npos) << ok;
  EXPECT_NE(ok.find("pidx_query_latency_us_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(ok.find("pidx_query_latency_us_count"), std::string::npos);

  const std::string not_found = HttpExchange(
      http.port(), "GET /something HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(not_found.find("HTTP/1.1 404 Not Found"), std::string::npos);

  // A query string still routes to the scrape handler.
  const std::string with_query = HttpExchange(
      http.port(), "GET /metrics?debug=1 HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(with_query.find("HTTP/1.1 200 OK"), std::string::npos);

  http.Stop();
  http.Stop();  // idempotent
}

TEST(MetricsHttpTest, HealthzTraceAndHeadRequests) {
  EngineOptions engine_options;
  engine_options.trace_sampling = 1.0;
  Engine engine(engine_options);
  Session session = engine.CreateSession();

  std::atomic<bool> healthy{true};
  obs::MetricsHttpServer http(engine.metrics(), "127.0.0.1", 0);
  http.set_health_provider([&healthy] { return healthy.load(); });
  http.set_trace_provider([&engine] { return engine.LastTraceJson(); });
  ASSERT_TRUE(http.Start().ok());

  // /healthz flips with the provider: 200 while serving, 503 draining.
  std::string up = HttpExchange(
      http.port(), "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(up.find("HTTP/1.1 200 OK"), std::string::npos) << up;
  EXPECT_NE(up.find("ok\n"), std::string::npos);
  healthy.store(false);
  const std::string down = HttpExchange(
      http.port(), "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(down.find("HTTP/1.1 503 Service Unavailable"), std::string::npos)
      << down;
  EXPECT_NE(down.find("draining\n"), std::string::npos);
  healthy.store(true);

  // /trace is 404 until a sampled statement lands (every statement,
  // DDL included, counts at sampling 1.0), then Chrome JSON.
  const std::string no_trace = HttpExchange(
      http.port(), "GET /trace HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(no_trace.find("HTTP/1.1 404 Not Found"), std::string::npos)
      << no_trace;
  ASSERT_TRUE(session.Sql("CREATE TABLE t (a INT64)").ok());
  ASSERT_TRUE(session.Sql("SELECT COUNT(*) FROM t").ok());
  const std::string traced = HttpExchange(
      http.port(), "GET /trace HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(traced.find("HTTP/1.1 200 OK"), std::string::npos) << traced;
  EXPECT_NE(traced.find("Content-Type: application/json"), std::string::npos);
  EXPECT_NE(traced.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(traced.find("\"name\":\"query\""), std::string::npos);

  // HEAD answers headers only — same status and Content-Length as GET,
  // body withheld.
  const std::string head = HttpExchange(
      http.port(), "HEAD /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(head.find("HTTP/1.1 200 OK"), std::string::npos) << head;
  EXPECT_NE(head.find("Content-Length: "), std::string::npos);
  EXPECT_EQ(head.find("pidx_sql_statements_total"), std::string::npos) << head;
  const std::size_t head_end = head.find("\r\n\r\n");
  ASSERT_NE(head_end, std::string::npos);
  EXPECT_EQ(head.size(), head_end + 4);  // nothing after the headers
  const std::string head_health = HttpExchange(
      http.port(), "HEAD /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(head_health.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_EQ(head_health.find("ok\n"), std::string::npos);

  http.Stop();
}

}  // namespace
}  // namespace patchindex::net
