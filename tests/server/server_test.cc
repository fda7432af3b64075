// End-to-end tests of the network subsystem: the wire protocol, the
// PiServer/PiClient pair over real loopback sockets, result equivalence
// against the in-process Session::Sql path, prepared statements,
// admission control (SERVER_BUSY), and graceful shutdown draining.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "engine/engine.h"
#include "server/meta_commands.h"
#include "server/server.h"
#include "server/wire.h"

namespace patchindex::net {
namespace {

// ------------------------------------------------------------- wire unit

TEST(WireTest, PrimitiveRoundTrip) {
  std::string w;
  PutU8(&w, 0xab);
  PutU32(&w, 0xdeadbeef);
  PutU64(&w, 0x0123456789abcdefull);
  PutI64(&w, -42);
  PutF64(&w, 3.25);
  PutString(&w, "hello");
  PutString(&w, "");

  ByteReader r(w);
  const std::uint8_t u8 = r.GetU8();
  const std::uint32_t u32 = r.GetU32();
  const std::uint64_t u64 = r.GetU64();
  const std::int64_t i64 = r.GetI64();
  const double f64 = r.GetF64();
  const std::string s1 = r.GetString();
  const std::string s2 = r.GetString();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefull);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(f64, 3.25);
  EXPECT_EQ(s1, "hello");
  EXPECT_EQ(s2, "");
  EXPECT_TRUE(r.done());
  // One more read past the end fails cleanly.
  r.GetU8();
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(DecodeStatus(r).ok());
}

TEST(WireTest, ValueRoundTrip) {
  const std::vector<Value> values = {Value(std::int64_t{-7}), Value(2.5),
                                     Value(std::string("abc'd\nef"))};
  std::string w;
  EncodeParams(&w, values);
  ByteReader r(w);
  std::vector<Value> out;
  ASSERT_TRUE(DecodeParams(&r, &out).ok());
  ASSERT_EQ(out.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_TRUE(out[i] == values[i]) << i;
  }
}

TEST(WireTest, ErrorFrameCarriesCodeAndPosition) {
  const Status original = Status::InvalidArgument(
      "unknown column 'x' at line 3, column 14");
  std::string w;
  EncodeError(&w, original);
  ByteReader r(w);
  Status decoded;
  std::uint32_t line = 0, column = 0;
  ASSERT_TRUE(DecodeError(&r, &decoded, &line, &column).ok());
  EXPECT_EQ(decoded.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(decoded.message(), original.message());
  EXPECT_EQ(decoded.ToString(), original.ToString());
  EXPECT_EQ(line, 3u);
  EXPECT_EQ(column, 14u);
}

TEST(WireTest, ExtractSourceLoc) {
  std::uint32_t line = 0, column = 0;
  EXPECT_FALSE(ExtractSourceLoc("no position here", &line, &column));
  EXPECT_TRUE(ExtractSourceLoc("syntax error at line 2, column 7", &line,
                               &column));
  EXPECT_EQ(line, 2u);
  EXPECT_EQ(column, 7u);
  // The last occurrence wins (innermost position of a nested message).
  EXPECT_TRUE(ExtractSourceLoc(
      "at line 1, column 1: unknown column at line 4, column 9", &line,
      &column));
  EXPECT_EQ(line, 4u);
  EXPECT_EQ(column, 9u);
  // "line" without a number is not a position.
  EXPECT_FALSE(ExtractSourceLoc("line , column 3", &line, &column));
}

/// The bit pattern of a double, so NaNs and -0.0 compare exactly.
std::uint64_t Bits(double d) { return std::bit_cast<std::uint64_t>(d); }

/// One (INT64, DOUBLE, STRING) batch with every edge value of each type.
Batch EdgeRows() {
  const std::vector<std::int64_t> ints = {
      std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max(), 0, -1, 42, 7};
  const std::vector<double> doubles = {
      std::bit_cast<double>(std::uint64_t{0x7ff8000000000123}),  // NaN
      std::bit_cast<double>(std::uint64_t{0xfff0000000000001}),  // NaN
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      2.5};
  const std::vector<std::string> strings = {
      "", std::string("a\0b", 3), std::string((64u << 10) + 17, 'L'), "x",
      std::string(1, '\0'), "tail"};
  Batch rows;
  rows.Reset({ColumnType::kInt64, ColumnType::kDouble, ColumnType::kString});
  for (std::size_t i = 0; i < ints.size(); ++i) {
    rows.columns[0].i64.push_back(ints[i]);
    rows.columns[1].f64.push_back(doubles[i]);
    rows.columns[2].str.push_back(strings[i]);
    rows.row_ids.push_back(1000 + i);  // engine rowIDs do not travel
  }
  return rows;
}

/// Expects rows [begin, begin + n) of `want` at [at, at + n) of `got`,
/// doubles compared bit for bit.
void ExpectRowsEqual(const Batch& got, std::size_t at, const Batch& want,
                     std::size_t begin, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(got.columns[0].i64[at + i], want.columns[0].i64[begin + i]);
    EXPECT_EQ(Bits(got.columns[1].f64[at + i]),
              Bits(want.columns[1].f64[begin + i]));
    EXPECT_EQ(got.columns[2].str[at + i], want.columns[2].str[begin + i]);
  }
}

TEST(WireTest, RowBatchRoundTripsEdgeValuesBitForBit) {
  const Batch rows = EdgeRows();
  std::string w;
  EncodeRowBatch(&w, rows, 0, rows.num_rows());
  ByteReader r(w);
  Batch out;
  out.Reset(rows.types());
  ASSERT_TRUE(DecodeRowBatch(&r, &out).ok());
  EXPECT_TRUE(r.done());
  ASSERT_EQ(out.num_rows(), rows.num_rows());
  ExpectRowsEqual(out, 0, rows, 0, rows.num_rows());
  EXPECT_TRUE(std::isnan(out.columns[1].f64[0]));
  EXPECT_TRUE(std::signbit(out.columns[1].f64[2]));
  EXPECT_EQ(out.columns[2].str[1].size(), 3u);
  for (std::size_t i = 0; i < out.num_rows(); ++i) {
    EXPECT_EQ(out.row_ids[i], i);
  }
}

TEST(WireTest, ZeroRowBatchRoundTrips) {
  const Batch rows = EdgeRows();
  std::string w;
  EncodeRowBatch(&w, rows, 2, 2);
  EXPECT_EQ(w.size(), 4u);  // just the row count
  ByteReader r(w);
  Batch out;
  out.Reset(rows.types());
  ASSERT_TRUE(DecodeRowBatch(&r, &out).ok());
  EXPECT_TRUE(r.done());
  EXPECT_EQ(out.num_rows(), 0u);
  for (const ColumnVector& col : out.columns) EXPECT_EQ(col.size(), 0u);
}

TEST(WireTest, BatchesAppendWithSequentialRowIds) {
  const Batch rows = EdgeRows();
  // Uneven slices, an empty one among them, decoded onto one Batch.
  const std::vector<std::pair<std::size_t, std::size_t>> slices = {
      {0, 1}, {1, 4}, {4, 4}, {4, 6}, {0, 6}};
  Batch out;
  out.Reset(rows.types());
  std::size_t at = 0;
  for (const auto& [begin, end] : slices) {
    std::string w;
    EncodeRowBatch(&w, rows, begin, end);
    ByteReader r(w);
    ASSERT_TRUE(DecodeRowBatch(&r, &out).ok());
    EXPECT_TRUE(r.done());
    ASSERT_EQ(out.num_rows(), at + (end - begin));
    ExpectRowsEqual(out, at, rows, begin, end - begin);
    at += end - begin;
  }
  for (const ColumnVector& col : out.columns) EXPECT_EQ(col.size(), at);
  for (std::size_t i = 0; i < at; ++i) EXPECT_EQ(out.row_ids[i], i);
}

TEST(WireTest, WireBatchEndHonorsBothCaps) {
  Batch ints;
  ints.Reset({ColumnType::kInt64, ColumnType::kDouble});
  for (std::size_t i = 0; i < 3 * kRowsPerWireBatch; ++i) {
    ints.columns[0].i64.push_back(static_cast<std::int64_t>(i));
    ints.columns[1].f64.push_back(0.5);
    ints.row_ids.push_back(i);
  }
  EXPECT_EQ(WireBatchEnd(ints, 0), kRowsPerWireBatch);
  EXPECT_EQ(WireBatchEnd(ints, ints.num_rows() - 5), ints.num_rows());
  EXPECT_EQ(WireBatchEnd(ints, ints.num_rows()), ints.num_rows());

  // 100 KiB strings: the byte cap closes a batch after the row that
  // reaches kWireBatchSoftBytes; a row above the cap travels alone.
  Batch wide;
  wide.Reset({ColumnType::kString});
  for (std::size_t i = 0; i < 30; ++i) {
    wide.columns[0].str.push_back(std::string(100u << 10, 'w'));
    wide.row_ids.push_back(i);
  }
  wide.columns[0].str[20] = std::string(kWireBatchSoftBytes + 1, 'h');
  EXPECT_EQ(WireBatchEnd(wide, 0), 11u);
  EXPECT_EQ(WireBatchEnd(wide, 20), 21u);
  std::string w;
  EncodeRowBatch(&w, wide, 0, 11);
  EXPECT_GE(w.size(), kWireBatchSoftBytes);
  EXPECT_LT(w.size() - (4 + (100u << 10)), kWireBatchSoftBytes);
}

TEST(StatementSplitterTest, SplitsLikeTheShell) {
  StatementSplitter s;
  // Two statements on one line split; each keeps its ';'.
  EXPECT_EQ(s.Feed("SELECT 1; SELECT 2;"),
            (std::vector<std::string>{"SELECT 1;", " SELECT 2;"}));
  EXPECT_FALSE(s.pending());
  // A ';' inside a string literal does not split; the statement spans
  // lines until the real terminator.
  EXPECT_TRUE(s.Feed("INSERT INTO t VALUES ('a;b',").empty());
  EXPECT_TRUE(s.pending());
  EXPECT_EQ(s.Feed("2);"),
            (std::vector<std::string>{"INSERT INTO t VALUES ('a;b',\n2);"}));
  EXPECT_FALSE(s.pending());
  // Bare semicolons are dropped.
  EXPECT_TRUE(s.Feed(" ; ;").empty());
  EXPECT_FALSE(s.pending());
}

// ---------------------------------------------------------- test fixture

struct TestServer {
  explicit TestServer(ServerOptions options = {},
                      EngineOptions engine_options = {})
      : engine(engine_options) {
    options.port = 0;  // ephemeral
    server = std::make_unique<PiServer>(engine, std::move(options));
    const Status st = server->Start();
    EXPECT_TRUE(st.ok()) << st.ToString();
  }

  ~TestServer() { server->Stop(); }

  PiClient Connect() {
    PiClient client;
    const Status st = client.Connect("127.0.0.1", server->port());
    EXPECT_TRUE(st.ok()) << st.ToString();
    return client;
  }

  Engine engine;
  std::unique_ptr<PiServer> server;
};

/// A test-only latch parking worker threads inside the admission window.
/// Starts disarmed (tasks pass straight through) so test setup
/// statements are unaffected; once armed, every admitted task blocks in
/// the hook — holding its admission slot — until Open().
struct TaskGate {
  std::mutex mu;
  std::condition_variable cv;
  int entered = 0;
  bool armed = false;
  bool open = false;

  std::function<void()> Hook() {
    return [this] {
      std::unique_lock<std::mutex> lock(mu);
      if (!armed) return;
      ++entered;
      cv.notify_all();
      cv.wait(lock, [this] { return open; });
    };
  }

  void Arm() {
    std::lock_guard<std::mutex> lock(mu);
    armed = true;
  }

  void WaitEntered(int n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered >= n; });
  }

  void Open() {
    std::lock_guard<std::mutex> lock(mu);
    open = true;
    cv.notify_all();
  }
};

// -------------------------------------------------------------- sessions

TEST(ServerTest, StartStopIdempotent) {
  Engine engine;
  PiServer server(engine, {});
  ASSERT_TRUE(server.Start().ok());
  EXPECT_GT(server.port(), 0);
  server.Stop();
  server.Stop();  // idempotent
}

TEST(ServerTest, SqlRoundTrip) {
  TestServer ts;
  PiClient client = ts.Connect();

  Result<QueryResult> r =
      client.Sql("CREATE TABLE t (a INT64, b DOUBLE, c STRING)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  r = client.Sql(
      "INSERT INTO t VALUES (1, 1.5, 'one'), (2, 2.5, 'two'), "
      "(3, 3.5, 'three')");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().rows_affected, 3u);
  EXPECT_TRUE(r.value().column_names.empty());

  r = client.Sql("SELECT a, b, c FROM t WHERE a >= 2 ORDER BY a");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const QueryResult& qr = r.value();
  ASSERT_EQ(qr.column_names,
            (std::vector<std::string>{"a", "b", "c"}));
  ASSERT_EQ(qr.rows.num_rows(), 2u);
  EXPECT_EQ(qr.rows.columns[0].i64, (std::vector<std::int64_t>{2, 3}));
  EXPECT_EQ(qr.rows.columns[1].f64, (std::vector<double>{2.5, 3.5}));
  EXPECT_EQ(qr.rows.columns[2].str,
            (std::vector<std::string>{"two", "three"}));
}

TEST(ServerTest, SqlErrorsKeepCodeMessageAndPosition) {
  TestServer ts;
  PiClient client = ts.Connect();

  Result<QueryResult> r = client.Sql("SELECT x FROM nosuch");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_NE(r.status().message().find("unknown table 'nosuch'"),
            std::string::npos);
  EXPECT_NE(r.status().message().find("line 1, column 15"),
            std::string::npos);
  EXPECT_EQ(client.last_error_line(), 1u);
  EXPECT_EQ(client.last_error_column(), 15u);

  // The connection survives an error and runs the next statement.
  r = client.Sql("CREATE TABLE t (a INT64)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
}

/// The full pisql smoke workload over a real socket, byte-compared with
/// the in-process Session::Sql path: both sides run the same script
/// against independently generated (same seed) engines; every result is
/// compared cell by cell via Value::ToString, every meta command by its
/// exact output text.
TEST(ServerTest, SmokeWorkloadMatchesInProcess) {
  TestServer ts;
  PiClient client = ts.Connect();

  Engine local_engine;
  Session local_session = local_engine.CreateSession();

  const std::vector<std::string> meta = {
      ".gen nuc demo 20000 0.05",
      ".index demo val nuc",
      ".tables",
      ".schema demo",
  };
  for (const std::string& m : meta) {
    Result<std::string> remote = client.Meta(m);
    ASSERT_TRUE(remote.ok()) << m << ": " << remote.status().ToString();
    const std::string local =
        RunMetaCommand(local_engine, local_session, m);
    EXPECT_EQ(remote.value(), local) << m;
  }

  const std::vector<std::string> statements = {
      "SELECT COUNT(*) FROM demo",
      "SELECT key, val FROM demo WHERE key < 5 ORDER BY key",
      "SELECT DISTINCT val FROM demo ORDER BY val LIMIT 7",
      "SELECT val, COUNT(*) AS n FROM demo GROUP BY val ORDER BY n DESC, "
      "val LIMIT 5",
      "INSERT INTO demo VALUES (20000, 7)",
      "UPDATE demo SET val = 99 WHERE key = 20000",
      "SELECT key, val FROM demo WHERE key = 20000 ORDER BY key",
      "DELETE FROM demo WHERE key = 20000",
      "SELECT COUNT(*) AS n FROM demo",
      "SELECT COUNT(*) FROM demo WHERE key < 0",
      "CREATE TABLE events (id INT64, kind INT64) PARTITIONS 4",
      "INSERT INTO events VALUES (1, 10), (2, 20), (3, 30), (4, 40), "
      "(5, 50), (6, 60), (7, 70), (8, 80)",
      "SELECT COUNT(*) FROM events",
      "UPDATE events SET kind = 0 WHERE id > 6",
      "SELECT id, kind FROM events ORDER BY id",
      "DELETE FROM events WHERE id = 1",
      "SELECT COUNT(*) AS remaining FROM events",
      "SELECT x FROM demo",  // binder error: identical across the wire
  };
  for (const std::string& sql : statements) {
    Result<QueryResult> remote = client.Sql(sql);
    Result<QueryResult> local = local_session.Sql(sql);
    ASSERT_EQ(remote.ok(), local.ok()) << sql;
    if (!local.ok()) {
      EXPECT_EQ(remote.status().ToString(), local.status().ToString())
          << sql;
      continue;
    }
    const QueryResult& rq = remote.value();
    const QueryResult& lq = local.value();
    EXPECT_EQ(rq.rows_affected, lq.rows_affected) << sql;
    EXPECT_EQ(rq.column_names, lq.column_names) << sql;
    ASSERT_EQ(rq.rows.num_rows(), lq.rows.num_rows()) << sql;
    ASSERT_EQ(rq.rows.columns.size(), lq.rows.columns.size()) << sql;
    for (std::size_t c = 0; c < lq.rows.columns.size(); ++c) {
      ASSERT_EQ(rq.rows.columns[c].type, lq.rows.columns[c].type) << sql;
      for (std::size_t r = 0; r < lq.rows.num_rows(); ++r) {
        EXPECT_EQ(rq.rows.columns[c].GetValue(r).ToString(),
                  lq.rows.columns[c].GetValue(r).ToString())
            << sql << " cell (" << r << ", " << c << ")";
      }
    }
  }
}

TEST(ServerTest, PreparedStatements) {
  TestServer ts;
  PiClient client = ts.Connect();
  ASSERT_TRUE(client.Sql("CREATE TABLE t (a INT64, b INT64)").ok());
  ASSERT_TRUE(
      client.Sql("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)").ok());

  Result<RemoteStatement> prepared =
      client.Prepare("SELECT b FROM t WHERE a = ? ORDER BY b");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ(prepared.value().num_params, 1u);

  for (std::int64_t a = 1; a <= 3; ++a) {
    Result<QueryResult> r =
        client.Execute(prepared.value(), {Value(a)});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r.value().rows.num_rows(), 1u);
    EXPECT_EQ(r.value().rows.columns[0].i64[0], a * 10);
  }

  // Wrong parameter count reports cleanly, statement stays usable.
  Result<QueryResult> bad = client.Execute(prepared.value(), {});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  ASSERT_TRUE(client.CloseStatement(prepared.value()).ok());
  Result<QueryResult> closed =
      client.Execute(prepared.value(), {Value(std::int64_t{1})});
  ASSERT_FALSE(closed.ok());
  EXPECT_EQ(closed.status().code(), StatusCode::kNotFound);
}

TEST(ServerTest, MetaCommandsCanBeDisabled) {
  ServerOptions options;
  options.enable_meta_commands = false;
  TestServer ts(options);
  PiClient client = ts.Connect();
  Result<std::string> r = client.Meta(".tables");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // SQL still works.
  EXPECT_TRUE(client.Sql("CREATE TABLE t (a INT64)").ok());
}

// ----------------------------------------------------- admission control

TEST(ServerTest, AdmissionControlRejectsWhenFull) {
  TaskGate gate;
  ServerOptions options;
  options.max_inflight_queries = 1;
  options.query_workers = 2;
  options.test_task_hook = gate.Hook();
  TestServer ts(options);

  PiClient slow = ts.Connect();
  // Setup passes through the disarmed gate.
  ASSERT_TRUE(slow.Sql("CREATE TABLE t (a INT64)").ok());

  // Park one query in execution: it holds the only admission slot.
  // (The setup CREATE's slot is released only after its response is
  // streamed, which races with its client returning — so this first
  // query may itself bounce off SERVER_BUSY once and must retry, or
  // WaitEntered below would wait forever for a rejected query.)
  gate.Arm();
  std::thread blocked([&] {
    Result<QueryResult> r = slow.Sql("SELECT a FROM t");
    while (!r.ok() && r.status().code() == StatusCode::kUnavailable) {
      std::this_thread::yield();
      r = slow.Sql("SELECT a FROM t");
    }
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  });
  gate.WaitEntered(1);

  // A second connection is rejected with SERVER_BUSY while the slot is
  // held.
  PiClient fast = ts.Connect();
  Result<QueryResult> busy = fast.Sql("SELECT a FROM t");
  ASSERT_FALSE(busy.ok());
  EXPECT_EQ(busy.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(busy.status().message().find("SERVER_BUSY"),
            std::string::npos);
  EXPECT_GE(ts.server->stats().queries_rejected_busy.load(), 1u);

  gate.Open();
  blocked.join();

  // With the slot free the same connection succeeds on retry — the
  // rejection is clean, not sticky. (The slot is released only after
  // the parked query's response is fully streamed, which races with its
  // client returning — so retry the busy answer like a real client.)
  Result<QueryResult> retry = fast.Sql("SELECT a FROM t");
  for (int i = 0; i < 1000 && !retry.ok() &&
                  retry.status().code() == StatusCode::kUnavailable;
       ++i) {
    std::this_thread::yield();
    retry = fast.Sql("SELECT a FROM t");
  }
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
}

TEST(ServerTest, GracefulShutdownDrainsInFlightQueries) {
  TaskGate gate;
  ServerOptions options;
  options.query_workers = 2;
  options.test_task_hook = gate.Hook();
  TestServer ts(options);

  PiClient client = ts.Connect();
  gate.Arm();
  std::thread parked([&] {
    // Parks inside the hook; its response must still arrive after Stop.
    Result<QueryResult> r = client.Sql("CREATE TABLE t (a INT64)");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  });
  gate.WaitEntered(1);

  std::thread stopper([&] { ts.server->Stop(); });
  // Give Stop a moment to reach the drain wait, then release the query.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate.Open();
  stopper.join();
  parked.join();

  // The server is gone: new connections fail.
  PiClient late;
  EXPECT_FALSE(late.Connect("127.0.0.1", ts.server->port()).ok());
}

// ------------------------------------------------------- wire-level raw

int RawConnect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  return fd;
}

TEST(ServerTest, RejectsProtocolVersionMismatch) {
  TestServer ts;
  // A future version and the previous one (v3 laid row batches out row
  // by row) are both refused.
  for (const std::uint32_t version :
       {kProtocolVersion + 7, kProtocolVersion - 1}) {
    const int fd = RawConnect(ts.server->port());
    std::string hello;
    PutU32(&hello, version);
    ASSERT_TRUE(WriteFrame(fd, FrameType::kHello, hello).ok());
    FrameType type;
    std::string payload;
    ASSERT_TRUE(ReadFrame(fd, &type, &payload).ok());
    EXPECT_EQ(type, FrameType::kError);
    ByteReader r(payload);
    Status status;
    ASSERT_TRUE(DecodeError(&r, &status, nullptr, nullptr).ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("protocol version"), std::string::npos)
        << version;
    // Server closes after the refusal.
    EXPECT_FALSE(ReadFrame(fd, &type, &payload).ok());
    ::close(fd);
  }
}

/// Handshakes a raw connection and sends one kQuery; the caller reads
/// the response frames.
int RawQuery(std::uint16_t port, const std::string& sql) {
  const int fd = RawConnect(port);
  std::string hello;
  PutU32(&hello, kProtocolVersion);
  EXPECT_TRUE(WriteFrame(fd, FrameType::kHello, hello).ok());
  FrameType type;
  std::string payload;
  EXPECT_TRUE(ReadFrame(fd, &type, &payload).ok());
  EXPECT_EQ(type, FrameType::kWelcome);
  std::string w;
  PutString(&w, sql);
  EncodeParams(&w, {});
  EXPECT_TRUE(WriteFrame(fd, FrameType::kQuery, w).ok());
  return fd;
}

TEST(ServerTest, LargeResultMatchesInProcessAcrossBatchCaps) {
  TestServer ts;
  // 5,000 rows of short strings (the 4,096-row cap closes their first
  // batch), then 7,000 rows of 400-byte strings (the 1 MiB byte cap
  // closes their batches near 2,500 rows), and one 1.5 MiB string.
  constexpr std::int64_t kRows = 12000;
  auto table = std::make_unique<Table>(Schema({{"k", ColumnType::kInt64},
                                               {"d", ColumnType::kDouble},
                                               {"s", ColumnType::kString}}));
  for (std::int64_t i = 0; i < kRows; ++i) {
    std::string text = "s" + std::to_string(i);
    if (i >= 5000) text.resize(400, static_cast<char>('a' + i % 26));
    if (i == 9000) text.assign((3u << 20) / 2, 'H');
    table->AppendRow(Row{{Value(i), Value(static_cast<double>(i) / 7.0),
                          Value(std::move(text))}});
  }
  ASSERT_TRUE(ts.engine.catalog().AddTable("big", std::move(table)).ok());
  const std::string sql = "SELECT k, d, s FROM big ORDER BY k";

  PiClient client = ts.Connect();
  Result<QueryResult> remote = client.Sql(sql);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  Session session = ts.engine.CreateSession();
  Result<QueryResult> local = session.Sql(sql);
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  const Batch& got = remote.value().rows;
  const Batch& want = local.value().rows;
  ASSERT_EQ(want.num_rows(), static_cast<std::size_t>(kRows));
  ASSERT_EQ(got.num_rows(), want.num_rows());
  ASSERT_EQ(got.types(), want.types());
  ExpectRowsEqual(got, 0, want, 0, want.num_rows());

  // The same query over a raw socket: count the batches and how each
  // one closed.
  const int fd = RawQuery(ts.server->port(), sql);
  FrameType type;
  std::string payload;
  ASSERT_TRUE(ReadFrame(fd, &type, &payload).ok());
  ASSERT_EQ(type, FrameType::kResultHeader);
  std::vector<std::uint32_t> batch_rows;
  for (;;) {
    ASSERT_TRUE(ReadFrame(fd, &type, &payload).ok());
    EXPECT_LE(payload.size() + 1, kMaxFrameBytes);
    if (type == FrameType::kResultEnd) break;
    ASSERT_EQ(type, FrameType::kRowBatch);
    ByteReader r(payload);
    batch_rows.push_back(r.GetU32());
  }
  ::close(fd);
  std::uint64_t streamed = 0;
  std::size_t by_rows = 0;
  std::size_t by_bytes = 0;
  for (std::size_t b = 0; b < batch_rows.size(); ++b) {
    streamed += batch_rows[b];
    if (batch_rows[b] == kRowsPerWireBatch) ++by_rows;
    if (batch_rows[b] < kRowsPerWireBatch && b + 1 < batch_rows.size()) {
      ++by_bytes;
    }
  }
  EXPECT_EQ(streamed, static_cast<std::uint64_t>(kRows));
  EXPECT_GE(by_rows, 1u);
  EXPECT_GE(by_bytes, 2u);
}

/// Resident set size of this process, from /proc/self/statm.
std::uint64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size_pages = 0;
  std::uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

TEST(ServerTest, LengthPrefixAloneDoesNotAllocateTheBody) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::uint64_t before = ResidentBytes();

  Status read_status;
  std::thread reader([&] {
    FrameType type;
    std::string payload;
    read_status = ReadFrame(fds[0], &type, &payload);
  });
  // A maximal length prefix and a few body bytes, then nothing.
  std::string head;
  PutU32(&head, kMaxFrameBytes);
  head += std::string(4096, 'x');
  ASSERT_EQ(::send(fds[1], head.data(), head.size(), 0),
            static_cast<ssize_t>(head.size()));
  // Once the reader has drained the socket it is blocked on the body.
  for (int i = 0; i < 2000; ++i) {
    int unread = 0;
    ASSERT_EQ(::ioctl(fds[0], FIONREAD, &unread), 0);
    if (unread == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const std::uint64_t during = ResidentBytes();
  EXPECT_LT(during, before + (std::uint64_t{8} << 20))
      << "RSS grew by " << (during - before) << " bytes";

  ::close(fds[1]);  // EOF mid-body
  reader.join();
  ::close(fds[0]);
  EXPECT_EQ(read_status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(read_status.message(), "malformed frame: truncated stream");
}

TEST(ServerTest, PipelinedQueriesAnswerInOrder) {
  TestServer ts;
  {
    PiClient setup = ts.Connect();
    ASSERT_TRUE(setup.Sql("CREATE TABLE t (a INT64)").ok());
    ASSERT_TRUE(setup.Sql("INSERT INTO t VALUES (1), (2), (3)").ok());
  }
  const int fd = RawConnect(ts.server->port());
  std::string hello;
  PutU32(&hello, kProtocolVersion);
  ASSERT_TRUE(WriteFrame(fd, FrameType::kHello, hello).ok());
  FrameType type;
  std::string payload;
  ASSERT_TRUE(ReadFrame(fd, &type, &payload).ok());
  ASSERT_EQ(type, FrameType::kWelcome);

  // Fire several queries without reading any response (pipelining).
  const int kQueries = 5;
  for (int q = 0; q < kQueries; ++q) {
    std::string w;
    PutString(&w, "SELECT a FROM t WHERE a = " + std::to_string(q % 3 + 1));
    EncodeParams(&w, {});
    ASSERT_TRUE(WriteFrame(fd, FrameType::kQuery, w).ok());
  }
  // Responses come back complete and in request order.
  for (int q = 0; q < kQueries; ++q) {
    ASSERT_TRUE(ReadFrame(fd, &type, &payload).ok());
    ASSERT_EQ(type, FrameType::kResultHeader) << q;
    QueryResult result;
    {
      ByteReader r(payload);
      ASSERT_TRUE(DecodeResultHeader(&r, &result).ok());
    }
    for (;;) {
      ASSERT_TRUE(ReadFrame(fd, &type, &payload).ok());
      if (type == FrameType::kResultEnd) break;
      ASSERT_EQ(type, FrameType::kRowBatch) << q;
      ByteReader r(payload);
      ASSERT_TRUE(DecodeRowBatch(&r, &result.rows).ok());
    }
    ASSERT_EQ(result.rows.num_rows(), 1u) << q;
    EXPECT_EQ(result.rows.columns[0].i64[0], q % 3 + 1) << q;
  }
  ::close(fd);
}

TEST(ServerTest, SlowReaderTimesOutInsteadOfBlockingWorkers) {
  ServerOptions options;
  options.write_timeout_seconds = 1;
  options.query_workers = 1;  // the one worker must be reclaimed
  TestServer ts(options);
  {
    PiClient setup = ts.Connect();
    Result<std::string> gen = setup.Meta(".gen nuc big 800000 0.05");
    ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  }

  // A raw client with a tiny receive buffer requests a ~13 MB result
  // (comfortably past tcp_wmem autotuning on any mainstream kernel) and
  // never reads it: the server's send fills the socket buffers, blocks,
  // and must trip the write timeout instead of parking the worker
  // forever.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int tiny = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof tiny);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ts.server->port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  std::string hello;
  PutU32(&hello, kProtocolVersion);
  ASSERT_TRUE(WriteFrame(fd, FrameType::kHello, hello).ok());
  FrameType type;
  std::string payload;
  ASSERT_TRUE(ReadFrame(fd, &type, &payload).ok());
  ASSERT_EQ(type, FrameType::kWelcome);
  std::string w;
  PutString(&w, "SELECT key, val FROM big");
  EncodeParams(&w, {});
  ASSERT_TRUE(WriteFrame(fd, FrameType::kQuery, w).ok());
  // Only once the worker has actually started on the big query (it is
  // the first kQuery on this server — .gen was a meta command) can a
  // second query prove the worker gets reclaimed.
  while (ts.server->stats().queries_executed.load() < 1) {
    std::this_thread::yield();
  }

  // The stuck send times out (~1 s), the connection is dropped, and the
  // worker comes back: this queued query then completes.
  PiClient other = ts.Connect();
  Result<QueryResult> r = other.Sql("SELECT COUNT(*) FROM big");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().rows.columns[0].i64[0], 800000);

  // The raw connection was cut mid-stream: draining it hits EOF long
  // before the ~13 MB a complete result would carry.
  std::size_t drained = 0;
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    drained += static_cast<std::size_t>(n);
  }
  EXPECT_LT(drained, std::size_t{13} * 1024 * 1024);
  ::close(fd);
  // TestServer's destructor now verifies Stop() does not hang on the
  // previously stuck connection.
}

TEST(ServerTest, SilentConnectionTimesOutDuringHandshake) {
  ServerOptions options;
  options.handshake_timeout_seconds = 1;
  TestServer ts(options);
  const int fd = RawConnect(ts.server->port());
  // Send nothing. The server must drop the connection (~1 s) instead of
  // parking a reader thread and a connection slot forever; the dropped
  // socket surfaces here as EOF. A handshaken client is unaffected.
  FrameType type;
  std::string payload;
  EXPECT_FALSE(ReadFrame(fd, &type, &payload).ok());
  ::close(fd);
  PiClient fine = ts.Connect();
  EXPECT_TRUE(fine.Sql("CREATE TABLE t (a INT64)").ok());
}

TEST(ServerTest, MalformedFrameGetsErrorThenClose) {
  TestServer ts;
  const int fd = RawConnect(ts.server->port());
  std::string hello;
  PutU32(&hello, kProtocolVersion);
  ASSERT_TRUE(WriteFrame(fd, FrameType::kHello, hello).ok());
  FrameType type;
  std::string payload;
  ASSERT_TRUE(ReadFrame(fd, &type, &payload).ok());
  ASSERT_EQ(type, FrameType::kWelcome);

  // An unknown frame type is a protocol error: one kError, then EOF.
  ASSERT_TRUE(WriteFrame(fd, static_cast<FrameType>(200), "junk").ok());
  ASSERT_TRUE(ReadFrame(fd, &type, &payload).ok());
  EXPECT_EQ(type, FrameType::kError);
  EXPECT_GE(ts.server->stats().protocol_errors.load(), 1u);
  ::close(fd);
}

}  // namespace
}  // namespace patchindex::net
