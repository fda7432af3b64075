// Concurrency tests of the network server: many simultaneous clients
// running mixed reads and DML against one partitioned table, with
// admission-control rejections retried, per-partition commit atomicity
// verified by accounting, and a graceful shutdown at the end. The whole
// file runs under the ASan/UBSan CI job like the rest of the suite —
// the server's reader/worker handoff and the engine's per-partition
// parallel commit are exactly the code sanitizers bite first.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "common/rng.h"
#include "engine/engine.h"
#include "server/server.h"

namespace patchindex::net {
namespace {

/// Runs `sql` with SERVER_BUSY retries; returns the final result.
/// Unavailable is the admission controller speaking, not a failure —
/// clients back off and retry, like any loaded production system.
Result<QueryResult> SqlRetry(PiClient& client, const std::string& sql,
                             std::atomic<std::uint64_t>* busy_count) {
  for (int attempt = 0; attempt < 10000; ++attempt) {
    Result<QueryResult> r = client.Sql(sql);
    if (r.ok() || r.status().code() != StatusCode::kUnavailable) return r;
    busy_count->fetch_add(1);
    std::this_thread::yield();
  }
  return Status::Internal("still SERVER_BUSY after 10000 attempts");
}

/// ≥16 simultaneous clients doing mixed UPDATE / INSERT / aggregate
/// SELECT through the server against one 8-partition table (with a
/// per-partition PatchIndex being maintained by every commit), under an
/// admission limit low enough that rejections actually happen. Commit
/// atomicity check: every successful UPDATE reports rows_affected under
/// the table's exclusive lock, so the final SUM must equal the sum of
/// all reported increments, and the final COUNT must be the initial rows
/// plus the successful INSERTs — any torn or double-applied
/// per-partition commit breaks the accounting.
TEST(ServerConcurrencyTest, MixedDmlManyClientsKeepsCommitAtomicity) {
  Engine engine;
  ServerOptions options;
  options.max_inflight_queries = 6;  // 20 clients -> rejections happen
  options.query_workers = 4;
  PiServer server(engine, options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kInitialRows = 256;
  {
    PiClient admin;
    ASSERT_TRUE(admin.Connect("127.0.0.1", server.port()).ok());
    ASSERT_TRUE(
        admin
            .Sql("CREATE TABLE accounts (id INT64, bal INT64) PARTITIONS 8")
            .ok());
    for (int base = 0; base < kInitialRows; base += 64) {
      std::string sql = "INSERT INTO accounts VALUES ";
      for (int i = 0; i < 64; ++i) {
        if (i > 0) sql += ", ";
        sql += "(" + std::to_string(base + i) + ", 0)";
      }
      Result<QueryResult> r = admin.Sql(sql);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
    // One index per partition; every commit below must maintain all 8
    // partition-local indexes atomically.
    Result<std::string> idx = admin.Meta(".index accounts id nuc");
    ASSERT_TRUE(idx.ok()) << idx.status().ToString();
    ASSERT_EQ(idx.value().rfind("created NUC index", 0), 0u) << idx.value();
  }

  constexpr int kClients = 20;
  constexpr int kRounds = 24;
  std::atomic<std::uint64_t> updated_rows{0};
  std::atomic<std::uint64_t> inserted_rows{0};
  std::atomic<std::uint64_t> busy{0};
  std::atomic<int> failures{0};

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      PiClient client;
      Status st = client.Connect("127.0.0.1", server.port());
      if (!st.ok()) {
        ++failures;
        return;
      }
      Rng rng(static_cast<std::uint64_t>(t) * 7919 + 17);
      for (int round = 0; round < kRounds; ++round) {
        const int op = round % 3;
        if (op == 0) {
          const std::uint64_t id = rng.Uniform(0, kInitialRows - 1);
          Result<QueryResult> r = SqlRetry(
              client,
              "UPDATE accounts SET bal = bal + 1 WHERE id = " +
                  std::to_string(id),
              &busy);
          if (!r.ok()) {
            ++failures;
            return;
          }
          updated_rows.fetch_add(r.value().rows_affected);
        } else if (op == 1) {
          const std::int64_t id = 1000000 + t * 1000 + round;
          Result<QueryResult> r = SqlRetry(
              client,
              "INSERT INTO accounts VALUES (" + std::to_string(id) + ", 0)",
              &busy);
          if (!r.ok()) {
            ++failures;
            return;
          }
          inserted_rows.fetch_add(r.value().rows_affected);
        } else {
          Result<QueryResult> r = SqlRetry(
              client, "SELECT COUNT(*) AS n, SUM(bal) AS s FROM accounts",
              &busy);
          if (!r.ok()) {
            ++failures;
            return;
          }
          // Reads see published versions only: they may interleave
          // anywhere between commits but never inside one, so the count
          // can never drop below the initial load.
          if (r.value().rows.columns[0].i64[0] < kInitialRows) ++failures;
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  ASSERT_EQ(failures.load(), 0);

  // Final accounting through a fresh connection.
  {
    PiClient check;
    ASSERT_TRUE(check.Connect("127.0.0.1", server.port()).ok());
    Result<QueryResult> r =
        SqlRetry(check, "SELECT COUNT(*) AS n, SUM(bal) AS s FROM accounts",
                 &busy);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r.value().rows.num_rows(), 1u);
    EXPECT_EQ(r.value().rows.columns[0].i64[0],
              kInitialRows + static_cast<std::int64_t>(inserted_rows.load()));
    EXPECT_EQ(r.value().rows.columns[1].i64[0],
              static_cast<std::int64_t>(updated_rows.load()));

    // The per-partition indexes survived every concurrent commit: an
    // indexed point lookup still answers correctly.
    Result<QueryResult> point = SqlRetry(
        check, "SELECT COUNT(*) AS n FROM accounts WHERE id = 3", &busy);
    ASSERT_TRUE(point.ok());
    EXPECT_EQ(point.value().rows.columns[0].i64[0], 1);
  }

  EXPECT_GE(server.stats().queries_executed.load(),
            static_cast<std::uint64_t>(kClients * kRounds));
  // Graceful shutdown with (possibly) connections still open.
  server.Stop();
}

/// Concurrent multi-Session DML *through the server*: several clients
/// hammer UPDATEs at the same partitioned rows so the per-partition
/// commit path runs back to back under contention, while a reader
/// verifies it never observes a partially applied update query (an
/// UPDATE touching many rows across partitions is one atomic commit —
/// all partitions or none).
TEST(ServerConcurrencyTest, CrossPartitionUpdatesAreAtomic) {
  Engine engine;
  ServerOptions options;
  options.query_workers = 4;
  PiServer server(engine, options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kRows = 64;
  {
    PiClient admin;
    ASSERT_TRUE(admin.Connect("127.0.0.1", server.port()).ok());
    ASSERT_TRUE(admin.Sql("CREATE TABLE g (id INT64, v INT64) PARTITIONS 4")
                    .ok());
    std::string sql = "INSERT INTO g VALUES ";
    for (int i = 0; i < kRows; ++i) {
      if (i > 0) sql += ", ";
      sql += "(" + std::to_string(i) + ", 0)";
    }
    ASSERT_TRUE(admin.Sql(sql).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<std::uint64_t> busy{0};

  // Writers: each UPDATE sets *every* row (all 4 partitions) to one new
  // value — a cross-partition commit.
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&, w] {
      PiClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) {
        ++failures;
        return;
      }
      for (int i = 1; i <= 12 && !stop.load(); ++i) {
        const int value = w * 1000 + i;
        Result<QueryResult> r = SqlRetry(
            client, "UPDATE g SET v = " + std::to_string(value), &busy);
        if (!r.ok() || r.value().rows_affected != kRows) {
          ++failures;
          return;
        }
      }
    });
  }
  // Readers: every snapshot must be uniform — MIN(v) == MAX(v) — or the
  // commit leaked a half-applied cross-partition update.
  std::vector<std::thread> readers;
  for (int rd = 0; rd < 4; ++rd) {
    readers.emplace_back([&] {
      PiClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < 20 && !stop.load(); ++i) {
        Result<QueryResult> r = SqlRetry(
            client, "SELECT MIN(v) AS lo, MAX(v) AS hi FROM g", &busy);
        if (!r.ok()) {
          ++failures;
          return;
        }
        if (r.value().rows.columns[0].i64[0] !=
            r.value().rows.columns[1].i64[0]) {
          ++failures;  // torn cross-partition update observed
          return;
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  server.Stop();
}

/// The MVCC phase: a continuous full-table scan stream concurrent with a
/// cross-partition two-row UPDATE stream. Under the historical protocol
/// the scans' shared locks (reader-preferring rwlock) starve the writer;
/// under MVCC (the default) scans pin the published table version
/// lock-free, so the writer only ever contends with itself. Asserted:
///   (a) csn-consistency — the two marker rows live in different
///       partitions and are always updated by one statement (one
///       commit), so every scan must see them equal; a mismatch is a
///       torn cross-partition read,
///   (b) non-starvation — the UPDATE stream sustains real throughput
///       while scans run back to back (the lock protocol manages a few
///       commits per second here; the floor below is far above that and
///       far below what MVCC delivers).
TEST(ServerConcurrencyTest, LongScansDoNotStarveOrTearUpdates) {
  Engine engine;
  ServerOptions options;
  options.query_workers = 4;
  PiServer server(engine, options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kRows = 100000;
  {
    PiClient admin;
    ASSERT_TRUE(admin.Connect("127.0.0.1", server.port()).ok());
    ASSERT_TRUE(admin.Sql("CREATE TABLE m (id INT64, v INT64) PARTITIONS 4")
                    .ok());
    // Batched load; ids 0 and 1 are the marker pair — insert routing is
    // round-robin from empty, so they land in partitions 0 and 1.
    for (int base = 0; base < kRows; base += 500) {
      std::string sql = "INSERT INTO m VALUES ";
      for (int i = 0; i < 500; ++i) {
        if (i > 0) sql += ", ";
        sql += "(" + std::to_string(base + i) + ", 0)";
      }
      Result<QueryResult> r = admin.Sql(sql);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<std::uint64_t> busy{0};
  std::atomic<std::uint64_t> scans{0};
  std::atomic<std::uint64_t> updates{0};
  std::atomic<std::uint64_t> torn{0};

  std::vector<std::thread> scanners;
  for (int s = 0; s < 2; ++s) {
    scanners.emplace_back([&] {
      PiClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) {
        ++failures;
        return;
      }
      while (!stop.load()) {
        // id is unindexed: the filter runs over every row of every
        // partition — a genuine full-table scan per statement.
        Result<QueryResult> r = SqlRetry(
            client, "SELECT MIN(v) AS lo, MAX(v) AS hi FROM m WHERE id <= 1",
            &busy);
        if (!r.ok()) {
          ++failures;
          return;
        }
        if (r.value().rows.columns[0].i64[0] !=
            r.value().rows.columns[1].i64[0]) {
          torn.fetch_add(1);
        }
        scans.fetch_add(1);
      }
    });
  }
  std::thread writer([&] {
    PiClient client;
    if (!client.Connect("127.0.0.1", server.port()).ok()) {
      ++failures;
      return;
    }
    std::int64_t k = 0;
    while (!stop.load()) {
      ++k;
      Result<QueryResult> r = SqlRetry(
          client, "UPDATE m SET v = " + std::to_string(k) + " WHERE id <= 1",
          &busy);
      if (!r.ok() || r.value().rows_affected != 2) {
        ++failures;
        return;
      }
      updates.fetch_add(1);
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  stop.store(true);
  for (std::thread& t : scanners) t.join();
  writer.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(torn.load(), 0u) << "a scan observed the cross-partition "
                                "marker pair half-updated";
  EXPECT_GE(scans.load(), 10u);
  // Non-starvation: the lock protocol sustains single-digit commits in
  // this window (the scan stream's shared locks are re-acquired before
  // the writer ever wins); MVCC sustains two orders of magnitude more.
  EXPECT_GE(updates.load(), 20u);
  EXPECT_GE(updates.load(), scans.load() / 20)
      << "UPDATE stream starved while scans were pinned";
  server.Stop();
}

/// The kill-and-recover phase: a durable server (--data-dir engine) runs
/// in a forked child process; 20 clients stream 2-row INSERTs (each
/// statement spans partitions) and record which ones the server
/// acknowledged; the parent SIGKILLs the server mid-workload — a real
/// hard stop, no drain, no final checkpoint — then recovers the data
/// directory in process and reconciles:
///   * every acknowledged INSERT is fully present (both rows),
///   * every present INSERT is all-or-nothing (never one of its two rows),
///   * nothing beyond what some client attempted exists.
TEST(ServerConcurrencyTest, KillNineAndRecoverKeepsAckedCommits) {
  const std::string dir = std::string(::testing::TempDir()) + "/srvkill." +
                          std::to_string(::getpid());
  (void)std::system(("rm -rf '" + dir + "'").c_str());

  int port_pipe[2];
  ASSERT_EQ(::pipe(port_pipe), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Server process. Plumbing failures exit 3 — the parent reads no port
    // and fails fast. The process only ever dies by SIGKILL.
    ::close(port_pipe[0]);
    EngineOptions engine_options;
    engine_options.num_threads = 2;
    engine_options.durability.data_dir = dir;
    Engine engine(engine_options);
    if (!engine.recovery_status().ok()) std::_Exit(3);
    {
      Session session = engine.CreateSession();
      if (!session.Sql("CREATE TABLE pairs (id INT64, v INT64) PARTITIONS 4")
               .ok()) {
        std::_Exit(3);
      }
      if (!session.CreatePatchIndex("pairs", 0, ConstraintKind::kNearlyUnique)
               .ok()) {
        std::_Exit(3);
      }
    }
    ServerOptions options;
    options.query_workers = 4;
    PiServer server(engine, options);
    if (!server.Start().ok()) std::_Exit(3);
    const std::uint16_t port = server.port();
    if (::write(port_pipe[1], &port, sizeof port) != sizeof port) {
      std::_Exit(3);
    }
    ::close(port_pipe[1]);
    for (;;) ::pause();
  }

  ::close(port_pipe[1]);
  std::uint16_t port = 0;
  ASSERT_EQ(::read(port_pipe[0], &port, sizeof port),
            static_cast<ssize_t>(sizeof port));
  ::close(port_pipe[0]);

  constexpr int kClients = 20;
  constexpr std::int64_t kPairOffset = 1000000;
  std::atomic<std::uint64_t> total_acked{0};
  std::atomic<std::uint64_t> busy{0};
  std::vector<std::vector<std::int64_t>> acked(kClients);
  std::vector<std::vector<std::int64_t>> attempted(kClients);

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      PiClient client;
      if (!client.Connect("127.0.0.1", port).ok()) return;
      for (int i = 0; i < 1000; ++i) {
        const std::int64_t id = t * 1000 + i;
        attempted[t].push_back(id);
        Result<QueryResult> r = SqlRetry(
            client,
            "INSERT INTO pairs VALUES (" + std::to_string(id) + ", 1), (" +
                std::to_string(id + kPairOffset) + ", 1)",
            &busy);
        // Any non-busy error means the server was killed: stop. The
        // in-flight statement stays "attempted but not acked".
        if (!r.ok()) return;
        acked[t].push_back(id);
        total_acked.fetch_add(1);
      }
    });
  }

  // Kill -9 once a healthy chunk of commits is acknowledged, mid-traffic.
  while (total_acked.load() < 100) std::this_thread::yield();
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  for (std::thread& c : clients) c.join();

  // Recover in process (the child's death released the directory lock).
  EngineOptions engine_options;
  engine_options.num_threads = 2;
  engine_options.durability.data_dir = dir;
  Engine engine(engine_options);
  ASSERT_TRUE(engine.recovery_status().ok())
      << engine.recovery_status().ToString();
  Session session = engine.CreateSession();
  Result<QueryResult> all = session.Sql("SELECT id FROM pairs");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  std::set<std::int64_t> present;
  for (std::size_t i = 0; i < all.value().rows.num_rows(); ++i) {
    present.insert(all.value().rows.columns[0].i64[i]);
  }

  std::set<std::int64_t> attempted_ids;
  std::uint64_t acked_count = 0;
  for (int t = 0; t < kClients; ++t) {
    attempted_ids.insert(attempted[t].begin(), attempted[t].end());
    acked_count += acked[t].size();
    for (const std::int64_t id : acked[t]) {
      EXPECT_TRUE(present.count(id)) << "acked id " << id << " lost";
      EXPECT_TRUE(present.count(id + kPairOffset))
          << "acked id " << id << " lost its pair row";
    }
  }
  ASSERT_GE(acked_count, 100u);
  for (const std::int64_t id : present) {
    const std::int64_t base = id >= kPairOffset ? id - kPairOffset : id;
    EXPECT_TRUE(attempted_ids.count(base)) << "phantom id " << id;
    // All-or-nothing per statement: both rows of the pair or neither.
    EXPECT_TRUE(present.count(base) && present.count(base + kPairOffset))
        << "torn 2-row commit around id " << base;
  }

  // The index came back and the recovered engine serves queries.
  const PartitionedTable* table =
      engine.catalog().FindPartitionedTable("pairs");
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(engine.catalog().manager().IndexesOn(*table).size(), 4u);
  Result<QueryResult> count =
      session.Sql("SELECT COUNT(*) AS n FROM pairs WHERE id = 3");
  ASSERT_TRUE(count.ok());
  (void)std::system(("rm -rf '" + dir + "'").c_str());
}

}  // namespace
}  // namespace patchindex::net
