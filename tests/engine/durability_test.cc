// Engine-level durability tests: WAL round trips across engine restarts,
// checkpoint/truncation behavior, commit abort on injected WAL failures,
// and the recovery report. The exhaustive crash-point sweep lives in
// crash_recovery_test.cc; these tests cover the no-crash contracts.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/engine_test_util.h"
#include "storage/fault_fs.h"
#include "storage/wal.h"

namespace patchindex {
namespace {

// Per-test data directory under the gtest temp dir (tests run as parallel
// ctest processes and must not share a directory — the LOCK would refuse
// the second engine).
std::string FreshDataDir(const char* name) {
  const std::string dir = std::string(::testing::TempDir()) + "/dura." +
                          name + "." + std::to_string(::getpid());
  std::string cmd = "rm -rf '" + dir + "'";
  (void)std::system(cmd.c_str());
  return dir;
}

void RemoveDir(const std::string& dir) {
  std::string cmd = "rm -rf '" + dir + "'";
  (void)std::system(cmd.c_str());
}

EngineOptions DurableOptions(const std::string& dir) {
  EngineOptions options;
  options.num_threads = 2;
  options.durability.data_dir = dir;
  return options;
}

std::vector<std::vector<std::int64_t>> ReadRows(Session& session,
                                                const std::string& sql) {
  Result<QueryResult> r = session.Sql(sql);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return {};
  const Batch& batch = r.value().rows;
  std::vector<std::vector<std::int64_t>> rows(batch.num_rows());
  for (std::size_t i = 0; i < batch.num_rows(); ++i) {
    for (const ColumnVector& col : batch.columns) {
      rows[i].push_back(col.i64[i]);
    }
  }
  return rows;
}

TEST(DurabilityTest, CommitsSurviveEngineRestart) {
  const std::string dir = FreshDataDir("restart");
  {
    Engine engine(DurableOptions(dir));
    ASSERT_TRUE(engine.recovery_status().ok());
    Session session = engine.CreateSession();
    ASSERT_TRUE(
        session.Sql("CREATE TABLE t (k INT64, v INT64) PARTITIONS 2").ok());
    ASSERT_TRUE(
        session.Sql("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)").ok());
    ASSERT_TRUE(session.Sql("UPDATE t SET v = 99 WHERE k = 2").ok());
    ASSERT_TRUE(session.Sql("DELETE FROM t WHERE k = 3").ok());
  }  // plain destruction: no shutdown checkpoint, recovery replays the WAL

  Engine engine(DurableOptions(dir));
  ASSERT_TRUE(engine.recovery_status().ok())
      << engine.recovery_status().ToString();
  const RecoveryReport& report = engine.durability()->last_recovery();
  EXPECT_EQ(report.tables, 1u);
  EXPECT_GE(report.records_replayed, 3u);  // >=1 record per commit
  EXPECT_EQ(report.commits_dropped, 0u);
  Session session = engine.CreateSession();
  EXPECT_EQ(ReadRows(session, "SELECT k, v FROM t ORDER BY k"),
            (std::vector<std::vector<std::int64_t>>{{1, 10}, {2, 99}}));
  // The recovered engine accepts further durable commits.
  ASSERT_TRUE(session.Sql("INSERT INTO t VALUES (4, 40)").ok());
  EXPECT_EQ(ReadRows(session, "SELECT k FROM t ORDER BY k"),
            (std::vector<std::vector<std::int64_t>>{{1}, {2}, {4}}));
  RemoveDir(dir);
}

TEST(DurabilityTest, IndexesSurviveRestartAndStayMaintained) {
  const std::string dir = FreshDataDir("index");
  {
    Engine engine(DurableOptions(dir));
    ASSERT_TRUE(engine.recovery_status().ok());
    Session session = engine.CreateSession();
    ASSERT_TRUE(
        session.Sql("CREATE TABLE t (k INT64, v INT64) PARTITIONS 2").ok());
    std::string values;
    for (int i = 0; i < 64; ++i) {
      values += (i == 0 ? "(" : ", (") + std::to_string(i) + ", " +
                std::to_string(i) + ")";
    }
    ASSERT_TRUE(session.Sql("INSERT INTO t VALUES " + values).ok());
    ASSERT_TRUE(
        session.CreatePatchIndex("t", 1, ConstraintKind::kNearlySorted).ok());
    ASSERT_TRUE(session.Sql("UPDATE t SET v = 0 WHERE k = 50").ok());
  }

  Engine engine(DurableOptions(dir));
  ASSERT_TRUE(engine.recovery_status().ok())
      << engine.recovery_status().ToString();
  const RecoveryReport& report = engine.durability()->last_recovery();
  // The index comes back one way or the other: restored from a checkpoint
  // (none was taken here) or rebuilt by discovery.
  EXPECT_EQ(report.indexes_restored + report.indexes_rebuilt, 2u)
      << "one per partition";
  const PartitionedTable* table =
      engine.catalog().FindPartitionedTable("t");
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(engine.catalog().manager().IndexesOn(*table).size(), 2u);
  // The recovered index still handles updates (the commit protocol runs).
  Session session = engine.CreateSession();
  ASSERT_TRUE(session.Sql("UPDATE t SET v = 1 WHERE k = 51").ok());
  EXPECT_EQ(ReadRows(session, "SELECT v FROM t WHERE k = 51"),
            (std::vector<std::vector<std::int64_t>>{{1}}));
  RemoveDir(dir);
}

TEST(DurabilityTest, RestoredIndexCheckpointCountsAsRestored) {
  const std::string dir = FreshDataDir("restore");
  {
    Engine engine(DurableOptions(dir));
    ASSERT_TRUE(engine.recovery_status().ok());
    Session session = engine.CreateSession();
    ASSERT_TRUE(
        session.Sql("CREATE TABLE t (k INT64, v INT64) PARTITIONS 2").ok());
    ASSERT_TRUE(session.Sql("INSERT INTO t VALUES (1, 1), (2, 2)").ok());
    ASSERT_TRUE(
        session.CreatePatchIndex("t", 1, ConstraintKind::kNearlyUnique).ok());
    // Checkpoint writes csn-stamped index checkpoints next to the
    // snapshots; recovery must load them instead of rebuilding.
    ASSERT_TRUE(engine.Checkpoint().ok());
  }
  Engine engine(DurableOptions(dir));
  ASSERT_TRUE(engine.recovery_status().ok());
  const RecoveryReport& report = engine.durability()->last_recovery();
  EXPECT_EQ(report.indexes_restored, 2u);
  EXPECT_EQ(report.indexes_rebuilt, 0u);
  EXPECT_EQ(report.records_replayed, 0u);
  RemoveDir(dir);
}

// §3.4 checkpoints are only as good as the bytes read back: a bit-flipped
// index checkpoint must be refused and the index rebuilt by discovery —
// restoring it would make the rewrites return wrong results (a flipped
// patch delta leaves a duplicate unpatched; a flipped NCC constant
// changes DISTINCT's answer outright).
TEST(DurabilityTest, CorruptIndexCheckpointIsRebuiltNotRestored) {
  const std::string dir = FreshDataDir("corruptpidx");
  {
    Engine engine(DurableOptions(dir));
    ASSERT_TRUE(engine.recovery_status().ok());
    Session session = engine.CreateSession();
    ASSERT_TRUE(
        session.Sql("CREATE TABLE t (k INT64, v INT64, c INT64) PARTITIONS 1")
            .ok());
    // v is unique but for every tenth row (a duplicate of its
    // predecessor); c is the constant 7 but for every fiftieth row.
    std::string values;
    for (int i = 0; i < 200; ++i) {
      const int v = i % 10 == 9 ? i - 1 : i;
      const int c = i % 50 == 0 ? 1000 + i : 7;
      values += (i == 0 ? "(" : ", (") + std::to_string(i) + ", " +
                std::to_string(v) + ", " + std::to_string(c) + ")";
    }
    ASSERT_TRUE(session.Sql("INSERT INTO t VALUES " + values).ok());
    ASSERT_TRUE(
        session.CreatePatchIndex("t", 1, ConstraintKind::kNearlyUnique).ok());
    ASSERT_TRUE(
        session.CreatePatchIndex("t", 2, ConstraintKind::kNearlyConstant)
            .ok());
    ASSERT_TRUE(engine.Checkpoint().ok());
  }

  // Flip one bit in each checkpoint. The offsets are taken from the end
  // of the file and from the payload's own bytes, so they do not depend
  // on the file header: the NUC file's last patch delta, and the NCC
  // file's constant (the only 8-byte little-endian 7 in it).
  int flipped = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string path = entry.path().string();
    if (entry.path().extension() != ".pidx") continue;
    std::string data;
    ASSERT_TRUE(ReadFileBytes(path, &data).ok());
    std::size_t at = std::string::npos;
    if (path.find(".c1.k0.") != std::string::npos) {
      ASSERT_GE(data.size(), 8u);
      at = data.size() - 8;
    } else if (path.find(".c2.k2.") != std::string::npos) {
      const std::string seven("\x07\0\0\0\0\0\0\0", 8);
      at = data.find(seven);
      ASSERT_NE(at, std::string::npos);
      ASSERT_EQ(data.find(seven, at + 1), std::string::npos);
    }
    ASSERT_NE(at, std::string::npos) << path;
    data[at] = static_cast<char>(data[at] ^ 1);
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
    std::fclose(f);
    ++flipped;
  }
  ASSERT_EQ(flipped, 2);

  EngineOptions options = DurableOptions(dir);
  options.optimizer.force_patch_rewrites = true;
  Engine engine(options);
  ASSERT_TRUE(engine.recovery_status().ok())
      << engine.recovery_status().ToString();
  const RecoveryReport& report = engine.durability()->last_recovery();
  EXPECT_EQ(report.indexes_restored, 0u);
  EXPECT_EQ(report.indexes_rebuilt, 2u);

  const PartitionedTable* table = engine.catalog().FindPartitionedTable("t");
  ASSERT_NE(table, nullptr);
  Session session = engine.CreateSession();
  OptimizerOptions plain;
  plain.enable_patch_rewrites = false;
  for (const std::size_t col : {std::size_t{1}, std::size_t{2}}) {
    const std::string sql =
        "SELECT DISTINCT " + std::string(col == 1 ? "v" : "c") + " FROM t";
    Result<std::string> plan = session.Explain(sql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_NE(plan.value().find("PatchDistinct"), std::string::npos)
        << plan.value();
    Result<QueryResult> rewritten = session.Sql(sql);
    Result<QueryResult> reference =
        session.Execute(LDistinct(LScan(*table, {col}), {0}), plain);
    ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ExpectSameRows(reference.value().rows, rewritten.value().rows);
  }
  RemoveDir(dir);
}

TEST(DurabilityTest, CheckpointTruncatesWalAndRecoveryLoadsSnapshot) {
  const std::string dir = FreshDataDir("ckpt");
  {
    Engine engine(DurableOptions(dir));
    ASSERT_TRUE(engine.recovery_status().ok());
    Session session = engine.CreateSession();
    ASSERT_TRUE(session.Sql("CREATE TABLE t (k INT64) PARTITIONS 1").ok());
    ASSERT_TRUE(session.Sql("INSERT INTO t VALUES (1), (2)").ok());
    ASSERT_TRUE(engine.Checkpoint().ok());
    // Post-checkpoint commits land in the fresh WAL.
    ASSERT_TRUE(session.Sql("INSERT INTO t VALUES (3)").ok());
  }
  Engine engine(DurableOptions(dir));
  ASSERT_TRUE(engine.recovery_status().ok());
  const RecoveryReport& report = engine.durability()->last_recovery();
  // Only the post-checkpoint commit replays; the first two rows come from
  // the snapshot.
  EXPECT_EQ(report.records_replayed, 1u);
  Session session = engine.CreateSession();
  EXPECT_EQ(ReadRows(session, "SELECT k FROM t ORDER BY k"),
            (std::vector<std::vector<std::int64_t>>{{1}, {2}, {3}}));
  RemoveDir(dir);
}

TEST(DurabilityTest, FailedWalAppendAbortsTheCommit) {
  const std::string dir = FreshDataDir("appendfail");
  auto arm = std::make_shared<std::atomic<bool>>(false);
  EngineOptions options = DurableOptions(dir);
  options.durability.fault_hook = [arm](const char* point) {
    if (arm->load() && std::string_view(point) == "wal.append") {
      return FaultAction::kFail;
    }
    return FaultAction::kNone;
  };
  Engine engine(options);
  ASSERT_TRUE(engine.recovery_status().ok());
  Session session = engine.CreateSession();
  ASSERT_TRUE(session.Sql("CREATE TABLE t (k INT64) PARTITIONS 2").ok());
  ASSERT_TRUE(session.Sql("INSERT INTO t VALUES (1), (2), (3)").ok());

  arm->store(true);
  Result<QueryResult> failed = session.Sql("INSERT INTO t VALUES (4)");
  EXPECT_FALSE(failed.ok());
  arm->store(false);

  // The aborted commit is invisible (PDTs were discarded, nothing
  // published) and the engine keeps working.
  EXPECT_EQ(ReadRows(session, "SELECT k FROM t ORDER BY k"),
            (std::vector<std::vector<std::int64_t>>{{1}, {2}, {3}}));
  ASSERT_TRUE(session.Sql("INSERT INTO t VALUES (5)").ok());
  EXPECT_EQ(ReadRows(session, "SELECT k FROM t ORDER BY k"),
            (std::vector<std::vector<std::int64_t>>{{1}, {2}, {3}, {5}}));
  RemoveDir(dir);
}

TEST(DurabilityTest, ShortWriteAndFsyncFailureAlsoAbort) {
  for (const char* mode : {"short", "fsync"}) {
    const std::string dir = FreshDataDir(mode);
    auto arm = std::make_shared<std::atomic<bool>>(false);
    const bool short_write = std::string_view(mode) == "short";
    EngineOptions options = DurableOptions(dir);
    options.durability.fault_hook = [arm, short_write](const char* point) {
      if (!arm->load()) return FaultAction::kNone;
      const std::string_view p(point);
      if (short_write && p == "wal.append") return FaultAction::kShortWrite;
      if (!short_write && p == "wal.fsync") return FaultAction::kFail;
      return FaultAction::kNone;
    };
    Engine engine(options);
    ASSERT_TRUE(engine.recovery_status().ok());
    Session session = engine.CreateSession();
    ASSERT_TRUE(session.Sql("CREATE TABLE t (k INT64) PARTITIONS 1").ok());
    ASSERT_TRUE(session.Sql("INSERT INTO t VALUES (1)").ok());
    arm->store(true);
    EXPECT_FALSE(session.Sql("INSERT INTO t VALUES (2)").ok()) << mode;
    arm->store(false);
    EXPECT_EQ(ReadRows(session, "SELECT k FROM t ORDER BY k"),
              (std::vector<std::vector<std::int64_t>>{{1}})) << mode;
    // The rolled-back WAL replays cleanly: only the acked row survives a
    // restart (in-process the short write was truncated away).
    RemoveDir(dir);
  }
}

TEST(DurabilityTest, RolledBackWalReplaysOnlyAckedCommits) {
  const std::string dir = FreshDataDir("rollback");
  auto arm = std::make_shared<std::atomic<bool>>(false);
  EngineOptions options = DurableOptions(dir);
  options.durability.fault_hook = [arm](const char* point) {
    if (arm->load() && std::string_view(point) == "wal.append") {
      return FaultAction::kShortWrite;
    }
    return FaultAction::kNone;
  };
  {
    Engine engine(options);
    ASSERT_TRUE(engine.recovery_status().ok());
    Session session = engine.CreateSession();
    ASSERT_TRUE(session.Sql("CREATE TABLE t (k INT64) PARTITIONS 1").ok());
    ASSERT_TRUE(session.Sql("INSERT INTO t VALUES (1)").ok());
    arm->store(true);
    EXPECT_FALSE(session.Sql("INSERT INTO t VALUES (2)").ok());
    arm->store(false);
    ASSERT_TRUE(session.Sql("INSERT INTO t VALUES (3)").ok());
  }
  Engine engine(DurableOptions(dir));
  ASSERT_TRUE(engine.recovery_status().ok());
  Session session = engine.CreateSession();
  EXPECT_EQ(ReadRows(session, "SELECT k FROM t ORDER BY k"),
            (std::vector<std::vector<std::int64_t>>{{1}, {3}}));
  RemoveDir(dir);
}

TEST(DurabilityTest, SecondEngineOnSameDirIsRejected) {
  const std::string dir = FreshDataDir("lock");
  Engine first(DurableOptions(dir));
  ASSERT_TRUE(first.recovery_status().ok());

  Engine second(DurableOptions(dir));
  EXPECT_FALSE(second.recovery_status().ok());
  EXPECT_EQ(second.durability(), nullptr);  // runs volatile
  // The volatile engine still executes queries.
  Session session = second.CreateSession();
  ASSERT_TRUE(session.Sql("CREATE TABLE v (k INT64)").ok());
  ASSERT_TRUE(session.Sql("INSERT INTO v VALUES (1)").ok());
  RemoveDir(dir);
}

TEST(DurabilityTest, BulkLoadedTablesStayVolatile) {
  const std::string dir = FreshDataDir("volatile");
  {
    Engine engine(DurableOptions(dir));
    ASSERT_TRUE(engine.recovery_status().ok());
    // Catalog::AddTable bypasses the logged DDL path by design (.load
    // bulk ingest); commits against it must not touch the data dir.
    auto loaded =
        std::make_unique<Table>(Schema({{"k", ColumnType::kInt64}}));
    loaded->AppendRow(Row{{Value(std::int64_t{7})}});
    ASSERT_TRUE(engine.catalog().AddTable("bulk", std::move(loaded)).ok());
    Session session = engine.CreateSession();
    ASSERT_TRUE(session.Sql("INSERT INTO bulk VALUES (8)").ok());
    ASSERT_TRUE(session.Sql("CREATE TABLE sql_t (k INT64)").ok());
    ASSERT_TRUE(session.Sql("INSERT INTO sql_t VALUES (1)").ok());
  }
  Engine engine(DurableOptions(dir));
  ASSERT_TRUE(engine.recovery_status().ok());
  Session session = engine.CreateSession();
  // The SQL-created table recovered; the bulk-loaded one is gone.
  EXPECT_EQ(ReadRows(session, "SELECT k FROM sql_t"),
            (std::vector<std::vector<std::int64_t>>{{1}}));
  EXPECT_FALSE(session.Sql("SELECT k FROM bulk").ok());
  RemoveDir(dir);
}

TEST(DurabilityTest, GarbageAppendedToWalIsIgnored) {
  const std::string dir = FreshDataDir("garbage");
  {
    Engine engine(DurableOptions(dir));
    ASSERT_TRUE(engine.recovery_status().ok());
    Session session = engine.CreateSession();
    ASSERT_TRUE(session.Sql("CREATE TABLE t (k INT64) PARTITIONS 1").ok());
    ASSERT_TRUE(session.Sql("INSERT INTO t VALUES (1), (2)").ok());
  }
  {
    // Simulate a torn append: garbage bytes after the last valid frame.
    std::FILE* f = std::fopen((dir + "/t.p0.wal").c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char garbage[] = "\x03\x00\x00\x00garbage-tail";
    std::fwrite(garbage, 1, sizeof(garbage) - 1, f);
    std::fclose(f);
  }
  Engine engine(DurableOptions(dir));
  ASSERT_TRUE(engine.recovery_status().ok())
      << engine.recovery_status().ToString();
  Session session = engine.CreateSession();
  EXPECT_EQ(ReadRows(session, "SELECT k FROM t ORDER BY k"),
            (std::vector<std::vector<std::int64_t>>{{1}, {2}}));
  // The recovery checkpoint reset the log; a further restart is clean.
  RemoveDir(dir);
}

TEST(DurabilityTest, TruncatedWalTailDropsOnlyTheTornCommit) {
  const std::string dir = FreshDataDir("torntail");
  {
    Engine engine(DurableOptions(dir));
    ASSERT_TRUE(engine.recovery_status().ok());
    Session session = engine.CreateSession();
    ASSERT_TRUE(session.Sql("CREATE TABLE t (k INT64) PARTITIONS 1").ok());
    ASSERT_TRUE(session.Sql("INSERT INTO t VALUES (1)").ok());
    ASSERT_TRUE(session.Sql("INSERT INTO t VALUES (2)").ok());
  }
  {
    // Chop bytes off the last record — the torn-append image of a commit
    // that could never have been acknowledged.
    const std::string path = dir + "/t.p0.wal";
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(::truncate(path.c_str(), size - 5), 0);
  }
  Engine engine(DurableOptions(dir));
  ASSERT_TRUE(engine.recovery_status().ok());
  EXPECT_EQ(engine.durability()->last_recovery().records_replayed, 1u);
  Session session = engine.CreateSession();
  EXPECT_EQ(ReadRows(session, "SELECT k FROM t ORDER BY k"),
            (std::vector<std::vector<std::int64_t>>{{1}}));
  RemoveDir(dir);
}

TEST(DurabilityTest, AutoCheckpointTriggersOnWalBytes) {
  const std::string dir = FreshDataDir("autockpt");
  EngineOptions options = DurableOptions(dir);
  options.durability.checkpoint_wal_bytes = 1;  // every commit checkpoints
  {
    Engine engine(options);
    ASSERT_TRUE(engine.recovery_status().ok());
    Session session = engine.CreateSession();
    ASSERT_TRUE(session.Sql("CREATE TABLE t (k INT64) PARTITIONS 1").ok());
    ASSERT_TRUE(session.Sql("INSERT INTO t VALUES (1)").ok());
    ASSERT_TRUE(session.Sql("INSERT INTO t VALUES (2)").ok());
  }
  Engine engine(options);
  ASSERT_TRUE(engine.recovery_status().ok());
  // Every commit was folded into a snapshot; nothing replays.
  EXPECT_EQ(engine.durability()->last_recovery().records_replayed, 0u);
  Session session = engine.CreateSession();
  EXPECT_EQ(ReadRows(session, "SELECT k FROM t ORDER BY k"),
            (std::vector<std::vector<std::int64_t>>{{1}, {2}}));
  RemoveDir(dir);
}

TEST(DurabilityTest, FreshDirectoryRecoversEmpty) {
  const std::string dir = FreshDataDir("fresh");
  Engine engine(DurableOptions(dir));
  ASSERT_TRUE(engine.recovery_status().ok());
  const RecoveryReport& report = engine.durability()->last_recovery();
  EXPECT_EQ(report.tables, 0u);
  EXPECT_EQ(report.records_replayed, 0u);
  RemoveDir(dir);
}

}  // namespace
}  // namespace patchindex
