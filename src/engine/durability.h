#ifndef PATCHINDEX_ENGINE_DURABILITY_H_
#define PATCHINDEX_ENGINE_DURABILITY_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "engine/catalog.h"
#include "obs/metrics.h"
#include "storage/fault_fs.h"
#include "storage/table.h"

namespace patchindex {

/// Durability configuration (EngineOptions::durability). An empty
/// data_dir disables the subsystem entirely — the engine stays the
/// historical volatile in-memory store.
struct DurabilityOptions {
  /// Directory holding the catalog log, per-partition WALs, snapshots and
  /// the checkpoint manifests. Created if absent; an advisory flock on
  /// <data_dir>/LOCK rejects a second engine on the same directory.
  std::string data_dir;

  /// Fsync the WAL before a commit is acknowledged (and checkpoint files
  /// before the manifest rename). With false, commits are only durable
  /// against process crashes (the page cache survives); an OS/power crash
  /// can lose acknowledged tail commits — and because recovery assumes
  /// commit sequence numbers vanish tail-first, partial page-cache loss
  /// is outside the recovery contract. Benchmarks use false.
  bool fsync = true;

  /// Auto-checkpoint a table after a commit once its WALs carry this many
  /// record bytes (0 disables; explicit Engine::Checkpoint still works).
  /// Checkpointing truncates the WALs, bounding recovery time.
  std::uint64_t checkpoint_wal_bytes = 64ull << 20;

  /// Test support: fault/crash injection hook passed down to every
  /// durable file operation (see storage/fault_fs.h).
  FaultHook fault_hook;

  bool enabled() const { return !data_dir.empty(); }
};

/// Hot-path durability instrumentation handles, bound by the engine at
/// construction so recovery's log resets are counted too. All are set.
struct DurabilityMetrics {
  /// WAL record bytes appended by acknowledged commits.
  obs::Counter* wal_appended_bytes = nullptr;
  /// Latency of each commit-path fsync (one per dirty partition log).
  obs::Histogram* fsync_latency_us = nullptr;
  /// Wall time of each completed table checkpoint.
  obs::Histogram* checkpoint_duration_us = nullptr;
};

/// A race-free copy of one table's durable bookkeeping, for
/// `pi_stats.tables` / `pi_stats.wal`. Callers must hold at least the
/// table's shared lock (commit and checkpoint mutate the state under the
/// exclusive lock).
struct TableDurability {
  /// False when the table is not WAL-tracked (volatile bulk loads).
  bool tracked = false;
  std::uint64_t wal_bytes = 0;
  std::uint64_t snapshot_csn = 0;
  std::uint64_t next_csn = 0;
  bool broken = false;
  /// Current log file size of each partition (header included).
  std::vector<std::uint64_t> partition_wal_bytes;
};

/// What Recover() found, for observability and tests.
struct RecoveryReport {
  std::size_t tables = 0;
  std::uint64_t records_replayed = 0;
  /// Trailing commits dropped because a crash interrupted their
  /// multi-partition WAL append (fewer records on disk than the record's
  /// commit_partitions announces) — never-acknowledged commits.
  std::uint64_t commits_dropped = 0;
  std::size_t indexes_restored = 0;
  std::size_t indexes_rebuilt = 0;
};

/// The write-ahead-log + checkpoint subsystem behind EngineOptions::
/// durability (see ARCHITECTURE.md "durability" for the full protocol).
///
/// Write path: LogCommit runs after an update query's deltas are buffered
/// in the partitions' PDTs and before the PatchIndex commit protocol
/// publishes them — under the table's exclusive lock, which serializes
/// commits and makes commit sequence numbers (csn) strictly ordered. Each
/// dirty partition gets one framed, CRC'd record (partition-local rowIDs,
/// so replay bypasses insert routing); all records of one commit carry
/// the same csn and the dirty-partition count. Logs are fsynced before
/// LogCommit returns; a failed append/fsync truncates the logs back to
/// their pre-commit size and aborts the commit.
///
/// Checkpoint path: CheckpointTable (exclusive lock held) writes a
/// published TableVersion — never the live head — so every checkpoint
/// (Engine::Checkpoint, the WAL-size trigger, recovery's log reset) has
/// one source. It snapshots every partition's base columns (PDTs are
/// empty in a published version — commits fold them via
/// Table::Checkpoint) and every index clone's state into csn-stamped
/// files, fsyncs them, then atomically renames the manifest — the commit
/// point — fsyncs the directory, and only then truncates the WALs.
///
/// Recovery (Recover, run by the Engine constructor): replay the catalog
/// log's DDL, load the manifest-named snapshots, restore csn-matching
/// index checkpoints, replay WAL records with csn > manifest csn in csn
/// order through the normal PatchIndex commit protocol (restored indexes
/// are maintained incrementally), drop the torn tail and any trailing
/// commit with missing partition records, rebuild unrestored indexes by
/// discovery, publish the recovered TableVersion, and checkpoint once
/// from it to reset the logs.
///
/// Thread safety: table-level calls (LogCommit, CheckpointTable) must
/// hold that table's exclusive lock — they are not otherwise
/// synchronized against each other for the same table. DDL logging and
/// state-map access are internally locked.
class DurabilityManager {
 public:
  DurabilityManager(DurabilityOptions options, DurabilityMetrics metrics);
  ~DurabilityManager();

  DurabilityManager(const DurabilityManager&) = delete;
  DurabilityManager& operator=(const DurabilityManager&) = delete;

  /// Creates/locks the data directory and opens the catalog log. Must be
  /// called (and succeed) before anything else.
  Status Open();

  /// Rebuilds the catalog from the data directory; see class comment.
  Status Recover(Catalog* catalog, ThreadPool* pool);

  /// Appends a create-table DDL record to the catalog log and creates the
  /// per-partition WAL files. On failure the table is not tracked (the
  /// caller un-creates it).
  Status LogCreateTable(const std::string& name, const Schema& schema,
                        std::size_t partitions);

  /// Appends a create-index DDL record. Duplicate specs (the partial
  /// re-create path) are deduplicated on recovery.
  Status LogCreateIndex(const std::string& table, std::size_t column,
                        ConstraintKind constraint, bool ascending);

  /// Logs the update query currently buffered in `table`'s PDTs. A no-op
  /// for tables not created through the logged DDL path (Catalog::
  /// AddTable bulk loads are volatile by design). On error the WAL is
  /// rolled back and the caller must abort the commit (discard the PDTs).
  /// On success, `commit_csn` (when non-null) receives the commit
  /// sequence number assigned to this update query.
  Status LogCommit(const std::string& name, const PartitionedTable& table,
                   std::int64_t* commit_csn = nullptr);

  /// True once `name`'s WAL bytes exceed checkpoint_wal_bytes.
  bool ShouldCheckpoint(const std::string& name) const;

  /// Snapshots `name` from `version` — the table's published
  /// TableVersion, whose immutable snapshot and index clones are exactly
  /// the committed state — and truncates its WALs. The caller holds the
  /// table's exclusive (writer–writer) lock, which fences WAL truncation
  /// against concurrent commits, and an EpochGc guard keeping `version`
  /// alive; readers never take the lock and are unaffected. Failure is
  /// recoverable: the WALs keep growing and the next trigger retries;
  /// durable state is never left ambiguous (the manifest rename is
  /// atomic).
  Status CheckpointTable(const std::string& name, const TableVersion& version);

  const RecoveryReport& last_recovery() const { return report_; }
  const DurabilityOptions& options() const { return options_; }

  /// Snapshot of `name`'s durable bookkeeping (tracked == false for
  /// untracked names). Caller must hold at least the table's shared lock.
  TableDurability InspectTable(const std::string& name) const;

 private:
  struct IndexSpec {
    std::string table;
    std::size_t column = 0;
    ConstraintKind constraint = ConstraintKind::kNearlyUnique;
    bool ascending = true;
  };

  /// Durable bookkeeping of one logged table. Mutated only under the
  /// table's exclusive lock (except creation, under mu_).
  struct TableState {
    Schema schema;
    std::size_t partitions = 1;
    /// Next commit sequence number to assign.
    std::uint64_t next_csn = 1;
    /// Csn captured by the last completed checkpoint.
    std::uint64_t snapshot_csn = 0;
    /// Record bytes appended across all partition logs since then.
    std::uint64_t wal_bytes = 0;
    /// One open log per partition.
    std::vector<DurableFile> wal;
    /// Fail-stop: a WAL rollback failed, so log and memory may disagree;
    /// further commits on this table are refused.
    bool broken = false;
  };

  std::string TablePath(const std::string& name, const char* suffix) const;
  std::string WalPath(const std::string& name, std::size_t partition) const;
  std::string SnapshotPath(const std::string& name, std::size_t partition,
                           std::uint64_t csn) const;
  std::string IndexCheckpointPath(const IndexSpec& spec, std::size_t partition,
                                  std::uint64_t csn) const;

  Status AppendCatalogRecord(const std::string& payload);
  /// (Re)creates partition `p`'s log with a header at `snapshot_csn`.
  Status ResetWal(const std::string& name, TableState* state, std::size_t p);
  Status RecoverTable(const std::string& name, TableState* state,
                      const std::vector<IndexSpec>& indexes, Catalog* catalog,
                      ThreadPool* pool);
  Status CheckpointLocked(const std::string& name, TableState* state,
                          const TableVersion& version);

  TableState* FindState(const std::string& name);
  const TableState* FindState(const std::string& name) const;

  DurabilityOptions options_;
  DurabilityMetrics metrics_;
  int lock_fd_ = -1;
  RecoveryReport report_;

  std::mutex catalog_mu_;  // serializes catalog-log appends
  DurableFile catalog_log_;

  mutable std::mutex mu_;  // guards the tables_ map (not the states)
  std::map<std::string, TableState> tables_;
};

}  // namespace patchindex

#endif  // PATCHINDEX_ENGINE_DURABILITY_H_
