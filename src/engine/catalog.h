#ifndef PATCHINDEX_ENGINE_CATALOG_H_
#define PATCHINDEX_ENGINE_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/epoch_gc.h"
#include "common/status.h"
#include "patchindex/manager.h"
#include "storage/table.h"

namespace patchindex {

/// One immutable published state of a catalog table: a frozen data
/// snapshot (partitions share their base columns with the live head via
/// copy-on-write), the index snapshots bound to those partitions, and
/// the commit it corresponds to. Readers obtain the current version with
/// Catalog::PinnedVersion() while holding an EpochGc guard and scan it
/// with no table lock at all; a superseded version is retired through
/// the global EpochGc and freed once no pinned reader can still hold it.
struct TableVersion {
  /// Commit sequence number this version was published at (the WAL CSN
  /// for durable tables; the per-table version_id for volatile ones —
  /// monotonic per table either way).
  std::uint64_t csn = 0;
  /// Monotonic per-table publication counter, starting at 1.
  std::uint64_t version_id = 0;
  /// The frozen table: CloneShared partition snapshots, with partitions
  /// an update left untouched reused from the previous version.
  std::shared_ptr<const PartitionedTable> snapshot;
  /// Each head partition's mutation_seq at publication. A mismatch
  /// against the live head means the head mutated after this version was
  /// published (an unpublished direct mutation) and the version is stale.
  std::vector<std::uint64_t> partition_seqs;
  /// Immutable index clones, bound to `snapshot`'s partitions.
  std::vector<std::shared_ptr<const PatchIndex>> indexes;
};

/// Named tables plus their PatchIndexes (via an owned PatchIndexManager),
/// with one reader-writer lock per table. The exclusive lock is a
/// writer–writer lock: update queries, DDL and checkpoints serialize on
/// it, while read queries pin the published TableVersion through an
/// epoch guard and do not take it. The shared mode serves only readers
/// that find the published version stale against a head mutated outside
/// the commit protocol (rows or PDT deltas written through a raw Table*).
///
/// Every catalog entry is a PartitionedTable — the engine's storage unit
/// (paper §3.2: discovery, patch maintenance and query processing are
/// partition-local). Single-partition tables keep the historical plain
/// `Table*` view via FindTable/TableRef::table; multi-partition tables
/// are reached through FindPartitionedTable / TableRef::ptable. The lock
/// covers the whole partitioned table: update queries may touch several
/// partitions (and commit them in parallel) under one exclusive lock.
///
/// The catalog map itself is guarded by a separate mutex; table pointers
/// and their locks stay stable until DropTable.
///
/// Lock ordering (deadlock freedom): the map mutex is only ever held
/// inside Catalog methods and never while acquiring a table lock. Table
/// locks are acquired either singly (update queries, DDL) or in
/// ascending lock-address order (read queries locking several tables via
/// Session::Execute). Never acquire a table lock while holding another
/// one out of that order.
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Creates an empty single-partition table; fails when the name is
  /// taken. The historical single-table API.
  Result<Table*> CreateTable(const std::string& name, Schema schema);

  /// Hard ceiling on a table's partition count: partitions are eagerly
  /// allocated, so an absurd SQL `PARTITIONS n` must be rejected with a
  /// status instead of exhausting memory.
  static constexpr std::size_t kMaxPartitions = 4096;

  /// Creates an empty table with `num_partitions` partitions
  /// (1 <= n <= kMaxPartitions).
  Result<PartitionedTable*> CreatePartitionedTable(const std::string& name,
                                                   Schema schema,
                                                   std::size_t num_partitions);

  /// Registers an already-populated table under `name` (bulk-load path);
  /// it becomes the single partition of a PartitionedTable entry.
  Result<Table*> AddTable(const std::string& name,
                          std::unique_ptr<Table> table);

  /// Registers an already-populated partitioned table under `name`.
  Result<PartitionedTable*> AddPartitionedTable(
      const std::string& name, std::unique_ptr<PartitionedTable> table);

  /// The single-table view: partition 0 of a single-partition entry;
  /// nullptr when absent *or* multi-partition (callers that understand
  /// partitions use FindPartitionedTable).
  Table* FindTable(const std::string& name);
  const Table* FindTable(const std::string& name) const;

  /// nullptr when absent.
  PartitionedTable* FindPartitionedTable(const std::string& name);
  const PartitionedTable* FindPartitionedTable(const std::string& name) const;

  /// Drops the table and every PatchIndex on it (all partitions),
  /// serialized behind the table's exclusive lock. Sessions that already
  /// resolved a TableRef keep table and lock alive until they release it,
  /// so a racing read query finishes against the (de-cataloged,
  /// index-less) table instead of touching freed memory.
  Status DropTable(const std::string& name);

  std::vector<std::string> TableNames() const;

  PatchIndexManager& manager() { return manager_; }
  const PatchIndexManager& manager() const { return manager_; }

  /// A resolved handle onto a catalog table: the table, its reader-writer
  /// lock, and shared ownership keeping both alive while held — closing
  /// the window between resolving the lock and acquiring it, during which
  /// a concurrent DropTable could otherwise free them.
  struct TableRef {
    PartitionedTable* ptable = nullptr;
    /// Partition 0 for single-partition entries, nullptr otherwise (the
    /// historical plain-table view).
    Table* table = nullptr;
    std::shared_mutex* lock = nullptr;
    std::shared_ptr<void> owner;

    explicit operator bool() const { return lock != nullptr; }
  };

  /// Resolves `table` / `name` to a handle; an empty handle when not
  /// catalog-owned (plans over free-standing tables run unguarded). The
  /// Table& overload matches any partition of an entry.
  TableRef Ref(const Table& table) const;
  TableRef Ref(const PartitionedTable& table) const;
  TableRef Ref(const std::string& name) const;

  // --- MVCC versions -----------------------------------------------------

  /// Publishes a fresh immutable TableVersion of `ref`'s table and
  /// retires the previous one through the global EpochGc. The caller
  /// must hold the table's exclusive lock (the commit/DDL path).
  /// Partitions whose mutation_seq is unchanged since the previous
  /// version are reused (their snapshots and index clones carry over);
  /// `reindex` forces every partition to re-snapshot, for events that
  /// change index state without touching the data (CreatePatchIndex,
  /// recovery restore). `csn` = 0 means volatile — the per-table
  /// version_id is used instead.
  void PublishVersion(const TableRef& ref, std::uint64_t csn,
                      bool reindex = false);

  /// The currently published version of `ref`'s table; nullptr before
  /// the first publication or after DropTable. The caller MUST hold an
  /// EpochGc::Guard on EpochGc::Global() for as long as it dereferences
  /// the result — the pointer is unprotected otherwise.
  const TableVersion* PinnedVersion(const TableRef& ref) const;

  /// True when `version`'s recorded partition seqs still match the live
  /// head — no partition has mutated since the version was published, so
  /// its snapshot is byte-identical to the head's committed state. A
  /// mismatch means an unpublished direct mutation (bulk loads, tests
  /// appending through a raw Table*) or a writer mid-commit; readers then
  /// fall back to the head under a shared lock (or the pinned version
  /// when a writer holds the lock).
  static bool VersionMatchesHead(const TableVersion& version,
                                 const PartitionedTable& head);

  struct VersionStats {
    std::int64_t live = 0;             ///< Versions published, not yet freed.
    std::uint64_t oldest_live_csn = 0; ///< Oldest such version's CSN (0: none).
    std::uint64_t current_csn = 0;     ///< Currently published version's CSN.
  };
  VersionStats VersionStatsFor(const TableRef& ref) const;

  /// Sum of live versions across all tables (the pidx_mvcc_versions_live
  /// gauge).
  std::int64_t TotalLiveVersions() const;

  ~Catalog();

 private:
  /// Tracks which of a table's versions are still alive (published or
  /// awaiting epoch reclamation). Shared with the retire deleters so
  /// they stay self-contained — a deleter may run after the catalog
  /// (even the engine) is gone.
  struct VersionTracker {
    std::mutex mu;
    std::multiset<std::uint64_t> live_csns;
  };

  struct Entry {
    std::unique_ptr<PartitionedTable> table;
    mutable std::shared_mutex lock;
    /// Currently published version. Written only under `lock` exclusive
    /// (and at creation, before the entry is visible); read lock-free by
    /// pinned readers.
    std::atomic<const TableVersion*> version{nullptr};
    std::uint64_t next_version_id = 1;  // guarded by `lock` exclusive
    std::shared_ptr<VersionTracker> tracker =
        std::make_shared<VersionTracker>();
  };

  TableRef MakeRef(const std::shared_ptr<Entry>& entry) const;
  void PublishLocked(Entry& entry, std::uint64_t csn, bool reindex);
  static void RetireVersion(std::shared_ptr<VersionTracker> tracker,
                            const TableVersion* version);
  static Entry& EntryOf(const TableRef& ref);

  mutable std::mutex mu_;  // guards tables_ (the map, not the rows)
  std::map<std::string, std::shared_ptr<Entry>> tables_;
  PatchIndexManager manager_;
};

}  // namespace patchindex

#endif  // PATCHINDEX_ENGINE_CATALOG_H_
