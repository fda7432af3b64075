#ifndef PATCHINDEX_PATCHINDEX_MANAGER_H_
#define PATCHINDEX_PATCHINDEX_MANAGER_H_

#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "patchindex/index_lookup.h"
#include "patchindex/patch_index.h"
#include "storage/table.h"

namespace patchindex {

/// Owns the PatchIndexes of one or more tables and drives the update
/// protocol: buffered update query -> constraint-specific handling ->
/// checkpoint -> incremental maintenance. Data partitioning is transparent
/// (paper §3.2): for a PartitionedTable, one index exists per partition
/// per column, with partition-local discovery, patch bitmaps and commit.
///
/// The index registry itself is internally synchronized, so sessions may
/// register/drop/enumerate indexes of different tables concurrently (the
/// engine holds only per-table locks). The *contents* of an index are
/// not: callers must serialize index use against CommitUpdateQuery on the
/// same table — the engine's table-level reader-writer lock does exactly
/// that.
class PatchIndexManager : public IndexLookup {
 public:
  /// Creates and registers an index; returns a non-owning handle.
  PatchIndex* CreateIndex(const Table& table, std::size_t column,
                          ConstraintKind constraint,
                          PatchIndexOptions options = {});

  /// Registers one index per partition; returns the handles in partition
  /// order. Discovery and index creation run partition-locally (paper
  /// §3.2), in parallel on `pool` when given.
  std::vector<PatchIndex*> CreatePartitionedIndex(
      const PartitionedTable& table, std::size_t column,
      ConstraintKind constraint, PatchIndexOptions options = {},
      ThreadPool* pool = nullptr);

  /// Registers an externally constructed index (the checkpoint-restore
  /// path: LoadPatchIndexCheckpoint builds the index, recovery registers
  /// it so WAL replay maintains it incrementally).
  PatchIndex* Register(std::unique_ptr<PatchIndex> index);

  /// All indexes defined on `table`.
  std::vector<PatchIndex*> IndexesOn(const Table& table) const;

  /// All indexes defined on any partition of `table`.
  std::vector<PatchIndex*> IndexesOn(const PartitionedTable& table) const;

  /// IndexLookup: the optimizer's read-side view of IndexesOn(Table&).
  std::vector<const PatchIndex*> FindIndexesOn(
      const Table& table) const override;

  /// Shared handles to every index on `table` — the MVCC publication
  /// path snapshots these so a pinned version keeps its source indexes
  /// alive even if they are dropped from the registry afterwards.
  std::vector<std::shared_ptr<const PatchIndex>> SharedIndexesOn(
      const Table& table) const;

  /// Destroys every index defined on `table`; returns how many were
  /// dropped. Required before the owning catalog frees the table — the
  /// indexes hold a reference to it.
  std::size_t DropIndexesOn(const Table& table);
  std::size_t DropIndexesOn(const PartitionedTable& table);

  /// Destroys one index by handle; false when it is not registered.
  bool DropIndex(PatchIndex* index);

  /// Commits the update query buffered in `table`'s PDT: runs every
  /// affected index's update handling, checkpoints the table, then runs
  /// post-checkpoint maintenance. This is the paper's "handle updates
  /// immediately after they occur" protocol (§5).
  ///
  /// All-or-nothing per index: the table's delta always commits (the
  /// checkpoint is unconditional once the PDT validates), and an index
  /// either completes both maintenance phases or is dropped from the
  /// registry entirely. A partial failure can therefore never leave a
  /// registered index silently stale against the checkpointed table; the
  /// returned status names the dropped indexes. A kInvalidArgument return
  /// (mixed delta kinds) leaves table and indexes untouched.
  Status CommitUpdateQuery(Table& table);

  /// Per-partition commit of a partitioned table: each dirty partition
  /// (non-empty PDT) runs the full handle -> checkpoint -> maintenance
  /// protocol partition-locally, in parallel on `pool` when given. The
  /// same all-or-nothing index contract applies per partition.
  Status CommitUpdateQuery(PartitionedTable& table, ThreadPool* pool = nullptr);

  std::size_t num_indexes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return indexes_.size();
  }

 private:
  /// The single-partition protocol with the PDT already validated.
  Status CommitValidated(Table& table);

  mutable std::mutex mu_;  // guards the registry, not the indexes' state
  // shared_ptr so MVCC version snapshots can hold dropped indexes alive.
  std::vector<std::shared_ptr<PatchIndex>> indexes_;
};

}  // namespace patchindex

#endif  // PATCHINDEX_PATCHINDEX_MANAGER_H_
