#ifndef PATCHINDEX_STORAGE_SNAPSHOT_H_
#define PATCHINDEX_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/fault_fs.h"
#include "storage/table.h"

namespace patchindex {

/// Durable column snapshots + the checkpoint manifest.
///
/// A snapshot file persists one partition's base columns:
///   8-byte magic "PISNAP01", then CRC frames (storage/codec.h): a schema
///   frame (column names/types + row count) followed by one frame per
///   column holding its values. Frame CRCs detect torn or bit-flipped
///   files; a snapshot that fails validation is ignored by recovery (the
///   manifest naming it was never renamed into place, or the checkpoint
///   never completed).
///
/// Commits fold PDT deltas into the base columns (Table::Checkpoint runs
/// inside every commit), so at checkpoint time — which runs under the
/// table's exclusive lock — partitions are at PDT-empty rest and base
/// columns alone capture the full state.
///
/// The manifest ("PIMANIF1" magic, one frame) records the checkpoint's
/// commit sequence number and per-partition row counts. Its atomic rename
/// into place is the checkpoint commit point: recovery only trusts
/// snapshots named by a fully renamed manifest.

struct SnapshotManifest {
  /// Last commit sequence number captured by the snapshots; WAL records
  /// with csn <= this are already folded in and skipped on replay.
  std::uint64_t csn = 0;
  /// Base row count of each partition at checkpoint time (sanity-checked
  /// against the loaded snapshots).
  std::vector<std::uint64_t> partition_rows;
};

/// Writes `table`'s base columns to `path` (crash points "snap.write",
/// "snap.fsync"). Pending PDT deltas are NOT captured — callers checkpoint
/// the table first (commits already do).
Status SaveTableSnapshot(const Table& table, const std::string& path,
                         const FaultHook& hook = nullptr);

/// Loads a snapshot written by SaveTableSnapshot, validating framing,
/// CRCs, and that the stored schema matches `expected` exactly.
Result<std::unique_ptr<Table>> LoadTableSnapshot(const std::string& path,
                                                 const Schema& expected);

/// Writes the manifest to `path` (crash points "manifest.write",
/// "manifest.fsync"). Callers write to a temporary name and rename over
/// the final name to make the checkpoint atomic.
Status SaveManifest(const SnapshotManifest& manifest, const std::string& path,
                    const FaultHook& hook = nullptr);

Result<SnapshotManifest> LoadManifest(const std::string& path);

}  // namespace patchindex

#endif  // PATCHINDEX_STORAGE_SNAPSHOT_H_
