#ifndef PATCHINDEX_ENGINE_READ_PIN_H_
#define PATCHINDEX_ENGINE_READ_PIN_H_

#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/epoch_gc.h"
#include "engine/catalog.h"
#include "optimizer/plan.h"
#include "patchindex/index_lookup.h"

namespace patchindex {

/// IndexLookup over the immutable index snapshots of pinned
/// TableVersions, with the live PatchIndexManager as fallback for tables
/// that are not read through a version (a table dropped mid-statement,
/// free-standing tables). Resolution is by partition address, like the
/// manager's: a snapshot partition resolves to exactly the index clones
/// published with it — including "no indexes", so a pinned read never
/// accidentally picks up a live index bound to a different table state.
class PinnedIndexLookup : public IndexLookup {
 public:
  explicit PinnedIndexLookup(const PatchIndexManager& fallback)
      : fallback_(&fallback) {}

  /// Registers `version`'s snapshot partitions and index clones.
  void AddVersion(const TableVersion& version);

  std::vector<const PatchIndex*> FindIndexesOn(
      const Table& table) const override;

 private:
  const PatchIndexManager* fallback_;
  std::unordered_map<const Table*, std::vector<const PatchIndex*>>
      by_partition_;
};

/// Per-statement read protection: resolves every catalog table a plan
/// scans and protects each one for the statement's duration. A head
/// changes only inside the commit protocol, which publishes a new
/// TableVersion before it releases the exclusive lock, so the published
/// version is always the table's committed state. Per table:
///
///   - It has a published version: scan the immutable snapshot with no
///     lock at all. The epoch guard keeps the version alive against
///     concurrent retirement. Readers therefore never wait on writers;
///     the exclusive lock is a writer–writer lock only.
///   - It has none, because it was dropped after the plan resolved it:
///     block on the shared lock (DropTable holds the exclusive lock while
///     it drops the indexes) and finish against the de-cataloged table.
///
/// When any table resolves to a version, the plan is cloned and its scan
/// nodes are retargeted at the snapshot tables (the caller's original
/// plan is never mutated, so retained plans stay valid); `indexes()`
/// then resolves those snapshot partitions to the version's index clones.
///
/// Lock ordering: refs are processed in ascending lock-address order, so
/// the shared-lock waits keep the total order against exclusive lockers
/// and deadlock stays impossible.
class PinnedReadSet {
 public:
  PinnedReadSet(const Catalog& catalog, LogicalPtr* plan);

  PinnedReadSet(const PinnedReadSet&) = delete;
  PinnedReadSet& operator=(const PinnedReadSet&) = delete;

  /// Index resolution for the (possibly retargeted) plan: version clones
  /// for pinned tables, the live manager for everything else.
  const IndexLookup& indexes() const { return lookup_; }

 private:
  EpochGc::Guard guard_;
  std::vector<Catalog::TableRef> refs_;
  std::vector<std::shared_lock<std::shared_mutex>> locks_;
  PinnedIndexLookup lookup_;
};

}  // namespace patchindex

#endif  // PATCHINDEX_ENGINE_READ_PIN_H_
