#include "engine/read_pin.h"

#include <utility>

#include "engine/engine.h"

namespace patchindex {

void PinnedIndexLookup::AddVersion(const TableVersion& version) {
  const PartitionedTable& snapshot = *version.snapshot;
  for (std::size_t p = 0; p < snapshot.num_partitions(); ++p) {
    // Insert even when empty: a snapshot partition must resolve to its
    // published index set, never fall through to the live manager.
    by_partition_.try_emplace(&snapshot.partition(p));
  }
  for (const auto& idx : version.indexes) {
    by_partition_[&idx->table()].push_back(idx.get());
  }
}

std::vector<const PatchIndex*> PinnedIndexLookup::FindIndexesOn(
    const Table& table) const {
  auto it = by_partition_.find(&table);
  if (it != by_partition_.end()) return it->second;
  return fallback_->FindIndexesOn(table);
}

namespace {

/// Repoints every scan of a head table at its pinned snapshot. Runs on a
/// private clone of the plan; non-catalog scans (system tables,
/// free-standing tables) pass through untouched.
void RetargetScans(
    LogicalNode* node,
    const std::unordered_map<const PartitionedTable*, const PartitionedTable*>&
        table_map,
    const std::unordered_map<const Table*, const Table*>& part_map) {
  if (node->kind == LogicalNode::Kind::kScan) {
    if (node->ptable != nullptr) {
      auto it = table_map.find(node->ptable);
      if (it != table_map.end()) node->ptable = it->second;
    }
    if (node->table != nullptr) {
      auto it = part_map.find(node->table);
      if (it != part_map.end()) node->table = it->second;
    }
  }
  for (const auto& child : node->children) {
    RetargetScans(child.get(), table_map, part_map);
  }
}

}  // namespace

PinnedReadSet::PinnedReadSet(const Catalog& catalog, LogicalPtr* plan)
    : guard_(EpochGc::Global()), lookup_(catalog.manager()) {
  // `guard_` pins FIRST, before any version pointer is loaded:
  // publication retires the old version only after unlinking it, so a
  // pointer loaded under the guard cannot be freed while the guard lives
  // (see common/epoch_gc.h).
  CollectPlanTableRefs(**plan, catalog, &refs_);
  std::unordered_map<const PartitionedTable*, const PartitionedTable*>
      table_map;
  std::unordered_map<const Table*, const Table*> part_map;
  for (const Catalog::TableRef& ref : refs_) {
    const TableVersion* version = catalog.PinnedVersion(ref);
    if (version == nullptr) {
      // Dropped after the plan resolved it: wait out DropTable and finish
      // against the de-cataloged table.
      locks_.emplace_back(*ref.lock);
      continue;
    }
    lookup_.AddVersion(*version);
    const PartitionedTable& snapshot = *version->snapshot;
    table_map[ref.ptable] = &snapshot;
    for (std::size_t p = 0; p < snapshot.num_partitions(); ++p) {
      part_map[&ref.ptable->partition(p)] = &snapshot.partition(p);
    }
  }
  if (!table_map.empty()) {
    // Clone before retargeting: callers may retain the original plan
    // (hand-built plans are re-executable), and snapshot pointers are
    // only valid while this read set pins them.
    *plan = ClonePlan(*plan);
    RetargetScans(plan->get(), table_map, part_map);
  }
}

}  // namespace patchindex
