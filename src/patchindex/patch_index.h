#ifndef PATCHINDEX_PATCHINDEX_PATCH_INDEX_H_
#define PATCHINDEX_PATCHINDEX_PATCH_INDEX_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "exec/row_filter.h"
#include "patchindex/patch_set.h"
#include "storage/table.h"

namespace patchindex {

/// The approximate constraints supported out of the box (paper §3.1); the
/// structure is generic — further constraints plug in via the same
/// PatchSet + update-handler shape (§5.5).
enum class ConstraintKind {
  kNearlyUnique,    // NUC
  kNearlySorted,    // NSC
  kNearlyConstant,  // NCC — the §7 future-work extension, demonstrating
                    // the §5.5 expandability of the generic design
};

struct PatchIndexOptions {
  PatchSetDesign design = PatchSetDesign::kBitmap;
  ShardedBitmapOptions bitmap_options;

  /// NSC only: the materialized sort order.
  bool ascending = true;

  /// NUC only: propagate the delta's key range into the probe scan of the
  /// insert/modify handling query (§5.1), pruning it through the column's
  /// block summary (Column::BlockSummary) to avoid the full table scan.
  /// The Fig. 5 query still works without it — it just scans everything.
  bool use_dynamic_range_propagation = true;

  /// When the exception rate exceeds this threshold after an update, the
  /// index is globally recomputed (the paper suggests this as the answer
  /// to the gradual optimality loss of §5.1/§5.3). 1.0 disables it.
  double recompute_threshold = 1.0;

  /// Test support: invoked at the start of HandleUpdateQuery (phase
  /// "handle") and AfterCheckpoint (phase "after"); a non-OK return is
  /// surfaced as that phase's failure. Lets tests drive the commit
  /// protocol's partial-failure handling (broken indexes must be dropped,
  /// never left stale) without corrupting real constraint state.
  std::function<Status(const char* phase)> maintenance_fault_hook;
};

/// Snapshot of a PatchIndex's materialized state, used by checkpoint
/// persistence (§3.4).
struct PatchIndexState {
  ConstraintKind constraint = ConstraintKind::kNearlyUnique;
  std::size_t column = 0;
  std::uint64_t num_rows = 0;
  std::vector<RowId> patches;  // sorted ascending
  bool has_tail = false;       // NSC
  std::int64_t tail_value = 0;
  bool has_constant = false;   // NCC
  std::int64_t constant_value = 0;
};

/// A PatchIndex: materialized exceptions to an approximate constraint on
/// one column of one table (partition). Provides the RowIdFilter the
/// PatchIndex scan consumes, and the §5 update handling that keeps the
/// exception set consistent under insert/modify/delete queries without
/// index recomputation or full-table scans.
class PatchIndex : public RowIdFilter {
 public:
  /// Builds the index: runs constraint discovery over the column and
  /// materializes the patches. The table must have no pending deltas.
  static std::unique_ptr<PatchIndex> Create(const Table& table,
                                            std::size_t column,
                                            ConstraintKind constraint,
                                            PatchIndexOptions options = {});

  /// Restores an index from a checkpointed state without re-running
  /// discovery (§3.4). Fails when the state's cardinality does not match
  /// the table.
  static Result<std::unique_ptr<PatchIndex>> Restore(
      const Table& table, const PatchIndexState& state,
      PatchIndexOptions options = {});

  /// Snapshot of the materialized state (for checkpointing).
  PatchIndexState ExportState() const;

  /// Immutable copy bound to `table` (an MVCC snapshot of this index's
  /// table, with identical row cardinality): deep-copies the patch set
  /// and constraint state so the clone is unaffected by future updates to
  /// this index. Clones serve reads only — they never run the update
  /// protocol. Caller must hold the table's writer lock so the state
  /// copied is a committed one.
  std::unique_ptr<PatchIndex> CloneForSnapshot(const Table& table) const;

  // RowIdFilter:
  std::uint64_t NumRows() const override { return patches_->NumRows(); }
  std::uint64_t NumPatches() const override { return patches_->NumPatches(); }
  bool IsPatch(RowId row) const override { return patches_->IsPatch(row); }
  void ForEachPatchInRange(
      RowId begin, RowId end,
      const std::function<void(RowId)>& fn) const override {
    patches_->ForEachPatchInRange(begin, end, fn);
  }

  const PatchSet& patches() const { return *patches_; }
  ConstraintKind constraint() const { return constraint_; }
  std::size_t column() const { return column_; }
  const Table& table() const { return *table_; }
  double exception_rate() const { return patches_->exception_rate(); }
  bool ascending() const { return options_.ascending; }

  /// NSC: last value of the materialized sorted subsequence.
  std::int64_t tail_value() const { return tail_value_; }
  bool has_tail() const { return has_tail_; }

  /// NCC: the materialized constant (all non-patch rows hold it).
  std::int64_t constant_value() const { return constant_value_; }
  bool has_constant() const { return has_constant_; }

  /// Processes the update query currently buffered in the table's PDT
  /// (before Table::Checkpoint()). The PDT must contain at most one kind
  /// of delta — one SQL statement inserts, modifies or deletes, never a
  /// mix (paper §5, Table 1); PatchIndexManager's commit entry points
  /// reject a mix before any index runs, and this does not check again.
  Status HandleUpdateQuery();

  /// Call after Table::Checkpoint(): triggers a global recomputation if
  /// the exception rate crossed the configured threshold.
  Status AfterCheckpoint();

  /// Drops the patch set and re-runs discovery (the "global
  /// recomputation" escape hatch).
  Status Recompute();

  std::uint64_t MemoryUsageBytes() const {
    return patches_->MemoryUsageBytes();
  }

  /// Fraction of base rows the last NUC insert/modify handling query
  /// scanned (1.0 without DRP). Exposed for the DRP ablation.
  double last_handled_scan_fraction() const {
    return last_scan_fraction_;
  }

  /// Verifies the constraint invariant: the column restricted to non-patch
  /// rows satisfies the constraint (unique / sorted). O(n); test support.
  bool CheckInvariant() const;

 private:
  PatchIndex(const Table& table, std::size_t column, ConstraintKind kind,
             PatchIndexOptions options);

  Status HandleInsert();
  Status HandleModify();
  Status HandleDelete();

  const Table* table_;
  std::size_t column_;
  ConstraintKind constraint_;
  PatchIndexOptions options_;
  std::unique_ptr<PatchSet> patches_;

  // NSC state: tail of the materialized sorted subsequence.
  std::int64_t tail_value_ = 0;
  bool has_tail_ = false;

  // NCC state: the constant all non-patch rows hold.
  std::int64_t constant_value_ = 0;
  bool has_constant_ = false;

  // NUC state: base-row fraction the last handling query scanned.
  double last_scan_fraction_ = 1.0;
};

}  // namespace patchindex

#endif  // PATCHINDEX_PATCHINDEX_PATCH_INDEX_H_
