#ifndef PATCHINDEX_EXEC_SCAN_H_
#define PATCHINDEX_EXEC_SCAN_H_

#include <cstdint>
#include <vector>

#include "exec/operator.h"
#include "exec/row_filter.h"
#include "storage/minmax.h"
#include "storage/table.h"

namespace patchindex {

/// What a table scan reads: the base columns of a checkpointed table.
/// Pending PDT deltas are never merged into a scan — queries read
/// published versions, whose PDT is empty (ExecutePlan checks it), and
/// the §5 update handlers read the PDT directly as their delta input.
struct ScanOptions {
  /// Range propagation: restricts the scan to these base-row ranges
  /// (empty = full table).
  std::vector<RowRange> ranges;

  /// Added to every emitted rowID. A scan of one partition of a
  /// PartitionedTable sets this to the partition's global base so rowIDs
  /// are table-global; patch filters still see partition-local positions
  /// (the filter is applied before the offset). 0 for plain tables.
  std::uint64_t row_id_offset = 0;

  /// PatchIndex scan (paper §3.3): merge the patch information on-the-fly
  /// into the scan, emitting either only constraint-satisfying tuples
  /// (kExcludePatches) or only the exceptions (kUsePatches). Fused into
  /// the scan so the gaps between patches move as bulk column slices.
  /// Rows beyond the filter's domain are treated as non-patches.
  const RowIdFilter* patch_filter = nullptr;
  PatchSelectMode patch_mode = PatchSelectMode::kExcludePatches;
};

/// Vectorized scan of a table's base columns, producing the requested
/// columns plus rowIDs (base positions + `row_id_offset`). Row ranges are
/// copied as block-segment slices; a patch filter splits them at patches.
class ScanOperator : public Operator {
 public:
  ScanOperator(const Table& table, std::vector<std::size_t> column_indices,
               ScanOptions options = {});

  std::vector<ColumnType> OutputTypes() const override;

  void Open() override;
  bool Next(Batch* out) override;

 private:
  /// Appends base rows [begin, end) as column slices.
  void CopyRange(RowId begin, RowId end, Batch* out) const;

  const Table& table_;
  std::vector<std::size_t> cols_;
  ScanOptions options_;

  // Iteration state.
  std::vector<RowRange> effective_ranges_;
  std::size_t range_idx_ = 0;
  RowId base_pos_ = 0;  // next base row within current range
};

}  // namespace patchindex

#endif  // PATCHINDEX_EXEC_SCAN_H_
