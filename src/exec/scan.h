#ifndef PATCHINDEX_EXEC_SCAN_H_
#define PATCHINDEX_EXEC_SCAN_H_

#include <cstdint>
#include <vector>

#include "exec/operator.h"
#include "exec/range_propagation.h"
#include "exec/row_filter.h"
#include "storage/minmax.h"
#include "storage/table.h"

namespace patchindex {

/// Which tuples a table scan produces.
enum class ScanSource {
  /// Base rows minus pending PDT deletes, with pending modifies applied,
  /// followed by pending inserts ("the actual table including inserted
  /// values", paper §5.1).
  kVisible,
  /// Base rows only, ignoring the PDT.
  kBaseOnly,
  /// Only the pending PDT inserts ("scanning the inserted values is
  /// realized by scanning the PDTs of the current query", §5.1). Emitted
  /// rowIDs are the positions the rows will occupy after checkpoint.
  kInsertsOnly,
};

struct ScanOptions {
  ScanSource source = ScanSource::kVisible;

  /// Static range propagation: restricts the scan to these base-row
  /// ranges (empty = full table). Pending inserts are always scanned
  /// unless `scan_inserts` is false.
  std::vector<RowRange> ranges;

  /// When false, a kVisible scan emits only base rows and skips the
  /// pending PDT inserts. The morsel-driven executor partitions the base
  /// rows into ranges scanned by many workers and gives the pending
  /// inserts a dedicated kInsertsOnly morsel — without this flag every
  /// worker would re-emit the inserts. Ignored for kInsertsOnly.
  bool scan_inserts = true;

  /// Dynamic range propagation: when set together with `minmax`, the scan
  /// resolves `ranges` at Open() time by pruning blocks against the
  /// published key range (paper §5.1, Figure 5 "DRP"). Ranges listed in
  /// `ranges` are scanned in addition to the pruning result.
  DynamicRangePtr dynamic_range;
  const MinMaxIndex* minmax = nullptr;

  /// Appends the rowID of each tuple as an extra INT64 output column, so
  /// downstream operators can compute on it (the update-handling queries
  /// project and compare rowIDs of join sides).
  bool append_rowid_column = false;

  /// Added to every emitted rowID (row_ids and the appended rowID
  /// column). A scan of one partition of a PartitionedTable sets this to
  /// the partition's global base so rowIDs are table-global; patch
  /// filters still see partition-local positions (the filter is applied
  /// before the offset). 0 for plain tables.
  std::uint64_t row_id_offset = 0;

  /// PatchIndex scan (paper §3.3): merge the patch information on-the-fly
  /// into the scan, emitting either only constraint-satisfying tuples
  /// (kExcludePatches) or only the exceptions (kUsePatches). Fused into
  /// the scan so the gaps between patches move as bulk column slices.
  /// Rows beyond the filter's domain (pending inserts not yet covered by
  /// the index) are treated as non-patches.
  const RowIdFilter* patch_filter = nullptr;
  PatchSelectMode patch_mode = PatchSelectMode::kExcludePatches;
};

/// Vectorized table scan producing the requested columns plus rowIDs.
class ScanOperator : public Operator {
 public:
  ScanOperator(const Table& table, std::vector<std::size_t> column_indices,
               ScanOptions options = {});

  std::vector<ColumnType> OutputTypes() const override;

  void Open() override;
  bool Next(Batch* out) override;

  /// Fraction of base rows covered by the effective ranges after Open()
  /// (1.0 without pruning). Exposed for the DRP experiments.
  double effective_base_fraction() const;

 private:
  bool EmitBaseRows(Batch* out);
  bool EmitInsertRows(Batch* out);

  const Table& table_;
  std::vector<std::size_t> cols_;
  ScanOptions options_;

  // Iteration state.
  std::vector<RowRange> effective_ranges_;
  std::size_t range_idx_ = 0;
  RowId base_pos_ = 0;        // next base row within current range
  std::size_t delete_idx_ = 0;  // cursor into sorted PDT deletes
  std::size_t insert_pos_ = 0;  // next pending insert
  bool base_done_ = false;
};

}  // namespace patchindex

#endif  // PATCHINDEX_EXEC_SCAN_H_
