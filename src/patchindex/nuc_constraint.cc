#include "patchindex/nuc_constraint.h"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/hash_join.h"
#include "exec/scan.h"

namespace patchindex::internal {

namespace {

/// The Figure 5 query for one delta. `delta` holds the delta tuples as
/// [new value, rowid]; `stale` (may be null) lists the base rows whose
/// value on `column` a pending modify replaces. Every delta row whose new
/// value collides — with a base row or with another delta row — is
/// marked in `patches`, together with the rows it collides with.
///
/// A commit's PDT holds one delta kind, so the base column already holds
/// the committed value of every row outside the delta; a `stale` row's
/// committed value is its new value in the delta. The query therefore
/// has two parts:
///   - the join of the delta (build side) against the base column (probe
///     side, range-pruned through the column's block summary, `stale`
///     rows excluded by the fused patch filter);
///   - a hash map over the delta (at most thousands of rows) finding the
///     values that occur more than once in it.
Status RunDeltaJoin(const Table& table, std::size_t column, Batch delta,
                    const RowIdFilter* stale, bool use_drp,
                    PatchSet* patches, double* scan_fraction) {
  const std::vector<std::int64_t>& values = delta.columns[0].i64;
  const std::vector<std::int64_t>& rowids = delta.columns[1].i64;
  std::unordered_map<std::int64_t, std::uint32_t> counts;
  counts.reserve(values.size());
  for (std::int64_t v : values) ++counts[v];
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (counts[values[i]] > 1) {
      patches->MarkPatch(static_cast<RowId>(rowids[i]));
    }
  }

  // Range propagation: the delta's key range is known before the query
  // runs, so the probe scan is restricted up front to the blocks whose
  // [min, max] meets it. The column's block summary bounds exactly the
  // base values probed.
  ScanOptions popt;
  popt.patch_filter = stale;
  if (use_drp) {
    const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
    popt.ranges = table.column(column).BlockSummary()->PruneRanges(*lo, *hi);
    std::uint64_t covered = 0;
    for (const RowRange& r : popt.ranges) covered += r.end - r.begin;
    if (scan_fraction != nullptr) {
      *scan_fraction =
          static_cast<double>(covered) /
          static_cast<double>(std::max<std::uint64_t>(table.num_rows(), 1));
    }
    // No block can hold a join partner (and empty `ranges` would scan the
    // whole table).
    if (popt.ranges.empty()) return Status::OK();
  } else if (scan_fraction != nullptr) {
    *scan_fraction = 1.0;
  }

  // Output layout: [probe value, build value, build rowid]; the output
  // rowIDs are the probe side's. One pass marks both join sides.
  HashJoinOperator join(
      std::make_unique<InMemorySource>(std::move(delta)),
      std::make_unique<ScanOperator>(table, std::vector<std::size_t>{column},
                                     std::move(popt)),
      /*build_key=*/0, /*probe_key=*/0);
  join.Open();
  Batch out;
  while (join.Next(&out)) {
    for (RowId rid : out.row_ids) patches->MarkPatch(rid);
    for (std::int64_t rid : out.columns[2].i64) {
      patches->MarkPatch(static_cast<RowId>(rid));
    }
  }
  join.Close();
  return Status::OK();
}

Batch EmptyDelta() {
  Batch delta;
  delta.Reset({ColumnType::kInt64, ColumnType::kInt64});
  return delta;
}

void AddDeltaRow(Batch* delta, std::int64_t value, RowId row) {
  delta->columns[0].i64.push_back(value);
  delta->columns[1].i64.push_back(static_cast<std::int64_t>(row));
  delta->row_ids.push_back(row);
}

}  // namespace

Status NucHandleInsert(const Table& table, std::size_t column, bool use_drp,
                       PatchSet* patches, double* scan_fraction) {
  const std::vector<Row>& inserts = table.pdt().inserts();
  if (inserts.empty()) return Status::OK();
  // Build side: the inserted tuples at the rowIDs they take at checkpoint
  // (the PDT holds no deletes, so they append after the base rows).
  Batch delta = EmptyDelta();
  for (std::size_t i = 0; i < inserts.size(); ++i) {
    AddDeltaRow(&delta, inserts[i].cells[column].AsInt64(),
                table.num_rows() + i);
  }
  return RunDeltaJoin(table, column, std::move(delta), /*stale=*/nullptr,
                      use_drp, patches, scan_fraction);
}

Status NucHandleModify(const Table& table, std::size_t column, bool use_drp,
                       PatchSet* patches, double* scan_fraction) {
  // Build side: the modified tuples with their new values. Modifies to
  // other columns do not affect this constraint. Their rows' base values
  // are stale, so the probe skips them.
  Batch delta = EmptyDelta();
  auto stale = PatchSet::Create(PatchSetDesign::kIdentifier, table.num_rows());
  for (const auto& [row, cols] : table.pdt().modifies()) {
    auto it = cols.find(column);
    if (it == cols.end()) continue;
    AddDeltaRow(&delta, it->second.AsInt64(), row);
    stale->MarkPatch(row);  // ascending: modifies are keyed by row
  }
  if (delta.num_rows() == 0) {
    if (scan_fraction != nullptr) *scan_fraction = 0.0;
    return Status::OK();
  }
  return RunDeltaJoin(table, column, std::move(delta), stale.get(), use_drp,
                      patches, scan_fraction);
}

}  // namespace patchindex::internal
