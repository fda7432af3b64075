#include "patchindex/nuc_constraint.h"

#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/expression.h"
#include "exec/hash_join.h"
#include "exec/project.h"
#include "exec/reuse.h"
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
///     side, DRP-pruned through the column's block summary, `stale` rows
///     excluded by the fused patch filter);
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

  // Probe side: the base column with dynamic range propagation from the
  // join build phase over the column's block summary, held until the
  // query is done. The summary bounds exactly the base values probed.
  ScanOptions popt;
  popt.append_rowid_column = true;
  popt.patch_filter = stale;
  DynamicRangePtr range;
  std::shared_ptr<const MinMaxIndex> summary;
  if (use_drp) {
    summary = table.column(column).BlockSummary();
    range = MakeDynamicRange();
    popt.dynamic_range = range;
    popt.minmax = summary.get();
  }
  auto probe = std::make_unique<ScanOperator>(
      table, std::vector<std::size_t>{column}, popt);
  ScanOperator* probe_raw = probe.get();

  HashJoinOptions jopt;
  jopt.publish_build_range = range;
  auto join = std::make_unique<HashJoinOperator>(
      std::make_unique<InMemorySource>(std::move(delta)), std::move(probe),
      /*build_key=*/0, /*probe_key=*/0, jopt);

  // Output layout: [probe_value, probe_rowid, build_value, build_rowid].
  // Intermediate result caching: materialize the join once, project the
  // probe-side rowIDs from the cache and the build-side rowIDs from the
  // ReuseLoad replay.
  auto buffer = MakeReuseBuffer();
  auto cache = std::make_unique<ReuseCacheOperator>(std::move(join), buffer);
  ProjectOperator probe_rowids(std::move(cache), {Col(1)});
  Batch probe_side = Collect(probe_rowids);

  ProjectOperator build_rowids(
      std::make_unique<ReuseLoadOperator>(
          buffer, std::vector<ColumnType>(4, ColumnType::kInt64)),
      {Col(3)});
  Batch build_side = Collect(build_rowids);

  for (std::int64_t rid : probe_side.columns[0].i64) {
    patches->MarkPatch(static_cast<RowId>(rid));
  }
  for (std::int64_t rid : build_side.columns[0].i64) {
    patches->MarkPatch(static_cast<RowId>(rid));
  }
  if (scan_fraction != nullptr) {
    *scan_fraction = probe_raw->effective_base_fraction();
  }
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
