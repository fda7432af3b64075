#include "patchindex/nuc_constraint.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "exec/expression.h"
#include "exec/hash_join.h"
#include "exec/project.h"
#include "exec/reuse.h"
#include "exec/scan.h"
#include "exec/select.h"

namespace patchindex::internal {

namespace {

/// Blocks of the column summary holding a row with a pending modify on
/// `column`. The summary bounds the base values only, so DRP could prune
/// such a block although the row's new value joins; the probe scans these
/// blocks in addition to the pruning result.
std::vector<RowRange> PendingModifyBlocks(const Table& table,
                                          std::size_t column,
                                          std::uint64_t block_rows) {
  std::vector<RowRange> blocks;
  for (const auto& [row, cols] : table.pdt().modifies()) {
    if (cols.count(column) == 0) continue;
    const RowId begin = row - row % block_rows;
    blocks.push_back({begin, std::min(table.num_rows(), begin + block_rows)});
  }
  return NormalizeRanges(std::move(blocks));
}

/// Shared tail of the Figure 5 query: joins `build` (delta tuples:
/// [value, rowid]) against the visible table scan, drops self-matches,
/// and merges the rowIDs of both join sides into `patches`.
Status RunDeltaJoin(const Table& table, std::size_t column,
                    OperatorPtr build, bool use_drp, PatchSet* patches,
                    double* scan_fraction) {
  // Probe side: the actual table (including pending inserts) with dynamic
  // range propagation from the join build phase over the column's block
  // summary, held until the query is done.
  ScanOptions popt;
  popt.append_rowid_column = true;
  DynamicRangePtr range;
  std::shared_ptr<const MinMaxIndex> summary;
  if (use_drp) {
    summary = table.column(column).BlockSummary();
    range = MakeDynamicRange();
    popt.dynamic_range = range;
    popt.minmax = summary.get();
    popt.ranges = PendingModifyBlocks(table, column, summary->block_size());
  }
  auto probe = std::make_unique<ScanOperator>(
      table, std::vector<std::size_t>{column}, popt);
  ScanOperator* probe_raw = probe.get();

  HashJoinOptions jopt;
  jopt.publish_build_range = range;
  auto join = std::make_unique<HashJoinOperator>(
      std::move(build), std::move(probe), /*build_key=*/0, /*probe_key=*/0,
      jopt);

  // Output layout: [probe_value, probe_rowid, build_value, build_rowid].
  // A tuple joining with itself does not make the column non-unique.
  auto filtered = std::make_unique<SelectOperator>(std::move(join),
                                                   Ne(Col(1), Col(3)));

  // Intermediate result caching: materialize the join once, project the
  // probe-side rowIDs from the cache and the build-side rowIDs from the
  // ReuseLoad replay.
  auto buffer = MakeReuseBuffer();
  auto cache =
      std::make_unique<ReuseCacheOperator>(std::move(filtered), buffer);
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

}  // namespace

Status NucHandleInsert(const Table& table, std::size_t column, bool use_drp,
                       PatchSet* patches, double* scan_fraction) {
  if (table.pdt().inserts().empty()) return Status::OK();
  ScanOptions bopt;
  bopt.source = ScanSource::kInsertsOnly;
  bopt.append_rowid_column = true;
  auto build = std::make_unique<ScanOperator>(
      table, std::vector<std::size_t>{column}, bopt);
  return RunDeltaJoin(table, column, std::move(build), use_drp, patches,
                      scan_fraction);
}

Status NucHandleModify(const Table& table, std::size_t column, bool use_drp,
                       PatchSet* patches, double* scan_fraction) {
  // Build side: the modified tuples with their new values. Modifies to
  // other columns do not affect this constraint.
  Batch delta;
  delta.Reset({ColumnType::kInt64, ColumnType::kInt64});
  for (const auto& [row, cols] : table.pdt().modifies()) {
    auto it = cols.find(column);
    if (it == cols.end()) continue;
    delta.columns[0].i64.push_back(it->second.AsInt64());
    delta.columns[1].i64.push_back(static_cast<std::int64_t>(row));
    delta.row_ids.push_back(row);
  }
  if (delta.num_rows() == 0) {
    if (scan_fraction != nullptr) *scan_fraction = 0.0;
    return Status::OK();
  }
  auto build = std::make_unique<InMemorySource>(std::move(delta));
  return RunDeltaJoin(table, column, std::move(build), use_drp, patches,
                      scan_fraction);
}

}  // namespace patchindex::internal
