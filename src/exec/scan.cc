#include "exec/scan.h"

#include <algorithm>

#include "common/check.h"

namespace patchindex {

ScanOperator::ScanOperator(const Table& table,
                           std::vector<std::size_t> column_indices,
                           ScanOptions options)
    : table_(table), cols_(std::move(column_indices)), options_(options) {
  for (std::size_t c : cols_) PIDX_CHECK(c < table.schema().num_fields());
}

std::vector<ColumnType> ScanOperator::OutputTypes() const {
  std::vector<ColumnType> types;
  types.reserve(cols_.size() + 1);
  for (std::size_t c : cols_) types.push_back(table_.schema().field(c).type);
  if (options_.append_rowid_column) types.push_back(ColumnType::kInt64);
  return types;
}

void ScanOperator::Open() {
  effective_ranges_.clear();
  if (options_.dynamic_range && options_.minmax) {
    // Dynamic range propagation: the range was published by a join build
    // phase that ran before this Open(). An invalid range means the build
    // side was empty: no base row can have a join partner, so scan no
    // base blocks at all.
    if (options_.dynamic_range->valid) {
      effective_ranges_ = options_.minmax->PruneRanges(
          options_.dynamic_range->lo, options_.dynamic_range->hi);
    }
  } else if (!options_.ranges.empty()) {
    effective_ranges_ = options_.ranges;
  } else {
    effective_ranges_.push_back({0, table_.num_rows()});
  }
  range_idx_ = 0;
  base_pos_ = effective_ranges_.empty() ? 0 : effective_ranges_[0].begin;
}

double ScanOperator::effective_base_fraction() const {
  const std::uint64_t total = table_.num_rows();
  if (total == 0) return 1.0;
  std::uint64_t covered = 0;
  for (const RowRange& r : effective_ranges_) covered += r.end - r.begin;
  return static_cast<double>(covered) / static_cast<double>(total);
}

void ScanOperator::CopyRange(RowId begin, RowId end, Batch* out) const {
  if (begin >= end) return;
  for (std::size_t i = 0; i < cols_.size(); ++i) {
    out->columns[i].AppendRange(table_.column(cols_[i]), begin, end);
  }
  const std::uint64_t off = options_.row_id_offset;
  if (options_.append_rowid_column) {
    auto& rid_col = out->columns[cols_.size()].i64;
    for (RowId r = begin; r < end; ++r) {
      rid_col.push_back(static_cast<std::int64_t>(r + off));
    }
  }
  for (RowId r = begin; r < end; ++r) out->row_ids.push_back(r + off);
}

bool ScanOperator::Next(Batch* out) {
  out->Reset(OutputTypes());
  // Vector-at-a-time (X100): every range is copied as column slices. The
  // PatchIndex scan's selection is merged here: the gaps between patches
  // are still bulk slices.
  while (out->num_rows() < kBatchSize &&
         range_idx_ < effective_ranges_.size()) {
    const RowRange& range = effective_ranges_[range_idx_];
    if (base_pos_ >= range.end) {
      ++range_idx_;
      if (range_idx_ < effective_ranges_.size()) {
        base_pos_ = effective_ranges_[range_idx_].begin;
      }
      continue;
    }
    const RowId begin = base_pos_;
    const RowId end =
        std::min<RowId>(range.end, begin + (kBatchSize - out->num_rows()));
    base_pos_ = end;
    const RowIdFilter* filter = options_.patch_filter;
    if (filter == nullptr) {
      CopyRange(begin, end, out);
      continue;
    }
    const RowId patch_end = std::min<RowId>(end, filter->NumRows());
    if (options_.patch_mode == PatchSelectMode::kExcludePatches) {
      RowId cur = begin;
      filter->ForEachPatchInRange(begin, patch_end, [&](RowId p) {
        CopyRange(cur, p, out);
        cur = p + 1;
      });
      CopyRange(cur, end, out);
    } else {
      filter->ForEachPatchInRange(
          begin, patch_end, [&](RowId p) { CopyRange(p, p + 1, out); });
    }
  }
  return out->num_rows() > 0;
}

}  // namespace patchindex
