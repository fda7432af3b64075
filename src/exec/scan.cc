#include "exec/scan.h"

#include <algorithm>

#include "common/check.h"

namespace patchindex {

ScanOperator::ScanOperator(const Table& table,
                           std::vector<std::size_t> column_indices,
                           ScanOptions options)
    : table_(table),
      cols_(std::move(column_indices)),
      options_(std::move(options)) {
  for (std::size_t c : cols_) PIDX_CHECK(c < table.schema().num_fields());
}

std::vector<ColumnType> ScanOperator::OutputTypes() const {
  std::vector<ColumnType> types;
  types.reserve(cols_.size());
  for (std::size_t c : cols_) types.push_back(table_.schema().field(c).type);
  return types;
}

void ScanOperator::Open() {
  effective_ranges_ = options_.ranges;
  if (effective_ranges_.empty()) {
    effective_ranges_.push_back({0, table_.num_rows()});
  }
  range_idx_ = 0;
  base_pos_ = effective_ranges_[0].begin;
}

void ScanOperator::CopyRange(RowId begin, RowId end, Batch* out) const {
  if (begin >= end) return;
  for (std::size_t i = 0; i < cols_.size(); ++i) {
    out->columns[i].AppendRange(table_.column(cols_[i]), begin, end);
  }
  const std::uint64_t off = options_.row_id_offset;
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
