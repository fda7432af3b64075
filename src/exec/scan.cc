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
    // phase that ran before this Open().
    if (options_.dynamic_range->valid) {
      effective_ranges_ = options_.minmax->PruneRanges(
          options_.dynamic_range->lo, options_.dynamic_range->hi);
    }
    // An invalid range means the build side was empty: no base row can
    // have a join partner, so scan no base blocks at all. Statically
    // requested ranges are scanned in addition (e.g. blocks containing
    // modified rows, whose new values the minmax bounds may not cover).
    if (!options_.ranges.empty()) {
      for (const RowRange& r : options_.ranges) effective_ranges_.push_back(r);
      effective_ranges_ = NormalizeRanges(std::move(effective_ranges_));
    }
  } else if (!options_.ranges.empty()) {
    effective_ranges_ = options_.ranges;
  } else {
    effective_ranges_.push_back({0, table_.num_rows()});
  }
  range_idx_ = 0;
  base_pos_ = effective_ranges_.empty() ? 0 : effective_ranges_[0].begin;
  // Anchor the delete cursor at the first range's start (as range
  // transitions already do): a morsel scan starting deep into the table
  // would otherwise walk every preceding pending delete linearly.
  const auto& deletes = table_.pdt().deletes();
  delete_idx_ = static_cast<std::size_t>(
      std::lower_bound(deletes.begin(), deletes.end(), base_pos_) -
      deletes.begin());
  insert_pos_ = 0;
  base_done_ = options_.source == ScanSource::kInsertsOnly ||
               effective_ranges_.empty();
}

double ScanOperator::effective_base_fraction() const {
  const std::uint64_t total = table_.num_rows();
  if (total == 0) return 1.0;
  std::uint64_t covered = 0;
  for (const RowRange& r : effective_ranges_) covered += r.end - r.begin;
  return static_cast<double>(covered) / static_cast<double>(total);
}

bool ScanOperator::Next(Batch* out) {
  out->Reset(OutputTypes());
  if (!base_done_ && EmitBaseRows(out)) return true;
  base_done_ = true;
  const bool want_inserts =
      options_.source == ScanSource::kInsertsOnly ||
      (options_.source == ScanSource::kVisible && options_.scan_inserts);
  if (want_inserts && EmitInsertRows(out)) {
    return true;
  }
  return out->num_rows() > 0;
}

bool ScanOperator::EmitBaseRows(Batch* out) {
  const auto& deletes = table_.pdt().deletes();
  const auto& modifies = table_.pdt().modifies();
  const bool visible = options_.source == ScanSource::kVisible;
  const std::uint64_t off = options_.row_id_offset;

  // Copies base rows [begin, end) as column slices, one block segment at
  // a time — vector-at-a-time scanning as in X100. Their rowIDs are the
  // base positions minus `shift` (the pending deletes before them).
  auto copy_range = [&](RowId begin, RowId end, std::uint64_t shift) {
    if (begin >= end) return;
    for (std::size_t i = 0; i < cols_.size(); ++i) {
      out->columns[i].AppendRange(table_.column(cols_[i]), begin, end);
    }
    if (options_.append_rowid_column) {
      auto& rid_col = out->columns[cols_.size()].i64;
      for (RowId r = begin; r < end; ++r) {
        rid_col.push_back(static_cast<std::int64_t>(r - shift + off));
      }
    }
    for (RowId r = begin; r < end; ++r) out->row_ids.push_back(r - shift + off);
  };

  // Fast path (the common read-only case): no pending deltas to merge, so
  // every range is copied as slices. The PatchIndex scan's selection is
  // merged here: the gaps between patches are still bulk slices.
  if (deletes.empty() && modifies.empty()) {
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
      const RowId end = std::min<RowId>(
          range.end, begin + (kBatchSize - out->num_rows()));
      base_pos_ = end;
      if (options_.patch_filter == nullptr) {
        copy_range(begin, end, 0);
      } else if (options_.patch_mode == PatchSelectMode::kExcludePatches) {
        RowId cur = begin;
        options_.patch_filter->ForEachPatchInRange(
            begin, end, [&](RowId p) {
              copy_range(cur, p, 0);
              cur = p + 1;
            });
        copy_range(cur, end, 0);
      } else {
        options_.patch_filter->ForEachPatchInRange(
            begin, end, [&](RowId p) { copy_range(p, p + 1, 0); });
      }
    }
    return out->num_rows() >= kBatchSize;
  }

  // Pending-delta path: rows with a pending delete or modify (and every
  // row under a patch filter) are merged one at a time; the runs of rows
  // between them are still copied as slices.
  while (out->num_rows() < kBatchSize && range_idx_ < effective_ranges_.size()) {
    const RowRange& range = effective_ranges_[range_idx_];
    if (base_pos_ >= range.end) {
      ++range_idx_;
      if (range_idx_ < effective_ranges_.size()) {
        base_pos_ = effective_ranges_[range_idx_].begin;
        // Re-anchor the delete cursor for the new range start.
        delete_idx_ = static_cast<std::size_t>(
            std::lower_bound(deletes.begin(), deletes.end(), base_pos_) -
            deletes.begin());
      }
      continue;
    }
    const RowId b = base_pos_;
    if (visible) {
      while (delete_idx_ < deletes.size() && deletes[delete_idx_] < b) {
        ++delete_idx_;
      }
    }
    if (options_.patch_filter == nullptr) {
      RowId run_end = std::min<RowId>(
          range.end, b + (kBatchSize - out->num_rows()));
      if (visible) {
        if (delete_idx_ < deletes.size()) {
          run_end = std::min<RowId>(run_end, deletes[delete_idx_]);
        }
        const auto next_modify = modifies.lower_bound(b);
        if (next_modify != modifies.end()) {
          run_end = std::min<RowId>(run_end, next_modify->first);
        }
      }
      if (run_end > b) {
        copy_range(b, run_end, visible ? delete_idx_ : 0);
        base_pos_ = run_end;
        continue;
      }
    }
    ++base_pos_;
    if (visible && delete_idx_ < deletes.size() && deletes[delete_idx_] == b) {
      continue;  // row pending deletion
    }
    // Visible rowID: base position minus preceding deletes.
    const RowId rid = visible ? b - delete_idx_ : b;
    if (options_.patch_filter != nullptr) {
      const bool is_patch = rid < options_.patch_filter->NumRows() &&
                            options_.patch_filter->IsPatch(rid);
      const bool want = options_.patch_mode == PatchSelectMode::kUsePatches;
      if (is_patch != want) continue;
    }
    const auto mit = (visible && !modifies.empty()) ? modifies.find(b)
                                                    : modifies.end();
    for (std::size_t i = 0; i < cols_.size(); ++i) {
      const std::size_t c = cols_[i];
      if (mit != modifies.end()) {
        auto cit = mit->second.find(c);
        if (cit != mit->second.end()) {
          out->columns[i].AppendValue(cit->second);
          continue;
        }
      }
      out->columns[i].AppendFromColumn(table_.column(c), b);
    }
    if (options_.append_rowid_column) {
      out->columns[cols_.size()].i64.push_back(
          static_cast<std::int64_t>(rid + off));
    }
    out->row_ids.push_back(rid + off);
  }
  return out->num_rows() >= kBatchSize;
}

bool ScanOperator::EmitInsertRows(Batch* out) {
  const auto& inserts = table_.pdt().inserts();
  const RowId surviving = table_.num_rows() - table_.pdt().deletes().size();
  while (out->num_rows() < kBatchSize && insert_pos_ < inserts.size()) {
    const Row& row = inserts[insert_pos_];
    const RowId pending_rid = surviving + insert_pos_;
    if (options_.patch_filter != nullptr) {
      // Rows beyond the filter's domain count as non-patches.
      const bool is_patch =
          pending_rid < options_.patch_filter->NumRows() &&
          options_.patch_filter->IsPatch(pending_rid);
      if (is_patch !=
          (options_.patch_mode == PatchSelectMode::kUsePatches)) {
        ++insert_pos_;
        continue;
      }
    }
    for (std::size_t i = 0; i < cols_.size(); ++i) {
      out->columns[i].AppendValue(row.cells[cols_[i]]);
    }
    const RowId rid = pending_rid + options_.row_id_offset;
    if (options_.append_rowid_column) {
      out->columns[cols_.size()].i64.push_back(static_cast<std::int64_t>(rid));
    }
    out->row_ids.push_back(rid);
    ++insert_pos_;
  }
  return out->num_rows() >= kBatchSize;
}

}  // namespace patchindex
