#include "patchindex/patch_set.h"

#include <algorithm>

#include "common/check.h"

namespace patchindex {

std::unique_ptr<PatchSet> PatchSet::Create(PatchSetDesign design,
                                           std::uint64_t num_rows,
                                           ShardedBitmapOptions options) {
  if (design == PatchSetDesign::kBitmap) {
    return std::make_unique<BitmapPatchSet>(num_rows, options);
  }
  return std::make_unique<IdentifierPatchSet>(num_rows);
}

BitmapPatchSet::BitmapPatchSet(std::uint64_t num_rows,
                               ShardedBitmapOptions options)
    : bitmap_(num_rows, options) {}

void BitmapPatchSet::MarkPatch(RowId row) {
  PIDX_CHECK(row < bitmap_.size());
  if (!bitmap_.Get(row)) {
    bitmap_.Set(row);
    ++num_patches_;
  }
}

void BitmapPatchSet::OnDeleteRows(const std::vector<RowId>& sorted_rows) {
  for (RowId r : sorted_rows) {
    if (bitmap_.Get(r)) --num_patches_;
  }
  bitmap_.BulkDelete(sorted_rows);
}

bool IdentifierPatchSet::IsPatch(RowId row) const {
  return std::binary_search(ids_.begin(), ids_.end(), row);
}

void IdentifierPatchSet::ForEachPatchInRange(
    RowId begin, RowId end, const std::function<void(RowId)>& fn) const {
  for (auto it = std::lower_bound(ids_.begin(), ids_.end(), begin);
       it != ids_.end() && *it < end; ++it) {
    fn(*it);
  }
}

void IdentifierPatchSet::MarkPatch(RowId row) {
  PIDX_CHECK(row < num_rows_);
  auto it = std::lower_bound(ids_.begin(), ids_.end(), row);
  if (it != ids_.end() && *it == row) return;
  ids_.insert(it, row);  // keeping the list sorted is the cost the paper
                         // attributes to this design under inserts (§6.2.4)
}

void IdentifierPatchSet::OnDeleteRows(const std::vector<RowId>& sorted_rows) {
  // Single pass: drop deleted identifiers and decrement survivors by the
  // number of deleted rows with smaller rowIDs (paper §5.3).
  std::size_t write = 0;
  std::size_t di = 0;
  for (std::size_t read = 0; read < ids_.size(); ++read) {
    const RowId id = ids_[read];
    while (di < sorted_rows.size() && sorted_rows[di] < id) ++di;
    if (di < sorted_rows.size() && sorted_rows[di] == id) continue;  // dropped
    ids_[write++] = id - di;
  }
  ids_.resize(write);
  num_rows_ -= sorted_rows.size();
}

}  // namespace patchindex
