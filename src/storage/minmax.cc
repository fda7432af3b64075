#include "storage/minmax.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace patchindex {

MinMaxIndex::MinMaxIndex(const Column& column, std::uint64_t block_size)
    : num_rows_(column.size()) {
  PIDX_CHECK(block_size >= 1);
  PIDX_CHECK(column.type() == ColumnType::kInt64);
  for (RowId begin = 0; begin < num_rows_; begin += block_size) {
    std::int64_t lo = std::numeric_limits<std::int64_t>::max();
    std::int64_t hi = std::numeric_limits<std::int64_t>::min();
    column.ForEachSpan<std::int64_t>(
        begin, std::min(num_rows_, begin + block_size),
        [&](const std::int64_t* cells, std::size_t n) {
          for (std::size_t i = 0; i < n; ++i) {
            lo = std::min(lo, cells[i]);
            hi = std::max(hi, cells[i]);
          }
        });
    starts_.push_back(begin);
    mins_.push_back(lo);
    maxs_.push_back(hi);
  }
}

MinMaxIndex::MinMaxIndex(std::vector<RowId> starts,
                         std::vector<std::int64_t> mins,
                         std::vector<std::int64_t> maxs,
                         std::uint64_t num_rows)
    : num_rows_(num_rows),
      starts_(std::move(starts)),
      mins_(std::move(mins)),
      maxs_(std::move(maxs)) {
  PIDX_CHECK(starts_.size() == mins_.size() && mins_.size() == maxs_.size());
}

std::uint64_t MinMaxIndex::BlockOf(RowId row) const {
  PIDX_DCHECK(row < num_rows_);
  return static_cast<std::uint64_t>(
             std::upper_bound(starts_.begin(), starts_.end(), row) -
             starts_.begin()) -
         1;
}

std::uint64_t MinMaxIndex::BlocksOverlapping(RowRange range) const {
  if (range.begin >= range.end) return 0;
  return BlockOf(range.end - 1) - BlockOf(range.begin) + 1;
}

std::vector<RowRange> MinMaxIndex::PruneRanges(std::int64_t lo,
                                               std::int64_t hi) const {
  std::vector<RowRange> out;
  for (std::uint64_t b = 0; b < num_blocks(); ++b) {
    if (maxs_[b] < lo || mins_[b] > hi) continue;
    const RowRange block = BlockRange(b);
    if (!out.empty() && out.back().end == block.begin) {
      out.back().end = block.end;  // coalesce adjacent blocks
    } else {
      out.push_back(block);
    }
  }
  return out;
}

}  // namespace patchindex
