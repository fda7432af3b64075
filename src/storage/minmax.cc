#include "storage/minmax.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace patchindex {

std::vector<RowRange> NormalizeRanges(std::vector<RowRange> ranges) {
  std::sort(ranges.begin(), ranges.end(),
            [](const RowRange& a, const RowRange& b) {
              return a.begin < b.begin;
            });
  std::vector<RowRange> out;
  for (const RowRange& r : ranges) {
    if (r.begin >= r.end) continue;
    if (!out.empty() && r.begin <= out.back().end) {
      out.back().end = std::max(out.back().end, r.end);
    } else {
      out.push_back(r);
    }
  }
  return out;
}

MinMaxIndex::MinMaxIndex(const Column& column, std::uint64_t block_size)
    : block_size_(block_size), num_rows_(0) {
  PIDX_CHECK(block_size >= 1);
  ExtendFromColumn(column);
}

std::vector<RowRange> MinMaxIndex::PruneRanges(std::int64_t lo,
                                               std::int64_t hi) const {
  std::vector<RowRange> out;
  for (std::uint64_t b = 0; b < num_blocks(); ++b) {
    if (maxs_[b] < lo || mins_[b] > hi) continue;
    const RowId begin = b * block_size_;
    const RowId end = std::min<RowId>(num_rows_, begin + block_size_);
    if (!out.empty() && out.back().end == begin) {
      out.back().end = end;  // coalesce adjacent blocks
    } else {
      out.push_back({begin, end});
    }
  }
  return out;
}

void MinMaxIndex::ExtendFromColumn(const Column& column) {
  PIDX_CHECK(column.type() == ColumnType::kInt64);
  PIDX_CHECK(column.size() >= num_rows_);
  const auto& data = column.i64_data();
  const std::uint64_t new_rows = column.size();
  const std::uint64_t nblocks = (new_rows + block_size_ - 1) / block_size_;
  mins_.resize(nblocks, std::numeric_limits<std::int64_t>::max());
  maxs_.resize(nblocks, std::numeric_limits<std::int64_t>::min());
  // Block at a time: the inner loop is a plain min/max reduction with no
  // per-row division (which dominated the build cost).
  for (std::uint64_t begin = num_rows_; begin < new_rows;) {
    const std::uint64_t b = begin / block_size_;
    const std::uint64_t end = std::min(new_rows, (b + 1) * block_size_);
    std::int64_t lo = mins_[b];
    std::int64_t hi = maxs_[b];
    for (std::uint64_t i = begin; i < end; ++i) {
      lo = std::min(lo, data[i]);
      hi = std::max(hi, data[i]);
    }
    mins_[b] = lo;
    maxs_[b] = hi;
    begin = end;
  }
  num_rows_ = new_rows;
}

void MinMaxIndex::WidenForValue(RowId row, std::int64_t value) {
  PIDX_CHECK(row < num_rows_);
  const std::uint64_t b = row / block_size_;
  mins_[b] = std::min(mins_[b], value);
  maxs_[b] = std::max(maxs_[b], value);
}

double MinMaxIndex::Selectivity(std::int64_t lo, std::int64_t hi) const {
  if (num_rows_ == 0) return 0.0;
  std::uint64_t kept = 0;
  for (const RowRange& r : PruneRanges(lo, hi)) kept += r.end - r.begin;
  return static_cast<double>(kept) / static_cast<double>(num_rows_);
}

}  // namespace patchindex
