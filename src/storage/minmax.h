#ifndef PATCHINDEX_STORAGE_MINMAX_H_
#define PATCHINDEX_STORAGE_MINMAX_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "storage/column.h"

namespace patchindex {

/// A contiguous row range [begin, end).
struct RowRange {
  RowId begin;
  RowId end;

  friend bool operator==(const RowRange& a, const RowRange& b) {
    return a.begin == b.begin && a.end == b.end;
  }
};

/// Small Materialized Aggregates (Moerkotte [22]) over an INT64 column:
/// per block of consecutive tuples, the minimum and maximum value. Scans
/// evaluate selection predicates against the block bounds and skip blocks
/// that cannot contain qualifying tuples. The paper's insert handling
/// uses them for *range propagation* (§5.1): the delta's value range
/// prunes the join's probe-side full-table scan down to candidate
/// blocks. Every INT64 column carries bounds for its own storage blocks
/// (Column::BlockSummary), which serve both uses.
class MinMaxIndex {
 public:
  /// Bounds over fixed-size blocks of `block_size` rows, computed from
  /// the column's rows.
  MinMaxIndex(const Column& column, std::uint64_t block_size);

  /// Bounds of blocks that start at the ascending rows `starts` (the
  /// first is 0) and together hold `num_rows` rows.
  MinMaxIndex(std::vector<RowId> starts, std::vector<std::int64_t> mins,
              std::vector<std::int64_t> maxs, std::uint64_t num_rows);

  std::uint64_t num_blocks() const { return mins_.size(); }
  std::uint64_t num_rows() const { return num_rows_; }

  std::int64_t BlockMin(std::uint64_t b) const { return mins_[b]; }
  std::int64_t BlockMax(std::uint64_t b) const { return maxs_[b]; }

  /// Rows [begin, end) of block `b`.
  RowRange BlockRange(std::uint64_t b) const {
    return {starts_[b], b + 1 < starts_.size() ? starts_[b + 1] : num_rows_};
  }

  /// The block holding `row` (< num_rows()).
  std::uint64_t BlockOf(RowId row) const;

  /// Number of blocks that overlap `range`.
  std::uint64_t BlocksOverlapping(RowRange range) const;

  /// Row ranges whose blocks may contain values in [lo, hi], with adjacent
  /// qualifying blocks coalesced. The fraction of rows skipped is the I/O
  /// saving the paper's DRP experiment relies on.
  std::vector<RowRange> PruneRanges(std::int64_t lo, std::int64_t hi) const;

 private:
  std::uint64_t num_rows_;
  std::vector<RowId> starts_;
  std::vector<std::int64_t> mins_;
  std::vector<std::int64_t> maxs_;
};

}  // namespace patchindex

#endif  // PATCHINDEX_STORAGE_MINMAX_H_
