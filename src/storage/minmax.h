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

/// Sorts ranges by begin and merges overlapping/adjacent ones.
std::vector<RowRange> NormalizeRanges(std::vector<RowRange> ranges);

/// Small Materialized Aggregates (Moerkotte [22]) over an INT64 column:
/// per bucket of `block_size` tuples, the minimum and maximum value. Scans
/// evaluate selection predicates against the bucket bounds and skip
/// buckets that cannot contain qualifying tuples. The paper's insert
/// handling uses them for *dynamic range propagation* (§5.1): after the
/// hash join build phase, the build side's value range prunes the probe
/// side's full-table scan down to candidate blocks. Every INT64 column
/// caches one (Column::BlockSummary), which serves both uses.
class MinMaxIndex {
 public:
  MinMaxIndex(const Column& column, std::uint64_t block_size = 1024);

  std::uint64_t block_size() const { return block_size_; }
  std::uint64_t num_blocks() const { return mins_.size(); }
  std::uint64_t num_rows() const { return num_rows_; }

  std::int64_t BlockMin(std::uint64_t b) const { return mins_[b]; }
  std::int64_t BlockMax(std::uint64_t b) const { return maxs_[b]; }

  /// Row ranges whose blocks may contain values in [lo, hi], with adjacent
  /// qualifying blocks coalesced. The fraction of rows skipped is the I/O
  /// saving the paper's DRP experiment relies on.
  std::vector<RowRange> PruneRanges(std::int64_t lo, std::int64_t hi) const;

  /// Incremental maintenance for appends: extends block bounds to cover
  /// column rows [num_rows(), column.size()).
  void ExtendFromColumn(const Column& column);

 private:
  std::uint64_t block_size_;
  std::uint64_t num_rows_;
  std::vector<std::int64_t> mins_;
  std::vector<std::int64_t> maxs_;
};

}  // namespace patchindex

#endif  // PATCHINDEX_STORAGE_MINMAX_H_
