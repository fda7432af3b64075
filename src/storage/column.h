#ifndef PATCHINDEX_STORAGE_COLUMN_H_
#define PATCHINDEX_STORAGE_COLUMN_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "storage/value.h"

namespace patchindex {

class MinMaxIndex;

/// A typed in-memory column, stored as a vector of shared blocks of at
/// most kSummaryBlockRows rows each, with per-block start offsets — the
/// sharded bitmap's layout (paper §4) applied to column data.
///
/// Copying a column copies block pointers only; the copies then share
/// every block, and each mutator copies a block before writing it if
/// another column still references it (copy-on-write per block). So a
/// modify copies the one block it touches, an append at most the tail
/// block, and a delete compacts inside the touched blocks, drops blocks
/// that become empty and recomputes the later start offsets in one pass:
/// O(block) + O(#blocks), never O(rows). An MVCC snapshot is such a copy
/// (Table::CloneShared).
///
/// Beside each block's start offset the column keeps the block's INT64
/// min/max, set when the block is written and kept exact by every
/// mutator; BlockSummary() copies them out for scan pruning.
class Column {
 public:
  /// Most rows one block holds. Appends fill the tail block to this size
  /// before starting the next one, so a column that never had a delete
  /// has its block b at rows [b * kSummaryBlockRows, ...).
  static constexpr std::uint64_t kSummaryBlockRows = 1024;

  explicit Column(ColumnType type) : type_(type) {}

  ColumnType type() const { return type_; }
  std::uint64_t size() const { return size_; }
  std::uint64_t num_blocks() const { return blocks_.size(); }

  void AppendInt64(std::int64_t v) {
    PIDX_DCHECK(type_ == ColumnType::kInt64);
    AppendTarget().i64.push_back(v);
    mins_.back() = std::min(mins_.back(), v);
    maxs_.back() = std::max(maxs_.back(), v);
  }
  void AppendDouble(double v) {
    PIDX_DCHECK(type_ == ColumnType::kDouble);
    AppendTarget().f64.push_back(v);
  }
  void AppendString(std::string v) {
    PIDX_DCHECK(type_ == ColumnType::kString);
    AppendTarget().str.push_back(std::move(v));
  }
  void Append(const Value& v);

  std::int64_t GetInt64(RowId row) const {
    PIDX_DCHECK(type_ == ColumnType::kInt64 && row < size_);
    const std::size_t b = LocateBlock(row);
    return blocks_[b]->i64[row - starts_[b]];
  }
  double GetDouble(RowId row) const {
    PIDX_DCHECK(type_ == ColumnType::kDouble && row < size_);
    const std::size_t b = LocateBlock(row);
    return blocks_[b]->f64[row - starts_[b]];
  }
  const std::string& GetString(RowId row) const {
    PIDX_DCHECK(type_ == ColumnType::kString && row < size_);
    const std::size_t b = LocateBlock(row);
    return blocks_[b]->str[row - starts_[b]];
  }
  Value Get(RowId row) const;

  void SetInt64(RowId row, std::int64_t v);
  void Set(RowId row, const Value& v);

  /// Deletes the given sorted, unique row positions, compacting the
  /// blocks they fall in and shifting later rows down.
  void DeleteRows(const std::vector<RowId>& sorted_rows);

  /// Calls fn(const T* cells, std::size_t n) for the consecutive block
  /// segments covering rows [begin, end), in row order. T is the column's
  /// cell type (std::int64_t, double or std::string). The sequential
  /// read path: one block lookup per segment, never one per row.
  template <typename T, typename Fn>
  void ForEachSpan(RowId begin, RowId end, Fn&& fn) const {
    PIDX_DCHECK(end <= size_);
    if (begin >= end) return;
    for (std::size_t b = LocateBlock(begin); begin < end; ++b) {
      const std::vector<T>& cells = Cells<T>(*blocks_[b]);
      const std::uint64_t off = begin - starts_[b];
      const std::uint64_t n =
          std::min<std::uint64_t>(cells.size() - off, end - begin);
      fn(cells.data() + off, static_cast<std::size_t>(n));
      begin += n;
    }
  }

  /// The whole column materialized into one vector: O(rows), for cold
  /// callers only (tests, baselines, workload generators). Hot paths walk
  /// ForEachSpan instead.
  std::vector<std::int64_t> i64_data() const {
    return Materialize<std::int64_t>();
  }
  std::vector<double> f64_data() const { return Materialize<double>(); }
  std::vector<std::string> str_data() const {
    return Materialize<std::string>();
  }

  std::uint64_t MemoryUsageBytes() const;

  /// Per-block min/max bounds of an INT64 column, one entry per block:
  /// an O(#blocks) snapshot of the bounds the blocks carry. The returned
  /// summary is immutable; later mutations do not change it.
  std::shared_ptr<const MinMaxIndex> BlockSummary() const;

 private:
  friend class BlockColumnTestPeer;

  /// Up to kSummaryBlockRows cells; exactly one vector is used, selected
  /// by the column's type.
  struct Block {
    std::vector<std::int64_t> i64;
    std::vector<double> f64;
    std::vector<std::string> str;
  };

  template <typename T>
  static const std::vector<T>& Cells(const Block& block) {
    if constexpr (std::is_same_v<T, std::int64_t>) {
      return block.i64;
    } else if constexpr (std::is_same_v<T, double>) {
      return block.f64;
    } else {
      static_assert(std::is_same_v<T, std::string>);
      return block.str;
    }
  }

  template <typename T>
  std::vector<T> Materialize() const {
    std::vector<T> out;
    out.reserve(size_);
    ForEachSpan<T>(0, size_, [&out](const T* cells, std::size_t n) {
      out.insert(out.end(), cells, cells + n);
    });
    return out;
  }

  /// Block holding `row`: starts at row / kSummaryBlockRows (a lower
  /// bound, since blocks never exceed that size and deletes only lower
  /// the start offsets) and moves forward, like ShardedBitmap's
  /// LocateShard. O(1) on a column that never had a delete.
  std::size_t LocateBlock(RowId row) const {
    const std::size_t b = static_cast<std::size_t>(row / kSummaryBlockRows);
    if (b + 1 >= starts_.size() || starts_[b + 1] > row) return b;
    return LocateBlockAfter(row, b + 1);
  }
  std::size_t LocateBlockAfter(RowId row, std::size_t from) const;

  std::uint64_t BlockRows(std::size_t b) const {
    return (b + 1 < starts_.size() ? starts_[b + 1] : size_) - starts_[b];
  }

  /// Block `b`, copied first if another column shares it.
  Block& MutableBlock(std::size_t b);
  /// Counts one more row and returns the block it goes to: the tail if
  /// it has room (copied first if shared), else a new one.
  Block& AppendTarget();
  void ReserveFullBlock(Block& block) const;
  /// Recomputes block `b`'s min/max from its rows (INT64 columns).
  void RecomputeBounds(std::size_t b);

  ColumnType type_;
  std::uint64_t size_ = 0;
  std::vector<std::shared_ptr<Block>> blocks_;
  // Per block: its first row and, for INT64 columns, its value bounds.
  std::vector<RowId> starts_;
  std::vector<std::int64_t> mins_;
  std::vector<std::int64_t> maxs_;
};

}  // namespace patchindex

#endif  // PATCHINDEX_STORAGE_COLUMN_H_
